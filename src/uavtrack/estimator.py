"""Constant-velocity Kalman filtering and covariance-driven search windows.

State is [px, py, vx, vy] in pixels and pixels/second. Position is measured
directly (unit measurement noise, one pixel of localization uncertainty);
the search window spans three position standard deviations around the
predicted position, padded by half the template canvas so the template fits
anywhere the target center may lie. Missed frames propagate the state
without correction, which grows the covariance and therefore the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidTimestep

if TYPE_CHECKING:
    from .matcher import Detection

DEFAULT_SIGMA = 0.4
DEFAULT_P0_DIAG = (4.0, 4.0, 25.0, 25.0)

_H = np.array([[1.0, 0.0, 0.0, 0.0],
               [0.0, 1.0, 0.0, 0.0]])
_R = np.eye(2)


@dataclass(frozen=True)
class TrackState:
    """Filter state: mean vector, covariance, and bookkeeping."""

    x: np.ndarray
    P: np.ndarray
    sigma: float = DEFAULT_SIGMA
    last_time: float = 0.0
    initialized: bool = False

    @property
    def position(self) -> tuple[float, float]:
        return (float(self.x[0]), float(self.x[1]))

    @property
    def velocity(self) -> tuple[float, float]:
        return (float(self.x[2]), float(self.x[3]))


@dataclass(frozen=True)
class NoiseModel:
    """Per-step matrices: process Jacobian A and process noise Q. The
    measurement Jacobian and noise are fixed (module ``_H`` and ``_R``)."""

    A: np.ndarray
    Q: np.ndarray


@dataclass(frozen=True)
class SearchWindow:
    """Axis-aligned matching region around the predicted position.

    ``half_width``/``half_height`` are the requested extents (3 sigma plus
    half the template canvas); the realized half-open pixel rectangle
    [x0, x1) x [y0, y1) is clamped into the frame, never smaller than the
    template canvas.
    """

    center: tuple[float, float]
    half_width: float
    half_height: float
    clamped: bool
    x0: int
    y0: int
    x1: int
    y1: int

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0


def full_frame_window(frame_width: int, frame_height: int) -> SearchWindow:
    """Window covering the whole frame (initial acquisition)."""
    return SearchWindow(
        center=((frame_width - 1) / 2.0, (frame_height - 1) / 2.0),
        half_width=frame_width / 2.0, half_height=frame_height / 2.0,
        clamped=False, x0=0, y0=0, x1=frame_width, y1=frame_height)


def build_noise(dt: float, sigma: float) -> NoiseModel:
    """Process/measurement matrices for a step of ``dt`` seconds.

    Q uses a single noise scalar on every channel:
        a = dt*sigma + (1/3)*dt^3*sigma   (position diagonal)
        b = 0.5*dt^2*sigma                (position/velocity coupling)
        dt*sigma                          (velocity diagonal)
    """
    if not 0.0 < dt < math.inf:
        raise InvalidTimestep(f"dt must be positive and finite, got {dt}")
    A = np.eye(4)
    A[0, 2] = dt
    A[1, 3] = dt
    a = dt * sigma + (1.0 / 3.0) * dt ** 3 * sigma
    b = 0.5 * dt ** 2 * sigma
    v = dt * sigma
    Q = np.array([[a, 0.0, b, 0.0],
                  [0.0, a, 0.0, b],
                  [b, 0.0, v, 0.0],
                  [0.0, b, 0.0, v]])
    return NoiseModel(A=A, Q=Q)


def init(detection: "Detection", t0: float, sigma: float = DEFAULT_SIGMA,
         P0: np.ndarray | None = None) -> TrackState:
    """Start a track at a detection with zero velocity."""
    if P0 is None:
        P0 = np.diag(DEFAULT_P0_DIAG)
    x = np.array([float(detection.position[0]), float(detection.position[1]),
                  0.0, 0.0])
    return TrackState(x=x, P=np.array(P0, dtype=np.float64), sigma=sigma,
                      last_time=float(t0), initialized=True)


def predict(state: TrackState, t: float) -> TrackState:
    """Propagate to time ``t`` under the constant-velocity model."""
    if not state.initialized:
        raise InvalidTimestep("predict on an uninitialized track")
    if not math.isfinite(t):
        raise InvalidTimestep(f"timestamp must be finite, got {t}")
    dt = t - state.last_time
    if dt <= 0.0:
        raise InvalidTimestep(
            f"timestamps must strictly increase: {state.last_time} -> {t}")
    nm = build_noise(dt, state.sigma)
    x = nm.A @ state.x
    P = nm.A @ state.P @ nm.A.T + nm.Q
    return replace(state, x=x, P=P, last_time=float(t))


def correct(predicted: TrackState, z: tuple[float, float]) -> TrackState:
    """Standard Kalman update with the position measurement ``z``."""
    P = predicted.P
    S = _H @ P @ _H.T + _R
    K = np.linalg.solve(S.T, (P @ _H.T).T).T
    innovation = np.asarray(z, dtype=np.float64) - _H @ predicted.x
    x = predicted.x + K @ innovation
    P_new = (np.eye(4) - K @ _H) @ P
    P_new = 0.5 * (P_new + P_new.T)
    return replace(predicted, x=x, P=P_new)


def search_window(state: TrackState, template_canvas: tuple[int, int],
                  frame_size: tuple[int, int]) -> SearchWindow:
    """3-sigma window around the predicted position, padded by half the
    template canvas and clamped inside the frame."""
    if not state.initialized:
        raise InvalidTimestep("search window requested before initialization")
    cw, ch = template_canvas
    W, H = frame_size
    cx, cy = state.position
    hw = 3.0 * math.sqrt(max(float(state.P[0, 0]), 0.0)) + cw / 2.0
    hh = 3.0 * math.sqrt(max(float(state.P[1, 1]), 0.0)) + ch / 2.0

    x0 = int(math.floor(cx - hw))
    x1 = int(math.ceil(cx + hw)) + 1
    y0 = int(math.floor(cy - hh))
    y1 = int(math.ceil(cy + hh)) + 1

    cx0, cx1 = _clamp_span(x0, x1, cw, W)
    cy0, cy1 = _clamp_span(y0, y1, ch, H)
    clamped = (cx0, cy0, cx1, cy1) != (x0, y0, x1, y1)
    return SearchWindow(center=(cx, cy), half_width=hw, half_height=hh,
                        clamped=clamped, x0=cx0, y0=cy0, x1=cx1, y1=cy1)


def _clamp_span(lo: int, hi: int, min_size: int, limit: int) -> tuple[int, int]:
    """Clamp [lo, hi) into [0, limit), keeping at least min_size if possible."""
    mid = (lo + hi) // 2
    lo, hi = max(0, lo), min(limit, hi)
    if hi - lo < min_size:
        need = min(min_size, limit)
        lo = max(0, min(mid - need // 2, limit - need))
        hi = lo + need
    return lo, hi
