"""Constant-velocity Kalman filtering and covariance-driven search windows.

State is [px, py, vx, vy] in pixels and pixels/second. Position is measured
directly (unit measurement noise, one pixel of localization uncertainty);
the search window spans three position standard deviations around the
predicted position, padded by half the template canvas so the template fits
anywhere the target center may lie. Missed frames propagate the state
without correction, which grows the covariance and therefore the window.

The model never couples x and y, so from a covariance with no cross-axis
term the filter runs exactly as two independent (position, velocity) filters
in scalar closed form (Bar-Shalom, Li & Kirubarajan 2001).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidTimestep

if TYPE_CHECKING:
    from .matcher import Detection


class AxisState(NamedTuple):
    """One image axis of the filter: position, velocity and their covariance
    entries var(pos), cov(pos, vel) and var(vel)."""

    pos: float
    vel: float
    pp: float
    pv: float
    vv: float


@dataclass(frozen=True)
class TrackState:
    """Filter state: one ``AxisState`` per image axis, and bookkeeping."""

    x_axis: AxisState
    y_axis: AxisState
    sigma: float
    last_time: float = 0.0

    @property
    def position(self) -> tuple[float, float]:
        return (self.x_axis.pos, self.y_axis.pos)


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


def _noise_terms(dt: float, sigma: float) -> tuple[float, float, float]:
    """One axis's process noise Q for a step of ``dt`` seconds, from a single
    noise scalar on every channel:
        a = dt*sigma + (1/3)*dt^3*sigma   var(pos)
        b = 0.5*dt^2*sigma                cov(pos, vel)
        dt*sigma                          var(vel)
    """
    return (dt * sigma + (1.0 / 3.0) * dt ** 3 * sigma,
            0.5 * dt ** 2 * sigma,
            dt * sigma)


def init(detection: "Detection", t0: float, sigma: float, p0_pos: float,
         p0_vel: float) -> TrackState:
    """Start a track at a detection with zero velocity, and on each axis
    position variance ``p0_pos``, velocity variance ``p0_vel`` and no
    covariance between them."""
    x, y = (float(c) for c in detection.position)
    pp, vv = float(p0_pos), float(p0_vel)
    return TrackState(x_axis=AxisState(x, 0.0, pp, 0.0, vv),
                      y_axis=AxisState(y, 0.0, pp, 0.0, vv),
                      sigma=sigma, last_time=float(t0))


def _predict_axis(s: AxisState, dt: float, qa: float, qb: float,
                  qv: float) -> AxisState:
    """A s and A P A^T + Q for one axis, A = [[1, dt], [0, 1]]."""
    return AxisState(s.pos + dt * s.vel, s.vel,
                     s.pp + dt * (2.0 * s.pv + dt * s.vv) + qa,
                     s.pv + dt * s.vv + qb,
                     s.vv + qv)


def predict(state: TrackState, t: float) -> TrackState:
    """Propagate to time ``t`` under the constant-velocity model."""
    if not math.isfinite(t):
        raise InvalidTimestep(f"timestamp must be finite, got {t}")
    dt = t - state.last_time
    if dt <= 0.0:
        raise InvalidTimestep(
            f"timestamps must strictly increase: {state.last_time} -> {t}")
    q = _noise_terms(dt, state.sigma)
    return TrackState(x_axis=_predict_axis(state.x_axis, dt, *q),
                      y_axis=_predict_axis(state.y_axis, dt, *q),
                      sigma=state.sigma, last_time=float(t))


def _correct_axis(s: AxisState, z: float) -> AxisState:
    """Kalman update of one axis with a unit-noise position measurement:
    gain K = (pp, pv) / (pp + 1) and posterior (I - K H) P."""
    S = s.pp + 1.0
    r = (z - s.pos) / S
    return AxisState(s.pos + s.pp * r, s.vel + s.pv * r,
                     s.pp / S, s.pv / S, s.vv - s.pv * s.pv / S)


def correct(predicted: TrackState, z: tuple[float, float]) -> TrackState:
    """Standard Kalman update with the position measurement ``z``."""
    return TrackState(x_axis=_correct_axis(predicted.x_axis, z[0]),
                      y_axis=_correct_axis(predicted.y_axis, z[1]),
                      sigma=predicted.sigma, last_time=predicted.last_time)


def search_window(state: TrackState, template_canvas: tuple[int, int],
                  frame_size: tuple[int, int]) -> SearchWindow:
    """3-sigma window around the predicted position, padded by half the
    template canvas and clamped inside the frame."""
    cw, ch = template_canvas
    W, H = frame_size
    cx, cy = state.position
    hw = 3.0 * math.sqrt(max(state.x_axis.pp, 0.0)) + cw / 2.0
    hh = 3.0 * math.sqrt(max(state.y_axis.pp, 0.0)) + ch / 2.0

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
