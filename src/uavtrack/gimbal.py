"""Simulated pan/tilt pointing: pixel errors to motor counts to motion.

Commands are integer motor counts of ``count_resolution`` radians each.
Each step applies the commanded angle subject to a slew-rate limit and the
mechanical pan/tilt range; the controller sends the full measured pixel
offset every frame and holds position on frames with no detection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import TrackerConfig


@dataclass(frozen=True)
class CameraModel:
    """Pinhole-free FOV model: fixed radians per pixel on each axis."""

    hfov: float
    vfov: float
    width: int
    height: int

    def __post_init__(self):
        if self.hfov <= 0 or self.vfov <= 0 or self.width <= 0 or self.height <= 0:
            raise ValueError("camera model requires positive FOV and size")

    @property
    def rad_per_px_x(self) -> float:
        return self.hfov / self.width

    @property
    def rad_per_px_y(self) -> float:
        return self.vfov / self.height


@dataclass(frozen=True)
class GimbalState:
    """Pan/tilt angles with symmetric limits (radians).

    ``saturated`` records whether the most recent step hit a rate or range
    limit.
    """

    pan_limit: float
    tilt_limit: float
    max_rate: float  # rad/s
    count_resolution: float  # rad per motor count
    pan: float = 0.0
    tilt: float = 0.0
    saturated: bool = False


def pixel_error_to_counts(err: tuple[float, float], cam: CameraModel,
                          g: GimbalState) -> tuple[int, int]:
    """Convert a pixel offset to integer motor counts per axis."""
    pan_angle = err[0] * cam.rad_per_px_x
    tilt_angle = err[1] * cam.rad_per_px_y
    return (int(round(pan_angle / g.count_resolution)),
            int(round(tilt_angle / g.count_resolution)))


def step_gimbal(g: GimbalState, counts: tuple[int, int], dt: float) -> GimbalState:
    """Apply a motor command over ``dt`` seconds.

    Motion is the commanded angle clamped to +/- max_rate*dt, then the new
    pose is clamped to the mechanical limits.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    step_cap = g.max_rate * dt
    saturated = False

    def move(angle: float, command_counts: int, limit: float) -> float:
        nonlocal saturated
        command = command_counts * g.count_resolution
        motion = max(-step_cap, min(step_cap, command))
        if motion != command:
            saturated = True
        new = angle + motion
        clamped = max(-limit, min(limit, new))
        if clamped != new:
            saturated = True
        return clamped

    return replace(g,
                   pan=move(g.pan, counts[0], g.pan_limit),
                   tilt=move(g.tilt, counts[1], g.tilt_limit),
                   saturated=saturated)


def centering_step(detection, frame_center: tuple[float, float],
                   cam: CameraModel, g: GimbalState,
                   dt: float) -> tuple[GimbalState, tuple[int, int]]:
    """One closed-loop pointing step toward centering the detection.

    With no detection the gimbal holds its pose. Returns the new state and
    the issued motor counts (for the command log).
    """
    if detection is None:
        return replace(g, saturated=False), (0, 0)
    err = (detection.position[0] - frame_center[0],
           detection.position[1] - frame_center[1])
    counts = pixel_error_to_counts(err, cam, g)
    return step_gimbal(g, counts, dt), counts


def viewport_offset_px(g: GimbalState, cam: CameraModel) -> tuple[int, int]:
    """Whole-pixel scene shift produced by the current pointing angles."""
    return (int(round(g.pan / cam.rad_per_px_x)),
            int(round(g.tilt / cam.rad_per_px_y)))


class Gimbal:
    """The pointing loop of one camera, built from config: the camera model,
    the pan/tilt state, the frame centre the controller aims for and the
    frame period. ``counts`` holds the most recent motor command."""

    def __init__(self, cfg: "TrackerConfig", width: int, height: int, fps: float):
        self.cam = CameraModel(hfov=cfg.hfov, vfov=cfg.vfov, width=width, height=height)
        self.state = GimbalState(pan_limit=cfg.pan_limit, tilt_limit=cfg.tilt_limit,
                                 max_rate=cfg.gimbal_max_rate,
                                 count_resolution=cfg.count_resolution)
        self.center = ((width - 1) / 2.0, (height - 1) / 2.0)
        self.dt = 1.0 / fps
        self.counts = (0, 0)

    def viewport(self) -> tuple[int, int]:
        return viewport_offset_px(self.state, self.cam)

    def step(self, detection) -> None:
        self.state, self.counts = centering_step(detection, self.center, self.cam,
                                                 self.state, self.dt)
