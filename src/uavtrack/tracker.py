"""Per-frame tracking pipeline and the frame loop behind every command.

Until the first detection the whole frame is searched; afterwards each
frame is predicted, matched inside the covariance-derived window, and
corrected (or propagated without correction on a miss). ``track_frames``
selects the template from a source's first frame and runs that pipeline
over the source for ``simulate``, ``track`` and ``benchmark`` alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from . import estimator, matcher
from .config import TrackerConfig
from .errors import DimensionMismatch
from .imaging import Frame, TemplateBank, build_template_bank, extract_patch
from .matcher import Detection, SchedulerState

if TYPE_CHECKING:
    from .gimbal import Gimbal
    from .simulator import TruthRecord


@dataclass(frozen=True)
class TrackStep:
    frame_index: int
    time: float
    detection: Optional[Detection]
    window_rect: tuple[int, int, int, int]
    half_width: float
    half_height: float
    templates_evaluated: int


class Tracker:
    """Single-target tracker: template bank + scheduler + Kalman filter."""

    def __init__(self, cfg: TrackerConfig, frame_size: tuple[int, int]):
        self.cfg = cfg.validate()
        self.frame_size = frame_size
        self.bank: TemplateBank | None = None
        self.sched = SchedulerState()
        self.state: estimator.TrackState | None = None

    @property
    def canvas(self) -> tuple[int, int]:
        if self.bank is None:
            raise RuntimeError("no template selected")
        return self.bank.canvas

    def select(self, frame: Frame, roi: tuple[int, int, int, int]) -> None:
        """Cut the template from ``frame`` and build the rotation bank."""
        patch = extract_patch(frame, roi)
        self.bank = build_template_bank(patch)
        self.sched = SchedulerState()
        self.state = None

    def process(self, frame: Frame) -> TrackStep:
        if self.bank is None:
            raise RuntimeError("select a template before processing frames")
        if (frame.width, frame.height) != self.frame_size:
            raise DimensionMismatch(
                f"frame {frame.width}x{frame.height} does not match "
                f"tracker size {self.frame_size[0]}x{self.frame_size[1]}")
        t = frame.timestamp

        if self.state is None:
            window = estimator.full_frame_window(*self.frame_size)
            det = matcher.detect(frame, self.bank, self.sched, window,
                                 self.cfg.zmncc_threshold)
            if det is not None:
                self.state = estimator.init(det, t, self.cfg.sigma,
                                            self.cfg.p0_pos, self.cfg.p0_vel)
        else:
            pred = estimator.predict(self.state, t)
            window = estimator.search_window(pred, self.canvas, self.frame_size)
            det = matcher.detect(frame, self.bank, self.sched, window,
                                 self.cfg.zmncc_threshold)
            self.state = estimator.correct(pred, det.position) if det else pred

        return TrackStep(
            frame_index=frame.frame_index, time=t, detection=det,
            window_rect=(window.x0, window.y0, window.x1, window.y1),
            half_width=window.half_width, half_height=window.half_height,
            templates_evaluated=self.sched.last_frame_evals)


@dataclass
class FrameRecord:
    """One frame's row: the tracking step, then the ground truth of a
    simulated frame and the gimbal state after its step (None where the
    run has no truth or no gimbal). Field names are the CSV column names."""

    frame_index: int
    time: float
    detected: bool
    x: int | None
    y: int | None
    score: float | None
    template_index: int | None
    templates_evaluated: int
    miss: bool
    window_x0: int
    window_y0: int
    window_x1: int
    window_y1: int
    half_width: float
    half_height: float
    truth_visible: bool | None = None
    truth_x: float | None = None
    truth_y: float | None = None
    truth_heading: float | None = None
    gain: float | None = None
    offset: float | None = None
    pan_rad: float | None = None
    tilt_rad: float | None = None
    pan_counts: int | None = None
    tilt_counts: int | None = None
    saturated: bool | None = None
    wall_ms: float = 0.0

    @property
    def window(self) -> tuple[int, int, int, int]:
        return (self.window_x0, self.window_y0, self.window_x1, self.window_y1)

    @classmethod
    def build(cls, step: TrackStep, truth: "TruthRecord | None",
              gimbal: "Gimbal | None", wall_ms: float) -> "FrameRecord":
        det = step.detection
        extra = {}
        if truth is not None:
            extra.update(truth_visible=truth.visible, truth_x=truth.x, truth_y=truth.y,
                         truth_heading=truth.heading, gain=truth.gain, offset=truth.offset)
        if gimbal is not None:
            g = gimbal.state
            extra.update(pan_rad=g.pan, tilt_rad=g.tilt, pan_counts=gimbal.counts[0],
                         tilt_counts=gimbal.counts[1], saturated=g.saturated)
        x0, y0, x1, y1 = step.window_rect
        return cls(
            frame_index=step.frame_index, time=step.time, detected=det is not None,
            x=det.position[0] if det else None, y=det.position[1] if det else None,
            score=det.score if det else None,
            template_index=det.template_index if det else None,
            templates_evaluated=step.templates_evaluated, miss=det is None,
            window_x0=x0, window_y0=y0, window_x1=x1, window_y1=y1,
            half_width=step.half_width, half_height=step.half_height,
            wall_ms=wall_ms, **extra)


def track_frames(tracker: Tracker, source: Iterable[tuple[Frame, "TruthRecord | None"]],
                 roi: tuple[int, int, int, int], gimbal: "Gimbal | None" = None,
                 sink: Callable[[Frame], None] | None = None) -> Iterator[FrameRecord]:
    """Track every ``(frame, truth)`` pair ``source`` yields, one at a time,
    with the template cut at ``roi`` from the first frame.

    The template is selected before frame 0's timed span. Each frame then
    goes to ``sink`` (if given), through ``tracker.process`` and a
    ``gimbal`` step (if given). ``wall_ms`` covers fetching the frame
    (after frame 0) through the gimbal step. The source is asked for the
    next frame only after the previous frame's gimbal step, so a renderer
    that reads the gimbal's viewport closes the loop.
    """
    frames = iter(source)
    pair = next(frames, None)
    if pair is not None:
        tracker.select(pair[0], roi)
    t0 = time.perf_counter()
    while pair is not None:
        frame, truth = pair
        if sink is not None:
            sink(frame)
        step = tracker.process(frame)
        if gimbal is not None:
            gimbal.step(step.detection)
        wall_ms = (time.perf_counter() - t0) * 1e3
        yield FrameRecord.build(step, truth, gimbal, wall_ms)
        t0 = time.perf_counter()
        pair = next(frames, None)
