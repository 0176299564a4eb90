"""Command-line entry points: track, simulate, benchmark.

Exit codes: 0 success; 1 tracking completed but some consecutive-miss run
exceeded the configured ``miss_run_limit``; 2 input or configuration error.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import gimbal as gim, pgm, simulator
from .config import ConfigError, TrackerConfig, resolve_config
from .errors import UavtrackError
from .imaging import Frame
from .simulator import FrameRecord, TrackReport
from .tracker import Tracker, TrackStep

TRACK_COLUMNS = [
    "frame_index", "time", "detected", "x", "y", "score", "template_index",
    "templates_evaluated", "miss", "window_x0", "window_y0", "window_x1",
    "window_y1", "half_width", "half_height",
]
REPORT_COLUMNS = TRACK_COLUMNS + [
    "truth_visible", "truth_x", "truth_y", "truth_heading", "gain", "offset",
    "pan_rad", "tilt_rad", "pan_counts", "tilt_counts", "saturated", "wall_ms",
]
MOTOR_COLUMNS = ["frame_index", "pan_counts", "tilt_counts", "pan_rad",
                 "tilt_rad", "saturated_flag"]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _row_cells(r: FrameRecord) -> dict:
    return {
        "frame_index": r.frame_index, "time": r.time, "detected": r.detected,
        "x": r.x, "y": r.y, "score": r.score, "template_index": r.template_index,
        "templates_evaluated": r.templates_evaluated, "miss": r.miss,
        "window_x0": r.window[0], "window_y0": r.window[1],
        "window_x1": r.window[2], "window_y1": r.window[3],
        "half_width": r.half_width, "half_height": r.half_height,
        "truth_visible": r.truth_visible, "truth_x": r.truth_x,
        "truth_y": r.truth_y, "truth_heading": r.truth_heading,
        "gain": r.gain, "offset": r.offset, "pan_rad": r.pan_rad,
        "tilt_rad": r.tilt_rad, "pan_counts": r.pan_counts,
        "tilt_counts": r.tilt_counts, "saturated": r.saturated,
        "wall_ms": r.wall_ms,
    }


def write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")


def write_report_csv(path: str, report: TrackReport) -> None:
    write_csv(path, REPORT_COLUMNS, [_row_cells(r) for r in report.records])


def write_motor_csv(path: str, report: TrackReport) -> None:
    rows = [{
        "frame_index": r.frame_index, "pan_counts": r.pan_counts,
        "tilt_counts": r.tilt_counts, "pan_rad": r.pan_rad,
        "tilt_rad": r.tilt_rad, "saturated_flag": r.saturated,
    } for r in report.records]
    write_csv(path, MOTOR_COLUMNS, rows)


def annotate(pixels: np.ndarray, step: TrackStep) -> np.ndarray:
    """Burn the search window border and a 3x3 detection block into a copy."""
    out = np.rint(np.clip(pixels, 0.0, 255.0)).astype(np.uint8)
    x0, y0, x1, y1 = step.window_rect
    x1, y1 = x1 - 1, y1 - 1
    out[y0, x0:x1 + 1] = 255
    out[y1, x0:x1 + 1] = 255
    out[y0:y1 + 1, x0] = 255
    out[y0:y1 + 1, x1] = 255
    if step.detection is not None:
        px, py = step.detection.position
        out[max(0, py - 1):py + 2, max(0, px - 1):px + 2] = 255
    return out


# --------------------------------------------------------------------------
# track
# --------------------------------------------------------------------------

def run_track(frames: list[Frame], roi: tuple[int, int, int, int],
              cfg: TrackerConfig) -> list[TrackStep]:
    tracker = Tracker(cfg, frame_size=(frames[0].width, frames[0].height))
    tracker.select(frames[0], roi)
    return [tracker.process(frame) for frame in frames]


def _track_row(step: TrackStep) -> dict:
    det = step.detection
    return {
        "frame_index": step.frame_index, "time": step.time,
        "detected": det is not None,
        "x": det.position[0] if det else None,
        "y": det.position[1] if det else None,
        "score": det.score if det else None,
        "template_index": det.template_index if det else None,
        "templates_evaluated": step.templates_evaluated,
        "miss": det is None,
        "window_x0": step.window_rect[0], "window_y0": step.window_rect[1],
        "window_x1": step.window_rect[2], "window_y1": step.window_rect[3],
        "half_width": step.half_width, "half_height": step.half_height,
    }


def cmd_track(args) -> int:
    cfg = resolve_config(args.config)
    frames = pgm.load_sequence(args.sequence, fps=cfg.fps)
    roi = _parse_roi(args.roi)
    steps = run_track(frames, roi, cfg)

    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "track_log.csv"), TRACK_COLUMNS,
              [_track_row(s) for s in steps])
    if args.dump_frames:
        dump_dir = os.path.join(args.out, "frames")
        os.makedirs(dump_dir, exist_ok=True)
        for frame, step in zip(frames, steps):
            pgm.write_pgm(
                os.path.join(dump_dir, pgm.frame_filename(frame.frame_index)),
                annotate(frame.pixels, step))

    longest = _longest_miss_run(s.detection is None for s in steps)
    n_det = sum(s.detection is not None for s in steps)
    print(f"tracked {len(steps)} frames, {n_det} detections, "
          f"longest miss run {longest}")
    return 1 if longest > cfg.miss_run_limit else 0


def _longest_miss_run(misses) -> int:
    longest = run = 0
    for m in misses:
        run = run + 1 if m else 0
        longest = max(longest, run)
    return longest


def _parse_roi(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--roi needs x,y,w,h, got '{text}'")
    try:
        x, y, w, h = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--roi needs four integers, got '{text}'") from None
    return (x, y, w, h)


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = resolve_config(args.config)
    scenario = simulator.load_scenario(args.scenario)
    report = simulator.run_closed_loop(scenario, cfg,
                                       frame_sink=_export_sink(args.export))
    os.makedirs(args.out, exist_ok=True)
    write_report_csv(os.path.join(args.out, "report.csv"), report)
    write_motor_csv(os.path.join(args.out, "motor_log.csv"), report)

    longest = max(report.miss_runs(), default=0)
    print(f"simulated {len(report.records)} frames, detection rate "
          f"{report.detection_rate():.3f}, false positives "
          f"{report.false_positive_count()}, longest miss run {longest}")
    return 1 if longest > cfg.miss_run_limit else 0


def _export_sink(export_dir: str | None):
    if export_dir is None:
        return None
    os.makedirs(export_dir, exist_ok=True)
    sidecar = os.path.join(export_dir, pgm.TIMESTAMP_SIDECAR)
    open(sidecar, "w").close()

    def sink(frame: Frame) -> None:
        pgm.write_pgm(os.path.join(export_dir, pgm.frame_filename(frame.frame_index)),
                      frame.pixels)
        # Appending keeps the sidecar in step with the frames written so far;
        # truncating and rewriting it costs a disk flush per frame.
        with open(sidecar, "a") as f:
            f.write(repr(frame.timestamp) + "\n")

    return sink


# --------------------------------------------------------------------------
# benchmark
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkRow:
    patch_width: int
    patch_height: int
    frames: int
    fps: float
    mean_templates: float

    @property
    def area(self) -> int:
        return self.patch_width * self.patch_height


@dataclass
class BenchmarkResult:
    rows: list[BenchmarkRow]


DEFAULT_BENCH_SIZES = [(27, 28), (20, 22), (38, 30), (30, 33)]
BENCH_PASSES = 5


@dataclass(frozen=True)
class _Clip:
    """A rendered benchmark sequence kept compactly: the first raster plus,
    per frame, the box of pixels that differ from it (the moving target)."""

    scenario: simulator.Scenario
    base: np.ndarray
    boxes: list[tuple[int, int, np.ndarray, float]]  # y0, x0, pixels, timestamp
    roi: tuple[int, int, int, int]

    @classmethod
    def render(cls, w: int, h: int, n_frames: int) -> "_Clip":
        scenario = simulator.benchmark_scenario(w, h, n_frames=n_frames)
        renderer = simulator.SceneRenderer(scenario)
        base = None
        boxes = []
        for k in range(scenario.n_frames):
            frame, _ = renderer.render(k)
            raster = frame.pixels.astype(np.uint8)
            if base is None:
                base = raster
            changed = raster != base
            rows = np.flatnonzero(changed.any(axis=1))
            cols = np.flatnonzero(changed.any(axis=0))
            y0, y1 = (rows[0], rows[-1] + 1) if rows.size else (0, 0)
            x0, x1 = (cols[0], cols[-1] + 1) if cols.size else (0, 0)
            boxes.append((int(y0), int(x0), raster[y0:y1, x0:x1].copy(), frame.timestamp))
        return cls(scenario, base, boxes, renderer.target_rect_frame0())

    def frame(self, k: int) -> tuple[np.ndarray, float]:
        """The k-th 8-bit raster and its timestamp."""
        y0, x0, pixels, ts = self.boxes[k]
        raster = self.base.copy()
        raster[y0:y0 + pixels.shape[0], x0:x0 + pixels.shape[1]] = pixels
        return raster, ts


def _frame_costs(cfg: TrackerConfig, clip: _Clip):
    """Track ``clip``, yielding each frame's processing seconds and
    templates evaluated. The timed part is frame construction, matching,
    filtering and gimbal stepping; rebuilding the raster is not timed."""
    s = clip.scenario
    raster, ts = clip.frame(0)
    tracker = Tracker(cfg, frame_size=(s.width, s.height))
    tracker.select(Frame(raster, timestamp=ts), clip.roi)
    cam = gim.CameraModel(hfov=cfg.hfov, vfov=cfg.vfov, width=s.width, height=s.height)
    g = gim.GimbalState(pan_limit=cfg.pan_limit, tilt_limit=cfg.tilt_limit,
                        max_rate=cfg.gimbal_max_rate,
                        count_resolution=cfg.count_resolution)
    center = ((s.width - 1) / 2.0, (s.height - 1) / 2.0)
    dt = 1.0 / s.fps
    for k in range(len(clip.boxes)):
        raster, ts = clip.frame(k)
        t0 = time.perf_counter()
        step = tracker.process(Frame(raster, timestamp=ts, frame_index=k))
        g, _ = gim.centering_step(step.detection, center, cam, g, dt)
        yield time.perf_counter() - t0, step.templates_evaluated


def run_benchmark(cfg: TrackerConfig, sizes: list[tuple[int, int]],
                  n_frames: int = 600) -> BenchmarkResult:
    """Time the tracking loop on pre-rendered 640x480 sequences.

    Rendering is excluded (frames are rasterized up front as 8-bit
    arrays); the timed part covers frame construction, matching, filtering
    and gimbal stepping. Each of ``BENCH_PASSES`` passes tracks every size
    in lockstep, one frame of each in turn, so drift in machine speed hits
    every size alike; a row reports the median fps over the passes.
    """
    clips = [_Clip.render(w, h, n_frames) for w, h in sizes]
    fps: list[list[float]] = [[] for _ in sizes]
    for _ in range(BENCH_PASSES):
        seconds = [0.0] * len(sizes)
        evals = [0] * len(sizes)
        for costs in zip(*(_frame_costs(cfg, clip) for clip in clips)):
            for i, (sec, n) in enumerate(costs):
                seconds[i] += sec
                evals[i] += n
        for i, clip in enumerate(clips):
            fps[i].append(len(clip.boxes) / seconds[i])
    rows = [BenchmarkRow(patch_width=w, patch_height=h, frames=len(clip.boxes),
                         fps=statistics.median(rates), mean_templates=n / len(clip.boxes))
            for (w, h), clip, rates, n in zip(sizes, clips, fps, evals)]
    rows.sort(key=lambda r: r.area)
    return BenchmarkResult(rows=rows)


def format_benchmark(result: BenchmarkResult) -> str:
    lines = [f"{'Patch Size (Pixels)':<22}{'Number of Frames':<18}"
             f"{'Tracking Speed (Frames/Sec)':<30}{'Templates/Frame':<16}"]
    for r in result.rows:
        label = f"{r.patch_width}x{r.patch_height}({r.area})"
        lines.append(f"{label:<22}{r.frames:<18}{r.fps:<30.2f}{r.mean_templates:<16.2f}")
    return "\n".join(lines)


def cmd_benchmark(args) -> int:
    cfg = resolve_config(args.config)
    sizes = _parse_sizes(args.sizes) if args.sizes else DEFAULT_BENCH_SIZES
    for w, h in sizes:
        if w < 4 or h < 4 or w > 320 or h > 240:
            raise ConfigError(f"patch size {w}x{h} out of range (4..half frame)")
    result = run_benchmark(cfg, sizes, n_frames=args.frames)
    print(format_benchmark(result))
    if args.csv:
        write_csv(args.csv,
                  ["patch_width", "patch_height", "area", "frames", "fps",
                   "mean_templates"],
                  [{"patch_width": r.patch_width, "patch_height": r.patch_height,
                    "area": r.area, "frames": r.frames, "fps": r.fps,
                    "mean_templates": r.mean_templates} for r in result.rows])
    return 0


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for item in text.split(","):
        item = item.strip().lower()
        if "x" not in item:
            raise ConfigError(f"--sizes entries need WxH, got '{item}'")
        w_str, h_str = item.split("x", 1)
        try:
            sizes.append((int(w_str), int(h_str)))
        except ValueError:
            raise ConfigError(f"--sizes entries need integers, got '{item}'") from None
    if not sizes:
        raise ConfigError("--sizes is empty")
    return sizes


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="uavtrack",
                                description="Rotation-invariant template tracking toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("track", help="track a recorded PGM sequence")
    t.add_argument("sequence", help="directory of frame_NNNNNN.pgm files")
    t.add_argument("--roi", required=True, help="template rectangle x,y,w,h in frame 0")
    t.add_argument("--config", default=None, help="tracker config file")
    t.add_argument("--out", default="uavtrack_out", help="output directory")
    t.add_argument("--dump-frames", action="store_true",
                   help="write annotated PGM frames")
    t.set_defaults(func=cmd_track)

    s = sub.add_parser("simulate", help="run the closed-loop simulator")
    s.add_argument("scenario", help="scenario file")
    s.add_argument("--config", default=None, help="tracker config file")
    s.add_argument("--out", default="uavtrack_out", help="output directory")
    s.add_argument("--export", default=None,
                   help="also export the rendered frames as a PGM sequence")
    s.set_defaults(func=cmd_simulate)

    b = sub.add_parser("benchmark", help="measure tracking throughput vs patch size")
    b.add_argument("--config", default=None, help="tracker config file")
    b.add_argument("--sizes", default=None, help="comma list of WxH patch sizes")
    b.add_argument("--frames", type=int, default=600, help="frames per size (>= 500)")
    b.add_argument("--csv", default=None, help="also write the table as CSV")
    b.set_defaults(func=cmd_benchmark)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UavtrackError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
