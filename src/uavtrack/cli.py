"""Command-line entry points: track, simulate, benchmark.

Exit codes: 0 success; 1 tracking completed but some consecutive-miss run
exceeded the configured ``miss_run_limit``; 2 input or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import os
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import pgm, simulator
from .config import ConfigError, TrackerConfig, read_int, resolve_config
from .gimbal import Gimbal
from .imaging import Frame
from .tracker import FrameRecord, Tracker, track_frames

REPORT_COLUMNS = [f.name for f in dataclasses.fields(FrameRecord)]
# track_log.csv holds the tracking columns, the ones before the ground truth.
TRACK_COLUMNS = REPORT_COLUMNS[:REPORT_COLUMNS.index("truth_visible")]
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


def write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")


def annotate(pixels: np.ndarray, record: FrameRecord) -> np.ndarray:
    """Burn the search window border and a 3x3 detection block into a copy."""
    out = pixels.astype(np.uint8)
    x0, y0, x1, y1 = record.window
    x1, y1 = x1 - 1, y1 - 1
    out[y0, x0:x1 + 1] = 255
    out[y1, x0:x1 + 1] = 255
    out[y0:y1 + 1, x0] = 255
    out[y0:y1 + 1, x1] = 255
    if record.detected:
        px, py = record.x, record.y
        out[max(0, py - 1):py + 2, max(0, px - 1):px + 2] = 255
    return out


def _longest_miss_run(records: list[FrameRecord]) -> int:
    longest = run = 0
    for r in records:
        run = run + 1 if r.miss else 0
        longest = max(longest, run)
    return longest


# --------------------------------------------------------------------------
# track
# --------------------------------------------------------------------------

def cmd_track(args) -> int:
    cfg = resolve_config(args.config)
    frames = pgm.load_sequence(args.sequence, fps=cfg.fps)
    roi = _parse_roi(args.roi)
    first = next(frames)
    tracker = Tracker(cfg, frame_size=(first.width, first.height))

    dump_dir = os.path.join(args.out, "frames") if args.dump_frames else None
    shown: list[Frame] = []  # the frame of the record being yielded, for --dump-frames
    source = ((frame, None) for frame in itertools.chain([first], frames))
    records = []
    for record in track_frames(tracker, source, roi, sink=shown.append if dump_dir else None):
        records.append(record)
        if dump_dir:  # made after selection, so a bad --roi leaves no directory
            os.makedirs(dump_dir, exist_ok=True)
            pgm.write_pgm(os.path.join(dump_dir, pgm.frame_filename(record.frame_index)),
                          annotate(shown.pop().pixels, record))

    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "track_log.csv"), TRACK_COLUMNS,
              [vars(r) for r in records])
    longest = _longest_miss_run(records)
    print(f"tracked {len(records)} frames, {sum(r.detected for r in records)} "
          f"detections, longest miss run {longest}")
    return 1 if longest > cfg.miss_run_limit else 0


def _parse_roi(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--roi needs x,y,w,h, got '{text}'")
    try:
        x, y, w, h = (read_int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--roi needs four integers, got '{text}'") from None
    return (x, y, w, h)


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = resolve_config(args.config)
    scenario = simulator.load_scenario(args.scenario)
    sink = pgm.sequence_writer(args.export) if args.export is not None else None
    report = simulator.run_closed_loop(scenario, cfg, frame_sink=sink)
    os.makedirs(args.out, exist_ok=True)
    rows = [vars(r) for r in report.records]
    write_csv(os.path.join(args.out, "report.csv"), REPORT_COLUMNS, rows)
    write_csv(os.path.join(args.out, "motor_log.csv"), MOTOR_COLUMNS,
              [dict(row, saturated_flag=row["saturated"]) for row in rows])

    longest = _longest_miss_run(report.records)
    print(f"simulated {len(report.records)} frames, detection rate "
          f"{report.detection_rate():.3f}, false positives "
          f"{report.false_positive_count()}, longest miss run {longest}")
    return 1 if longest > cfg.miss_run_limit else 0


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


DEFAULT_BENCH_SIZES = [(27, 28), (20, 22), (38, 30), (30, 33)]
# A multiple of the four default sizes: each frame takes each place in its turn equally often.
BENCH_PASSES = 8


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

    def frames(self) -> Iterator[tuple[Frame, None]]:
        """The clip's frames, each rebuilt when asked for in one raster that
        they share, as a camera reuses its frame buffer: the previous
        frame's box is restored from the first raster and this frame's
        pixels are pasted. A frame is valid until the next is asked for."""
        raster = self.base.copy()
        box = (slice(0, 0), slice(0, 0))
        for k, (y0, x0, pixels, ts) in enumerate(self.boxes):
            raster[box] = self.base[box]
            box = (slice(y0, y0 + pixels.shape[0]), slice(x0, x0 + pixels.shape[1]))
            raster[box] = pixels
            yield Frame(raster, timestamp=ts, frame_index=k), None

    def track(self, cfg: TrackerConfig) -> Iterator[FrameRecord]:
        """Track the clip from its frame 0, stepping a gimbal."""
        s = self.scenario
        return track_frames(Tracker(cfg, frame_size=(s.width, s.height)), self.frames(),
                            self.roi, Gimbal(cfg, s.width, s.height, s.fps))


def run_benchmark(cfg: TrackerConfig, sizes: list[tuple[int, int]],
                  n_frames: int) -> list[BenchmarkRow]:
    """Time the tracking loop on pre-rendered 640x480 sequences.

    Rendering is excluded (frames are rasterized up front as 8-bit
    arrays); the timed part, each record's ``wall_ms``, covers rebuilding
    the raster, frame construction, matching, filtering and gimbal
    stepping. Each of ``BENCH_PASSES`` passes tracks every size in
    lockstep, one frame of each in turn, so drift in machine speed hits
    every size alike. Each turn starts from the next size and odd passes
    reverse it, so a size's frame takes each place in the turn alike and
    does not always follow the same size: the first frame of a turn costs
    more, and a lock-on's page faults depend on the lock-on before it. As
    ``timeit`` does, a pass runs with Python's cyclic garbage collector
    paused, after a collection: otherwise a collection of what every size
    allocated is charged to whichever size's frame it falls in. A row's fps
    is its frames over the sum of each frame's median ``wall_ms`` over the
    passes: a wall-clock speed without the stalls another process causes in
    one pass. Rows are sorted by patch area.
    """
    clips = [_Clip.render(w, h, n_frames) for w, h in sizes]
    ms = np.zeros((len(sizes), BENCH_PASSES, len(clips[0].boxes)))
    for p in range(BENCH_PASSES):
        evals = [0] * len(sizes)
        runs = [clip.track(cfg) for clip in clips]
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for k in range(ms.shape[2]):
                for j in range(len(runs)):
                    i = (p + k + (-j if p % 2 else j)) % len(runs)
                    r = next(runs[i])
                    ms[i, p, k] = r.wall_ms
                    evals[i] += r.templates_evaluated
        finally:
            if was_enabled:
                gc.enable()
    fps = ms.shape[2] * 1e3 / np.median(ms, axis=1).sum(axis=1)
    rows = [BenchmarkRow(patch_width=w, patch_height=h, frames=len(clip.boxes),
                         fps=float(rate), mean_templates=n / len(clip.boxes))
            for (w, h), clip, rate, n in zip(sizes, clips, fps, evals)]
    return sorted(rows, key=lambda r: r.area)


def format_benchmark(rows: list[BenchmarkRow]) -> str:
    lines = [f"{'Patch Size (Pixels)':<22}{'Number of Frames':<18}"
             f"{'Tracking Speed (Frames/Sec)':<30}{'Templates/Frame':<16}"]
    for r in rows:
        label = f"{r.patch_width}x{r.patch_height}({r.area})"
        lines.append(f"{label:<22}{r.frames:<18}{r.fps:<30.2f}{r.mean_templates:<16.2f}")
    return "\n".join(lines)


def cmd_benchmark(args) -> int:
    cfg = resolve_config(args.config)
    sizes = _parse_sizes(args.sizes) if args.sizes is not None else DEFAULT_BENCH_SIZES
    if args.frames < 1:
        raise ConfigError(f"--frames must be at least 1, got {args.frames}")
    for w, h in sizes:
        if w < 4 or h < 4 or w > 320 or h > 240:
            raise ConfigError(f"patch size {w}x{h} out of range (4..half frame)")
    rows = run_benchmark(cfg, sizes, n_frames=args.frames)
    print(format_benchmark(rows))
    if args.csv:
        write_csv(args.csv,
                  ["patch_width", "patch_height", "area", "frames", "fps",
                   "mean_templates"],
                  [dict(vars(r), area=r.area) for r in rows])
    return 0


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    if not text.strip():
        raise ConfigError("--sizes is empty")
    sizes = []
    for item in text.split(","):
        item = item.lower()  # int() skips ASCII blanks, and read_int rejects the others
        if "x" not in item:
            raise ConfigError(f"--sizes entries need WxH, got '{item}'")
        w_str, h_str = item.split("x", 1)
        try:
            sizes.append((read_int(w_str), read_int(h_str)))
        except ValueError:
            raise ConfigError(f"--sizes entries need integers, got '{item}'") from None
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
    b.add_argument("--frames", type=int, default=600, help="frames per size, at least 1 (default 600)")
    b.add_argument("--csv", default=None, help="also write the table as CSV")
    b.set_defaults(func=cmd_benchmark)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # ConfigError and UavtrackError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
