"""The benchmark's workloads: their inputs, the timed calls and the checks.

Each workload repeats whole rounds of the same operations until the run's
time is used up. An operation is one track (``steady640``, ``acquire640``)
or one command (``sim_replay``). Only the program's calls are timed;
rendering inputs and checking outputs are not. Every check compares the
program's output with the renderer's ground truth, with ``zmncc_oracle``,
or with an independent recomputation, never with a stored copy of an
earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import os
import shutil
import time
import zlib

import numpy as np

from uavtrack import cli, estimator, gimbal, imaging, matcher, pgm, simulator
from uavtrack.config import TrackerConfig
from uavtrack.errors import UndefinedScore
from uavtrack.tracker import Tracker

STEADY_SIZES = [(20, 22), (27, 28), (30, 33), (38, 30)]
ACQUIRE_SIZE = (30, 33)
# Template index each acquisition trial's heading rounds down to. A fresh
# scheduler sweeps 7 templates a frame from index 0, so these need 1, 6 and
# 28 full-frame maps before the lock.
ACQUIRE_CLASSES = (0, 5, 9)
# A trial's heading lies this far past its class's template: that template
# then scores at least ~0.94 and the one before it, 12 or more degrees off,
# at most ~0.88, so the lock lands on the class's own template.
ACQUIRE_OFFSET_DEG = (2.0, 4.0)
ACQUIRE_FRAMES = 25
MAX_TEMPLATES = 7
POS_TOL_PX = 2.0
HEADING_TOL_DEG = 10.0
MIN_HEADING_SHARE = 0.9
MIN_DETECTION_RATE = 0.95
REACQUIRE_FRAMES = 10
ORACLE_TOL = 1e-9
ORACLE_SAMPLES = 16
# Seed of the scene ``uavtrack benchmark`` renders (benchmark_scenario's
# default): its world and sprites. The run's seed moves the target.
SCENE_SEED = 5
STEADY_TRAVEL_PX = 179.0  # the length of benchmark_scenario's own path
ACQUIRE_SETS = 4
CLIPS_FILE = "clips.npz"
SETUP_SPANS = ("tracker.select", "simulator.renderer_init")


@dataclasses.dataclass
class Run:
    """One run's settings and everything it measured."""

    root: str
    out: str
    seed: int
    seconds: float
    tracer: object
    frame_ms: list = dataclasses.field(default_factory=list)
    post_lock_frames: int = 0
    post_lock_ms: float = 0.0
    rounds: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)

    def rng(self, *keys) -> np.random.Generator:
        """A generator for one input stream, named by ``keys``."""
        words = [zlib.crc32(k.encode()) if isinstance(k, str) else k for k in keys]
        return np.random.default_rng([self.seed % 2 ** 63, *words])

    def input_seed(self, *keys) -> int:
        return int(self.rng(*keys).integers(2 ** 31))

    def problem(self, text: str) -> None:
        """A check failed: the run's outputs are not correct."""
        if len(self.problems) < 50:
            self.problems.append(text)

    def fail(self, text: str) -> None:
        """An operation failed; the checks speak of the others."""
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(text)

    @contextlib.contextmanager
    def program(self):
        """Mark a call into the program: the tracer records only here."""
        self.tracer.enabled = True
        try:
            yield
        finally:
            self.tracer.enabled = False

    def setup_ms(self, first_span: int) -> float:
        spans = self.tracer.spans[first_span:]
        return sum(e - s for name, s, e, _ in spans if name in SETUP_SPANS) / 1e6

    def repeat_rounds(self, one_round) -> None:
        """Run whole rounds while another one fits in the run's time."""
        start = time.perf_counter()
        index = 0
        while True:
            t0 = time.perf_counter()
            one_round(index)
            index += 1
            now = time.perf_counter()
            if now - start + (now - t0) > self.seconds:
                return

    def add_lock(self, frame_ms: list, lock: int | None) -> float:
        """Account one track's frame times; return its time to first lock."""
        self.frame_ms.extend(frame_ms)
        if lock is None:
            return sum(frame_ms)
        self.post_lock_frames += len(frame_ms) - lock - 1
        self.post_lock_ms += sum(frame_ms[lock + 1:])
        return sum(frame_ms[:lock + 1])


def now_ms() -> float:
    return time.perf_counter_ns() / 1e6


def rect_window(rect) -> estimator.SearchWindow:
    x0, y0, x1, y1 = (int(v) for v in rect)
    return estimator.SearchWindow(
        center=((x0 + x1) / 2.0, (y0 + y1) / 2.0), half_width=(x1 - x0) / 2.0,
        half_height=(y1 - y0) / 2.0, clamped=False, x0=x0, y0=y0, x1=x1, y1=y1)


def heading_error(template_index: int, heading: float) -> float:
    return abs((template_index * imaging.BANK_STEP_DEG - heading + 180.0) % 360.0 - 180.0)


def check_oracle(run: Run, label: str, raster, template, rect, rng) -> None:
    """Sampled placements of ``zmncc_fast`` against ``zmncc_oracle``."""
    frame = imaging.Frame(raster)
    cmap = matcher.zmncc_fast(frame, template, rect_window(rect))
    _, (bx, by) = cmap.best()
    spots = [(by - cmap.y0, bx - cmap.x0)] + [
        (int(rng.integers(cmap.height)), int(rng.integers(cmap.width)))
        for _ in range(ORACLE_SAMPLES)]
    for v, u in spots:
        fast = float(cmap.scores[v, u])
        try:
            want = matcher.zmncc_oracle(frame.pixels, template, (cmap.x0 + u, cmap.y0 + v))
        except UndefinedScore:
            if not math.isnan(fast):
                run.problem(f"{label}: oracle undefined at {(u, v)} but fast gave {fast}")
            continue
        if not abs(fast - want) <= ORACLE_TOL:
            run.problem(f"{label}: zmncc_fast {fast!r} != oracle {want!r} at {(u, v)}")


def check_track(run: Run, label: str, rows, lock: int) -> None:
    """Detections against ground truth.

    ``rows`` holds (detected, x, y, template_index, templates_evaluated,
    truth_visible, truth_x, truth_y, truth_heading) per frame. Detection
    rate and heading agreement count from the first lock on.
    """
    hits = good_heading = visible = 0
    for k, (det, x, y, index, evals, vis, tx, ty, heading) in enumerate(rows):
        if evals > MAX_TEMPLATES:
            run.problem(f"{label}: {evals} templates in frame {k}")
        if k < lock:
            continue
        visible += vis
        if not det:
            continue
        if not vis:
            run.problem(f"{label}: detection while the target is absent")
            continue
        hits += 1
        if math.hypot(x - tx, y - ty) > POS_TOL_PX:
            run.problem(f"{label}: detection ({x}, {y}) vs truth ({tx}, {ty})")
        good_heading += heading_error(index, heading) <= HEADING_TOL_DEG
    if hits < MIN_DETECTION_RATE * visible:
        run.problem(f"{label}: {hits} detections in {visible} visible frames")
    if good_heading < MIN_HEADING_SHARE * hits:
        run.problem(f"{label}: template within 10 deg of heading on {good_heading}/{hits}")


# --------------------------------------------------------------------------
# steady640 and acquire640: a Tracker driven frame by frame
# --------------------------------------------------------------------------

class Clip:
    """A rendered clip kept as a background raster plus, per frame, the box
    of pixels that differ from it (the sprite), so that 600 frames of
    640x480 take a few MB. ``raster(k)`` rebuilds frame k exactly."""

    KEYS = ("background", "boxes", "pixels", "truth", "meta")

    def __init__(self, arrays: dict):
        for key in self.KEYS:
            setattr(self, key, arrays[key])
        self.fps, self.template_index = float(self.meta[0]), int(self.meta[1])
        self.roi = tuple(int(v) for v in self.meta[2:6])
        b = self.boxes
        self.offsets = np.concatenate([[0], np.cumsum((b[:, 1] - b[:, 0]) * (b[:, 3] - b[:, 2]))])

    def __len__(self) -> int:
        return len(self.boxes)

    def raster(self, k: int) -> np.ndarray:
        y0, y1, x0, x1 = self.boxes[k]
        out = self.background.copy()
        out[y0:y1, x0:x1] = self.pixels[self.offsets[k]:self.offsets[k + 1]].reshape(
            y1 - y0, x1 - x0)
        return out

    @staticmethod
    def record(scenario: simulator.Scenario, template_index: int = -1) -> dict:
        """Render ``scenario`` at zero viewport offset into a clip's arrays."""
        renderer = simulator.SceneRenderer(scenario)
        empty = dataclasses.replace(scenario, dropouts=[(0.0, scenario.duration + 1.0)])
        background = simulator.SceneRenderer(empty).render(0)[0].pixels.astype(np.uint8)
        boxes, pixels, truth = [], [], []
        for k in range(scenario.n_frames):
            frame, t = renderer.render(k)
            raster = frame.pixels.astype(np.uint8)
            diff = raster != background
            rows, cols = np.flatnonzero(diff.any(axis=1)), np.flatnonzero(diff.any(axis=0))
            box = (rows[0], rows[-1] + 1, cols[0], cols[-1] + 1) if rows.size else (0, 0, 0, 0)
            boxes.append(box)
            pixels.append(raster[box[0]:box[1], box[2]:box[3]].ravel())
            truth.append((t.visible, t.x, t.y, t.heading))
        meta = (scenario.fps, template_index, *renderer.target_rect_frame0())
        return {"background": background, "boxes": np.array(boxes, dtype=np.int64),
                "pixels": np.concatenate(pixels), "truth": np.array(truth, dtype=np.float64),
                "meta": np.array(meta, dtype=np.float64)}


def save_clips(run: Run, clips: list[dict]) -> None:
    np.savez(os.path.join(run.out, CLIPS_FILE),
             **{f"{i}.{key}": value for i, clip in enumerate(clips) for key, value in clip.items()})


def load_clips(run: Run) -> list[Clip]:
    with np.load(os.path.join(run.out, CLIPS_FILE)) as data:
        arrays = dict(data)
    count = len(arrays) // len(Clip.KEYS)
    return [Clip({key: arrays[f"{i}.{key}"] for key in Clip.KEYS}) for i in range(count)]


@dataclasses.dataclass
class Track:
    setup_ms: float
    frame_ms: list
    steps: list
    bank: imaging.TemplateBank
    kept: dict


def run_track(run: Run, clip: Clip, reference: Clip, keep=()) -> Track:
    """Cut the template at ``reference``'s ROI from its frame 0, then track
    every frame of ``clip``, each built from an 8-bit raster. The gimbal is
    stepped as in ``uavtrack benchmark``. Rebuilding rasters is not timed."""
    cfg = TrackerConfig()
    h, w = clip.background.shape
    cam = gimbal.CameraModel(hfov=cfg.hfov, vfov=cfg.vfov, width=w, height=h)
    g = gimbal.GimbalState(pan_limit=cfg.pan_limit, tilt_limit=cfg.tilt_limit,
                           max_rate=cfg.gimbal_max_rate,
                           count_resolution=cfg.count_resolution)
    center = ((w - 1) / 2.0, (h - 1) / 2.0)
    dt = 1.0 / clip.fps
    with run.program():
        t0 = now_ms()
        tracker = Tracker(cfg, frame_size=(w, h))
        tracker.select(imaging.Frame(reference.raster(0)), reference.roi)
        setup_ms = now_ms() - t0
    frame_ms, steps, kept = [], [], {}
    for k in range(len(clip)):
        raster = clip.raster(k)
        with run.program():
            t0 = now_ms()
            step = tracker.process(imaging.Frame(raster, timestamp=k / clip.fps,
                                                 frame_index=k))
            g, _ = gimbal.centering_step(step.detection, center, cam, g, dt)
            frame_ms.append(now_ms() - t0)
        steps.append(step)
        if k in keep:
            kept[k] = raster
    return Track(setup_ms, frame_ms, steps, tracker.bank, kept)


def first_lock(steps) -> int | None:
    return next((k for k, st in enumerate(steps) if st.detection is not None), None)


def track_rows(track: Track, truth: np.ndarray, heading0: float):
    """Rows for ``check_track``; headings relative to the template's own."""
    for st, (visible, x, y, heading) in zip(track.steps, truth):
        d = st.detection
        yield (d is not None, d.position[0] if d else 0, d.position[1] if d else 0,
               d.template_index if d else 0, st.templates_evaluated,
               bool(visible), x, y, heading - heading0)


def finish_track(run: Run, label: str, clip: Clip, reference: Clip, track: Track,
                 rng, totals: dict) -> int | None:
    """Check one track and its sampled correlation maps, add its times to
    the round's ``totals`` and return its lock frame."""
    lock = first_lock(track.steps)
    if lock is None:
        run.problem(f"{label}: never locked")
    else:
        check_track(run, label, track_rows(track, clip.truth, reference.truth[0, 3]), lock)
    for k, raster in track.kept.items():
        st = track.steps[k]
        index = st.detection.template_index if st.detection else int(rng.integers(track.bank.size))
        check_oracle(run, f"{label} frame {k}", raster, track.bank.templates[index],
                     st.window_rect, rng)
    totals["acquire_s"] += run.add_lock(track.frame_ms, lock) / 1e3
    totals["setup_s"] += track.setup_ms / 1e3
    totals["wall_s"] += (track.setup_ms + sum(track.frame_ms)) / 1e3
    return lock


def guarded(run: Run, label: str, operation) -> None:
    """Run one operation; an exception counts it as failed."""
    run.attempted += 1
    try:
        operation()
    except Exception as e:  # the run goes on and reports the failure
        run.fail(f"{label}: {type(e).__name__}: {e}")


def new_totals() -> dict:
    return {"acquire_s": 0.0, "wall_s": 0.0, "setup_s": 0.0}


def steady640_prepare(run: Run) -> None:
    """The paper's throughput scene (``benchmark_scenario``: its world,
    sprites and 0-to-350 degree heading ramp) on a straight trajectory
    drawn from the seed. The ramp starts at 0 degrees, where the template
    ROI holds the sprite and no background."""
    clips = []
    for w, h in STEADY_SIZES:
        base = simulator.benchmark_scenario(w, h)
        rng = run.rng("steady", w, h)
        x0, y0 = rng.uniform(120.0, 520.0), rng.uniform(100.0, 380.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        x1 = min(580.0, max(60.0, x0 + STEADY_TRAVEL_PX * math.cos(angle)))
        y1 = min(420.0, max(60.0, y0 + STEADY_TRAVEL_PX * math.sin(angle)))
        clips.append(Clip.record(dataclasses.replace(
            base, position=[(0.0, x0, y0), (base.duration, x1, y1)])))
    save_clips(run, clips)


def steady640(run: Run) -> None:
    """Track the four clips, each from its own frame 0, every round."""
    clips = load_clips(run)

    def one_round(r: int) -> None:
        totals = new_totals()
        for i, clip in enumerate(clips):
            w, h = STEADY_SIZES[i]
            label = f"steady640 round {r} {w}x{h}"
            rng = run.rng(r, i)
            keep = {int(rng.integers(1, len(clip)))}

            def operation():
                track = run_track(run, clip, clip, keep)
                finish_track(run, label, clip, clip, track, rng, totals)
            guarded(run, label, operation)
        run.rounds.append(totals)
    run.repeat_rounds(one_round)


def sweep_maps(template_index: int) -> int:
    """Full-frame maps a fresh scheduler computes up to a lock on
    ``template_index``: it tries 7 templates a frame from index 0 and
    starts one later after each full miss."""
    if template_index < MAX_TEMPLATES:
        return template_index + 1
    return MAX_TEMPLATES * (template_index - MAX_TEMPLATES + 2)


def acquire_scenario(rng, heading: float, n_frames: int,
                     gain: float = 1.0, offset: float = 0.0) -> simulator.Scenario:
    """The benchmark scene's sprite at a random place and slow drift, among
    three distractors."""
    w, h = ACQUIRE_SIZE
    x, y = rng.uniform(60.0, 580.0), rng.uniform(60.0, 420.0)
    vx, vy = rng.uniform(-8.0, 8.0, 2)
    duration = n_frames / 25.0
    return simulator.Scenario(
        width=640, height=480, fps=25.0, duration=duration, seed=SCENE_SEED,
        position=[(0.0, x, y), (duration, x + vx * duration, y + vy * duration)],
        heading=[(0.0, heading)], gain=[(0.0, gain)], offset=[(0.0, offset)],
        sprite_width=w, sprite_height=h, distractors=3, quantize=True)


def acquire640_prepare(run: Run) -> None:
    """The reference frame of the "previous flight" (heading 0), then
    ACQUIRE_SETS sets of one trial per class."""
    clips = [Clip.record(acquire_scenario(run.rng("reference"), 0.0, 1))]
    for r in range(ACQUIRE_SETS):
        for index in ACQUIRE_CLASSES:
            rng = run.rng("trial", r, index)
            heading = index * imaging.BANK_STEP_DEG + rng.uniform(*ACQUIRE_OFFSET_DEG)
            clips.append(Clip.record(acquire_scenario(
                rng, heading, ACQUIRE_FRAMES, gain=rng.uniform(0.8, 1.25),
                offset=rng.uniform(-15.0, 15.0)), template_index=index))
    save_clips(run, clips)


def acquire640(run: Run) -> None:
    """Each trial: a fresh Tracker on the patch cut from the reference
    frame, full-frame search until the lock, then tracking. Round r runs
    trial set r mod ACQUIRE_SETS."""
    reference, *trials = load_clips(run)
    per_set = len(ACQUIRE_CLASSES)

    def one_round(r: int) -> None:
        totals = new_totals()
        first = (r % ACQUIRE_SETS) * per_set
        for clip in trials[first:first + per_set]:
            index = clip.template_index
            label = f"acquire640 round {r} class {index}"
            rng = run.rng(r, index)
            lock_frame = max(0, index - MAX_TEMPLATES + 1)
            keep = {int(rng.integers(lock_frame + 1, len(clip)))}
            if r == 0 and index == ACQUIRE_CLASSES[-1]:
                keep.add(lock_frame)  # one full-frame map per run

            def operation():
                track = run_track(run, clip, reference, keep)
                lock = finish_track(run, label, clip, reference, track, rng, totals)
                if lock is None:
                    return
                det = track.steps[lock].detection
                maps = sum(st.templates_evaluated for st in track.steps[:lock + 1])
                if det.template_index != index or maps != sweep_maps(index):
                    run.problem(f"{label}: locked on template {det.template_index} "
                                f"after {maps} maps, want {index} after "
                                f"{sweep_maps(index)}")
            guarded(run, label, operation)
        run.rounds.append(totals)
    run.repeat_rounds(one_round)


# --------------------------------------------------------------------------
# sim_replay: the command line, in-process
# --------------------------------------------------------------------------

DROPOUT_COPY = "dropout_quantized.txt"
SEQUENCE = "sequence"
ROI_FILE = "roi.txt"


def sim_replay_prepare(run: Run) -> None:
    """Write a quantized copy of the dropout scenario, its world and sprite
    drawn from the seed, and record its closed-loop run as a PGM sequence
    for ``track`` to replay."""
    scenario = simulator.load_scenario(os.path.join(run.root, "scenarios", "dropout.txt"))
    scenario = dataclasses.replace(scenario, quantize=True, seed=run.input_seed("dropout"))
    path = os.path.join(run.out, DROPOUT_COPY)
    with open(path, "w") as f:
        f.write(simulator.scenario_text(scenario))
    scenario = simulator.load_scenario(path)
    rasters = []
    simulator.run_closed_loop(scenario, TrackerConfig(), frame_sink=lambda fr: rasters.append(
        (fr.pixels.astype(np.uint8), fr.timestamp, fr.frame_index)))
    pgm.write_sequence(os.path.join(run.out, SEQUENCE), (
        imaging.Frame(r, timestamp=t, frame_index=k) for r, t, k in rasters))
    with open(os.path.join(run.out, ROI_FILE), "w") as f:
        f.write(",".join(str(v) for v in simulator.SceneRenderer(scenario).target_rect_frame0()))


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def report_rows(rows: list[dict]):
    for r in rows:
        det = r["detected"] == "1"
        yield (det, int(r["x"]) if det else 0, int(r["y"]) if det else 0,
               int(r["template_index"]) if det else 0, int(r["templates_evaluated"]),
               r["truth_visible"] == "1", float(r["truth_x"]), float(r["truth_y"]),
               float(r["truth_heading"]))


def check_reacquire(run: Run, label: str, rows: list[dict]) -> None:
    """After each dropout, a detection within REACQUIRE_FRAMES frames."""
    for k in range(1, len(rows)):
        if rows[k]["truth_visible"] == "1" and rows[k - 1]["truth_visible"] == "0":
            later = rows[k:k + REACQUIRE_FRAMES + 1]
            if not any(r["detected"] == "1" for r in later):
                run.problem(f"{label}: no detection within {REACQUIRE_FRAMES} "
                            f"frames of reappearance at frame {k}")


def sim_replay(run: Run) -> None:
    """simulate benign, simulate the quantized dropout copy, track its
    recorded sequence; each through ``cli.main`` with its exit code."""
    dropout = os.path.join(run.out, DROPOUT_COPY)
    sequence = os.path.join(run.out, SEQUENCE)
    with open(os.path.join(run.out, ROI_FILE)) as f:
        roi = f.read().strip()
    commands = [
        ("benign", ["simulate", os.path.join(run.root, "scenarios", "benign.txt")], 0),
        ("dropout", ["simulate", dropout], 1),  # its 32-frame loss exceeds miss_run_limit=30
        ("track", ["track", sequence, "--roi", roi], 1),
    ]
    previous = None

    def one_round(r: int) -> None:
        nonlocal previous
        totals = new_totals()
        first_span = len(run.tracer.spans)
        out = os.path.join(run.out, f"round{r}")
        for name, argv, want in commands:
            run.attempted += 1
            with run.program(), contextlib.redirect_stdout(io.StringIO()):
                t0 = now_ms()
                code = cli.main(argv + ["--out", os.path.join(out, name)])
                totals["wall_s"] += (now_ms() - t0) / 1e3
            if code != want:
                run.fail(f"sim_replay round {r} {name}: exit {code}, want {want}")
        totals["setup_s"] = run.setup_ms(first_span) / 1e3
        try:
            check_round(run, r, out, totals)
        except (OSError, KeyError, ValueError) as e:
            run.problem(f"sim_replay round {r}: unreadable output: {e}")
        run.rounds.append(totals)
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        previous = out
    run.repeat_rounds(one_round)


def check_round(run: Run, r: int, out: str, totals: dict) -> None:
    """Check one round's CSVs and account the simulate reports' wall_ms."""
    for name in ("benign", "dropout"):
        rows = read_csv(os.path.join(out, name, "report.csv"))
        label = f"sim_replay round {r} {name}"
        frame_ms = [float(row["wall_ms"]) for row in rows]
        lock = next((k for k, row in enumerate(rows) if row["detected"] == "1"), None)
        totals["acquire_s"] += run.add_lock(frame_ms, lock) / 1e3
        if lock is None:
            run.problem(f"{label}: never locked")
            continue
        check_track(run, label, report_rows(rows), lock)
        check_reacquire(run, label, rows)
    report = read_csv(os.path.join(out, "dropout", "report.csv"))
    log = read_csv(os.path.join(out, "track", "track_log.csv"))
    if len(log) != len(report) or any(
            a[c] != b[c] for a, b in zip(report, log) for c in cli.TRACK_COLUMNS):
        run.problem(f"sim_replay round {r}: track_log.csv differs from the "
                    "simulate report on the tracking columns")
    if r == 0:
        check_replay_maps(run, log)


def check_replay_maps(run: Run, log: list[dict]) -> None:
    """Oracle samples on one hit and one miss frame of the recorded run."""
    sequence = os.path.join(run.out, SEQUENCE)
    with open(os.path.join(run.out, ROI_FILE)) as f:
        roi = tuple(int(v) for v in f.read().split(","))
    frame0 = imaging.Frame(pgm.read_pgm(os.path.join(sequence, pgm.frame_filename(0))))
    bank = imaging.build_template_bank(imaging.extract_patch(frame0, roi))
    rng = run.rng("oracle")
    hits = [row for row in log if row["detected"] == "1"]
    misses = [row for row in log if row["detected"] == "0"]
    for row in (hits[int(rng.integers(len(hits)))], misses[int(rng.integers(len(misses)))]):
        k = int(row["frame_index"])
        raster = pgm.read_pgm(os.path.join(sequence, pgm.frame_filename(k)))
        index = int(row["template_index"]) if row["template_index"] else int(rng.integers(bank.size))
        rect = tuple(int(row[c]) for c in ("window_x0", "window_y0", "window_x1", "window_y1"))
        check_oracle(run, f"sim_replay frame {k}", raster, bank.templates[index], rect, rng)


WORKLOADS = {"steady640": steady640, "acquire640": acquire640, "sim_replay": sim_replay}
PREPARE = {"steady640": steady640_prepare, "acquire640": acquire640_prepare,
           "sim_replay": sim_replay_prepare}
