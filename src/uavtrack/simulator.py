"""Synthetic flight scenes with ground truth, and the closed-loop runner.

A scenario describes a static value-noise world, a blob-textured target
sprite following a piecewise-linear trajectory and heading ramp, per-frame
illumination gain/offset schedules, and dropout intervals during which the
target is absent. Everything is derived from the scenario seed, so a
scenario renders bit-identically on every run.

Scenario positions are given in frame coordinates of the unshifted
(zero pan/tilt) viewport.
"""

from __future__ import annotations

import functools
import math
import re
import string
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gimbal as gim
from .config import (ConfigError, TrackerConfig, field_readers, kv_text, parse_kv,
                     read_float, read_text)
from .errors import InvalidScenario
from .imaging import Frame, rotate, rotation_canvas_side
from .tracker import FrameRecord, Tracker, track_frames

Breakpoints = list[tuple[float, ...]]

# The world every scenario renders: value noise of BACKGROUND_CELL-pixel
# cells around BACKGROUND_BASE, WORLD_MARGIN pixels beyond the unshifted
# viewport on every side, and sprites of SPRITE_CONTRAST about the same base.
SPRITE_CONTRAST = 62.0
BACKGROUND_BASE = 105.0
BACKGROUND_CONTRAST = 9.0
BACKGROUND_CELL = 5
WORLD_MARGIN = 128
# Distinct headings the renderer warps per ``rotate`` call.
WARP_CHUNK = 8


@dataclass
class Scenario:
    width: int
    height: int
    fps: float
    duration: float
    seed: int
    position: Breakpoints                   # (t, x, y) sprite-center breakpoints
    heading: Breakpoints = field(default_factory=lambda: [(0.0, 0.0)])
    gain: Breakpoints = field(default_factory=lambda: [(0.0, 1.0)])
    offset: Breakpoints = field(default_factory=lambda: [(0.0, 0.0)])
    dropouts: list[tuple[float, float]] = field(default_factory=list)
    sprite_width: int = 30
    sprite_height: int = 30
    distractors: int = 2
    quantize: bool = False

    @property
    def n_frames(self) -> int:
        return int(round(self.fps * self.duration))

    def validate(self) -> "Scenario":
        _sample(self)
        return self


@dataclass(frozen=True)
class TruthRecord:
    frame_index: int
    time: float
    visible: bool
    x: float
    y: float
    heading: float
    gain: float
    offset: float


FALSE_POSITIVE_DIAGONALS = 2.0


@dataclass
class TrackReport:
    records: list[FrameRecord]
    canvas: tuple[int, int]

    def detection_rate(self) -> float:
        visible = [r for r in self.records if r.truth_visible]
        if not visible:
            return 0.0
        return sum(r.detected for r in visible) / len(visible)

    def false_positive_count(self) -> int:
        """Detections farther than ``FALSE_POSITIVE_DIAGONALS`` canvas
        diagonals from truth, or produced while the target is absent."""
        limit = FALSE_POSITIVE_DIAGONALS * math.hypot(*self.canvas)
        n = 0
        for r in self.records:
            if not r.detected:
                continue
            if not r.truth_visible:
                n += 1
            elif math.hypot(r.x - r.truth_x, r.y - r.truth_y) > limit:
                n += 1
        return n


# --------------------------------------------------------------------------
# Procedural textures
# --------------------------------------------------------------------------

def value_noise(rng: np.random.Generator, height: int, width: int, cell: int,
                octaves: int = 2) -> np.ndarray:
    """Zero-mean, unit-std lattice noise with bilinear interpolation."""
    acc = np.zeros((height, width))
    amp = 1.0
    for o in range(octaves):
        step = max(2, cell >> o)
        g = rng.standard_normal((height // step + 2, width // step + 2))
        ys = np.arange(height) / step
        xs = np.arange(width) / step
        y0 = np.floor(ys).astype(int)
        x0 = np.floor(xs).astype(int)
        fy = (ys % 1.0)[:, None]
        fx = (xs % 1.0)[None, :]
        # Bilinear interpolation is separable: interpolate each lattice row
        # across x once, then pick and blend the rows above and below.
        across = (1 - fx) * g.take(x0, axis=1) + fx * g.take(x0 + 1, axis=1)
        top, bot = across.take(y0, axis=0), across.take(y0 + 1, axis=0)
        acc += amp * ((1 - fy) * top + fy * bot)
        amp *= 0.5
    acc -= acc.mean()
    sd = acc.std()
    if sd > 0:
        acc /= sd
    return acc


def blob_sprite(rng: np.random.Generator, width: int, height: int,
                contrast: float, base: float, n_blobs: int = 6) -> np.ndarray:
    """Rotation-asymmetric target texture: Gaussian blobs plus fine grain.

    The mix fixes the angular decorrelation of the rotation bank: a
    template 5 degrees off still correlates above 0.9 (so the 10-degree
    bank covers every heading) while 10 degrees off falls clearly below it
    (so the matched index never lags the heading by a full bank step).
    """
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    fld = np.zeros((height, width))
    for _ in range(n_blobs):
        cx = rng.uniform(0.15, 0.85) * (width - 1)
        cy = rng.uniform(0.15, 0.85) * (height - 1)
        s = rng.uniform(0.7, 1.4) * 0.14 * min(width, height)
        amp = rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.0)
        fld += amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * s * s))
    sd = fld.std()
    if sd > 0:
        fld /= sd
    fld += 0.35 * value_noise(rng, height, width, 3, octaves=1)
    fld -= fld.mean()
    sd = fld.std()
    if sd > 0:
        fld /= sd
    # Cap at 195 so gain schedules up to 1.3 stay clear of the 255 clip.
    return np.clip(base + contrast * fld, 15.0, 195.0)


class _Samples(NamedTuple):
    """Every frame's schedule values, one array per quantity, indexed by frame."""
    time: np.ndarray
    visible: np.ndarray
    x: np.ndarray        # sprite centre as scheduled, before the pixel grid
    y: np.ndarray
    heading: np.ndarray  # as scheduled, not yet reduced to [0, 360)
    gain: np.ndarray
    offset: np.ndarray


def _sample(s: Scenario) -> _Samples:
    """Every frame's schedule values, one ``np.interp`` per schedule component.

    This is the one check of a scenario: its sizes, rates and counts must be
    in range, its schedules must have breakpoints at strictly increasing
    times, be finite and keep the sprite canvas in the frame while in view,
    and every dropout span must be finite and end after it starts."""
    if s.width < 8 or s.height < 8:
        raise InvalidScenario(f"frame size {s.width}x{s.height} too small")
    if s.fps <= 0 or s.duration <= 0:
        raise InvalidScenario("fps and duration must be positive")
    if s.n_frames < 1:
        raise InvalidScenario("scenario renders zero frames")
    for name, least in (("sprite_width", 1), ("sprite_height", 1), ("seed", 0),
                        ("distractors", 0)):
        if getattr(s, name) < least:
            raise InvalidScenario(f"{name} must be >= {least}")
    if s.sprite_width * s.sprite_height < 16:
        raise InvalidScenario("sprite must cover at least 16 pixels")
    side = rotation_canvas_side(s.sprite_width, s.sprite_height)
    if side > min(s.width, s.height):
        raise InvalidScenario(f"sprite canvas {side} exceeds frame {s.width}x{s.height}")
    t = np.arange(s.n_frames) / s.fps
    spans = np.array(s.dropouts, dtype=np.float64).reshape(-1, 2)
    if not (np.isfinite(spans).all() and (spans[:, 0] < spans[:, 1]).all()):
        raise InvalidScenario("dropout spans need finite bounds and end > start")
    hidden = ((spans[:, :1] <= t) & (t < spans[:, 1:])).any(axis=0)

    def interp(name: str) -> list[np.ndarray]:
        if not getattr(s, name):
            raise InvalidScenario(f"{name} schedule is empty")
        ts, *values = zip(*getattr(s, name))
        # np.interp needs increasing times, and draws a wrong path without them.
        if not all(b > a for a, b in zip(ts, ts[1:])):
            raise InvalidScenario(f"{name} breakpoint times must strictly increase")
        return [np.interp(t, ts, v) for v in values]

    x, y = interp("position")
    (heading,), (gain,), (offset,) = (interp(name) for name in ("heading", "gain", "offset"))
    if not np.isfinite([x, y, heading, gain, offset]).all():
        raise InvalidScenario("a schedule overflows between breakpoints too close in time")
    tlx, tly = np.round(x - (side - 1) / 2.0), np.round(y - (side - 1) / 2.0)
    inside = (tlx >= 0) & (tly >= 0) & (tlx + side <= s.width) & (tly + side <= s.height)
    out = np.flatnonzero(~(inside | hidden))
    if out.size:
        raise InvalidScenario(f"target leaves the frame at t={t[out[0]]:.3f}s while in view")
    return _Samples(t, ~hidden, x, y, heading, gain, offset)


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

class SceneRenderer:
    """Renders scenario frames; owns the static world raster.

    The visible frames' headings, with consecutive repeats dropped, are
    warped in chunks of ``WARP_CHUNK`` by one ``rotate`` call each; the last
    chunk is kept, so a constant-heading scene warps its sprite once. A
    frame is clipped only when its lit world and chunk range leave [0, 255].
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        s = scenario
        samples = _sample(s)
        self.canvas_side = rotation_canvas_side(s.sprite_width, s.sprite_height)
        half = (self.canvas_side - 1) / 2.0
        # Per frame: time, visibility, canvas corner, heading in [0, 360), gain and
        # offset, as Python scalars so that the CSVs print floats and bools, not numpy's.
        self._rows = [
            (t, visible, round(x - half), round(y - half), heading % 360.0, gain, offset)
            for t, visible, x, y, heading, gain, offset in zip(*(c.tolist() for c in samples))]
        # The visible frames' distinct headings in frame order, consecutive
        # repeats dropped, and each frame's slot in that list.
        headings, self._slots = [], []
        for _, visible, _, _, heading, *_ in self._rows:
            if visible and (not headings or headings[-1] != heading):
                headings.append(heading)
            self._slots.append(len(headings) - 1)
        self._headings = np.array(headings)
        rng = np.random.default_rng(s.seed)
        m = WORLD_MARGIN
        wh, ww = s.height + 2 * m, s.width + 2 * m
        world = BACKGROUND_BASE + BACKGROUND_CONTRAST * value_noise(
            rng, wh, ww, BACKGROUND_CELL)
        self.sprite = blob_sprite(rng, s.sprite_width, s.sprite_height,
                                  SPRITE_CONTRAST, BACKGROUND_BASE)
        self._warped = None  # (chunk, canvases, inside, covered range) of the last warp
        self._place_distractors(rng, world, list(zip(samples.x[::5], samples.y[::5])))
        world = np.clip(world, 0.0, 255.0)
        world.setflags(write=False)
        self.world = world
        self._world_range = (world.min().item(), world.max().item())

    def _place_distractors(self, rng: np.random.Generator, world: np.ndarray,
                           path: list[tuple[float, float]]) -> None:
        s = self.scenario
        m = WORLD_MARGIN
        side = self.canvas_side
        keep_away = math.hypot(side, side)
        placed = []
        for i in range(s.distractors):
            tex = blob_sprite(rng, s.sprite_width, s.sprite_height,
                              SPRITE_CONTRAST * 0.8, BACKGROUND_BASE, n_blobs=5)
            for _ in range(200):
                x = rng.integers(0, world.shape[1] - s.sprite_width)
                y = rng.integers(0, world.shape[0] - s.sprite_height)
                cx, cy = x - m + s.sprite_width / 2, y - m + s.sprite_height / 2
                if all(math.hypot(cx - px, cy - py) > keep_away for px, py in path) \
                        and all(math.hypot(cx - qx, cy - qy) > keep_away for qx, qy in placed):
                    world[y:y + s.sprite_height, x:x + s.sprite_width] = tex
                    placed.append((cx, cy))
                    break

    def target_rect_frame0(self) -> tuple[int, int, int, int]:
        """Sprite-interior ROI (x, y, w, h) in frame 0, for template selection."""
        s = self.scenario
        _, visible, tlx, tly, *_ = self._rows[0]
        if not visible:
            raise InvalidScenario("target must be visible at frame 0 to select a template")
        mx = (self.canvas_side - s.sprite_width) // 2
        my = (self.canvas_side - s.sprite_height) // 2
        return (tlx + mx, tly + my, s.sprite_width, s.sprite_height)

    def render(self, k: int, viewport: tuple[int, int] = (0, 0)) -> tuple[Frame, TruthRecord]:
        """Render frame k with the viewport shifted by whole pixels, at most
        ``WORLD_MARGIN`` on either axis. The reported truth position is in
        the rendered frame's coordinates (world position minus the shift).
        """
        s = self.scenario
        if not 0 <= k < len(self._rows):
            raise IndexError(f"frame {k} outside the scenario's {len(self._rows)} frames")
        t, visible, tlx, tly, heading, gain, offset = self._rows[k]
        m = WORLD_MARGIN
        ox, oy = int(viewport[0]), int(viewport[1])
        if max(abs(ox), abs(oy)) > m:
            raise InvalidScenario(
                f"frame {k}: viewport offset ({ox}, {oy}) exceeds the world's {m} px margin")
        # World and sprite are lit before the paste, with the bits that lighting
        # after it gives; the lit world is this frame's own array.
        crop = _lit(self.world[m + oy:m + oy + s.height, m + ox:m + ox + s.width], gain, offset)
        lo, hi = self._world_range
        if visible:
            canvas, inside = self._sprite_at(k)
            _paste(crop, _lit(canvas, gain, offset), inside, tlx - ox, tly - oy)
            sprite_lo, sprite_hi = self._warped[3]
            lo, hi = min(lo, sprite_lo), max(hi, sprite_hi)
        # Lighting is monotonic in each pixel, so the lit bounds bound the
        # frame, and the clip would return every value unchanged if they stay in range.
        lo, hi = _lit(np.array([lo, hi]), gain, offset).tolist()
        if min(lo, hi) < 0.0 or max(lo, hi) > 255.0:
            np.clip(crop, 0.0, 255.0, out=crop)
        if s.quantize:
            np.rint(crop, out=crop)
        half = (self.canvas_side - 1) / 2.0
        truth = TruthRecord(frame_index=k, time=t, visible=visible, x=tlx + half - ox,
                            y=tly + half - oy, heading=heading, gain=gain, offset=offset)
        return Frame(crop, timestamp=t, frame_index=k), truth

    def _sprite_at(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The sprite warped to frame k's heading and the mask of the canvas
        pixels it covers. The chunk of ``WARP_CHUNK`` headings that holds
        frame k's is warped by one call and kept in ``_warped``, with the
        least and greatest value of its covered pixels (infinities when a
        sprite one pixel wide covers none in the whole chunk)."""
        chunk, i = divmod(self._slots[k], WARP_CHUNK)
        if self._warped is None or self._warped[0] != chunk:
            canvases, inside = rotate(
                self.sprite, self._headings[chunk * WARP_CHUNK:(chunk + 1) * WARP_CHUNK], 0.0)
            covered = (np.min(canvases, where=inside, initial=math.inf).item(),
                       np.max(canvases, where=inside, initial=-math.inf).item())
            self._warped = (chunk, canvases, inside, covered)
        _, canvases, inside, _ = self._warped
        return canvases[i], inside[i]


def _lit(pixels: np.ndarray, gain: float, offset: float) -> np.ndarray:
    """``pixels * gain + offset`` in a new array, skipping the steps that
    leave every bit as it is (adding 0.0 turns a negative gain's -0.0 to 0.0)."""
    out = pixels.copy() if gain == 1.0 else np.multiply(pixels, gain)
    if offset != 0.0 or math.copysign(1.0, gain) < 0.0:
        out += offset
    return out


def _paste(dst: np.ndarray, src: np.ndarray, mask: np.ndarray, x: int, y: int) -> None:
    """Copy the masked pixels of src onto dst at (x, y), clipped to dst bounds.

    This is the alpha blend ``(1 - a) * dst + a * src`` with ``a`` the warp
    of an all-ones raster: a sample's bilinear weights ``1 - f`` and ``f``
    (f in [0, 1]) sum to exactly 1.0 in floating point, so ``a`` is 1.0
    where the sample falls on the sprite and 0.0 elsewhere, and the blend
    picks one operand unchanged.
    """
    h, w = src.shape
    H, W = dst.shape
    x0, y0 = max(0, x), max(0, y)
    x1, y1 = min(W, x + w), min(H, y + h)
    if x0 >= x1 or y0 >= y1:
        return
    sub = (slice(y0 - y, y1 - y), slice(x0 - x, x1 - x))
    np.copyto(dst[y0:y1, x0:x1], src[sub], where=mask[sub])


# --------------------------------------------------------------------------
# The closed loop
# --------------------------------------------------------------------------

def run_closed_loop(scenario: Scenario, cfg: TrackerConfig | None = None,
                    frame_sink=None) -> TrackReport:
    """Full pipeline: render -> window -> detect -> correct/miss -> gimbal.

    The gimbal pose shifts the next frame's viewport, closing the loop.
    The template is the target's rectangle in frame 0, where it must be in view.
    ``frame_sink``, if given, receives every rendered Frame (for export).
    """
    cfg = (cfg or TrackerConfig()).validate()
    renderer = SceneRenderer(scenario)
    s = scenario
    gimbal = gim.Gimbal(cfg, s.width, s.height, s.fps)
    # Lazy: frame k is rendered at the viewport left by frame k-1's gimbal step.
    source = (renderer.render(k, gimbal.viewport()) for k in range(s.n_frames))
    tracker = Tracker(cfg, frame_size=(s.width, s.height))
    records = list(track_frames(tracker, source, renderer.target_rect_frame0(),
                                gimbal, frame_sink))
    return TrackReport(records=records, canvas=tracker.canvas)


# --------------------------------------------------------------------------
# Scenario files
# --------------------------------------------------------------------------

_SCHEDULE_KEYS = {"position": 3, "heading": 2, "gain": 2, "offset": 2}


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse the key=value scenario format; errors carry line numbers."""
    readers = {**field_readers(Scenario), "dropout": _parse_dropouts,
               **{key: functools.partial(_parse_schedule, arity=arity)
                  for key, arity in _SCHEDULE_KEYS.items()}}
    values = parse_kv(text, source, readers)
    for required in ("width", "height", "fps", "duration", "seed", "position"):
        if required not in values:
            raise ConfigError(f"{source}: missing required key '{required}'")
    if "dropout" in values:
        values["dropouts"] = values.pop("dropout")
    return Scenario(**values).validate()


def load_scenario(path: str) -> Scenario:
    return parse_scenario(read_text(path, "scenario"), source=path)


def scenario_text(s: Scenario) -> str:
    """Serialize a scenario to the key=value file format."""
    items = [(key, ";".join(f"{p[0]!r}:" + ",".join(repr(float(c)) for c in p[1:])
                            for p in getattr(s, key))) for key in _SCHEDULE_KEYS]
    if s.dropouts:
        items.append(("dropout", ",".join(f"{a!r}-{b!r}" for a, b in s.dropouts)))
    return kv_text("scenario", s, items)


def _items(raw: str, sep: str) -> list[str]:
    """The non-blank items of a ``sep``-separated list, stripped of ASCII blanks."""
    return [item.strip(string.whitespace) for item in raw.split(sep)
            if item.strip(string.whitespace)]


def _parse_schedule(raw: str, arity: int) -> Breakpoints:
    """Parse 't:v' or 't:x,y' breakpoints separated by ';'."""
    points = []
    for item in _items(raw, ";"):
        if ":" not in item:
            raise ValueError(f"breakpoint '{item}' needs the form t:value")
        t_str, v_str = item.split(":", 1)
        comps = [read_float(c) for c in v_str.split(",")]
        if len(comps) != arity - 1:
            raise ValueError(
                f"breakpoint '{item}' needs {arity - 1} value component(s)")
        points.append((read_float(t_str), *comps))
    if not points:
        raise ValueError("schedule has no breakpoints")
    if any(b[0] <= a[0] for a, b in zip(points, points[1:])):
        raise ValueError("breakpoint times must strictly increase")
    return points


def _parse_dropouts(raw: str) -> list[tuple[float, float]]:
    spans = []
    for item in _items(raw, ","):
        # The separator is the first '-' that is neither a sign nor part of
        # an exponent, so spans such as 2.5e-05-1.0 read back as written.
        span = re.fullmatch(r"(.*?[^eE-])-(.+)", item)
        if span is None:
            raise ValueError(f"dropout '{item}' needs the form start-end")
        a, b = read_float(span[1]), read_float(span[2])
        if b <= a:
            raise ValueError(f"dropout '{item}' must have end > start")
        spans.append((a, b))
    return spans


# --------------------------------------------------------------------------
# The benchmark scenario
# --------------------------------------------------------------------------

def benchmark_scenario(patch_width: int, patch_height: int,
                       n_frames: int = 600) -> Scenario:
    """640x480 quantized scenario of seed 5 used by the throughput benchmark.

    Its path and heading ramp end at 24 s, the length of the default 600
    frames, whatever ``n_frames`` is: a shorter clip follows the start of
    that path at the same speed and turn rate, and a longer one holds the
    final pose.
    """
    fps, end = 25.0, 24.0
    return Scenario(
        width=640, height=480, fps=fps, duration=n_frames / fps, seed=5,
        position=[(0.0, 240.0, 200.0), (end, 400.0, 280.0)],
        heading=[(0.0, 0.0), (end, 350.0)],
        sprite_width=patch_width, sprite_height=patch_height,
        distractors=3, quantize=True,
    )
