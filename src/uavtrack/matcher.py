"""Zero-mean normalized cross-correlation matching and template scheduling.

Two correlation paths are provided: ``zmncc_oracle`` evaluates the textbook
definition at a single placement with explicit mean subtraction and no
algebraic shortcuts, and ``zmncc_fast`` produces the full score map over a
search window. The fast path is required to agree with the oracle to 1e-9
everywhere.

The fast path splits in two. ``WindowStats`` holds what depends only on the
frame, the window and the template shape: the mean-centred region and its
integral-image energies. ``detect`` builds it once per frame and shares it
across the bank. A frame may keep 8-bit pixels; ``WindowStats`` converts
only the clamped window to float64, and since sums of integers are exact in
float64 its statistics, and so every score, equal those of the same frame
held as float64. The zero-mean numerator is then computed per template, by
cost (Lewis 1995, *Fast Normalized Cross-Correlation*): a direct product
while placements x template area stays within ``_DIRECT_MAX_MACS``, which
holds every steady-state window (about 4e5), and FFT cross-correlation of
the region, padded to a 5-smooth size, beyond it (full-frame acquisition,
windows grown by a long miss). On a 640x480 frame with a 45x45 canvas the
direct map takes about 170 ms and the FFT map about 3 ms (one thread of a
2-core AMD EPYC virtual machine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import UndefinedScore, WindowTooSmall
from .imaging import Frame, Patch, TemplateBank

if TYPE_CHECKING:
    from .estimator import SearchWindow

TEMPLATE_BUDGET = 7

# Windows whose zero-mean energy falls below this are treated as constant
# (score undefined). Intensities are 8-bit scale, so any real contrast
# yields an energy >= ~1 while float residue on a flat window stays < 1e-4.
_FLAT_ENERGY_TOL = 1e-3

# Cap on placements x template-area elements materialized per direct
# numerator chunk (about 16 MB of float64).
_CHUNK_ELEMS = 2_000_000

# Windows with more placements x template-area multiply-adds than this take
# the FFT numerator. Steady-state windows stay well below it (about 4e5);
# full-frame acquisition and windows grown by a long miss exceed it.
_DIRECT_MAX_MACS = 4_000_000


@dataclass(frozen=True)
class CorrelationMap:
    """ZMNCC scores over all valid template placements inside a window.

    ``scores[v, u]`` is the coefficient for the template's top-left corner
    at frame pixel (x0 + u, y0 + v); NaN marks placements where the window
    content is constant and the score is undefined.
    """

    scores: np.ndarray
    x0: int
    y0: int

    @property
    def width(self) -> int:
        return self.scores.shape[1]

    @property
    def height(self) -> int:
        return self.scores.shape[0]

    def best(self) -> tuple[float, tuple[int, int]]:
        """Max defined score and its placement in frame coordinates."""
        if np.all(np.isnan(self.scores)):
            return (float("nan"), (self.x0, self.y0))
        idx = np.nanargmax(self.scores)
        v, u = np.unravel_index(idx, self.scores.shape)
        return (float(self.scores[v, u]), (self.x0 + int(u), self.y0 + int(v)))


@dataclass(frozen=True)
class Detection:
    """Matched target location: centroid of all above-threshold placements."""

    position: tuple[int, int]
    score: float
    template_index: int
    frame_index: int


@dataclass
class SchedulerState:
    """Rotation-bank scheduling state; single-owner, mutated by ``detect``.

    After a match at index k the next frame scans [k-2 .. k+4] (mod bank
    size). After a miss the next frame starts one template after the start
    of the missed frame. A fresh tracker starts at template 0.
    """

    last_matched_index: Optional[int] = None
    fallback_start_index: int = 0
    budget: int = TEMPLATE_BUDGET
    last_frame_missed: bool = False
    last_frame_evals: int = field(default=0, compare=False)

    def start_index(self, bank_size: int) -> int:
        if self.last_matched_index is not None and not self.last_frame_missed:
            return (self.last_matched_index - 2) % bank_size
        return self.fallback_start_index % bank_size


def schedule_order(sched: SchedulerState, bank_size: int = 36) -> list[int]:
    """Template indices to try this frame, in order, at most ``budget``."""
    start = sched.start_index(bank_size)
    n = min(sched.budget, bank_size)
    return [(start + i) % bank_size for i in range(n)]


def zmncc_oracle(frame_region: np.ndarray, template: Patch,
                 placement: tuple[int, int]) -> float:
    """Direct ZMNCC at one placement: zero-mean numerator over the product
    of zero-mean energies, evaluated straight from the definition.

    ``placement`` is the (u, v) top-left of the template inside the region.
    """
    region = np.asarray(frame_region, dtype=np.float64)
    u, v = placement
    th, tw = template.pixels.shape
    if u < 0 or v < 0 or v + th > region.shape[0] or u + tw > region.shape[1]:
        raise WindowTooSmall(
            f"placement {placement} puts a {tw}x{th} template outside the region")
    window = region[v:v + th, u:u + tw]
    if float(window.max()) == float(window.min()):
        raise UndefinedScore("window under the template is constant")
    if template.is_constant:
        raise UndefinedScore("template is constant")
    wm = window.mean()
    tzm = template.pixels - template.pixels.mean()
    wzm = window - wm
    num = float(np.sum(wzm * tzm))
    den = math.sqrt(float(np.sum(wzm * wzm)) * float(np.sum(tzm * tzm)))
    return num / den


class WindowStats:
    """Template-independent statistics of one search window.

    Built once per frame and window for one template shape and shared by
    every bank template tried on that frame (all bank templates share one
    canvas). Holds the clamped region centred on its mean, the integral-image
    zero-mean ``energy`` of every placement, the ``defined`` mask of
    placements whose content is not constant, and, on first use by the FFT
    numerator, the region's spectrum.
    """

    def __init__(self, frame: Frame, window: "SearchWindow", shape: tuple[int, int]):
        th, tw = shape
        x0 = max(0, int(window.x0))
        y0 = max(0, int(window.y0))
        x1 = min(frame.width, int(window.x1))
        y1 = min(frame.height, int(window.y1))
        if x1 - x0 < tw or y1 - y0 < th:
            raise WindowTooSmall(
                f"window {(x0, y0, x1, y1)} cannot hold a {tw}x{th} template")

        region = frame.pixels[y0:y1, x0:x1]
        # Centering on the region mean conditions the s2 - s1^2/n subtraction.
        # It is also where an 8-bit region becomes float64: integer sums are
        # exact in float64, so the result equals that of a float64 frame.
        g = region - region.mean()

        s1 = _integral_image(g)
        s2 = _integral_image(g * g)

        wh = g.shape[0] - th + 1
        ww = g.shape[1] - tw + 1
        win_sum = s1[th:th + wh, tw:tw + ww] - s1[:wh, tw:tw + ww] \
            - s1[th:th + wh, :ww] + s1[:wh, :ww]
        win_sq = s2[th:th + wh, tw:tw + ww] - s2[:wh, tw:tw + ww] \
            - s2[th:th + wh, :ww] + s2[:wh, :ww]

        self.shape = (th, tw)
        self.x0, self.y0 = x0, y0
        self.g = g
        self.energy = np.maximum(win_sq - win_sum * win_sum / (th * tw), 0.0)
        self.defined = self.energy > _FLAT_ENERGY_TOL
        self.fft_shape = (_fast_len(g.shape[0]), _fast_len(g.shape[1]))
        self._spectrum: Optional[np.ndarray] = None

    def spectrum(self) -> np.ndarray:
        """``rfft2`` of the centred region, zero-padded to ``fft_shape``."""
        if self._spectrum is None:
            self._spectrum = np.fft.rfft2(self.g, self.fft_shape)
        return self._spectrum

    def normalize(self, num: np.ndarray, template: Patch) -> CorrelationMap:
        """Score map from a zero-mean numerator over this window's placements."""
        scores = np.full(self.energy.shape, np.nan)
        np.divide(num, np.sqrt(self.energy * (template.zm_norm ** 2)),
                  out=scores, where=self.defined)
        return CorrelationMap(scores=scores, x0=self.x0, y0=self.y0)


def _integral_image(a: np.ndarray) -> np.ndarray:
    """Zero-padded integral image: ``s[i, j]`` is the sum of ``a[:i, :j]``.

    Accumulated in place, down the columns and then along the rows, which
    adds in the same order as ``np.cumsum(np.cumsum(a, axis=0), axis=1)``
    without its intermediate arrays.
    """
    s = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    inner = s[1:, 1:]
    inner[...] = a
    np.add.accumulate(inner, axis=0, out=inner)
    np.add.accumulate(inner, axis=1, out=inner)
    return s


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) >= n, a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _direct_numerator(stats: WindowStats, tzm: np.ndarray) -> np.ndarray:
    """Zero-mean numerator as a direct product at every placement."""
    th, tw = tzm.shape
    wh, ww = stats.energy.shape
    num = np.empty((wh, ww))
    view = np.lib.stride_tricks.sliding_window_view(stats.g, (th, tw))
    rows_per_chunk = max(1, _CHUNK_ELEMS // (ww * th * tw))
    for r in range(0, wh, rows_per_chunk):
        stop = min(wh, r + rows_per_chunk)
        num[r:stop] = np.tensordot(view[r:stop], tzm, axes=([2, 3], [0, 1]))
    return num


def _fft_numerator(stats: WindowStats, tzm: np.ndarray) -> np.ndarray:
    """Zero-mean numerator as FFT cross-correlation.

    The padded length covers the whole region, so the valid placements never
    wrap around.
    """
    wh, ww = stats.energy.shape
    spec = stats.spectrum() * np.conj(np.fft.rfft2(tzm, stats.fft_shape))
    return np.fft.irfft2(spec, stats.fft_shape)[:wh, :ww]


def zmncc_fast(frame: Frame, template: Patch, window: "SearchWindow",
               stats: Optional[WindowStats] = None) -> CorrelationMap:
    """ZMNCC score map over every placement of ``template`` in ``window``.

    Window sums and sums of squares come from integral images built over
    the (mean-centered) window region, so per-placement statistics cost
    O(1). The zero-mean numerator is a direct O(template area) product per
    placement while placements x template area stays within
    ``_DIRECT_MAX_MACS``, and FFT cross-correlation beyond. Accumulation is
    float64 throughout. ``stats``, if given, must have been built from the
    same ``frame`` and ``window`` for the template's shape.
    """
    if stats is None:
        stats = WindowStats(frame, window, template.pixels.shape)
    elif stats.shape != template.pixels.shape:
        raise ValueError(
            f"window statistics for {stats.shape} used with a "
            f"{template.pixels.shape} template")
    if template.is_constant:
        raise UndefinedScore("template is constant")
    if stats.energy.size * template.pixels.size <= _DIRECT_MAX_MACS:
        num = _direct_numerator(stats, template.zm_pixels)
    else:
        num = _fft_numerator(stats, template.zm_pixels)
    return stats.normalize(num, template)


def _centroid_cluster(us: np.ndarray, vs: np.ndarray, scores: np.ndarray,
                      diag: float) -> tuple[float, float, float]:
    """Centroid of matching placements; multimodal maps keep only the
    cluster around the maximum score (points within 2 x template diagonal).
    """
    cu, cv = float(us.mean()), float(vs.mean())
    d = np.hypot(us - cu, vs - cv)
    if np.any(d > 2.0 * diag):
        k = int(np.argmax(scores))
        keep = np.hypot(us - us[k], vs - vs[k]) <= 2.0 * diag
        us, vs, scores = us[keep], vs[keep], scores[keep]
        cu, cv = float(us.mean()), float(vs.mean())
    return cu, cv, float(scores.max())


def detect(frame: Frame, bank: TemplateBank, sched: SchedulerState,
           window: "SearchWindow", threshold: float) -> Optional[Detection]:
    """Try up to ``budget`` bank templates in scheduler order.

    Stops at the first template whose map has any score >= threshold; the
    detection position is the centroid of that template's matching
    placements, reported at template-center coordinates. Returns None on a
    full miss and advances the scheduler's fallback start. ``sched`` is
    updated in place; ``sched.last_frame_evals`` counts the template maps
    evaluated this call.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    bank_size = bank.size
    order = schedule_order(sched, bank_size)
    start = order[0]
    tw, th = bank.canvas
    diag = math.hypot(tw, th)

    stats = WindowStats(frame, window, (th, tw))
    evals = 0
    for index in order:
        template = bank.templates[index]
        cmap = zmncc_fast(frame, template, window, stats)
        evals += 1
        hits = cmap.scores >= threshold  # NaN compares False
        if not np.any(hits):
            continue
        vs, us = np.nonzero(hits)
        cu, cv, best = _centroid_cluster(
            us.astype(np.float64), vs.astype(np.float64),
            cmap.scores[vs, us], diag)
        px = int(round(cmap.x0 + cu + (tw - 1) / 2.0))
        py = int(round(cmap.y0 + cv + (th - 1) / 2.0))
        sched.last_matched_index = index
        sched.last_frame_missed = False
        sched.last_frame_evals = evals
        return Detection(position=(px, py), score=best,
                         template_index=index, frame_index=frame.frame_index)

    sched.fallback_start_index = (start + 1) % bank_size
    sched.last_frame_missed = True
    sched.last_frame_evals = evals
    return None
