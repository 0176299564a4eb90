"""Zero-mean normalized cross-correlation matching and template scheduling.

Two correlation paths are provided: ``zmncc_oracle`` evaluates the textbook
definition at a single placement with explicit mean subtraction and no
algebraic shortcuts, and ``zmncc_fast`` produces the full score map over a
search window. The fast path is required to agree with the oracle to 1e-9
everywhere.

The fast path splits in two. ``WindowStats`` holds what depends only on the
frame, the window and the template shape: the mean-centred region, the
zero-mean energy of every placement and, built on first use, the region's
spectrum. ``detect`` builds it once per frame and shares it across the
bank. The placement sums behind the energies are Lewis's (1995, *Fast
Normalized Cross-Correlation*) running sums, taken for every window as two
banded 0/1 matrix products per plane, a tile of outputs at a time, so that
no product exceeds ``_DIRECT_MAX_MACS`` multiply-adds. A steady-state
window fits in one tile. Each sum adds only one template side of terms,
which keeps a full-frame search's energies near exact where prefix sums
over the whole frame would not be. A frame may keep 8-bit pixels;
``WindowStats`` converts only the clamped window to float64, and since sums
of integers are exact in float64 its statistics, and so every score, equal
those of the same frame held as float64. The zero-mean numerator is then
computed per template, also by cost: one matrix product of the region,
read in place as overlapping row strips, with a block-Toeplitz form of the
template while its multiply-adds stay within ``_DIRECT_MAX_MACS``
(steady-state windows need at most about 7e5), and FFT cross-correlation of
the region, padded to a 5-smooth size, beyond it. The region's spectrum is
held transposed, so every FFT pass runs along contiguous rows. A map keeps
the numerator and forms its scores only when asked; ``detect`` compares
each numerator with one bound per frame and scores only the placements
that pass. On a 640x480 frame with a 45x45 canvas (7.5e9 multiply-adds for
the strip product) one FFT numerator takes about 3.2 ms and a sweep frame
of seven maps about 33 ms, 41 ms under glibc's default allocator settings
(one thread of a 2-core Intel Xeon virtual machine).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import UndefinedScore, WindowTooSmall
from .imaging import Frame, Patch, TemplateBank

if TYPE_CHECKING:
    from .estimator import SearchWindow

TEMPLATE_BUDGET = 7

# Offsets from the last matched template in the order they are tried: the
# paper's k-2 .. k+4 set, nearest heading first. Heading changes slowly, so
# the first template usually hits and the scan stops there (early
# termination as in Barnea & Silverman 1972, SSDA).
_BEST_FIRST = (0, -1, 1, -2, 2, 3, 4)

# Windows whose zero-mean energy falls below this are treated as constant
# (score undefined). Intensities are 8-bit scale, so any real contrast
# yields an energy >= ~1 while float residue on a flat window stays < 1e-4.
_FLAT_ENERGY_TOL = 1e-3

# The most multiply-adds of any one matrix product the matcher forms: the
# banded box-sum products are tiled to fit it, and windows whose strip
# product needs more (placement rows x strip length x placement columns)
# take the FFT numerator. Steady windows need at most about 7e5; near 1e6 the
# strip product costs as much as a frame's first FFT map, and only windows
# grown by a miss lie between.
_DIRECT_MAX_MACS = 2_000_000


@dataclass(frozen=True)
class CorrelationMap:
    """ZMNCC scores over all valid template placements inside a window.

    Holds the zero-mean numerator ``num`` and the window's placement
    ``energy``; ``scores`` is formed from them on first access.
    ``scores[v, u]`` is the coefficient for the template's top-left corner
    at frame pixel (x0 + u, y0 + v); NaN marks placements where the window
    content is constant and the score is undefined.
    """

    num: np.ndarray
    energy: np.ndarray
    zm_norm: float
    x0: int
    y0: int

    @functools.cached_property
    def scores(self) -> np.ndarray:
        return _score(self.num, self.energy, self.zm_norm)

    @property
    def width(self) -> int:
        return self.num.shape[1]

    @property
    def height(self) -> int:
        return self.num.shape[0]

    def best(self) -> tuple[float, tuple[int, int]]:
        """Max defined score and its placement in frame coordinates."""
        if np.all(np.isnan(self.scores)):
            return (float("nan"), (self.x0, self.y0))
        idx = np.nanargmax(self.scores)
        v, u = np.unravel_index(idx, self.scores.shape)
        return (float(self.scores[v, u]), (self.x0 + int(u), self.y0 + int(v)))


def _score(num: np.ndarray, energy: np.ndarray, zm_norm: float) -> np.ndarray:
    """``num / sqrt(energy * zm_norm**2)`` elementwise, in that order of
    operations, so a score taken at some placements has the bits of the same
    placements' score in the full map."""
    scores = np.multiply(energy, zm_norm ** 2)
    np.sqrt(scores, out=scores)
    np.divide(num, scores, out=scores)
    return scores


@dataclass(frozen=True)
class Detection:
    """Matched target location: centroid of all above-threshold placements."""

    position: tuple[int, int]
    score: float
    template_index: int


@dataclass
class SchedulerState:
    """Rotation-bank scheduling state; single-owner, mutated by ``detect``.

    After a match at index k (``matched``) the next frame scans the paper's
    set [k-2 .. k+4] (mod bank size) best-first: k, k-1, k+1, k-2, k+2, k+3,
    k+4, so the template that matched last is tried first. After a full miss
    it sweeps consecutive templates from ``sweep_start``: one template after
    the start of the missed frame's set, which is k-2 after a match. A fresh
    tracker sweeps from template 0.
    """

    matched: Optional[int] = None
    sweep_start: int = 0
    last_frame_evals: int = field(default=0, compare=False)


def schedule_order(sched: SchedulerState, bank_size: int) -> list[int]:
    """Template indices to try this frame, in order, at most ``TEMPLATE_BUDGET``."""
    n = min(TEMPLATE_BUDGET, bank_size)
    if sched.matched is not None:
        return [(sched.matched + d) % bank_size for d in _BEST_FIRST[:n]]
    return [(sched.sweep_start + i) % bank_size for i in range(n)]


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
    # The reductions that max/min/mean/sum call, without their argument handling.
    if float(np.maximum.reduce(window, axis=None)) == float(np.minimum.reduce(window, axis=None)):
        raise UndefinedScore("window under the template is constant")
    if template.is_constant:
        raise UndefinedScore("template is constant")
    t = template.pixels
    tzm = t - np.add.reduce(t, axis=None) / t.size
    wzm = window - np.add.reduce(window, axis=None) / window.size
    num = float(np.add.reduce(wzm * tzm, axis=None))
    den = math.sqrt(float(np.add.reduce(wzm * wzm, axis=None))
                    * float(np.add.reduce(tzm * tzm, axis=None)))
    return num / den


class WindowStats:
    """Template-independent statistics of one search window.

    Built once per frame and window for one template shape and shared by
    every bank template tried on that frame (all bank templates share one
    canvas). Holds the clamped region ``g`` centred on its mean, the
    zero-mean ``energy`` of every placement, NaN where the content is
    constant, and whether the numerator is the ``direct`` strip product,
    which takes ``wh*th*w*ww`` multiply-adds. The placement sums behind
    ``energy`` come from banded products taken ``n`` placement rows at a
    time (``n*(n+th-1)*w`` multiply-adds) and, within those, ``m`` placement
    columns at a time (at most ``wh*(m+tw-1)*m``), with ``n`` and ``m`` the
    largest that fit ``_DIRECT_MAX_MACS``. The region's spectrum, which only
    the FFT numerator needs, is built on its first use.
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
        # Centering a float64 copy in place gives the bits of region - mean.
        g = region.astype(np.float64)
        g -= _mean(region)

        h, w = g.shape
        wh, ww = h - th + 1, w - tw + 1
        # Box sums, a tile of placement rows at a time: rows @ a sums each run
        # of th rows of a, and a @ cols each run of tw columns. Nothing
        # frame-sized is allocated here but g and energy.
        n, m = _tile(wh, th, w), _tile(ww, tw, wh)
        rows = _band(n, n + th - 1, th)
        cols = rows.T if (n, th) == (m, tw) else _band(m, m + tw - 1, tw).T
        energy = np.empty((wh, ww))
        for i in range(0, wh, n):
            k = min(n, wh - i)
            band, strip = rows[:k, :k + th - 1], g[i:i + k + th - 1]
            win_sum = _box_sums(band, strip, cols, ww)
            win_sum *= win_sum
            win_sum /= th * tw
            np.subtract(_box_sums(band, strip * strip, cols, ww), win_sum, out=energy[i:i + k])
        # A NaN energy gives a NaN score, with no floating-point warning.
        energy[energy <= _FLAT_ENERGY_TOL] = np.nan

        self.shape = (th, tw)
        self.x0, self.y0 = x0, y0
        self.g = g
        self.energy = energy
        self.direct = wh * th * w * ww <= _DIRECT_MAX_MACS

    @functools.cached_property
    def fft_shape(self) -> tuple[int, int]:
        """Padded FFT size: the region's sides rounded up to 5-smooth lengths."""
        return (_fast_len(self.g.shape[0]), _fast_len(self.g.shape[1]))

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """2-D spectrum of the centred region, zero-padded to ``fft_shape``,
        held transposed: ``spectrum[j, i]`` is ``rfft2(g, fft_shape)[i, j]`` up
        to rounding.

        Each pass runs along contiguous rows: ``rfft`` along the region's
        rows, then ``fft`` along the rows of the transposed copy.
        """
        fh, fw = self.fft_shape
        rows = np.fft.rfft(self.g, fw, axis=1)
        return np.fft.fft(np.ascontiguousarray(rows.T), fh, axis=1)


def _mean(a: np.ndarray) -> float:
    """``float(a.mean())``, bit for bit: the reduction that ``mean`` calls,
    without its argument handling."""
    return float(np.add.reduce(a, axis=None, dtype=np.float64) / a.size)


def _band(n: int, m: int, k: int) -> np.ndarray:
    """``(n, m)`` 0/1 matrix, ``m = n + k - 1``, whose row ``i`` holds ones in
    columns ``i .. i + k - 1``: ``band @ a`` sums every run of ``k`` rows of
    ``a``. The ones are written through one view of the band's diagonals."""
    band = np.zeros((n, m))
    step = band.strides[1]
    np.ndarray((n, k), band.dtype, band, 0, (band.strides[0] + step, step))[...] = 1.0
    return band


def _tile(outputs: int, k: int, depth: int) -> int:
    """Outputs per tile of a banded product summing runs of ``k``: the most,
    from 1 to ``outputs``, whose ``n*(n+k-1)*depth`` multiply-adds fit ``_DIRECT_MAX_MACS``."""
    q = _DIRECT_MAX_MACS // depth
    n = (math.isqrt((k - 1) ** 2 + 4 * q) - k + 1) // 2
    return min(outputs, max(1, n))


def _box_sums(rows: np.ndarray, a: np.ndarray, cols: np.ndarray, ww: int) -> np.ndarray:
    """``rows @ a @ cols``, the sums over every box of ``a`` for 0/1 bands,
    the second product taken ``m = cols.shape[1]`` of ``ww`` columns at a time."""
    row_sums = rows @ a
    m, tw = cols.shape[1], cols.shape[0] - cols.shape[1] + 1
    if m == ww:  # one tile holds every column
        return row_sums @ cols
    out = np.empty((len(row_sums), ww))
    for j in range(0, ww, m):
        k = min(m, ww - j)
        np.matmul(row_sums[:, j:j + k + tw - 1], cols[:k + tw - 1, :k], out=out[:, j:j + k])
    return out


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
    """Zero-mean numerator as one product of row strips and a block-Toeplitz
    template (MEC's lowering: Cho & Brand, ICML 2017). Rows ``v .. v+th-1``
    of the C-contiguous centred region are one run, so the region read as a
    ``(wh, th*w)`` matrix with row stride ``w`` needs no copy; the template's
    ``T[u, i*w + u + j] = t[i, j]`` is written through one strided view."""
    th, tw = tzm.shape
    wh, ww = stats.energy.shape
    w = stats.g.shape[1]
    strips = np.ndarray((wh, th * w), stats.g.dtype, stats.g, 0, stats.g.strides)
    strips.flags.writeable = False
    toeplitz = np.zeros((ww, th, w))
    su, si, sj = toeplitz.strides
    np.ndarray((ww, th, tw), toeplitz.dtype, toeplitz, 0, (su + sj, si, sj))[...] = tzm
    return np.dot(strips, toeplitz.reshape(ww, th * w).T)


def _fft_numerator(stats: WindowStats, tzm: np.ndarray) -> np.ndarray:
    """Zero-mean numerator as FFT cross-correlation.

    Works in the spectrum's transposed layout, so every pass runs along
    contiguous rows: the template's row ``rfft`` covers only its own rows,
    the product is taken in the column ``fft``'s buffer, and only the rows
    of valid placements are transposed back for the final row ``irfft``.
    The padded length covers the whole region, so the valid placements never
    wrap around.
    """
    wh, ww = stats.energy.shape
    fh, fw = stats.fft_shape
    rows = np.fft.rfft(tzm, fw, axis=1)
    spec = np.fft.fft(np.ascontiguousarray(rows.T), fh, axis=1)
    np.conjugate(spec, out=spec)
    spec *= stats.spectrum
    spec = np.fft.ifft(spec, axis=1)
    return np.fft.irfft(np.ascontiguousarray(spec[:, :wh].T), fw, axis=1)[:, :ww]


def zmncc_fast(frame: Frame, template: Patch, window: "SearchWindow",
               stats: Optional[WindowStats] = None) -> CorrelationMap:
    """ZMNCC score map over every placement of ``template`` in ``window``.

    Window sums and sums of squares come from ``WindowStats``, built over
    the (mean-centered) window region once per frame. The zero-mean
    numerator is the direct strip product while its multiply-adds stay
    within ``_DIRECT_MAX_MACS``, and FFT cross-correlation beyond.
    Accumulation is float64 throughout.
    ``stats``, if given, must have been built from the same ``frame`` and
    ``window`` for the template's shape.
    """
    if stats is None:
        stats = WindowStats(frame, window, template.pixels.shape)
    elif stats.shape != template.pixels.shape:
        raise ValueError(
            f"window statistics for {stats.shape} used with a "
            f"{template.pixels.shape} template")
    if template.is_constant:
        raise UndefinedScore("template is constant")
    if stats.direct:
        num = _direct_numerator(stats, template.zm_pixels)
    else:
        num = _fft_numerator(stats, template.zm_pixels)
    return CorrelationMap(num, stats.energy, template.zm_norm, stats.x0, stats.y0)


def _centroid_cluster(us: np.ndarray, vs: np.ndarray, scores: np.ndarray,
                      diag: float, grid: tuple[int, int]) -> tuple[float, float, float]:
    """Centroid of matching placements; multimodal maps keep only the
    cluster around the maximum score (points within 2 x template diagonal).
    No point lies that far from the centroid when the ``(wh, ww)`` placement
    grid's own diagonal is no longer, as in every steady-state window.
    """
    cu, cv = _mean(us), _mean(vs)
    if math.hypot(*grid) > 2.0 * diag and np.any(np.hypot(us - cu, vs - cv) > 2.0 * diag):
        k = int(np.argmax(scores))
        keep = np.hypot(us - us[k], vs - vs[k]) <= 2.0 * diag
        us, vs, scores = us[keep], vs[keep], scores[keep]
        cu, cv = _mean(us), _mean(vs)
    return cu, cv, float(scores.max())


def detect(frame: Frame, bank: TemplateBank, sched: SchedulerState,
           window: "SearchWindow", threshold: float) -> Optional[Detection]:
    """Try up to ``TEMPLATE_BUDGET`` bank templates in scheduler order.

    Stops at the first template whose map has any score >= threshold; the
    detection position is the centroid of that template's matching
    placements, reported at template-center coordinates. Returns None on a
    full miss and advances the scheduler's sweep start. ``sched`` is
    updated in place; ``sched.last_frame_evals`` counts the template maps
    evaluated this call.

    A score ``num / sqrt(energy * zm**2) >= threshold`` needs ``num >=
    threshold * zm * sqrt(energy)`` up to a few roundings (the bounded
    correlation of Di Stefano, Mattoccia & Tombari, 2005). One bound per
    frame, with the smallest ``zm`` of the frame's templates and a 1e-9
    margin for those roundings, picks a superset of every map's hits, and
    only these candidates are scored, with the bits of the full map's
    scores. A NaN energy gives a NaN bound, which nothing reaches.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    order = schedule_order(sched, bank.size)
    tw, th = bank.canvas
    diag = math.hypot(tw, th)

    stats = WindowStats(frame, window, (th, tw))
    bound = None
    evals = 0
    for index in order:
        cmap = zmncc_fast(frame, bank.templates[index], window, stats)
        evals += 1
        if bound is None:  # built once the first numerator's temporaries are freed
            zmin = min(bank.templates[i].zm_norm for i in order)
            bound = np.sqrt(stats.energy)
            bound *= threshold * zmin * (1 - 1e-9)
        candidates = cmap.num >= bound  # NaN compares False
        if candidates.any():
            scores = _score(cmap.num[candidates], cmap.energy[candidates], cmap.zm_norm)
            hits = scores >= threshold
            if hits.any():
                break
        del cmap  # so that the next map's temporaries do not sit beside it
    else:
        start = sched.matched - 2 if sched.matched is not None else sched.sweep_start
        sched.sweep_start = (start + 1) % bank.size
        sched.matched = None
        sched.last_frame_evals = evals
        return None

    candidates[candidates] = hits
    # Flat indices: a 2-D nonzero scans a full-frame map far slower.
    vs, us = np.divmod(np.flatnonzero(candidates), stats.energy.shape[1])
    cu, cv, best = _centroid_cluster(
        us.astype(np.float64), vs.astype(np.float64), scores[hits], diag, stats.energy.shape)
    px = int(round(stats.x0 + cu + (tw - 1) / 2.0))
    py = int(round(stats.y0 + cv + (th - 1) / 2.0))
    sched.matched = index
    sched.last_frame_evals = evals
    return Detection(position=(px, py), score=best, template_index=index)
