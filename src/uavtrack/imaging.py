"""Image containers, rotation warping and template banks.

Conventions used throughout the package: origin at the top-left corner,
x rightward, y downward, integer pixel centers, intensities in [0, 255].
A positive warp angle rotates image content clockwise on screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonDiscriminativeTemplate, OutOfBounds

BANK_SIZE = 36
BANK_STEP_DEG = 10.0


def _raster(a: np.ndarray, what: str) -> np.ndarray:
    """``a``, checked to be a non-empty 2-D raster."""
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D raster, got shape {a.shape}")
    if a.size == 0:
        raise DimensionMismatch(f"{what} must be non-empty")
    return a


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; the caller's own array stays writeable."""
    v = a.view()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class Frame:
    """Single-channel intensity raster with acquisition metadata.

    An 8-bit (``uint8``) raster is kept as it arrives: its type already
    bounds it to [0, 255] and rules out NaN, so it is neither copied nor
    scanned, and consumers convert only the pixels they read. Any other
    input is converted to float64 and range-checked.
    """

    pixels: np.ndarray
    timestamp: float = 0.0
    frame_index: int = 0

    def __post_init__(self):
        a = np.asarray(self.pixels)
        if a.dtype == np.uint8:
            _raster(a, "frame")
        else:
            a = _raster(a.astype(np.float64, copy=False), "frame")
            lo, hi = float(a.min()), float(a.max())
            if not (0.0 <= lo and hi <= 255.0):  # NaN fails too
                raise ValueError(f"frame intensities must lie in [0, 255], got [{lo}, {hi}]")
        object.__setattr__(self, "pixels", _read_only(a))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class Patch:
    """Template raster with cached mean and zero-mean energy.

    ``zm_norm`` is sqrt(sum((t - mean)^2)); it is exactly 0.0 iff the patch
    is constant, in which case the correlation of Eq.-style ZMNCC matching
    is undefined and the patch is rejected as a template.
    """

    pixels: np.ndarray
    origin: tuple[int, int] = (0, 0)
    mean: float = field(init=False)
    zm_norm: float = field(init=False)
    zm_pixels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = _raster(np.asarray(self.pixels, dtype=np.float64), "patch")
        object.__setattr__(self, "pixels", _read_only(a))
        if float(a.max()) == float(a.min()):
            m = float(a.flat[0])
            zm = np.zeros_like(a)
            norm = 0.0
        else:
            m = float(a.mean())
            zm = a - m
            norm = float(np.sqrt(np.sum(zm * zm)))
        zm.setflags(write=False)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "zm_pixels", zm)
        object.__setattr__(self, "zm_norm", norm)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def is_constant(self) -> bool:
        return self.zm_norm == 0.0


@dataclass(frozen=True)
class TemplateBank:
    """Rotated copies of one patch at a fixed angular spacing.

    Template k is the source patch rotated clockwise by k * BANK_STEP_DEG
    degrees, rendered on a shared square canvas.
    """

    templates: tuple[Patch, ...]

    @property
    def size(self) -> int:
        return len(self.templates)

    @property
    def canvas(self) -> tuple[int, int]:
        t = self.templates[0]
        return (t.width, t.height)


def extract_patch(frame: Frame, roi: tuple[int, int, int, int]) -> Patch:
    """Cut a template out of a frame.

    ``roi`` is (x, y, w, h) in pixel coordinates. The region must lie fully
    inside the frame and contain at least 4 pixels; constant regions are
    rejected because their zero-mean energy makes correlation undefined.
    """
    x, y, w, h = (int(v) for v in roi)
    if w <= 0 or h <= 0 or w * h < 4:
        raise OutOfBounds(f"roi {roi} must cover at least 4 pixels")
    if x < 0 or y < 0 or x + w > frame.width or y + h > frame.height:
        raise OutOfBounds(
            f"roi {roi} outside {frame.width}x{frame.height} frame")
    patch = Patch(frame.pixels[y:y + h, x:x + w], origin=(x, y))
    if patch.is_constant:
        raise NonDiscriminativeTemplate(
            f"roi {roi} has constant intensity; cannot be used as a template")
    return patch


def rotation_canvas_side(width: int, height: int) -> int:
    """Square canvas side that holds the patch at any rotation angle."""
    return int(math.ceil(math.hypot(width, height)))


def warp_raster(pixels: np.ndarray, alpha_deg: float, fill: float) -> np.ndarray:
    """Rotate a raster clockwise by ``alpha_deg`` onto its rotation canvas.

    The source is embedded on the square canvas at integer margins and the
    rotation pivots on the embedded source center, so the zero-angle warp
    reproduces the source exactly. Sampling is bilinear via the inverse
    map; destination pixels whose source sample falls outside the raster
    take ``fill``. Source coordinates closer than 1e-9 to the integer grid
    are snapped so quarter-turn warps are exact index permutations.
    """
    src = np.asarray(pixels, dtype=np.float64)
    h, w = src.shape
    side = rotation_canvas_side(w, h)
    mx, my = (side - w) // 2, (side - h) // 2
    # Pivot: source patch center, expressed in both coordinate frames.
    csx, csy = (w - 1) / 2.0, (h - 1) / 2.0
    cdx, cdy = mx + csx, my + csy

    a = math.radians(alpha_deg % 360.0)
    ca, sa = math.cos(a), math.sin(a)
    ys, xs = np.mgrid[0:side, 0:side]
    dx = xs - cdx
    dy = ys - cdy
    sx = ca * dx + sa * dy + csx
    sy = -sa * dx + ca * dy + csy

    for arr in (sx, sy):
        snapped = np.rint(arr)
        near = np.abs(arr - snapped) < 1e-9
        arr[near] = snapped[near]

    inside = (sx >= 0.0) & (sx <= w - 1) & (sy >= 0.0) & (sy <= h - 1)
    x0 = np.clip(np.floor(sx), 0, w - 2).astype(np.intp) if w > 1 else np.zeros_like(sx, dtype=np.intp)
    y0 = np.clip(np.floor(sy), 0, h - 2).astype(np.intp) if h > 1 else np.zeros_like(sy, dtype=np.intp)
    fx = sx - x0
    fy = sy - y0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    top = (1.0 - fx) * src[y0, x0] + fx * src[y0, x1]
    bot = (1.0 - fx) * src[y1, x0] + fx * src[y1, x1]
    out = (1.0 - fy) * top + fy * bot
    out[~inside] = fill
    return out


def warp_rotate(patch: Patch, alpha_deg: float) -> Patch:
    """Rotate a patch clockwise by ``alpha_deg`` degrees onto the bank canvas.

    Out-of-support canvas pixels take the source patch mean so they carry
    roughly zero weight in zero-mean correlation.
    """
    out = warp_raster(patch.pixels, alpha_deg, fill=patch.mean)
    return Patch(out, origin=patch.origin)


def build_template_bank(patch: Patch) -> TemplateBank:
    """Generate the rotation bank: BANK_SIZE templates at BANK_STEP_DEG steps."""
    if patch.is_constant:
        raise NonDiscriminativeTemplate("source patch is constant")
    templates = []
    for k in range(BANK_SIZE):
        t = warp_rotate(patch, k * BANK_STEP_DEG)
        if t.is_constant:
            raise NonDiscriminativeTemplate(
                f"template at {k * BANK_STEP_DEG:.0f} degrees is constant")
        templates.append(t)
    return TemplateBank(templates=tuple(templates))
