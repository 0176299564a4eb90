import numpy as np
import pytest

from uavtrack.errors import DimensionMismatch, NonDiscriminativeTemplate, OutOfBounds
from uavtrack.imaging import (
    BANK_SIZE, Frame, Patch, build_template_bank, extract_patch,
    rotation_canvas_side, to_grayscale, warp_raster, warp_rotate,
)


def embed(patch: Patch) -> tuple[np.ndarray, int, int]:
    """Reference embedding of a patch on its rotation canvas (mean fill)."""
    h, w = patch.pixels.shape
    side = rotation_canvas_side(w, h)
    canvas = np.full((side, side), patch.mean)
    mx, my = (side - w) // 2, (side - h) // 2
    canvas[my:my + h, mx:mx + w] = patch.pixels
    return canvas, mx, my


class TestGrayscale:
    def test_gray_input_is_fixed_point(self):
        f = to_grayscale([np.full((1, 1), 100.0)] * 3)
        assert f.pixels[0, 0] == pytest.approx(100.0, abs=1e-12)

    def test_pure_red(self):
        f = to_grayscale([np.full((1, 1), 255.0), np.zeros((1, 1)), np.zeros((1, 1))])
        assert f.pixels[0, 0] == 0.299 * 255.0

    def test_matches_scalar_oracle(self, rng):
        rgb = rng.uniform(0, 255, (4, 4, 3))
        f = to_grayscale(rgb)
        for y in range(4):
            for x in range(4):
                want = 0.299 * rgb[y, x, 0] + 0.587 * rgb[y, x, 1] + 0.114 * rgb[y, x, 2]
                assert abs(f.pixels[y, x] - want) < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(DimensionMismatch):
            to_grayscale([np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2))])

    def test_stacked_array_input(self, rng):
        rgb = rng.uniform(0, 255, (3, 5, 3))
        assert to_grayscale(rgb).pixels.shape == (3, 5)


class TestFramePatch:
    def test_frame_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Frame(np.full((2, 2), 300.0))
        with pytest.raises(ValueError):
            Frame(np.full((2, 2), -1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_frame_rejects_non_finite(self, bad):
        pixels = np.full((3, 3), 100.0)
        pixels[1, 2] = bad
        with pytest.raises(ValueError):
            Frame(pixels)

    def test_frame_is_immutable(self):
        f = Frame(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            f.pixels[0, 0] = 1.0

    @pytest.mark.parametrize("cls", [Frame, Patch])
    def test_callers_array_stays_writeable(self, cls):
        a = np.full((4, 5), 7.0)
        held = cls(a)
        assert a.flags.writeable
        assert not held.pixels.flags.writeable
        a[0, 0] = 8.0  # no copy: the caller's array is not marked read-only

    def test_uint8_frame_kept_as_is(self, rng):
        a = rng.integers(0, 256, (4, 5), dtype=np.uint8)
        f = Frame(a)
        assert f.pixels.dtype == np.uint8
        assert np.shares_memory(f.pixels, a)
        assert not f.pixels.flags.writeable
        assert a.flags.writeable

    @pytest.mark.parametrize("shape", [(4, 5, 3), (0, 5)])
    def test_uint8_frame_must_be_2d_and_non_empty(self, shape):
        with pytest.raises(DimensionMismatch):
            Frame(np.zeros(shape, dtype=np.uint8))

    def test_patch_from_uint8_frame_is_float64(self, rng):
        a = rng.integers(0, 256, (6, 7), dtype=np.uint8)
        p = extract_patch(Frame(a), (1, 2, 4, 3))
        assert p.pixels.dtype == np.float64
        assert np.array_equal(p.pixels, a[2:5, 1:5])
        assert p.mean == Patch(a[2:5, 1:5].astype(np.float64)).mean

    def test_patch_caches(self, rng):
        a = rng.uniform(0, 255, (6, 7))
        p = Patch(a)
        assert p.mean == pytest.approx(a.mean(), abs=1e-9)
        assert p.zm_norm == pytest.approx(np.sqrt(((a - a.mean()) ** 2).sum()), abs=1e-9)
        assert p.zm_norm > 0

    def test_constant_patch_has_zero_energy(self):
        p = Patch(np.full((4, 4), 76.245))
        assert p.zm_norm == 0.0 and p.is_constant


class TestExtractPatch:
    def test_interior_copy(self):
        f = Frame(np.arange(25, dtype=float).reshape(5, 5))
        p = extract_patch(f, (1, 1, 2, 2))
        assert np.array_equal(p.pixels, [[6.0, 7.0], [11.0, 12.0]])
        assert p.origin == (1, 1)

    def test_whole_frame_identity(self, rng):
        f = Frame(rng.uniform(0, 255, (5, 5)))
        p = extract_patch(f, (0, 0, 5, 5))
        assert np.array_equal(p.pixels, f.pixels)

    def test_constant_roi_rejected(self):
        f = Frame(np.zeros((5, 5)))
        with pytest.raises(NonDiscriminativeTemplate):
            extract_patch(f, (0, 0, 3, 3))

    def test_out_of_bounds(self, rng):
        f = Frame(rng.uniform(0, 255, (5, 5)))
        for roi in [(-1, 0, 3, 3), (3, 3, 3, 3), (0, 0, 6, 2), (0, 0, 1, 2)]:
            with pytest.raises(OutOfBounds):
                extract_patch(f, roi)


class TestWarp:
    def test_identity_exact(self, rng):
        p = Patch(rng.uniform(0, 255, (6, 9)))
        out = warp_rotate(p, 0.0)
        canvas, _, _ = embed(p)
        assert np.array_equal(out.pixels, canvas)

    @pytest.mark.parametrize("quarter", [1, 2, 3])
    def test_quarter_turns_match_permutation_oracle(self, rng, quarter):
        p = Patch(rng.uniform(0, 255, (8, 8)))
        out = warp_rotate(p, 90.0 * quarter)
        canvas, _, _ = embed(p)
        want = np.rot90(canvas, k=-quarter)  # clockwise quarter turns
        assert np.array_equal(out.pixels, want)

    def test_double_half_turn_is_involution(self, rng):
        p = Patch(rng.uniform(0, 255, (7, 5)))
        twice = warp_rotate(warp_rotate(p, 180.0), 180.0)
        # locate the original content inside the twice-rotated canvas
        once = warp_rotate(p, 180.0)
        m2 = (twice.width - once.width) // 2
        inner = twice.pixels[m2:m2 + once.height, m2:m2 + once.width]
        m1x = (once.width - p.width) // 2
        m1y = (once.height - p.height) // 2
        got = inner[m1y:m1y + p.height, m1x:m1x + p.width]
        assert np.max(np.abs(got - p.pixels)) < 1.0

    @pytest.mark.parametrize("alpha", [13.7, 45.0, 101.3, 284.6])
    def test_range_preserved(self, rng, alpha):
        p = Patch(rng.uniform(10, 200, (11, 13)))
        out = warp_rotate(p, alpha)
        assert out.pixels.min() >= p.pixels.min() - 1e-12
        assert out.pixels.max() <= p.pixels.max() + 1e-12

    def test_explicit_fill_value(self, rng):
        a = rng.uniform(0, 255, (6, 6))
        out = warp_raster(a, 45.0, fill=-1.0)
        assert (out == -1.0).any()


class TestTemplateBank:
    def test_shape_and_step(self, rng):
        bank = build_template_bank(Patch(rng.uniform(0, 255, (10, 12))))
        assert bank.size == BANK_SIZE == 36
        assert bank.angle_step == 10.0
        dims = {(t.width, t.height) for t in bank.templates}
        assert len(dims) == 1

    def test_base_template_is_source_on_canvas(self, rng):
        p = Patch(rng.uniform(0, 255, (9, 9)))
        bank = build_template_bank(p)
        canvas, _, _ = embed(p)
        assert np.max(np.abs(bank.templates[0].pixels - canvas)) < 1e-9

    def test_half_turn_slot_matches_direct_warp(self, rng):
        p = Patch(rng.uniform(0, 255, (9, 7)))
        bank = build_template_bank(p)
        direct = warp_rotate(p, 180.0)
        assert np.max(np.abs(bank.templates[18].pixels - direct.pixels)) < 1e-9

    def test_bank_is_deterministic(self, rng):
        p = Patch(rng.uniform(0, 255, (8, 10)))
        b1 = build_template_bank(p)
        b2 = build_template_bank(p)
        for t1, t2 in zip(b1.templates, b2.templates):
            assert np.array_equal(t1.pixels, t2.pixels)

    def test_constant_source_rejected(self):
        with pytest.raises(NonDiscriminativeTemplate):
            build_template_bank(Patch(np.full((6, 6), 3.0)))
