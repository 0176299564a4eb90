import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import gather_warp, headings
from uavtrack.errors import DimensionMismatch, NonDiscriminativeTemplate, OutOfBounds
from uavtrack.imaging import (
    BANK_SIZE, Frame, Patch, TemplateBank, build_template_bank, extract_patch, rotate,
    rotation_canvas_side,
)


def embed(patch: Patch) -> tuple[np.ndarray, int, int]:
    """Reference embedding of a patch on its rotation canvas (mean fill)."""
    h, w = patch.pixels.shape
    side = rotation_canvas_side(w, h)
    canvas = np.full((side, side), patch.mean)
    mx, my = (side - w) // 2, (side - h) // 2
    canvas[my:my + h, mx:mx + w] = patch.pixels
    return canvas, mx, my


def template_at(patch: Patch, alpha_deg: float) -> Patch:
    """Reference bank template: the patch warped by one angle alone, with
    the patch mean outside its support."""
    canvases, _ = rotate(patch.pixels, np.array([alpha_deg]), patch.mean)
    return Patch(canvases[0])


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

    @pytest.mark.parametrize("eight_bit", [False, True])
    def test_patch_caches_bit_for_bit(self, rng, eight_bit):
        raster = rng.integers(0, 256, (9, 11), dtype=np.uint8) if eight_bit \
            else rng.uniform(0, 255, (9, 11))
        p = extract_patch(Frame(raster), (2, 1, 7, 6))  # a strided view
        a = raster[1:7, 2:9].astype(np.float64)
        zm = a - float(a.mean())
        assert p.mean.hex() == float(a.mean()).hex()
        assert p.zm_norm.hex() == float(np.sqrt(np.sum(zm * zm))).hex()
        assert p.zm_pixels.tobytes() == zm.tobytes()

    def test_constant_patch_has_zero_energy(self):
        p = Patch(np.full((4, 4), 76.245))
        assert p.zm_norm == 0.0 and p.is_constant

    def test_patch_compares_and_hashes_by_identity(self, rng):
        a = rng.uniform(0, 255, (6, 7))
        p, q = Patch(a), Patch(a)
        assert p == p and p != q and not (p == q)
        assert hash(p) == hash(p) and len({p, q, p}) == 2
        assert {p: 1}[p] == 1 and q not in {p: 1}


class TestExtractPatch:
    def test_interior_copy(self):
        f = Frame(np.arange(25, dtype=float).reshape(5, 5))
        p = extract_patch(f, (1, 1, 2, 2))
        assert np.array_equal(p.pixels, [[6.0, 7.0], [11.0, 12.0]])

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
        out = template_at(p, 0.0)
        canvas, _, _ = embed(p)
        assert np.array_equal(out.pixels, canvas)

    @pytest.mark.parametrize("quarter", [1, 2, 3])
    def test_quarter_turns_match_permutation_oracle(self, rng, quarter):
        p = Patch(rng.uniform(0, 255, (8, 8)))
        out = template_at(p, 90.0 * quarter)
        canvas, _, _ = embed(p)
        want = np.rot90(canvas, k=-quarter)  # clockwise quarter turns
        assert np.array_equal(out.pixels, want)

    def test_double_half_turn_is_involution(self, rng):
        p = Patch(rng.uniform(0, 255, (7, 5)))
        twice = template_at(template_at(p, 180.0), 180.0)
        # locate the original content inside the twice-rotated canvas
        once = template_at(p, 180.0)
        m2 = (twice.width - once.width) // 2
        inner = twice.pixels[m2:m2 + once.height, m2:m2 + once.width]
        m1x = (once.width - p.width) // 2
        m1y = (once.height - p.height) // 2
        got = inner[m1y:m1y + p.height, m1x:m1x + p.width]
        assert np.max(np.abs(got - p.pixels)) < 1.0

    @pytest.mark.parametrize("alpha", [13.7, 45.0, 101.3, 284.6])
    def test_range_preserved(self, rng, alpha):
        p = Patch(rng.uniform(10, 200, (11, 13)))
        out = template_at(p, alpha)
        assert out.pixels.min() >= p.pixels.min() - 1e-12
        assert out.pixels.max() <= p.pixels.max() + 1e-12

    def test_explicit_fill_value(self, rng):
        a = rng.uniform(0, 255, (6, 6))
        out, inside = rotate(a, np.array([45.0]), -1.0)
        assert (out == -1.0).any() and np.array_equal(out == -1.0, ~inside)


class TestRotate:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 45), st.integers(1, 45), headings(), st.integers(0, 2 ** 32 - 1))
    def test_equals_gather_warp(self, h, w, alpha, seed):
        src = np.random.default_rng(seed).uniform(0.0, 255.0, (h, w))
        want = gather_warp(src, alpha, fill=-3.5)
        out, inside = rotate(src, np.array([alpha]), -3.5)
        side = rotation_canvas_side(w, h)
        assert out.shape == inside.shape == (1, side, side) and inside.dtype == bool
        assert np.array_equal(out[0], want)
        # The bilinear weights sum to exactly 1.0, so warping an all-ones
        # raster gives the inside mask: 1.0 on it, 0.0 off it.
        ones = gather_warp(np.ones((h, w)), alpha, fill=0.0)
        assert np.array_equal(ones, inside[0].astype(np.float64))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 45), st.integers(1, 45), st.lists(headings(), min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_stack_slices_equal_one_angle_rotate(self, h, w, angles, seed):
        src = np.random.default_rng(seed).uniform(0.0, 255.0, (h, w))
        stacked = rotate(src, np.array(angles), -3.5)
        for k, alpha in enumerate(angles):
            alone = rotate(src, np.array([alpha]), -3.5)
            for got, want in zip(stacked, alone):
                assert got.shape == (len(angles),) + want.shape[1:] and got.dtype == want.dtype
                assert got[k].tobytes() == want[0].tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(5, 16), st.integers(5, 16), st.integers(0, 2 ** 32 - 1))
    def test_bank_equals_gather_warp(self, h, w, seed):
        p = Patch(np.random.default_rng(seed).uniform(0.0, 255.0, (h, w)))
        bank = build_template_bank(p)
        for k, t in enumerate(bank.templates):
            want = gather_warp(p.pixels, k * 10.0, fill=p.mean)
            assert np.array_equal(t.pixels, want)


class TestTemplateBank:
    def test_shape_and_step(self, rng):
        bank = build_template_bank(Patch(rng.uniform(0, 255, (10, 12))))
        assert bank.size == BANK_SIZE == 36
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
        direct = template_at(p, 180.0)
        assert np.max(np.abs(bank.templates[18].pixels - direct.pixels)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @example(1, 9, True, 0)  # a one-pixel side; odd margins
    @example(9, 1, False, 0)
    @example(8, 8, True, 1)  # square; even margins
    @example(6, 5, False, 2)  # an odd margin across, an even one down
    @example(28, 27, True, 3)  # an even margin across, an odd one down
    @example(30, 38, False, 4)  # the benchmark's largest canvas
    def test_equals_per_angle_reference(self, h, w, eight_bit, seed):
        assume(h * w >= 4)  # extract_patch's smallest patch
        rng = np.random.default_rng(seed)
        shape = (h + 3, w + 2)
        raster = rng.integers(0, 256, shape, dtype=np.uint8) if eight_bit \
            else rng.uniform(0, 255, shape)
        raster[2, 1], raster[h + 1, w] = 0, 255  # two corners: never constant
        p = extract_patch(Frame(raster), (1, 2, w, h))
        wants = [template_at(p, 10.0 * k) for k in range(BANK_SIZE)]
        constant = [k for k, t in enumerate(wants) if t.is_constant]
        if constant:  # a thin patch can miss every canvas pixel at some angle
            with pytest.raises(NonDiscriminativeTemplate,
                               match=f"^template at {10 * constant[0]} degrees is constant$"):
                build_template_bank(p)
            return
        bank = build_template_bank(p)
        assert bank.size == BANK_SIZE
        for k, (t, want) in enumerate(zip(bank.templates, wants)):
            for name in ("pixels", "zm_pixels"):
                got, ref = getattr(t, name), getattr(want, name)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (k, name)
            assert t.mean.hex() == want.mean.hex() and t.zm_norm.hex() == want.zm_norm.hex(), k

    @pytest.mark.parametrize("eight_bit", [False, True])
    def test_templates_read_only_and_source_unchanged(self, rng, eight_bit):
        raster = rng.integers(0, 256, (12, 10), dtype=np.uint8) if eight_bit \
            else rng.uniform(0, 255, (12, 10))
        kept = raster.copy()
        p = extract_patch(Frame(raster), (1, 2, 7, 9))
        source = p.pixels.copy()
        bank = build_template_bank(p)
        assert np.array_equal(raster, kept) and raster.flags.writeable
        assert np.array_equal(p.pixels, source)
        for t in bank.templates:
            for a in (t.pixels, t.zm_pixels):
                with pytest.raises(ValueError):
                    a[0, 0] = 1.0

    def test_templates_own_their_canvases(self, rng):
        bank = build_template_bank(Patch(rng.uniform(0, 255, (30, 38))))
        for t in bank.templates:
            for a in (t.pixels, t.zm_pixels):
                root = a
                while root.base is not None:
                    root = root.base
                assert root.nbytes == a.nbytes == 8 * t.width * t.height

    def test_stacked_warp_peak_memory(self, rng):
        # The 36-angle warp of the benchmark's largest patch peaks at about
        # 5.6 MB; keeping the tap coordinates through the gathers took 7.7 MB.
        p = Patch(rng.uniform(0, 255, (30, 38)))
        tracemalloc.start()
        try:
            build_template_bank(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5e6

    def test_bank_equality_is_identity_of_templates(self, rng):
        p = Patch(rng.uniform(0, 255, (8, 10)))
        b1, b2 = build_template_bank(p), build_template_bank(p)
        assert b1 == TemplateBank(b1.templates) and hash(b1) == hash(TemplateBank(b1.templates))
        assert b1 != b2
        assert TemplateBank(b1.templates[:2]) == TemplateBank((b1.templates[0], b1.templates[1]))
        assert TemplateBank(b1.templates[:2]) != TemplateBank((b1.templates[0], b2.templates[1]))

    def test_bank_is_deterministic(self, rng):
        p = Patch(rng.uniform(0, 255, (8, 10)))
        b1 = build_template_bank(p)
        b2 = build_template_bank(p)
        for t1, t2 in zip(b1.templates, b2.templates):
            assert np.array_equal(t1.pixels, t2.pixels)

    def test_constant_source_rejected(self):
        with pytest.raises(NonDiscriminativeTemplate):
            build_template_bank(Patch(np.full((6, 6), 3.0)))
