import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import window
from uavtrack import estimator, matcher, simulator
from uavtrack.config import TrackerConfig
from uavtrack.errors import UndefinedScore, WindowTooSmall
from uavtrack.imaging import (
    Frame, Patch, TemplateBank, build_template_bank, extract_patch, rotate,
)
from uavtrack.matcher import (
    TEMPLATE_BUDGET, CorrelationMap, Detection, SchedulerState, WindowStats,
    _direct_numerator, _fast_len, _fft_numerator, detect, schedule_order, zmncc_fast,
    zmncc_oracle,
)
from uavtrack.tracker import Tracker, track_frames


def oracle_map(frame, template, win):
    th, tw = template.pixels.shape
    region = frame.pixels[win.y0:win.y1, win.x0:win.x1]
    out = np.full((region.shape[0] - th + 1, region.shape[1] - tw + 1), np.nan)
    for v in range(out.shape[0]):
        for u in range(out.shape[1]):
            try:
                out[v, u] = zmncc_oracle(region, template, (u, v))
            except UndefinedScore:
                pass
    return out


class TestOracle:
    def test_perfect_match_is_one(self, rng):
        t = Patch(rng.uniform(0, 255, (5, 6)))
        assert zmncc_oracle(t.pixels, t, (0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_inverted_window_is_minus_one(self, rng):
        t = Patch(rng.uniform(0, 200, (5, 5)))
        region = 220.0 - t.pixels
        assert zmncc_oracle(region, t, (0, 0)) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_window_undefined(self, rng):
        t = Patch(rng.uniform(0, 255, (4, 4)))
        with pytest.raises(UndefinedScore):
            zmncc_oracle(np.full((6, 6), 9.0), t, (1, 1))

    def test_constant_template_undefined(self, rng):
        t = Patch(np.full((4, 4), 5.0))
        with pytest.raises(UndefinedScore):
            zmncc_oracle(rng.uniform(0, 255, (6, 6)), t, (0, 0))


class TestFastPath:
    def test_matches_oracle_elementwise(self, rng):
        for _ in range(30):
            fh, fw = rng.integers(10, 40, 2)
            th = int(rng.integers(3, min(12, fh)))
            tw = int(rng.integers(3, min(12, fw)))
            frame = Frame(rng.uniform(0, 255, (fh, fw)))
            template = Patch(rng.uniform(0, 255, (th, tw)))
            win = window(0, 0, fw, fh)
            got = zmncc_fast(frame, template, win).scores
            want = oracle_map(frame, template, win)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            assert np.max(np.abs(got[ok] - want[ok])) < 1e-9

    def test_planted_template_scores_one(self, rng):
        t = Patch(rng.uniform(0, 255, (7, 9)))
        pixels = rng.uniform(0, 255, (40, 50))
        pixels[11:18, 23:32] = t.pixels
        cmap = zmncc_fast(Frame(pixels), t, window(0, 0, 50, 40))
        score, pos = cmap.best()
        assert score == pytest.approx(1.0, abs=1e-9)
        assert pos == (23, 11)

    def test_gain_offset_invariance(self, rng):
        t = Patch(rng.uniform(0, 255, (6, 6)))
        base = rng.uniform(20, 150, (30, 30))
        lit = 1.3 * base + 20.0  # stays within [0, 255]
        m1 = zmncc_fast(Frame(base), t, window(0, 0, 30, 30)).scores
        m2 = zmncc_fast(Frame(lit), t, window(0, 0, 30, 30)).scores
        assert np.max(np.abs(m1 - m2)) < 1e-9

    def test_flat_regions_marked_undefined(self, rng):
        t = Patch(rng.uniform(0, 255, (4, 4)))
        pixels = rng.uniform(0, 255, (20, 20))
        pixels[2:10, 2:10] = 50.0
        cmap = zmncc_fast(Frame(pixels), t, window(0, 0, 20, 20))
        assert np.isnan(cmap.scores[4, 4])  # window fully inside the flat block
        assert not np.isnan(cmap.scores[0, 0])

    def test_scores_stay_in_range(self, rng):
        t = Patch(rng.uniform(0, 255, (5, 5)))
        frame = Frame(rng.uniform(0, 255, (48, 48)))
        s = zmncc_fast(frame, t, window(0, 0, 48, 48)).scores
        ok = ~np.isnan(s)
        assert s[ok].min() >= -1.0 - 1e-6 and s[ok].max() <= 1.0 + 1e-6

    def test_scores_are_numerator_over_root_of_energy_times_zm_squared(self, rng):
        frame = Frame(rng.integers(0, 256, (40, 50), dtype=np.uint8))
        template = Patch(rng.uniform(0, 255, (7, 9)))
        cmap = zmncc_fast(frame, template, window(-3, 2, 45, 44))
        want = cmap.num / np.sqrt(cmap.energy * template.zm_norm ** 2)
        assert cmap.scores.tobytes() == want.tobytes()

    def test_window_too_small(self, rng):
        t = Patch(rng.uniform(0, 255, (8, 8)))
        with pytest.raises(WindowTooSmall):
            zmncc_fast(Frame(rng.uniform(0, 255, (20, 20))), t, window(0, 0, 7, 20))

    def test_offset_window_coordinates(self, rng):
        t = Patch(rng.uniform(0, 255, (5, 5)))
        pixels = rng.uniform(0, 255, (30, 30))
        pixels[12:17, 14:19] = t.pixels
        cmap = zmncc_fast(Frame(pixels), t, window(10, 10, 25, 25))
        score, pos = cmap.best()
        assert pos == (14, 12) and score == pytest.approx(1.0, abs=1e-9)


def planted_bank_and_frame(rng, heading=0.0):
    """A 90x90 frame holding a sprite rotated by ``heading`` at (25, 30)."""
    # fine-grained texture: decorrelates hard by 10 degrees, so the
    # plant can only match the template at its exact rotation
    sprite = np.clip(105.0 + 60.0 * simulator.value_noise(rng, 24, 24, 3), 0, 255)
    source = Patch(sprite)
    bank = build_template_bank(source)
    side = bank.canvas[0]
    pixels = 105.0 + 8.0 * simulator.value_noise(rng, 90, 90, 5)
    canvases, _ = rotate(source.pixels, np.array([heading]), source.mean)
    pixels[30:30 + side, 25:25 + side] = canvases[0]
    return bank, Frame(np.clip(pixels, 0, 255)), (25, 30)


def score_map(stats, template, num):
    return CorrelationMap(num, stats.energy, template.zm_norm, stats.x0, stats.y0)


def fft_map(frame, template, win):
    stats = WindowStats(frame, win, template.pixels.shape)
    return score_map(stats, template, _fft_numerator(stats, template.zm_pixels))


def oracle_at(frame, template, x, y):
    try:
        return zmncc_oracle(frame.pixels, template, (x, y))
    except UndefinedScore:
        return float("nan")


def assert_matches_oracle(cmap, frame, template, placements):
    for v, u in placements:
        got = float(cmap.scores[v, u])
        want = oracle_at(frame, template, cmap.x0 + u, cmap.y0 + v)
        if math.isnan(want):
            assert math.isnan(got), (u, v, got)
        else:
            assert abs(got - want) < 1e-9, (u, v, got, want)


def all_placements(cmap):
    return [(v, u) for v in range(cmap.height) for u in range(cmap.width)]


# Frame sides that are not 5-smooth, so the FFT pads the region.
ROUGH_SIDES = [7, 11, 13, 14, 17, 19, 22, 23, 29, 31, 34, 37, 41, 43, 47]


def draw_window(draw, fh, fw, th, tw):
    """A window that may overhang an fw x fh frame but holds a tw x th
    template once clamped to it."""
    x0 = draw(st.integers(-8, fw - tw))
    y0 = draw(st.integers(-8, fh - th))
    x1 = draw(st.integers(x0 + tw, fw + 8))
    y1 = draw(st.integers(y0 + th, fh + 8))
    assume(min(fw, x1) - max(0, x0) >= tw and min(fh, y1) - max(0, y0) >= th)
    return window(x0, y0, x1, y1)


@st.composite
def fft_cases(draw):
    """A frame, a template and a window that may overhang the frame edge."""
    fh = draw(st.sampled_from(ROUGH_SIDES))
    fw = draw(st.sampled_from(ROUGH_SIDES))
    th = draw(st.integers(3, min(12, fh)))
    tw = draw(st.integers(3, min(12, fw)))
    win = draw_window(draw, fh, fw, th, tw)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pixels = rng.integers(0, 256, (fh, fw)).astype(np.float64)
    else:
        pixels = rng.uniform(0.0, 255.0, (fh, fw))
    if draw(st.booleans()):  # plant a flat block to exercise NaN marking
        bh = int(rng.integers(th, fh + 1))
        bw = int(rng.integers(tw, fw + 1))
        by = int(rng.integers(0, fh - bh + 1))
        bx = int(rng.integers(0, fw - bw + 1))
        pixels[by:by + bh, bx:bx + bw] = float(rng.integers(0, 256))
    template = Patch(rng.uniform(0.0, 255.0, (th, tw)))
    return Frame(pixels), template, win


class TestFftNumerator:
    @settings(max_examples=150, deadline=None)
    @given(fft_cases())
    def test_matches_oracle_everywhere(self, case):
        frame, template, win = case
        cmap = fft_map(frame, template, win)
        x0, y0 = max(0, win.x0), max(0, win.y0)
        assert (cmap.x0, cmap.y0) == (x0, y0)
        assert cmap.scores.shape == (
            min(frame.height, win.y1) - y0 - template.height + 1,
            min(frame.width, win.x1) - x0 - template.width + 1)
        assert_matches_oracle(cmap, frame, template, all_placements(cmap))

    @settings(max_examples=60, deadline=None)
    @given(fft_cases(), st.floats(0.5, 1.5), st.floats(-40.0, 40.0))
    def test_gain_offset_invariance(self, case, gain, offset):
        frame, template, win = case
        lit = gain * frame.pixels + offset
        assume(lit.min() >= 0.0 and lit.max() <= 255.0)
        m1 = fft_map(frame, template, win).scores
        m2 = fft_map(Frame(lit), template, win).scores
        assert np.array_equal(np.isnan(m1), np.isnan(m2))
        ok = ~np.isnan(m1)
        assert np.all(np.abs(m1[ok] - m2[ok]) < 1e-9)

    def test_full_frame_640x480_at_sampled_placements(self):
        scn = simulator.benchmark_scenario(30, 33, n_frames=50)
        renderer = simulator.SceneRenderer(scn)
        frame0, _ = renderer.render(0)
        bank = build_template_bank(extract_patch(frame0, renderer.target_rect_frame0()))
        frame, _ = renderer.render(40)
        template = bank.templates[3]
        win = estimator.full_frame_window(640, 480)
        cmap = zmncc_fast(frame, template, win)
        assert cmap.scores.size * template.pixels.size > matcher._DIRECT_MAX_MACS
        assert np.array_equal(cmap.scores, fft_map(frame, template, win).scores,
                              equal_nan=True)
        rng = np.random.default_rng(7)
        _, (bx, by) = cmap.best()
        spots = [(by, bx)] + [(int(rng.integers(cmap.height)), int(rng.integers(cmap.width)))
                              for _ in range(300)]
        assert_matches_oracle(cmap, frame, template, spots)

    @pytest.mark.parametrize("frame_shape, shape", [
        ((60, 75), (9, 7)),     # odd 5-smooth width: no padding, odd irfft length
        ((45, 81), (12, 12)),   # both sides odd and 5-smooth
        ((47, 73), (8, 11)),    # rough sides padded to 48 x 75
        ((480, 640), (45, 45)),  # a full-frame acquisition map
    ])
    def test_equals_plain_rfft2_reference(self, rng, frame_shape, shape):
        fh, fw = frame_shape
        frame = Frame(rng.integers(0, 256, frame_shape, dtype=np.uint8))
        stats = WindowStats(frame, window(0, 0, fw, fh), shape)
        tzm = Patch(rng.uniform(0.0, 255.0, shape)).zm_pixels
        s = stats.fft_shape
        assert s == (_fast_len(fh), _fast_len(fw))
        wh, ww = stats.energy.shape
        want = np.fft.irfft2(np.fft.rfft2(stats.g, s) * np.conj(np.fft.rfft2(tzm, s)), s)
        got = _fft_numerator(stats, tzm)
        assert got.shape == (wh, ww)
        assert np.max(np.abs(got - want[:wh, :ww])) <= 1e-12 * np.max(np.abs(want))

    def test_maps_leave_caller_state_unchanged(self, rng):
        shape = (9, 7)
        frame = Frame(rng.uniform(0, 255, (60, 75)))
        win = window(0, 0, 75, 60)
        templates = [Patch(rng.uniform(0, 255, shape)) for _ in range(2)]
        zm_before = [t.zm_pixels.copy() for t in templates]
        stats = WindowStats(frame, win, shape)
        spectrum = stats.spectrum.copy()
        shared = []
        for template in templates:
            num = _fft_numerator(stats, template.zm_pixels)
            num_before = num.copy()
            shared.append(score_map(stats, template, num).scores)
            assert np.array_equal(num, num_before)
        assert np.array_equal(stats.spectrum, spectrum)
        for template, zm in zip(templates, zm_before):
            assert np.array_equal(template.zm_pixels, zm)
        for template, scores in zip(templates, shared):
            assert np.array_equal(scores, fft_map(frame, template, win).scores, equal_nan=True)

    def test_stats_for_another_shape_rejected(self, rng):
        frame = Frame(rng.uniform(0, 255, (30, 30)))
        stats = WindowStats(frame, window(0, 0, 30, 30), (5, 6))
        with pytest.raises(ValueError):
            zmncc_fast(frame, Patch(rng.uniform(0, 255, (6, 5))), window(0, 0, 30, 30), stats)

    def test_fast_len_is_smallest_5_smooth(self):
        smooth = sorted(2 ** a * 3 ** b * 5 ** c
                        for a in range(13) for b in range(8) for c in range(6)
                        if 2 ** a * 3 ** b * 5 ** c <= 4096)
        for n in range(1, 4001):
            assert _fast_len(n) == next(m for m in smooth if m >= n)

    def test_detect_agrees_across_numerators(self, rng, monkeypatch):
        bank, frame, _ = planted_bank_and_frame(rng, heading=40.0)
        results = []
        for limit in (10 ** 12, 0):  # direct strip product, FFT
            monkeypatch.setattr(matcher, "_DIRECT_MAX_MACS", limit)
            sched = SchedulerState()
            det = detect(frame, bank, sched, window(0, 0, 90, 90), 0.9)
            results.append((det, sched))
        (direct, s1), (fft, s2) = results
        assert direct is not None and fft is not None
        assert (fft.position, fft.template_index) == (direct.position, direct.template_index)
        assert fft.score == pytest.approx(direct.score, abs=1e-12)
        assert s1 == s2 and s1.last_frame_evals == s2.last_frame_evals == 5


@st.composite
def direct_cases(draw):
    """A frame, a template up to the largest steady canvas (45x45), square
    or not, and a window that may overhang the frame edge or hold a single
    row or column of placements."""
    th = draw(st.integers(2, 45))
    tw = draw(st.integers(2, 45))
    fh = draw(st.integers(th, th + 40))
    fw = draw(st.integers(tw, tw + 40))
    win = draw_window(draw, fh, fw, th, tw)
    x0, y0, x1, y1 = win.x0, win.y0, win.x1, win.y1
    single = draw(st.sampled_from([None, "row", "column"]))
    if single == "row":
        y0 = draw(st.integers(0, fh - th))
        y1 = y0 + th
    elif single == "column":
        x0 = draw(st.integers(0, fw - tw))
        x1 = x0 + tw
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pixels = rng.integers(0, 256, (fh, fw), dtype=np.uint8)
    else:
        pixels = rng.uniform(0.0, 255.0, (fh, fw))
    return Frame(pixels), Patch(rng.uniform(0.0, 255.0, (th, tw))), window(x0, y0, x1, y1)


class TestPlacementMatrix:
    """The direct numerator: the window's placement rows read as strips of
    the centred region, times a block-Toeplitz template."""

    @settings(max_examples=150, deadline=None)
    @given(direct_cases())
    def test_equals_tensordot_of_sliding_view(self, case):
        frame, template, win = case
        stats = WindowStats(frame, win, template.pixels.shape)
        tzm = template.zm_pixels
        view = np.lib.stride_tricks.sliding_window_view(stats.g, tzm.shape)
        want = np.tensordot(view, tzm, axes=([2, 3], [0, 1]))
        # Each sum's rounding is bounded by the sum of its terms' magnitudes.
        scale = np.tensordot(np.abs(view), np.abs(tzm), axes=([2, 3], [0, 1]))
        got = _direct_numerator(stats, template)
        assert got.shape == want.shape == stats.energy.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_leaves_window_and_template_unchanged(self, rng):
        shape = (13, 11)
        frame = Frame(rng.uniform(0, 255, (60, 70)))
        template = Patch(rng.uniform(0, 255, shape))
        stats = WindowStats(frame, window(-4, 3, 60, 58), shape)
        g, tzm = stats.g.copy(), template.zm_pixels.copy()
        num = _direct_numerator(stats, template)
        assert np.array_equal(stats.g, g)
        assert np.array_equal(template.zm_pixels, tzm)
        assert not np.shares_memory(num, stats.g)

    def test_built_once_and_shared_across_templates(self, rng):
        shape = (13, 11)
        frame = Frame(rng.integers(0, 256, (60, 70), dtype=np.uint8))
        win = window(-4, 3, 60, 58)
        first, second = (Patch(rng.uniform(0, 255, shape)) for _ in range(2))
        stats = WindowStats(frame, win, shape)
        assert stats.direct
        zmncc_fast(frame, first, win, stats)
        shared = zmncc_fast(frame, second, win, stats)
        fresh = zmncc_fast(frame, second, win)
        assert np.array_equal(shared.scores, fresh.scores, equal_nan=True)

    def test_stats_in_use_reject_another_shape(self, rng):
        frame = Frame(rng.uniform(0, 255, (30, 30)))
        win = window(0, 0, 30, 30)
        stats = WindowStats(frame, win, (5, 6))
        zmncc_fast(frame, Patch(rng.uniform(0, 255, (5, 6))), win, stats)
        with pytest.raises(ValueError):
            zmncc_fast(frame, Patch(rng.uniform(0, 255, (6, 5))), win, stats)

    def test_just_above_direct_limit_takes_fft_path(self, rng, monkeypatch):
        template = Patch(rng.uniform(0, 255, (20, 20)))
        frame = Frame(rng.uniform(0, 255, (100, 100)))
        win = window(20, 20, 80, 80)  # 41 x 41 placements of a 20 x 20 template
        macs = 41 * 20 * 60 * 41  # placement rows x strip length x placement columns
        assert matcher._DIRECT_MAX_MACS < macs < 1.01 * matcher._DIRECT_MAX_MACS

        def refuse(stats, tzm):
            raise AssertionError("direct numerator used above the limit")

        monkeypatch.setattr(matcher, "_direct_numerator", refuse)
        cmap = zmncc_fast(frame, template, win)
        assert cmap.scores.shape == (41, 41)
        assert_matches_oracle(cmap, frame, template, all_placements(cmap))


def nested_cumsum(a):
    """The integral image as two whole-array ``np.cumsum`` passes, in the
    dtype of ``a``."""
    s = np.zeros((a.shape[0] + 1, a.shape[1] + 1), a.dtype)
    np.cumsum(np.cumsum(a, axis=0), axis=1, out=s[1:, 1:])
    return s


def box_sums(a, th, tw):
    """Sums over every ``th x tw`` box of ``a``, from its integral image."""
    s = nested_cumsum(a)
    return s[th:, tw:] - s[:-th, tw:] - s[th:, :-tw] + s[:-th, :-tw]


def integral_energy(g, th, tw):
    """Zero-mean placement energies of the centred region ``g`` from
    integral images, NaN where the placement is flat."""
    energy = box_sums(g * g, th, tw) - box_sums(g, th, tw) ** 2 / (th * tw)
    energy[energy <= matcher._FLAT_ENERGY_TOL] = np.nan
    return energy


def corner_block_frame(rng):
    """A 640x480 8-bit noise frame whose bottom-right 45x45 block is 200 but
    for a centre pixel of 201: a placement energy near 1 where the frame's
    prefix sums are largest."""
    pixels = rng.integers(0, 256, (480, 640), dtype=np.uint8)
    pixels[-45:, -45:] = 200
    pixels[-23, -23] = 201
    return Frame(pixels)


@st.composite
def energy_cases(draw):
    """An 8-bit or float64 frame, maybe holding a flat block, a canvas shape
    and a window: frames up to 40 px larger than the canvas with windows
    that may overhang the frame edge, or frames 130-170 px larger with
    windows up to 8 px inside or outside each edge. Returns the case and a
    multiply-add budget: the default, or one small enough that the banded
    products take several tiles."""
    th = draw(st.integers(2, 45))
    tw = draw(st.integers(2, 45))
    if draw(st.booleans()):
        fh = th + draw(st.integers(130, 170))
        fw = tw + draw(st.integers(130, 170))
        x0, y0, dx, dy = (draw(st.integers(-8, 8)) for _ in range(4))
        win = window(x0, y0, fw + dx, fh + dy)
    else:
        fh = th + draw(st.integers(0, 40))
        fw = tw + draw(st.integers(0, 40))
        win = draw_window(draw, fh, fw, th, tw)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pixels = rng.integers(0, 256, (fh, fw), dtype=np.uint8)
    else:
        pixels = rng.uniform(0.0, 255.0, (fh, fw))
    if draw(st.booleans()):
        bh = int(rng.integers(th, fh + 1))
        bw = int(rng.integers(tw, fw + 1))
        by = int(rng.integers(0, fh - bh + 1))
        bx = int(rng.integers(0, fw - bw + 1))
        pixels[by:by + bh, bx:bx + bw] = rng.integers(0, 256)
    budget = draw(st.sampled_from([matcher._DIRECT_MAX_MACS, 0, 3_000, 40_000, 300_000]))
    return Frame(pixels), (th, tw), win, budget


class TestWindowEnergies:
    @settings(max_examples=100, deadline=None)
    @given(energy_cases())
    def test_banded_products_equal_integral_image(self, case):
        frame, (th, tw), win, budget = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matcher, "_DIRECT_MAX_MACS", budget)
            stats = WindowStats(frame, win, (th, tw))
        want = integral_energy(stats.g, th, tw)
        assert stats.energy.shape == want.shape
        assert np.array_equal(np.isnan(stats.energy), np.isnan(want))
        ok = ~np.isnan(want)
        total = np.add.reduce(stats.g * stats.g, axis=None)
        assert np.all(np.abs(stats.energy[ok] - want[ok]) <= 1e-12 * total)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 700), st.integers(1, 50), st.integers(1, 700),
           st.integers(0, 3_000_000))
    def test_tile_is_the_largest_within_budget(self, outputs, k, depth, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matcher, "_DIRECT_MAX_MACS", budget)
            n = matcher._tile(outputs, k, depth)
        assert 1 <= n <= outputs
        assert n == 1 or n * (n + k - 1) * depth <= budget
        assert n == outputs or (n + 1) * (n + k) * depth > budget

    def test_full_frame_energies_near_exact_integer_sums(self, rng):
        frame = corner_block_frame(rng)
        stats = WindowStats(frame, estimator.full_frame_window(640, 480), (45, 45))
        a = frame.pixels.astype(np.int64)
        n = 45 * 45
        s1, s2 = box_sums(a, 45, 45), box_sums(a * a, 45, 45)
        exact = (n * s2 - s1 * s1) / n
        assert not np.isnan(stats.energy).any()
        assert np.max(np.abs(stats.energy - exact)) <= 1e-7

    def test_full_frame_corner_score_matches_oracle(self):
        win = estimator.full_frame_window(640, 480)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            frame = corner_block_frame(rng)
            template = Patch(rng.uniform(0.0, 255.0, (45, 45)))
            cmap = zmncc_fast(frame, template, win)
            assert_matches_oracle(cmap, frame, template, [(cmap.height - 1, cmap.width - 1)])


@st.composite
def uint8_cases(draw):
    """An 8-bit raster, a two-template bank whose second template is cut from
    the raster, and a window that may overhang the frame edge."""
    fh = draw(st.integers(4, 40))
    fw = draw(st.integers(4, 40))
    th = draw(st.integers(2, min(10, fh)))
    tw = draw(st.integers(2, min(10, fw)))
    win = draw_window(draw, fh, fw, th, tw)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(st.integers(0, 255))
    hi = draw(st.integers(lo, 255))  # narrow ranges give flat, undefined windows
    raster = rng.integers(lo, hi + 1, (fh, fw), dtype=np.uint8)
    cx = int(rng.integers(0, fw - tw + 1))
    cy = int(rng.integers(0, fh - th + 1))
    cut = Patch(raster[cy:cy + th, cx:cx + tw])
    assume(not cut.is_constant)
    bank = TemplateBank(templates=(Patch(rng.uniform(0.0, 255.0, (th, tw))), cut))
    return raster, bank, win


class TestEightBitFrames:
    @settings(max_examples=150, deadline=None)
    @given(uint8_cases())
    def test_same_results_as_float64_frame(self, case):
        raster, bank, win = case
        f8, f64 = Frame(raster), Frame(raster.astype(np.float64))
        shape = bank.templates[0].pixels.shape
        s8, s64 = WindowStats(f8, win, shape), WindowStats(f64, win, shape)
        for name in ("g", "energy"):  # a flat placement's energy is NaN
            assert np.array_equal(getattr(s8, name), getattr(s64, name), equal_nan=True), name
        for template in bank.templates:
            assert np.array_equal(zmncc_fast(f8, template, win).scores,
                                  zmncc_fast(f64, template, win).scores, equal_nan=True)
        sched8, sched64 = SchedulerState(), SchedulerState()
        assert detect(f8, bank, sched8, win, 0.9) == detect(f64, bank, sched64, win, 0.9)
        assert sched8 == sched64

    @settings(max_examples=60, deadline=None)
    @given(uint8_cases())
    def test_centered_region_has_the_bits_of_region_minus_mean(self, case):
        raster, bank, win = case
        for frame in (Frame(raster), Frame(raster.astype(np.float64))):
            kept = frame.pixels.copy()
            stats = WindowStats(frame, win, bank.templates[0].pixels.shape)
            h, w = stats.g.shape
            region = frame.pixels[stats.y0:stats.y0 + h, stats.x0:stats.x0 + w]
            want = region - matcher._mean(region)
            assert stats.g.dtype == want.dtype and stats.g.tobytes() == want.tobytes()
            assert frame.pixels.tobytes() == kept.tobytes()

    def test_full_frame_640x480(self):
        scn = simulator.benchmark_scenario(30, 33, n_frames=50)
        renderer = simulator.SceneRenderer(scn)
        raster = renderer.render(40)[0].pixels.astype(np.uint8)
        template = build_template_bank(
            extract_patch(Frame(raster), renderer.target_rect_frame0())).templates[3]
        win = estimator.full_frame_window(640, 480)
        f8, f64 = Frame(raster), Frame(raster.astype(np.float64))
        s8, s64 = WindowStats(f8, win, template.pixels.shape), \
            WindowStats(f64, win, template.pixels.shape)
        for name in ("g", "energy"):
            assert np.array_equal(getattr(s8, name), getattr(s64, name), equal_nan=True), name
        assert np.array_equal(zmncc_fast(f8, template, win, s8).scores,
                              zmncc_fast(f64, template, win, s64).scores, equal_nan=True)


class TestScheduler:
    def test_fresh_order(self):
        assert schedule_order(SchedulerState(), 36) == [0, 1, 2, 3, 4, 5, 6]

    def test_order_after_match_at_4(self):
        s = SchedulerState(matched=4)
        assert schedule_order(s, 36) == [4, 3, 5, 2, 6, 7, 8]

    def test_order_wraps_at_zero(self):
        assert schedule_order(SchedulerState(matched=0), 36) == \
            [0, 35, 1, 34, 2, 3, 4]
        assert schedule_order(SchedulerState(matched=35), 36) == \
            [35, 34, 0, 33, 1, 2, 3]

    @pytest.mark.parametrize("bank_size", [1, 2, 3, 4, 5, 6, 7, 36])
    def test_best_first_set_is_the_papers_set(self, bank_size):
        budget = min(7, bank_size)
        for k in range(bank_size):
            order = schedule_order(SchedulerState(matched=k), bank_size)
            papers = {(k + d) % bank_size for d in range(-2, budget - 2)}
            assert order[0] == k and len(order) == budget
            assert set(order) == papers

    def test_full_miss_after_match_restarts_at_k_minus_1(self, rng):
        bank = build_template_bank(Patch(rng.uniform(0, 255, (8, 8))))
        blank = Frame(np.zeros((60, 60)))
        for k in (0, 1, 17, 35):
            sched = SchedulerState(matched=k)
            assert detect(blank, bank, sched, window(0, 0, 60, 60), 0.9) is None
            assert sched == SchedulerState(sweep_start=(k - 1) % 36)
            assert schedule_order(sched, 36) == [(k - 1 + i) % 36 for i in range(7)]

    @pytest.mark.parametrize("index, maps", [(0, 1), (5, 6), (9, 28)])
    def test_fresh_lock_on_class_after_sweep_maps(self, rng, index, maps):
        # Independent random templates: only the planted one can score 0.9.
        bank = TemplateBank(templates=tuple(
            Patch(rng.uniform(0, 255, (8, 8))) for _ in range(36)))
        pixels = rng.uniform(0, 255, (40, 40))
        pixels[10:18, 20:28] = bank.templates[index].pixels
        frame, sched, total = Frame(pixels), SchedulerState(), 0
        while (det := detect(frame, bank, sched, window(0, 0, 40, 40), 0.9)) is None:
            total += sched.last_frame_evals
        assert det.template_index == index
        assert total + sched.last_frame_evals == maps

    def test_miss_advances_start_by_one(self, rng):
        bank = build_template_bank(Patch(rng.uniform(0, 255, (8, 8))))
        blank = Frame(np.zeros((60, 60)))
        sched = SchedulerState(sweep_start=2)
        assert schedule_order(sched, 36)[0] == 2
        result = detect(blank, bank, sched, window(0, 0, 60, 60), 0.9)
        assert result is None
        assert sched == SchedulerState(sweep_start=3)
        assert schedule_order(sched, 36) == [3, 4, 5, 6, 7, 8, 9]

    def test_all_templates_tried_over_36_miss_frames(self, rng):
        bank = build_template_bank(Patch(rng.uniform(0, 255, (8, 8))))
        blank = Frame(np.zeros((60, 60)))
        sched = SchedulerState(matched=17)
        tried = set()
        for _ in range(36):
            tried.update(schedule_order(sched, 36))
            assert detect(blank, bank, sched, window(0, 0, 60, 60), 0.9) is None
        assert tried == set(range(36))

    def test_budget_never_exceeded(self, rng):
        bank = build_template_bank(Patch(rng.uniform(0, 255, (8, 8))))
        blank = Frame(np.zeros((60, 60)))
        sched = SchedulerState()
        for _ in range(5):
            detect(blank, bank, sched, window(0, 0, 60, 60), 0.9)
            assert sched.last_frame_evals <= 7


def reference_centroid(us, vs, scores, diag):
    """The centroid and best score of the hits, with the cluster test always
    run: points farther than 2 x diag from the centroid drop all but the
    cluster around the maximum."""
    cu, cv = matcher._mean(us), matcher._mean(vs)
    if np.any(np.hypot(us - cu, vs - cv) > 2.0 * diag):
        k = int(np.argmax(scores))
        keep = np.hypot(us - us[k], vs - vs[k]) <= 2.0 * diag
        us, vs, scores = us[keep], vs[keep], scores[keep]
        cu, cv = matcher._mean(us), matcher._mean(vs)
    return cu, cv, float(scores.max())


def reference_detect(frame, bank, sched, win, threshold):
    """``detect`` on full score maps: every placement of every scheduled
    template is scored and a hit is any score >= threshold."""
    order = schedule_order(sched, bank.size)
    tw, th = bank.canvas
    stats = WindowStats(frame, win, (th, tw))
    for evals, index in enumerate(order, start=1):
        cmap = zmncc_fast(frame, bank.templates[index], win, stats)
        hits = cmap.scores >= threshold
        if hits.any():
            vs, us = np.nonzero(hits)
            cu, cv, best = reference_centroid(us.astype(np.float64), vs.astype(np.float64),
                                              cmap.scores[vs, us], math.hypot(tw, th))
            sched.matched = index
            sched.last_frame_evals = evals
            return Detection(position=(int(round(cmap.x0 + cu + (tw - 1) / 2.0)),
                                       int(round(cmap.y0 + cv + (th - 1) / 2.0))),
                             score=best, template_index=index)
    start = sched.matched - 2 if sched.matched is not None else sched.sweep_start
    sched.sweep_start = (start + 1) % bank.size
    sched.matched = None
    sched.last_frame_evals = len(order)
    return None


def assert_detect_is_reference(frame, bank, win, threshold, sched=None):
    """``detect`` and ``reference_detect`` from copies of ``sched`` agree in
    the detection and every scheduler field. Returns the detection."""
    sched = sched or SchedulerState()
    got_sched, want_sched = dataclasses.replace(sched), dataclasses.replace(sched)
    got = detect(frame, bank, got_sched, win, threshold)
    want = reference_detect(frame, bank, want_sched, win, threshold)
    assert got == want
    assert (got_sched.matched, got_sched.sweep_start, got_sched.last_frame_evals) == \
        (want_sched.matched, want_sched.sweep_start, want_sched.last_frame_evals)
    return got


@pytest.fixture(params=["direct", "fft"])
def numerator(request, monkeypatch):
    """Run a test with every map's numerator the direct strip product, then FFT."""
    monkeypatch.setattr(matcher, "_DIRECT_MAX_MACS", 10 ** 12 if request.param == "direct" else 0)
    return request.param


def two_plant_frame(rng):
    """An 80x80 frame holding bank template 0 at (5, 5) and a weaker echo of
    it at (60, 60), and the bank."""
    bank = build_template_bank(Patch(rng.uniform(0, 255, (6, 6))))
    side = bank.canvas[0]
    tpl0 = bank.templates[0]
    pixels = rng.uniform(0, 255, (80, 80))
    pixels[5:5 + side, 5:5 + side] = tpl0.pixels
    # A weaker echo far away: the template blended toward an independent
    # random patch. (An affine copy of the template would score as high
    # as the exact copy, since ZMNCC ignores gain and offset.)
    echo = 0.9 * tpl0.pixels + 0.1 * rng.uniform(0, 255, tpl0.pixels.shape)
    pixels[60:60 + side, 60:60 + side] = echo
    return bank, Frame(pixels)


@st.composite
def detect_cases(draw):
    """A bank of 1-8 random templates, a frame holding a noisy, maybe
    inverted copy of one of them and maybe a flat block, a window that may
    overhang the frame, a scheduler state and a threshold: drawn, or one of
    the first scheduled map's defined scores moved by -1, 0 or +1 ulp."""
    th = draw(st.integers(2, 9))
    tw = draw(st.integers(2, 9))
    fh = draw(st.integers(th, th + 40))
    fw = draw(st.integers(tw, tw + 40))
    win = draw_window(draw, fh, fw, th, tw)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bank = TemplateBank(templates=tuple(
        Patch(rng.uniform(0.0, 255.0, (th, tw))) for _ in range(draw(st.integers(1, 8)))))
    if draw(st.booleans()):
        pixels = rng.integers(0, 256, (fh, fw)).astype(np.float64)
    else:
        pixels = rng.uniform(0.0, 255.0, (fh, fw))
    y, x = int(rng.integers(0, fh - th + 1)), int(rng.integers(0, fw - tw + 1))
    plant = bank.templates[int(rng.integers(bank.size))].pixels
    plant = plant + draw(st.floats(0.0, 120.0)) * rng.standard_normal(plant.shape)
    plant = np.clip(plant, 0.0, 255.0)
    pixels[y:y + th, x:x + tw] = 255.0 - plant if draw(st.booleans()) else plant
    if draw(st.booleans()):
        bh, bw = int(rng.integers(1, fh + 1)), int(rng.integers(1, fw + 1))
        by, bx = int(rng.integers(0, fh - bh + 1)), int(rng.integers(0, fw - bw + 1))
        pixels[by:by + bh, bx:bx + bw] = float(rng.integers(0, 256))
    frame = Frame(pixels)
    sched = SchedulerState(matched=draw(st.none() | st.integers(0, bank.size - 1)),
                           sweep_start=draw(st.integers(0, bank.size - 1)))
    threshold = draw(st.floats(1e-6, 1.0))
    if draw(st.booleans()):
        first = bank.templates[schedule_order(sched, bank.size)[0]]
        scores = zmncc_fast(frame, first, win).scores
        defined = scores[(scores > 0.0) & (scores <= 1.0)]
        if defined.size:
            score = float(defined[int(rng.integers(defined.size))])
            step = draw(st.sampled_from([0.0, 2.0, -1.0]))
            threshold = min(1.0, float(np.nextafter(score, step)) if step else score)
    return frame, bank, win, sched, threshold


def acquire_scene(heading, x, y, n_frames):
    """A 200x150 quantized scene: the 30x33 sprite at (x, y) and ``heading``
    among three distractors."""
    duration = n_frames / 25.0
    return simulator.Scenario(
        width=200, height=150, fps=25.0, duration=duration, seed=5,
        position=[(0.0, x, y), (duration, x + 2.0, y - 1.0)], heading=[(0.0, heading)],
        gain=[(0.0, 1.0)], offset=[(0.0, 0.0)], sprite_width=30, sprite_height=33,
        distractors=3, quantize=True)


class TestDetect:
    def test_unrotated_plant_matches_template_zero(self, rng):
        bank, frame, (x, y) = planted_bank_and_frame(rng)
        sched = SchedulerState()
        det = detect(frame, bank, sched, window(0, 0, 90, 90), 0.9)
        assert det is not None
        assert det.template_index == 0
        assert det.score >= 0.999
        side = bank.canvas[0]
        cx, cy = x + (side - 1) / 2.0, y + (side - 1) / 2.0
        assert math.hypot(det.position[0] - cx, det.position[1] - cy) <= 1.0
        assert sched.matched == 0

    def test_rotated_40_deg_matches_index_4(self, rng):
        bank, frame, _ = planted_bank_and_frame(rng, heading=40.0)
        sched = SchedulerState()
        det = detect(frame, bank, sched, window(0, 0, 90, 90), 0.9)
        assert det is not None and det.template_index == 4
        assert sched.last_frame_evals == 5  # tried 0..4

    def test_blank_frame_is_nomatch(self, rng):
        bank = build_template_bank(Patch(rng.uniform(0, 255, (8, 8))))
        sched = SchedulerState()
        det = detect(Frame(np.zeros((50, 50))), bank, sched, window(0, 0, 50, 50), 0.9)
        assert det is None
        assert sched == SchedulerState(sweep_start=1)

    def test_multimodal_keeps_max_cluster(self, rng):
        bank, frame = two_plant_frame(rng)
        side = bank.canvas[0]
        tpl0 = bank.templates[0]
        exact = zmncc_oracle(frame.pixels, tpl0, (5, 5))
        weaker = zmncc_oracle(frame.pixels, tpl0, (60, 60))
        assert 0.9 <= weaker < exact
        det = detect(frame, bank, SchedulerState(), window(0, 0, 80, 80), 0.9)
        assert det is not None
        # centroid must sit on the strong (exact) copy, not between clusters
        cx = 5 + (side - 1) / 2.0
        assert math.hypot(det.position[0] - cx, det.position[1] - cx) <= 1.0

    def test_threshold_validation(self, rng):
        bank = build_template_bank(Patch(rng.uniform(0, 255, (6, 6))))
        with pytest.raises(ValueError):
            detect(Frame(np.zeros((30, 30))), bank, SchedulerState(),
                   window(0, 0, 30, 30), 0.0)

    @pytest.mark.parametrize("pick", ["max", "median"])
    def test_threshold_at_a_score_and_one_ulp_either_side(self, rng, numerator, pick):
        bank, frame, (x, y) = planted_bank_and_frame(rng)
        side = bank.canvas[0]
        noisy = frame.pixels.copy()
        noisy[y:y + side, x:x + side] += 12.0 * rng.standard_normal((side, side))
        frame, win = Frame(np.clip(noisy, 0.0, 255.0)), window(0, 0, 90, 90)
        scores = zmncc_fast(frame, bank.templates[0], win).scores
        positive = scores[scores > 0.0]
        score = float(positive.max() if pick == "max" else np.median(positive))
        assert 0.0 < score < 1.0
        below, above = np.nextafter(score, 0.0), np.nextafter(score, 1.0)
        for threshold in (below, score, above):
            det = assert_detect_is_reference(frame, bank, win, float(threshold))
            if threshold <= score:
                assert det is not None and det.template_index == 0
        if pick == "max":
            det = detect(frame, bank, SchedulerState(), win, score)
            assert det.score == score

    def test_flat_regions_where_the_energy_is_nan(self, rng, numerator):
        bank, frame, _ = planted_bank_and_frame(rng, heading=20.0)
        pixels = np.full((130, 130), 105.0)  # NaN energy wherever a placement lies inside
        pixels[:90, :90] = frame.pixels
        pixels[:24, :] = 90.0
        win = window(0, 0, 130, 130)
        stats = WindowStats(Frame(pixels), win, bank.templates[0].pixels.shape)
        assert np.isnan(stats.energy).any() and not np.isnan(stats.energy).all()
        det = assert_detect_is_reference(Frame(pixels), bank, win, 0.9)
        assert det is not None and det.template_index == 2
        flat = Frame(np.full((130, 130), 105.0))
        assert assert_detect_is_reference(flat, bank, win, 0.9) is None
        assert assert_detect_is_reference(flat, bank, win, 1e-9) is None

    def test_negative_correlation_is_no_hit(self, rng, numerator):
        bank, frame, (x, y) = planted_bank_and_frame(rng)
        side = bank.canvas[0]
        pixels = frame.pixels.copy()
        pixels[y:y + side, x:x + side] = 255.0 - pixels[y:y + side, x:x + side]
        frame, win = Frame(pixels), window(0, 0, 90, 90)
        assert zmncc_fast(frame, bank.templates[0], win).scores[y, x] < -0.99
        for threshold in (0.9, 0.05):
            assert_detect_is_reference(frame, bank, win, threshold)
        assert detect(frame, bank, SchedulerState(), win, 0.9) is None

    def test_two_clusters_in_a_large_window(self, rng, numerator):
        bank, frame = two_plant_frame(rng)
        win = window(0, 0, 80, 80)
        wh = ww = 80 - bank.canvas[0] + 1
        assert math.hypot(wh, ww) > 4.0 * math.hypot(*bank.canvas)
        det = assert_detect_is_reference(frame, bank, win, 0.9)
        cx = 5 + (bank.canvas[0] - 1) / 2.0
        assert math.hypot(det.position[0] - cx, det.position[1] - cx) <= 1.0

    @pytest.mark.parametrize("grid, skipped", [
        ((18, 18), True),    # the grid's diagonal is exactly two template diagonals
        ((18, 19), False),   # one placement column more
        ((23, 23), False),   # wide enough for the cluster test to drop a hit
    ])
    def test_grid_at_and_past_the_cluster_skip(self, rng, grid, skipped):
        side = 9
        diag = math.hypot(side, side)
        assert (math.hypot(*grid) <= 2.0 * diag) == skipped
        # One hit in a corner, many in the opposite one: the farthest any hit
        # can lie from the centroid of a grid this size.
        wh, ww = grid
        vs = np.array([0.0] + [wh - 1.0 - k % 3 for k in range(30)])
        us = np.array([0.0] + [ww - 1.0 - k // 3 for k in range(30)])
        scores = rng.uniform(0.9, 1.0, us.size)
        got = matcher._centroid_cluster(us, vs, scores, diag, grid)
        assert got == reference_centroid(us, vs, scores, diag)
        assert (got[:2] == (matcher._mean(us), matcher._mean(vs))) == (grid != (23, 23))
        bank = build_template_bank(Patch(rng.uniform(0, 255, (6, 6))))
        assert bank.canvas == (side, side)
        pixels = rng.uniform(0, 255, (50, 50))
        pixels[3:3 + side, 3:3 + side] = bank.templates[0].pixels
        pixels[3 + wh - 1:3 + wh - 1 + side, 3 + ww - 1:3 + ww - 1 + side] = \
            bank.templates[0].pixels
        win = window(3, 3, 3 + ww + side - 1, 3 + wh + side - 1)
        assert WindowStats(Frame(pixels), win, (side, side)).energy.shape == grid
        assert assert_detect_is_reference(Frame(pixels), bank, win, 0.9) is not None

    @settings(max_examples=200, deadline=None)
    @given(detect_cases(), st.booleans())
    def test_equals_full_map_reference(self, case, fft):
        frame, bank, win, sched, threshold = case
        with pytest.MonkeyPatch.context() as mp:
            if fft:
                mp.setattr(matcher, "_DIRECT_MAX_MACS", 0)
            assert_detect_is_reference(frame, bank, win, threshold, sched)

    def test_track_frames_sweeps_to_the_lock_like_the_reference(self, monkeypatch):
        reference = acquire_scene(0.0, 60.0, 50.0, 1)
        renderer = simulator.SceneRenderer(reference)
        ref_frame, ref_roi = renderer.render(0)[0], renderer.target_rect_frame0()
        scene = acquire_scene(95.0, 120.0, 80.0, 8)

        def run():
            tracker = Tracker(TrackerConfig(), frame_size=(scene.width, scene.height))
            # The template comes from the reference scene, not the tracked one.
            select = tracker.select
            monkeypatch.setattr(tracker, "select", lambda frame, roi: select(ref_frame, ref_roi))
            renderer = simulator.SceneRenderer(scene)
            source = (renderer.render(k) for k in range(scene.n_frames))
            return [dataclasses.replace(r, wall_ms=0.0)
                    for r in track_frames(tracker, source, ref_roi)]

        got = run()
        lock = next(k for k, r in enumerate(got) if r.detected)
        assert lock >= 3 and got[lock].template_index == 9
        maps = sum(r.templates_evaluated for r in got[:lock + 1])
        assert maps == TEMPLATE_BUDGET * (9 - TEMPLATE_BUDGET + 2)  # sweep_maps(9)
        monkeypatch.setattr(matcher, "detect", reference_detect)
        assert got == run()


def steady_window(bank, x, y, dw=0, dh=0):
    """A steady-sized window around a plant whose top-left is at (x, y): a
    (5 + dh) x (6 + dw) placement grid, which takes the direct numerator."""
    side = bank.canvas[0]
    return window(x - 2, y - 2, x - 2 + side + 5 + dw, y - 2 + side + 4 + dh)


class TestToeplitzCache:
    """``_toeplitz`` memoizes each direct map's block-Toeplitz template by
    (template, ``ww``, ``w``), the template hashed by identity."""

    def test_read_only_within_capacity_and_least_recent_out(self, rng):
        bank, frame, (x, y) = planted_bank_and_frame(rng)
        template = bank.templates[0]
        size = matcher._toeplitz.cache_info().maxsize
        matcher._toeplitz.cache_clear()
        keys = []
        for dw in range(size + 2):
            win = steady_window(bank, x, y, dw=dw)
            stats = WindowStats(frame, win, template.pixels.shape)
            assert stats.direct
            assert detect(frame, bank, SchedulerState(), win, 0.9).template_index == 0
            keys.append((6 + dw, stats.g.shape[1]))
            info = matcher._toeplitz.cache_info()
            assert (info.misses, info.currsize) == (dw + 1, min(dw + 1, size))
        th, tw = template.pixels.shape
        for ww, w in keys[2:]:
            toeplitz = matcher._toeplitz(template, ww, w)
            assert not toeplitz.flags.writeable
            with pytest.raises(ValueError):
                toeplitz[0, 0] = 1.0
            # T[u, i*w + u + j] = t[i, j], and zero elsewhere.
            want = np.zeros((ww, th, w))
            for u in range(ww):
                want[u, :, u:u + tw] = template.zm_pixels
            assert np.array_equal(toeplitz, want.reshape(ww, th * w))
        assert matcher._toeplitz.cache_info().misses == size + 2  # all hits
        # A hit makes its entry the most recent, so the next build drops the
        # least recent other entry, which is then built again.
        oldest = matcher._toeplitz(template, *keys[2])
        matcher._toeplitz(template, *keys[0])
        assert matcher._toeplitz(template, *keys[2]) is oldest
        assert matcher._toeplitz.cache_info().misses == size + 3
        matcher._toeplitz(template, *keys[3])
        assert matcher._toeplitz.cache_info().misses == size + 4

    @pytest.mark.parametrize("shape", [(5, 6, 50, 45, 45), (5, 5, 49, 45, 45),
                                       (436, 596, 640, 45, 45), (30, 2, 40, 9, 39)])
    def test_box_plan_bands_are_read_only_and_shared(self, shape):
        _, _, rows, cols = matcher._box_plan(*shape, matcher._DIRECT_MAX_MACS)
        assert not rows.flags.writeable and not cols.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 2.0
        with pytest.raises(ValueError):
            cols[0, 0] = 2.0
        again = matcher._box_plan(*shape, matcher._DIRECT_MAX_MACS)
        assert again[2] is rows and again[3] is cols

    def test_one_state_with_two_banks_gives_each_banks_maps(self):
        # Same canvas and window, so both banks' template 0 share ww and w.
        bank_a, frame_a, (x, y) = planted_bank_and_frame(np.random.default_rng(1))
        bank_b, frame_b, _ = planted_bank_and_frame(np.random.default_rng(2))
        assert bank_a.canvas == bank_b.canvas
        assert bank_a.templates[0].pixels.tobytes() != bank_b.templates[0].pixels.tobytes()
        win = steady_window(bank_a, x, y)
        w = win.x1 - win.x0
        matcher._toeplitz.cache_clear()
        sched = SchedulerState()
        for bank, frame in ((bank_a, frame_a), (bank_b, frame_b), (bank_a, frame_a)):
            want = reference_detect(frame, bank, dataclasses.replace(sched), win, 0.9)
            assert detect(frame, bank, sched, win, 0.9) == want
            assert want.template_index == 0
            stats = WindowStats(frame, win, bank.templates[0].pixels.shape)
            for template in bank.templates[:3]:
                assert np.array_equal(matcher._toeplitz(template, 6, w),
                                      matcher._toeplitz.__wrapped__(template, 6, w))
                kept = zmncc_fast(frame, template, win, stats).num
                matcher._toeplitz.cache_clear()
                assert np.array_equal(kept, zmncc_fast(frame, template, win, stats).num)

    def test_banks_of_equal_pixels_keep_their_own_entries(self, rng):
        # Two banks of one source: equal pixels, distinct templates.
        source = rng.uniform(0, 255, (24, 24))
        bank_b, bank_c = (build_template_bank(Patch(source)) for _ in range(2))
        for b, c in zip(bank_b.templates, bank_c.templates):
            assert b != c and np.array_equal(b.pixels, c.pixels)
        frame = Frame(rng.uniform(0, 255, (90, 90)))
        win = steady_window(bank_b, 25, 30)
        matcher._toeplitz.cache_clear()
        for bank in (bank_b, bank_c):
            sched = SchedulerState()
            assert detect(frame, bank, sched, win, 0.9) is None
            assert sched.last_frame_evals == TEMPLATE_BUDGET
        info = matcher._toeplitz.cache_info()
        assert (info.hits, info.misses) == (0, 2 * TEMPLATE_BUDGET)
        last = TEMPLATE_BUDGET - 1
        w = win.x1 - win.x0
        assert (matcher._toeplitz(bank_b.templates[last], 6, w)
                is not matcher._toeplitz(bank_c.templates[last], 6, w))
        assert matcher._toeplitz.cache_info().hits == 2

    def test_successive_maps_stay_independent(self, rng):
        bank, frame, (x, y) = planted_bank_and_frame(rng)
        win = steady_window(bank, x, y)
        stats = WindowStats(frame, win, bank.templates[0].pixels.shape)
        matcher._toeplitz.cache_clear()
        maps, copies = [], []
        for index in (0, 1, 0):
            maps.append(zmncc_fast(frame, bank.templates[index], win, stats))
            copies.append(maps[-1].num.copy())
            maps[-1].scores
        assert matcher._toeplitz.cache_info().hits == 1
        for cmap, num in zip(maps, copies):
            assert np.array_equal(cmap.num, num)
        assert not np.shares_memory(maps[0].num, maps[2].num)
        assert np.array_equal(maps[0].num, maps[2].num)
        assert not np.array_equal(maps[0].num, maps[1].num)
        maps[0].num[0, 0] += 1.0  # a map's numerator is its own
        assert np.array_equal(maps[2].num, copies[2])
