import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import window
from uavtrack import estimator, matcher, simulator
from uavtrack.errors import UndefinedScore, WindowTooSmall
from uavtrack.imaging import (
    Frame, Patch, TemplateBank, build_template_bank, extract_patch, warp_raster,
)
from uavtrack.matcher import (
    SchedulerState, WindowStats, _fast_len, _fft_numerator, _integral_image,
    detect, schedule_order, zmncc_fast, zmncc_oracle,
)


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
    bank = build_template_bank(Patch(sprite))
    side = bank.canvas[0]
    pixels = 105.0 + 8.0 * simulator.value_noise(rng, 90, 90, 5)
    canvas = warp_raster(sprite, heading, fill=float(sprite.mean()))
    pixels[30:30 + side, 25:25 + side] = canvas
    return bank, Frame(np.clip(pixels, 0, 255)), (25, 30)


def fft_map(frame, template, win):
    stats = WindowStats(frame, win, template.pixels.shape)
    return stats.normalize(_fft_numerator(stats, template.zm_pixels), template)


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
        for limit in (math.inf, 0):
            monkeypatch.setattr(matcher, "_DIRECT_MAX_MACS", limit)
            sched = SchedulerState()
            det = detect(frame, bank, sched, window(0, 0, 90, 90), 0.9)
            results.append((det, sched))
        (direct, s1), (fft, s2) = results
        assert direct is not None and fft is not None
        assert (fft.position, fft.template_index, fft.frame_index) == \
            (direct.position, direct.template_index, direct.frame_index)
        assert fft.score == pytest.approx(direct.score, abs=1e-12)
        assert s1 == s2 and s1.last_frame_evals == s2.last_frame_evals == 5


def nested_cumsum(a):
    """The integral image as two whole-array ``np.cumsum`` passes."""
    s = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    np.cumsum(np.cumsum(a, axis=0), axis=1, out=s[1:, 1:])
    return s


class TestIntegralImage:
    @pytest.mark.parametrize("shape", [(480, 640), (240, 320)])
    def test_full_frame_equals_nested_cumsum(self, rng, shape):
        g = rng.uniform(-128.0, 128.0, shape)
        for a in (g, g * g):
            assert np.array_equal(_integral_image(a), nested_cumsum(a))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 41), st.integers(1, 41), st.integers(0, 2 ** 32 - 1))
    def test_equals_nested_cumsum(self, h, w, seed):
        g = np.random.default_rng(seed).uniform(-128.0, 128.0, (h, w))
        for a in (g, g * g):
            assert np.array_equal(_integral_image(a), nested_cumsum(a))


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
        for name in ("g", "energy", "defined"):
            assert np.array_equal(getattr(s8, name), getattr(s64, name)), name
        for template in bank.templates:
            assert np.array_equal(zmncc_fast(f8, template, win).scores,
                                  zmncc_fast(f64, template, win).scores, equal_nan=True)
        sched8, sched64 = SchedulerState(), SchedulerState()
        assert detect(f8, bank, sched8, win, 0.9) == detect(f64, bank, sched64, win, 0.9)
        assert sched8 == sched64

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
        for name in ("g", "energy", "defined"):
            assert np.array_equal(getattr(s8, name), getattr(s64, name)), name
        assert np.array_equal(zmncc_fast(f8, template, win, s8).scores,
                              zmncc_fast(f64, template, win, s64).scores, equal_nan=True)


class TestScheduler:
    def test_fresh_order(self):
        assert schedule_order(SchedulerState()) == [0, 1, 2, 3, 4, 5, 6]

    def test_order_after_match_at_4(self):
        s = SchedulerState(last_matched_index=4)
        assert schedule_order(s) == [2, 3, 4, 5, 6, 7, 8]

    def test_order_wraps_at_zero(self):
        s = SchedulerState(last_matched_index=0)
        assert schedule_order(s) == [34, 35, 0, 1, 2, 3, 4]

    def test_miss_advances_start_by_one(self, rng):
        bank = build_template_bank(Patch(rng.uniform(0, 255, (8, 8))))
        blank = Frame(np.zeros((60, 60)))
        sched = SchedulerState(fallback_start_index=2, last_frame_missed=True)
        assert schedule_order(sched)[0] == 2
        result = detect(blank, bank, sched, window(0, 0, 60, 60), 0.9)
        assert result is None
        assert sched.fallback_start_index == 3
        assert schedule_order(sched) == [3, 4, 5, 6, 7, 8, 9]

    def test_all_templates_tried_over_36_miss_frames(self, rng):
        bank = build_template_bank(Patch(rng.uniform(0, 255, (8, 8))))
        blank = Frame(np.zeros((60, 60)))
        sched = SchedulerState(last_matched_index=17)
        tried = set()
        for _ in range(36):
            tried.update(schedule_order(sched))
            assert detect(blank, bank, sched, window(0, 0, 60, 60), 0.9) is None
        assert tried == set(range(36))

    def test_budget_never_exceeded(self, rng):
        bank = build_template_bank(Patch(rng.uniform(0, 255, (8, 8))))
        blank = Frame(np.zeros((60, 60)))
        sched = SchedulerState()
        for _ in range(5):
            detect(blank, bank, sched, window(0, 0, 60, 60), 0.9)
            assert sched.last_frame_evals <= 7


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
        assert sched.last_matched_index == 0

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
        assert sched.fallback_start_index == 1
        assert sched.last_frame_missed

    def test_multimodal_keeps_max_cluster(self, rng):
        t = Patch(rng.uniform(0, 255, (6, 6)))
        bank = build_template_bank(t)
        side = bank.canvas[0]
        tpl0 = bank.templates[0]
        pixels = rng.uniform(0, 255, (80, 80))
        pixels[5:5 + side, 5:5 + side] = tpl0.pixels
        # weaker echo far away: blend toward the template
        echo = 0.97 * tpl0.pixels + 0.03 * tpl0.mean
        pixels[60:60 + side, 60:60 + side] = echo
        frame = Frame(np.clip(pixels, 0, 255))
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
