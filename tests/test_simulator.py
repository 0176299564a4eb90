import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    SCENARIOS, gather_warp, gimbal_state, headings, render_open_loop, standard_scenario, window,
)
from uavtrack import cli, matcher, simulator
from uavtrack.config import ConfigError, TrackerConfig
from uavtrack.gimbal import Gimbal
from uavtrack.errors import InvalidScenario
from uavtrack.imaging import Patch, extract_patch, rotation_canvas_side
from uavtrack.matcher import zmncc_fast
from uavtrack.simulator import (
    Scenario, SceneRenderer, TruthRecord, parse_scenario, run_closed_loop, scenario_text,
)
from uavtrack.tracker import Tracker, TrackStep, track_frames


def toeplitz_use(run) -> tuple[int, int]:
    """The direct maps that ``run()`` computes from an empty block-Toeplitz
    memo, and the templates it builds for them."""
    matcher._toeplitz.cache_clear()
    run()
    info = matcher._toeplitz.cache_info()
    return info.hits + info.misses, info.misses


def small_scenario(**overrides) -> Scenario:
    base = dict(width=120, height=100, fps=20.0, duration=1.5, seed=3,
                position=[(0.0, 60.0, 50.0)], sprite_width=20, sprite_height=20,
                distractors=1)
    base.update(overrides)
    return Scenario(**base)


class TestRendering:
    def test_stationary_scene_renders_identical_frames(self):
        frames, truth = render_open_loop(small_scenario())
        assert all(np.array_equal(f.pixels, frames[0].pixels) for f in frames)
        assert all(t.visible for t in truth)

    def test_rendering_is_deterministic(self):
        s = small_scenario(heading=[(0.0, 0.0), (1.5, 80.0)])
        f1, _ = render_open_loop(s)
        f2, _ = render_open_loop(s)
        for a, b in zip(f1, f2):
            assert np.array_equal(a.pixels, b.pixels)

    def test_truth_heading_equals_warp_angle(self):
        s = small_scenario(heading=[(0.0, 0.0), (1.5, 350.0)])
        _, truth = render_open_loop(s)
        for rec in truth:
            want = np.interp(rec.time, [0.0, 1.5], [0.0, 350.0]) % 360.0
            assert rec.heading == want

    def test_gain_offset_leave_scores_unchanged(self):
        plain = small_scenario()
        # The sprite peaks at 195, and 195 * 1.2 + 10 = 244 stays below the clip.
        lit = small_scenario(gain=[(0.0, 1.2)], offset=[(0.0, 10.0)])
        f0, truth0 = render_open_loop(plain)
        f1, _ = render_open_loop(lit)
        assert f1[0].pixels.max() < 255.0  # the invariance premise: no clipping
        rec = truth0[0]
        side = SceneRenderer(plain).canvas_side
        roi = (int(rec.x - (side - 1) / 2), int(rec.y - (side - 1) / 2), 20, 20)
        tpl = extract_patch(f0[0], (roi[0] + (side - 20) // 2,
                                    roi[1] + (side - 20) // 2, 20, 20))
        win = window(0, 0, 120, 100)
        m0 = zmncc_fast(f0[0], tpl, win).scores
        m1 = zmncc_fast(f1[0], tpl, win).scores
        ok = ~np.isnan(m0)
        assert np.array_equal(np.isnan(m0), np.isnan(m1))
        assert np.max(np.abs(m0[ok] - m1[ok])) < 1e-9

    def test_dropout_controls_visibility_exactly(self):
        s = small_scenario(duration=2.0, dropouts=[(0.5, 1.0)])
        frames, truth = render_open_loop(s)
        for rec in truth:
            assert rec.visible == (not 0.5 <= rec.time < 1.0)
        hidden = [f for f, t in zip(frames, truth) if not t.visible]
        shown = [f for f, t in zip(frames, truth) if t.visible]
        assert not np.array_equal(hidden[0].pixels, shown[0].pixels)

    def test_quantize_produces_integral_pixels(self):
        s = small_scenario(quantize=True, gain=[(0.0, 1.17)])
        frames, _ = render_open_loop(s)
        assert np.array_equal(frames[0].pixels, np.rint(frames[0].pixels))

    def test_viewport_shift_moves_truth(self):
        r = SceneRenderer(small_scenario())
        f0, t0 = r.render(0, (0, 0))
        f1, t1 = r.render(0, (5, -3))
        assert (t1.x, t1.y) == (t0.x - 5, t0.y + 3)
        assert not np.array_equal(f0.pixels, f1.pixels)


def two_warp_frame(renderer, k, viewport):
    """Frame k as rendered before the sprite's warp and mask came from one
    call: an alpha blend with the warp of an all-ones raster, then gain, offset,
    clip and rounding into new arrays."""
    s = renderer.scenario
    m = simulator.WORLD_MARGIN
    ox, oy = viewport
    crop = renderer.world[m + oy:m + oy + s.height, m + ox:m + ox + s.width].copy()
    truth = renderer.render(k)[1]
    if truth.visible:
        canvas = gather_warp(renderer.sprite, truth.heading, 0.0)
        alpha = np.clip(gather_warp(np.ones_like(renderer.sprite), truth.heading, 0.0), 0.0, 1.0)
        half = (renderer.canvas_side - 1) / 2.0
        x, y = int(round(truth.x - half)) - ox, int(round(truth.y - half)) - oy
        x0, y0 = max(0, x), max(0, y)
        x1, y1 = min(s.width, x + canvas.shape[1]), min(s.height, y + canvas.shape[0])
        if x0 < x1 and y0 < y1:
            sub = (slice(y0 - y, y1 - y), slice(x0 - x, x1 - x))
            a = alpha[sub]
            crop[y0:y1, x0:x1] = (1.0 - a) * crop[y0:y1, x0:x1] + a * canvas[sub]
    out = np.clip(truth.gain * crop + truth.offset, 0.0, 255.0)
    return np.rint(out) if s.quantize else out


def assert_viewport_rejected(renderer, k, viewport):
    """A viewport beyond the world's margin is rejected, naming the frame
    and the offset."""
    with pytest.raises(InvalidScenario, match=rf"^frame {k}: viewport offset "
                                              rf"\({viewport[0]}, {viewport[1]}\)"):
        renderer.render(k, viewport)


class TestSharedWarp:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 45), st.integers(2, 45), headings(), st.floats(0.5, 1.5),
           st.floats(-20.0, 20.0), st.booleans(), st.integers(-140, 140),
           st.integers(-140, 140))
    # A unit gain and a zero offset, which are neither multiplied nor added
    @example(20, 20, 30.0, 1.0, 0.0, False, 0, 0)
    @example(20, 20, 30.0, 1.0, 0.0, True, 3, -2)
    # 255 * 0.75 + 63.75 == 255 exactly: the brightest pixel stays unclipped
    @example(12, 17, 45.0, 0.75, 63.75, False, 0, 0)
    # Negative gains: [72.5, 200] stays in range, [-286, 20] is clipped
    @example(12, 17, 200.0, -0.5, 200.0, True, 0, 0)
    @example(12, 17, 200.0, -1.2, 20.0, False, 0, 0)
    # A gain of -0.0 gives -0.0, which only the add of the zero offset makes 0.0
    @example(12, 17, 200.0, -0.0, 0.0, False, 0, 0)
    def test_frame_equals_two_warp_blend(self, sh, sw, heading, gain, offset, quantize, ox, oy):
        assume(sh * sw >= 16)
        size = rotation_canvas_side(sw, sh) + 6
        s = small_scenario(width=size, height=size, fps=10.0, duration=0.1,
                           position=[(0.0, size / 2.0, size / 2.0)],
                           sprite_width=sw, sprite_height=sh, heading=[(0.0, heading)],
                           gain=[(0.0, gain)], offset=[(0.0, offset)], quantize=quantize,
                           distractors=0)
        r = SceneRenderer(s)
        if max(abs(ox), abs(oy)) > simulator.WORLD_MARGIN:
            assert_viewport_rejected(r, 0, (ox, oy))
            return
        frame, _ = r.render(0, (ox, oy))
        want = two_warp_frame(r, 0, (ox, oy))  # bit for bit, down to the sign of a zero
        assert frame.pixels.dtype == want.dtype and frame.pixels.shape == want.shape
        assert frame.pixels.tobytes() == want.tobytes()

    def test_reuse_matches_a_fresh_renderer(self):
        # heading 30 until 0.5 s, a ramp to 120 at 1.0 s, held to 1.5 s,
        # then 0.1 degrees a frame
        s = small_scenario(duration=2.0, position=[(0.0, 50.0, 45.0), (2.0, 70.0, 55.0)],
                           heading=[(0.0, 30.0), (0.5, 30.0), (1.0, 120.0), (1.5, 120.0),
                                    (2.0, 121.0)],
                           gain=[(0.0, 0.9), (2.0, 1.2)], dropouts=[(0.6, 0.8)])
        order = [3, 3, 25, 4, 0, 39, 25, 13, 8, 3, 30, 31, 30, 14, 22]
        viewport = {k: (k % 5 - 2, 1 - k % 3) for k in order}
        r = SceneRenderer(s)
        world = r.world.copy()
        got = [r.render(k, viewport[k]) for k in order]
        for k, (frame, truth) in zip(order, got):
            want, want_truth = SceneRenderer(s).render(k, viewport[k])
            assert np.array_equal(frame.pixels, want.pixels), k
            assert truth == want_truth
        assert np.array_equal(r.world, world)

    @pytest.mark.parametrize("heading, warps", [([(0.0, 40.0)], 1),
                                                ([(0.0, 0.0), (1.5, 80.0)], 25)])
    def test_warps_once_per_heading(self, monkeypatch, heading, warps):
        calls = []
        real = simulator.rotate
        monkeypatch.setattr(simulator, "rotate",
                            lambda *args: calls.append(args) or real(*args))
        s = small_scenario(heading=heading, dropouts=[(0.2, 0.45)])
        render_open_loop(s)
        assert s.n_frames == 30 and len(calls) == warps  # 5 frames hidden


def gathered_value_noise(rng, height, width, cell, octaves=2):
    """value_noise as first written, with a 2-D gather per lattice corner;
    kept as the oracle of the separable form."""
    acc = np.zeros((height, width))
    amp = 1.0
    for o in range(octaves):
        step = max(2, cell >> o)
        g = rng.standard_normal((height // step + 2, width // step + 2))
        ys = np.arange(height) / step
        xs = np.arange(width) / step
        y0 = np.floor(ys).astype(int)[:, None]
        x0 = np.floor(xs).astype(int)[None, :]
        fy = (ys % 1.0)[:, None]
        fx = (xs % 1.0)[None, :]
        top = (1 - fx) * g[y0, x0] + fx * g[y0, x0 + 1]
        bot = (1 - fx) * g[y0 + 1, x0] + fx * g[y0 + 1, x0 + 1]
        acc += amp * ((1 - fy) * top + fy * bot)
        amp *= 0.5
    acc -= acc.mean()
    sd = acc.std()
    if sd > 0:
        acc /= sd
    return acc


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 80), st.integers(1, 80), st.integers(1, 16), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_value_noise_equals_gathered_form(height, width, cell, octaves, seed):
    got = simulator.value_noise(np.random.default_rng(seed), height, width, cell, octaves)
    want = gathered_value_noise(np.random.default_rng(seed), height, width, cell, octaves)
    assert np.array_equal(got, want)


class TestValidation:
    def test_target_leaving_frame_rejected(self):
        s = small_scenario(position=[(0.0, 60.0, 50.0), (1.5, 130.0, 50.0)])
        with pytest.raises(InvalidScenario):
            s.validate()

    def test_sprite_bigger_than_frame_rejected(self):
        with pytest.raises(InvalidScenario):
            small_scenario(sprite_width=90, sprite_height=90).validate()

    def test_closed_loop_needs_visible_start(self):
        s = small_scenario(duration=2.0, dropouts=[(0.0, 0.5)])
        with pytest.raises(InvalidScenario):
            run_closed_loop(s)

    @pytest.mark.parametrize("position, dropouts, first", [
        # the 29-pixel canvas crosses the right edge from 0.70 s on ...
        ([(0.0, 60.0, 50.0), (1.5, 160.0, 50.0)], [], "0.700"),
        # ... and a dropout to 0.75 s hides the frames in between
        ([(0.0, 60.0, 50.0), (1.5, 160.0, 50.0)], [(0.3, 0.75)], "0.750"),
        # corner x 91.5 rounds half to even, to 92: one pixel past the edge
        ([(0.0, 105.5, 50.0)], [], "0.000"),
    ])
    def test_names_first_visible_frame_out(self, position, dropouts, first):
        s = small_scenario(position=position, dropouts=dropouts)
        with pytest.raises(InvalidScenario, match=rf"leaves the frame at t={first}s while in view"):
            s.validate()

    @pytest.mark.parametrize("line, message", [
        ("sprite_width=-5\nsprite_height=-5", "sprite_width must be >= 1"),
        ("sprite_height=0", "sprite_height must be >= 1"),
        ("seed=-1", "seed must be >= 0"),
        ("distractors=-3", "distractors must be >= 0"),
    ])
    def test_out_of_range_integer_rejected(self, line, message):
        # A key may appear once, so the line under test replaces the base's own.
        base = ["width=120", "height=100", "fps=20", "duration=1", "seed=1", "position=0:60,50"]
        keys = {entry.split("=")[0] for entry in line.splitlines()}
        text = "\n".join([b for b in base if b.split("=")[0] not in keys] + [line]) + "\n"
        with pytest.raises(InvalidScenario, match=message):
            parse_scenario(text)

    @pytest.mark.parametrize("value", ["7", "-1", "2"])
    def test_quantize_other_than_0_or_1_rejected(self, value):
        text = ("width=120\nheight=100\nfps=20\nduration=1\nseed=1\n"
                "position=0:60,50\nquantize=" + value + "\n")
        with pytest.raises(ConfigError, match=f":7: '{value}' is not 0 or 1"):
            parse_scenario(text)

    @pytest.mark.parametrize("name, points", [
        ("position", [(-1e-311, 60.0, 50.0), (1e-311, 61.0, 50.0)]),
        ("heading", [(-1e-311, 0.0), (1e-311, 1.0)]),
        ("gain", [(-1e-311, 1.0), (1e-311, 0.5)]),
        ("offset", [(-1e-311, 0.0), (1e-311, 2.0)]),
    ])
    def test_overflowing_schedule_rejected(self, name, points):
        # The slope between breakpoints 2e-311 s apart overflows to inf.
        with pytest.raises(InvalidScenario, match="overflows"):
            small_scenario(**{name: points}).validate()

    @pytest.mark.parametrize("name, points", [
        # np.interp drew this path 60, 61, ... 65 and then 30 from t=0.6 s on.
        ("position", [(0.0, 60.0, 50.0), (1.0, 70.0, 50.0), (0.5, 30.0, 50.0)]),
        ("heading", [(0.0, 0.0), (1.0, 10.0), (1.0, 20.0)]),
        ("gain", [(0.5, 1.0), (0.0, 0.8)]),
        ("offset", [(0.0, 0.0), (math.nan, 2.0)]),
    ])
    def test_out_of_order_breakpoints_rejected(self, name, points):
        with pytest.raises(InvalidScenario,
                           match=f"^{name} breakpoint times must strictly increase$"):
            small_scenario(**{name: points}).validate()

    @pytest.mark.parametrize("span", [(1.0, 0.5), (0.5, 0.5), (math.nan, 1.0), (0.5, math.inf)])
    def test_bad_dropout_span_rejected(self, span):
        # Such a span would hide no frame, or every frame after its start.
        with pytest.raises(InvalidScenario, match="dropout spans need finite bounds"):
            small_scenario(dropouts=[(0.1, 0.2), span]).validate()

    @pytest.mark.parametrize("name", ["position", "heading", "gain", "offset"])
    def test_empty_schedule_rejected(self, name):
        with pytest.raises(InvalidScenario, match=f"{name} schedule is empty"):
            small_scenario(**{name: []}).validate()

    def test_renderer_checks_the_scenario_once(self, monkeypatch):
        calls = []
        sample = simulator._sample
        monkeypatch.setattr(simulator, "_sample", lambda s: calls.append(s) or sample(s))
        s = small_scenario()
        SceneRenderer(s)
        assert calls == [s]

    @pytest.mark.parametrize("k", [-1, 30])
    def test_render_rejects_frame_outside_scenario(self, k):
        with pytest.raises(IndexError):
            SceneRenderer(small_scenario()).render(k)


finite = st.floats(-1e3, 1e3)


def schedule(draw, values, max_size=4):
    """Breakpoints at strictly increasing times, each ``(t, *values())``."""
    times = sorted(draw(st.sets(st.floats(-1.0, 10.0), min_size=1, max_size=max_size)))
    # Closer breakpoints overflow the interpolation, and validate rejects them.
    assume(all(b - a > 1e-300 for a, b in zip(times, times[1:])))
    return [(t, *values()) for t in times]


@st.composite
def scenarios(draw):
    """A valid scenario with every field drawn, the target inside the frame
    on every frame."""
    width, height = draw(st.integers(24, 200)), draw(st.integers(24, 200))
    sw, sh = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    assume(sw * sh >= 16)
    half = rotation_canvas_side(sw, sh) / 2.0 + 1.0
    fps, duration = draw(st.floats(1.0, 30.0)), draw(st.floats(0.05, 2.0))
    assume(round(fps * duration) >= 1)
    spans = sorted(draw(st.sets(st.floats(0.0, 10.0), max_size=6)))
    return Scenario(
        width=width, height=height, fps=fps, duration=duration,
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        position=schedule(draw, lambda: (draw(st.floats(half, width - half)),
                                         draw(st.floats(half, height - half)))),
        heading=schedule(draw, lambda: (draw(finite),)),
        gain=schedule(draw, lambda: (draw(st.floats(0.1, 4.0)),)),
        offset=schedule(draw, lambda: (draw(finite),)),
        dropouts=list(zip(spans[::2], spans[1::2])),
        sprite_width=sw, sprite_height=sh, distractors=draw(st.integers(0, 5)),
        quantize=draw(st.booleans())).validate()


def scalar_truth(s: Scenario, canvas_side: int, k: int, viewport) -> TruthRecord:
    """Frame k's truth as the schedules were first evaluated, one frame at a
    time: a scalar ``np.interp`` per component, each dropout span tested in
    turn, and the sprite centre put on the pixel grid by Python's ``round``.
    Kept as the oracle of the sampled table."""
    t = k / s.fps

    def at(points):
        ts, *values = (np.array(c, dtype=np.float64) for c in zip(*points))
        return [float(np.interp(t, ts, v)) for v in values]

    cx, cy = at(s.position)
    (heading,), (gain,), (offset,) = at(s.heading), at(s.gain), at(s.offset)
    half = (canvas_side - 1) / 2.0
    ox, oy = viewport
    return TruthRecord(frame_index=k, time=t, visible=not any(a <= t < b for a, b in s.dropouts),
                       x=round(cx - half) + half - ox, y=round(cy - half) + half - oy,
                       heading=heading % 360.0, gain=gain, offset=offset)


TRUTH_TYPES = (int, float, bool, float, float, float, float, float)


class TestSampledSchedules:
    @settings(max_examples=40, deadline=None)
    @given(scenarios(), st.integers(-140, 140), st.integers(-140, 140))
    # Frame times on the dropout bounds, and sprite centres half a pixel
    # off the grid, where rounding half to even decides the corner.
    @example(small_scenario(duration=1.0, position=[(0.0, 60.5, 50.5), (1.0, 61.5, 49.5)],
                            heading=[(0.0, -30.0), (1.0, 400.0)], dropouts=[(0.25, 0.5)]),
             3, -2)
    def test_truth_equals_scalar_evaluation(self, s, ox, oy):
        r = SceneRenderer(s)
        if max(abs(ox), abs(oy)) > simulator.WORLD_MARGIN:
            assert_viewport_rejected(r, s.n_frames - 1, (ox, oy))
            return
        for k in range(s.n_frames):
            frame, truth = r.render(k, (ox, oy))
            want = scalar_truth(s, r.canvas_side, k, (ox, oy))
            assert truth == want, k
            assert tuple(map(type, dataclasses.astuple(truth))) == TRUTH_TYPES
            assert type(frame.timestamp) is float and frame.timestamp == want.time


class TestScenarioFiles:
    def test_text_round_trip(self):
        s = standard_scenario("benign")
        s.dropouts = [(1.0, 2.5)]
        assert parse_scenario(scenario_text(s)) == s

    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    def test_text_round_trip_property(self, s):
        assert parse_scenario(scenario_text(s)) == s

    def test_parse_reports_line_numbers(self):
        text = "width=320\nheight=240\nbogus_key=1\n"
        with pytest.raises(ConfigError, match=":3:"):
            parse_scenario(text)

    def test_parse_rejects_bad_schedule(self):
        text = ("width=120\nheight=100\nfps=20\nduration=1\nseed=1\n"
                "position=0:10\n")
        with pytest.raises(ConfigError, match=":6:"):
            parse_scenario(text)

    def test_parse_rejects_missing_required(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_scenario("width=120\n")

    def test_parse_dropout_with_exponents(self):
        text = ("width=120\nheight=100\nfps=20\nduration=1\nseed=1\n"
                "position=0:60,50\ndropout=2.5e-05-0.5,0.5-1e+01\n")
        assert parse_scenario(text).dropouts == [(2.5e-05, 0.5), (0.5, 10.0)]

    @pytest.mark.parametrize("line", [
        "fps=inf", "duration=nan", "position=0:60,nan", "position=inf:60,50",
        "heading=0:inf", "gain=0:nan", "offset=0:-inf", "gain=nan:1.0",
        "dropout=0.2-inf", "dropout=nan-0.5",
    ])
    def test_parse_rejects_non_finite(self, line):
        text = ("width=120\nheight=100\nfps=20\nduration=1\nseed=1\n"
                "position=0:60,50\n" + line + "\n")
        with pytest.raises(ConfigError, match=r":7: '-?(inf|nan)' is not a finite number"):
            parse_scenario(text)

    def test_parse_rejects_repeated_key(self):
        # The shipped 10.0-11.2 loss would silently give way to the second line.
        text = open(os.path.join(SCENARIOS, "dropout.txt")).read() + "dropout=1.0-2.0\n"
        line = len(text.splitlines())
        with pytest.raises(ConfigError, match=rf"^<scenario>:{line}: repeated key 'dropout' "
                                              rf"\(first on line {line - 1}\)$"):
            parse_scenario(text)

    def test_parse_rejects_bad_dropout(self):
        text = ("width=120\nheight=100\nfps=20\nduration=1\nseed=1\n"
                "position=0:60,50\ndropout=2-1\n")
        with pytest.raises(ConfigError, match=":7:"):
            parse_scenario(text)


class TestClosedLoop:
    def test_report_is_deterministic(self):
        s = small_scenario(duration=1.0, heading=[(0.0, 0.0), (1.0, 30.0)])
        r1 = run_closed_loop(s)
        r2 = run_closed_loop(s)
        for a, b in zip(r1.records, r2.records):
            for field in ("frame_index", "detected", "x", "y", "score",
                          "template_index", "templates_evaluated", "window",
                          "half_width", "half_height", "pan_rad", "tilt_rad",
                          "pan_counts", "tilt_counts"):
                assert getattr(a, field) == getattr(b, field)

    def test_benign_truth_error_bounded(self):
        rep = run_closed_loop(standard_scenario("benign"))
        det = [r for r in rep.records if r.detected]
        err = sorted(math.hypot(r.x - r.truth_x, r.y - r.truth_y) for r in det)
        assert err[int(0.95 * len(err))] <= 3.0

    def test_each_frame_rendered_once(self, monkeypatch):
        calls = []
        render = SceneRenderer.render
        monkeypatch.setattr(SceneRenderer, "render",
                            lambda self, k, *a: calls.append(k) or render(self, k, *a))
        s = small_scenario(duration=0.5)
        run_closed_loop(s)
        assert calls == list(range(s.n_frames))

    def test_dropout_report_shape(self):
        rep = run_closed_loop(standard_scenario("dropout"))
        hidden = [r for r in rep.records if not r.truth_visible]
        assert len(hidden) == 30
        assert all(r.miss for r in hidden)

    def test_sprite_has_contrast_headroom(self):
        sprite = simulator.blob_sprite(np.random.default_rng(0), 30, 30, 62.0, 105.0)
        assert sprite.max() <= 195.0 and sprite.min() >= 15.0
        assert Patch(sprite).zm_norm > 0


class TestFrameLoop:
    def test_order_of_each_frames_stages(self):
        events = []

        class Stub:
            def select(self, frame, roi):
                events.append(("select", frame, roi))

            def process(self, frame):
                events.append(("process", frame))
                return TrackStep(frame, 0.1 * frame, None, (0, 0, 4, 4), 2.0, 2.0, 1)

            state = gimbal_state()
            counts = (0, 0)

            def step(self, detection):
                events.append(("step", None))

        def source():
            for k in range(3):
                events.append(("fetch", k))
                yield k, None

        stub = Stub()
        roi = (1, 2, 3, 4)
        records = track_frames(stub, source(), roi, stub,
                               sink=lambda f: events.append(("sink", f)))
        assert events == []  # nothing runs until a record is asked for
        assert [r.frame_index for r in records] == [0, 1, 2]
        stages = [e for k in range(3) for e in
                  (("fetch", k), ("sink", k), ("process", k), ("step", None))]
        assert events == stages[:1] + [("select", 0, roi)] + stages[1:]

    @pytest.mark.parametrize("size", [(20, 22), (27, 28), (30, 33), (38, 30)])
    def test_toeplitz_cache_leaves_every_record_unchanged(self, size):
        # The benchmark's 640x480 scene at one paper patch size, gimbal
        # stepped: a run that keeps its block-Toeplitz templates and one
        # whose memo is cleared before every frame give the same records.
        scenario = simulator.benchmark_scenario(*size, n_frames=40)
        renderer = SceneRenderer(scenario)
        frames = [renderer.render(k) for k in range(scenario.n_frames)]

        def run(clear):
            cfg = TrackerConfig()
            tracker = Tracker(cfg, frame_size=(scenario.width, scenario.height))
            builds = 0

            def source():
                nonlocal builds
                for pair in frames:
                    if clear:
                        builds += matcher._toeplitz.cache_info().misses
                        matcher._toeplitz.cache_clear()
                    yield pair
            matcher._toeplitz.cache_clear()
            records = [dataclasses.replace(r, wall_ms=0.0) for r in track_frames(
                tracker, source(), renderer.target_rect_frame0(),
                Gimbal(cfg, scenario.width, scenario.height, scenario.fps))]
            return records, builds + matcher._toeplitz.cache_info().misses

        kept, kept_builds = run(clear=False)
        cleared, cleared_builds = run(clear=True)
        assert kept == cleared
        assert sum(r.detected for r in kept) == len(kept)
        assert kept_builds < cleared_builds // 2

    def test_quantized_dropout_builds_a_toeplitz_template_for_few_maps(self):
        # The closed loop through a 30-frame dropout, whose windows grow
        # every missed frame, builds a template for under half its direct maps.
        scenario = standard_scenario("dropout")
        scenario.quantize = True
        maps, builds = toeplitz_use(lambda: run_closed_loop(scenario))
        assert maps > 0 and builds < maps / 2

    def test_interleaved_benchmark_builds_a_toeplitz_template_for_few_maps(self):
        # Four trackers, one frame of each in turn, share the memo.
        maps, builds = toeplitz_use(
            lambda: cli.run_benchmark(TrackerConfig(), cli.DEFAULT_BENCH_SIZES, n_frames=40))
        assert maps > 0 and builds < maps / 2
