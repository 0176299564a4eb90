import math
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from uavtrack.config import TrackerConfig
from uavtrack.estimator import AxisState, SearchWindow, TrackState, predict
from uavtrack.gimbal import GimbalState
from uavtrack.imaging import rotation_canvas_side
from uavtrack.simulator import SceneRenderer, load_scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def window(x0, y0, x1, y1) -> SearchWindow:
    """Bare pixel-rect window for driving the matcher directly."""
    return SearchWindow(center=((x0 + x1) / 2.0, (y0 + y1) / 2.0),
                        half_width=(x1 - x0) / 2.0, half_height=(y1 - y0) / 2.0,
                        clamped=False, x0=x0, y0=y0, x1=x1, y1=y1)


def four_state(state: TrackState) -> tuple[np.ndarray, np.ndarray]:
    """The filter state as one 4-state mean [px, py, vx, vy] and its 4x4
    covariance; the filter never couples the axes, so cross-axis terms are 0."""
    x = np.array([state.x_axis.pos, state.y_axis.pos, state.x_axis.vel, state.y_axis.vel])
    P = np.zeros((4, 4))
    for i, a in enumerate((state.x_axis, state.y_axis)):
        P[i, i], P[i + 2, i + 2] = a.pp, a.vv
        P[i, i + 2] = P[i + 2, i] = a.pv
    return x, P


def applied_noise(dt: float, sigma: float) -> list[tuple[float, float, float]]:
    """The process noise ``predict`` adds over ``dt``, per axis, as
    (var(pos), cov(pos, vel), var(vel)): the covariance it predicts from a
    state with none."""
    zero = AxisState(0.0, 0.0, 0.0, 0.0, 0.0)
    st = predict(TrackState(x_axis=zero, y_axis=zero, sigma=sigma), dt)
    return [(a.pp, a.pv, a.vv) for a in (st.x_axis, st.y_axis)]


def gimbal_state(**overrides) -> GimbalState:
    """A gimbal state with the default configuration's limits, rate and
    count resolution, unless ``overrides`` gives them."""
    cfg = TrackerConfig()
    return GimbalState(**{"pan_limit": cfg.pan_limit, "tilt_limit": cfg.tilt_limit,
                          "max_rate": cfg.gimbal_max_rate,
                          "count_resolution": cfg.count_resolution, **overrides})


def standard_scenario(name: str):
    """A shipped scenario, read from ``scenarios/<name>.txt``."""
    return load_scenario(os.path.join(SCENARIOS, f"{name}.txt"))


def render_open_loop(scenario):
    """Every frame and truth record of a scenario at zero viewport offset."""
    renderer = SceneRenderer(scenario)
    frames, truth = zip(*(renderer.render(k) for k in range(scenario.n_frames)))
    return list(frames), list(truth)


def gather_warp(pixels, alpha_deg, fill):
    """The warp as first written, for one angle: a full coordinate grid and
    four 2-D gathers per call. Kept as the oracle of ``imaging.rotate``."""
    src = np.asarray(pixels, dtype=np.float64)
    h, w = src.shape
    side = rotation_canvas_side(w, h)
    mx, my = (side - w) // 2, (side - h) // 2
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


def headings():
    """Free headings, plus exact quarter turns, where the grid snapping acts."""
    return st.floats(-1080.0, 1080.0) | st.integers(-12, 12).map(lambda q: 90.0 * q)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
