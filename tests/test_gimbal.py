import math

import numpy as np
import pytest

from conftest import gimbal_state
from uavtrack.config import TrackerConfig
from uavtrack.gimbal import (
    CameraModel, Gimbal, GimbalState, centering_step, pixel_error_to_counts,
    step_gimbal, viewport_offset_px,
)
from uavtrack.matcher import Detection


CAM = CameraModel(hfov=math.radians(40.0), vfov=math.radians(30.0),
                  width=320, height=240)


def det(x, y):
    return Detection(position=(x, y), score=0.95, template_index=0)


class TestCounts:
    def test_zero_error_zero_counts(self):
        assert pixel_error_to_counts((0.0, 0.0), CAM, gimbal_state()) == (0, 0)

    def test_ten_millirad_is_hundred_counts(self):
        err_px = 0.01 / CAM.rad_per_px_x
        counts = pixel_error_to_counts((err_px, 0.0), CAM, gimbal_state())
        assert counts == (100, 0)

    def test_matches_scalar_oracle(self, rng):
        g = gimbal_state()
        for _ in range(50):
            ex, ey = rng.uniform(-200, 200, 2)
            want = (int(round(ex * CAM.rad_per_px_x / g.count_resolution)),
                    int(round(ey * CAM.rad_per_px_y / g.count_resolution)))
            assert pixel_error_to_counts((ex, ey), CAM, g) == want


class TestStep:
    def test_small_command_moves_exactly(self):
        g = step_gimbal(gimbal_state(), (50, -30), dt=1.0)
        assert g.pan == pytest.approx(50 * 1e-4)
        assert g.tilt == pytest.approx(-30 * 1e-4)
        assert not g.saturated

    def test_rate_saturation(self):
        g0 = gimbal_state(max_rate=0.02)
        g = step_gimbal(g0, (10000, 0), dt=0.04)
        assert g.pan == pytest.approx(0.02 * 0.04)
        assert g.saturated

    def test_range_saturation_holds_at_limit(self):
        g0 = gimbal_state(pan=math.radians(15.0), max_rate=100.0)
        g = step_gimbal(g0, (10, 0), dt=1.0)
        assert g.pan == g0.pan
        assert g.saturated

    def test_deadband_below_half_count(self):
        g0 = gimbal_state()
        half_count_px = 0.5 * g0.count_resolution / CAM.rad_per_px_x
        counts = pixel_error_to_counts((0.9 * half_count_px, 0.0), CAM, g0)
        assert counts == (0, 0)
        assert step_gimbal(g0, counts, 0.04).pan == 0.0

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            step_gimbal(gimbal_state(), (0, 0), 0.0)


class TestCentering:
    def test_holds_without_detection(self):
        g0 = gimbal_state(pan=0.01, tilt=-0.02)
        g, counts = centering_step(None, (159.5, 119.5), CAM, g0, 0.04)
        assert (g.pan, g.tilt) == (g0.pan, g0.tilt)
        assert counts == (0, 0)

    def test_centered_detection_is_noop(self):
        g, counts = centering_step(det(160, 120), (160.0, 120.0), CAM,
                                   gimbal_state(), 0.04)
        assert g.pan == 0.0 and g.tilt == 0.0 and counts == (0, 0)

    def test_synthetic_loop_converges(self):
        # static point target; apparent position = world - viewport shift
        world = np.array([220.0, 150.0])
        center = (159.5, 119.5)
        g = gimbal_state()
        err = None
        for _ in range(400):
            off = viewport_offset_px(g, CAM)
            apparent = (world[0] - off[0], world[1] - off[1])
            err = (apparent[0] - center[0], apparent[1] - center[1])
            g, _ = centering_step(det(int(round(apparent[0])), int(round(apparent[1]))),
                                  center, CAM, g, 0.04)
        count_px = g.count_resolution / CAM.rad_per_px_x
        assert math.hypot(*err) <= 1.0 + count_px

    def test_limits_never_exceeded_under_fuzzing(self, rng):
        g = gimbal_state(max_rate=5.0)
        for _ in range(2000):
            counts = tuple(int(c) for c in rng.integers(-20000, 20000, 2))
            g = step_gimbal(g, counts, dt=float(rng.uniform(0.01, 0.5)))
            assert abs(g.pan) <= g.pan_limit + 1e-12
            assert abs(g.tilt) <= g.tilt_limit + 1e-12


class TestGimbalBuilder:
    def test_built_from_config(self):
        cfg = TrackerConfig(gimbal_max_rate=0.05)
        g = Gimbal(cfg, 320, 240, 25.0)
        assert g.cam == CameraModel(hfov=cfg.hfov, vfov=cfg.vfov, width=320, height=240)
        assert g.state == GimbalState(pan_limit=cfg.pan_limit, tilt_limit=cfg.tilt_limit,
                                      max_rate=0.05, count_resolution=cfg.count_resolution)
        assert g.center == (159.5, 119.5) and g.dt == 0.04
        assert g.viewport() == (0, 0) and g.counts == (0, 0)

    def test_step_is_centering_step(self):
        g = Gimbal(TrackerConfig(), 320, 240, 25.0)
        want, counts = centering_step(det(200, 100), g.center, g.cam, g.state, g.dt)
        g.step(det(200, 100))
        assert (g.state, g.counts) == (want, counts)
        assert g.viewport() == viewport_offset_px(want, g.cam)
        g.step(None)
        assert (g.state.pan, g.state.tilt) == (want.pan, want.tilt) and g.counts == (0, 0)
