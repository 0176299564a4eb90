import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import applied_noise, four_state
from uavtrack.config import TrackerConfig
from uavtrack.errors import InvalidTimestep
from uavtrack.estimator import (
    AxisState, TrackState, correct, init, predict, search_window,
)
from uavtrack.matcher import Detection


CFG = TrackerConfig()


def det(x, y):
    return Detection(position=(x, y), score=0.95, template_index=0)


def start(detection, t0):
    """A track started at ``detection`` with the default configuration's
    noise and initial variances."""
    return init(detection, t0, CFG.sigma, CFG.p0_pos, CFG.p0_vel)


def diag_state(x, p_diag, last_time=0.0, sigma=CFG.sigma):
    """A state with mean ``x`` = [px, py, vx, vy] and a diagonal covariance."""
    px, py, vx, vy = (float(c) for c in x)
    ppx, ppy, vvx, vvy = (float(c) for c in p_diag)
    return TrackState(x_axis=AxisState(px, vx, ppx, 0.0, vvx),
                      y_axis=AxisState(py, vy, ppy, 0.0, vvy), sigma=sigma,
                      last_time=last_time)


def transition(dt):
    """The 4-state constant-velocity Jacobian A for a step of ``dt``."""
    A = np.eye(4)
    A[0, 2] = A[1, 3] = dt
    return A


def reference_q(dt, s):
    """Direct elementwise evaluation of the printed noise structure."""
    a = dt * s + (1.0 / 3.0) * dt ** 3 * s
    b = 0.5 * dt ** 2 * s
    q = np.zeros((4, 4))
    q[0, 0] = q[1, 1] = a
    q[2, 2] = q[3, 3] = dt * s
    q[0, 2] = q[2, 0] = q[1, 3] = q[3, 1] = b
    return q


class TestBuildNoise:
    """The process noise Q and transition A that ``predict`` applies."""

    def test_unit_step_constants(self):
        a = 0.4 + (1.0 / 3.0) * 0.4
        assert applied_noise(1.0, 0.4) == [(a, 0.2, 0.4)] * 2
        assert a == 8.0 / 15.0

    def test_transition_structure(self):
        st = TrackState(x_axis=AxisState(1.0, 3.0, 2.0, 0.5, 1.5),
                        y_axis=AxisState(2.0, -4.0, 1.0, -0.25, 0.75), sigma=0.0)
        x, P = four_state(st)
        A = transition(0.5)
        got_x, got_P = four_state(predict(st, 0.5))
        assert np.array_equal(got_x, A @ x)
        assert np.array_equal(got_P, A @ P @ A.T)  # dyadic values: exact

    def test_zero_sigma_gives_zero_noise(self):
        assert applied_noise(0.5, 0.0) == [(0.0, 0.0, 0.0)] * 2

    def test_matches_reference_exactly(self, rng):
        zero = diag_state([0.0] * 4, [0.0] * 4)
        for _ in range(100):
            dt = float(rng.uniform(1e-3, 1.0))
            s = float(rng.uniform(1e-3, 1.0))
            _, P = four_state(predict(dataclasses.replace(zero, sigma=s), dt))
            assert np.array_equal(P, reference_q(dt, s))

    def test_rejects_bad_dt(self):
        with pytest.raises(InvalidTimestep):
            predict(diag_state([0.0] * 4, [0.0] * 4), 0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(InvalidTimestep):
            predict(diag_state([0.0] * 4, [0.0] * 4), 0.0 + dt)


class TestInit:
    def test_state_from_detection(self):
        st = start(det(100, 50), 2.0)
        assert np.array_equal(four_state(st)[0], [100.0, 50.0, 0.0, 0.0])
        assert st.last_time == 2.0

    def test_deterministic(self):
        a, b = start(det(7, 9), 1.0), start(det(7, 9), 1.0)
        assert a == b


class TestPredictCorrect:
    def test_zero_velocity_holds_position(self):
        st = start(det(10, 10), 0.0)
        assert predict(st, 3.7).position == (10.0, 10.0)

    def test_linear_propagation(self):
        st = diag_state([10.0, 10.0, 2.0, -1.0], [1.0] * 4)
        assert predict(st, 0.5).position == (11.0, 9.5)

    def test_covariance_grows_on_predict(self):
        st = start(det(0, 0), 0.0)
        assert np.trace(four_state(predict(st, 1.0))[1]) > np.trace(four_state(st)[1])

    def test_non_monotone_time_rejected(self):
        st = start(det(0, 0), 5.0)
        with pytest.raises(InvalidTimestep):
            predict(st, 5.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(InvalidTimestep):
            predict(start(det(0, 0), 5.0), t)

    def test_zero_innovation_keeps_position_shrinks_p(self):
        pred = predict(start(det(40, 60), 0.0), 1.0)
        upd = correct(pred, pred.position)
        assert upd.position == pred.position
        assert upd.x_axis.pp < pred.x_axis.pp and upd.y_axis.pp < pred.y_axis.pp

    def test_vanishing_variance_ignores_measurement(self):
        pred = diag_state([5.0, 5.0, 0.0, 0.0], [1e-12] * 4, last_time=1.0)
        upd = correct(pred, (50.0, 50.0))
        assert abs(upd.x_axis.pos - 5.0) < 1e-6

    def test_scalar_gain_closed_form(self):
        # decoupled x-axis: K = p / (p + 1), posterior p' = p / (p + 1)
        for p in (0.3, 1.0, 4.0, 25.0):
            pred = diag_state([0.0] * 4, [p, p, 0.0, 0.0])
            upd = correct(pred, (1.0, 0.0))
            assert upd.x_axis.pos == pytest.approx(p / (p + 1.0), abs=1e-12)
            assert upd.x_axis.pp == pytest.approx(p / (p + 1.0), abs=1e-12)

    def test_position_variance_never_grows_on_correct(self, rng):
        st = start(det(0, 0), 0.0)
        t = 0.0
        for _ in range(200):
            t += float(rng.uniform(0.01, 0.5))
            pred = predict(st, t)
            st = correct(pred, (pred.position[0] + rng.normal(),
                                pred.position[1] + rng.normal()))
            assert st.x_axis.pp <= pred.x_axis.pp + 1e-12
            assert st.y_axis.pp <= pred.y_axis.pp + 1e-12


class TestMissAndWindow:
    def test_window_arithmetic(self):
        st = diag_state([100.0, 80.0, 0.0, 0.0], [4.0, 9.0, 0.0, 0.0])
        win = search_window(st, (20, 20), (600, 400))
        assert win.half_width == pytest.approx(3.0 * 2.0 + 10.0)
        assert win.half_height == pytest.approx(3.0 * 3.0 + 10.0)
        assert not win.clamped

    def test_window_growth_is_monotone_under_misses(self):
        st = start(det(160, 120), 0.0)
        st = correct(predict(st, 0.04), (160.0, 120.0))
        halves = []
        t = 0.04
        for _ in range(30):
            t += 0.04
            st = predict(st, t)
            win = search_window(st, (43, 43), (320, 240))
            halves.append((win.half_width, win.half_height))
        assert all(b[0] >= a[0] and b[1] >= a[1] for a, b in zip(halves, halves[1:]))

    def test_correction_shrinks_window_after_miss(self):
        st = start(det(160, 120), 0.0)
        st = predict(st, 1.0)
        before = search_window(st, (43, 43), (320, 240))
        st2 = correct(st, st.position)
        after = search_window(st2, (43, 43), (320, 240))
        assert after.half_width < before.half_width

    def test_clamped_at_corner(self):
        st = diag_state([3.0, 2.0, 0.0, 0.0], [100.0] * 4)
        win = search_window(st, (20, 20), (320, 240))
        assert win.clamped
        assert win.x0 >= 0 and win.y0 >= 0 and win.x1 <= 320 and win.y1 <= 240
        assert win.width >= 20 and win.height >= 20

    def test_window_never_smaller_than_canvas(self):
        st = diag_state([2.0, 2.0, 0.0, 0.0], [0.0] * 4)
        win = search_window(st, (43, 43), (320, 240))
        assert win.width >= 43 and win.height >= 43


class TestLongRunProperties:
    def test_p_stays_symmetric_psd(self, rng):
        st = start(det(100, 100), 0.0)
        t = 0.0
        for _ in range(2000):
            t += float(rng.uniform(0.005, 1.0))
            st = predict(st, t)
            if rng.uniform() < 0.7:
                z = (st.position[0] + rng.normal(), st.position[1] + rng.normal())
                st = correct(st, z)
            P = four_state(st)[1]
            assert np.max(np.abs(P - P.T)) < 1e-9
            assert np.linalg.eigvalsh(P).min() >= -1e-9

    def test_filter_beats_raw_measurements(self, rng):
        truth = np.array([50.0, 50.0])
        st = start(det(50, 50), 0.0)
        t = 0.0
        raw_se, filt_se = [], []
        for k in range(3000):
            t += 1.0
            z = truth + rng.normal(size=2)
            st = correct(predict(st, t), tuple(z))
            if k > 100:
                raw_se.append(np.sum((z - truth) ** 2))
                filt_se.append(np.sum((np.array(st.position) - truth) ** 2))
        assert np.mean(filt_se) < np.mean(raw_se)

    def test_identical_sequences_give_identical_trajectories(self, rng):
        zs = [(100 + rng.normal(), 100 + rng.normal()) for _ in range(50)]

        def run():
            st = start(det(100, 100), 0.0)
            out = []
            for k, z in enumerate(zs, start=1):
                st = correct(predict(st, float(k)), z)
                out.append(st)
            return out

        assert run() == run()


_H = np.array([[1.0, 0.0, 0.0, 0.0],
               [0.0, 1.0, 0.0, 0.0]])


def oracle_predict(x, P, dt, sigma):
    """The 4-state propagation: A x and A P A^T + Q."""
    A = transition(dt)
    return A @ x, A @ P @ A.T + reference_q(dt, sigma)


def oracle_correct(x, P, z):
    """The 4-state update: K = P H^T S^-1 and symmetrized (I - K H) P."""
    S = _H @ P @ _H.T + np.eye(2)
    K = np.linalg.solve(S.T, (P @ _H.T).T).T
    x = x + K @ (np.asarray(z, dtype=np.float64) - _H @ x)
    P = (np.eye(4) - K @ _H) @ P
    return x, 0.5 * (P + P.T)


def assert_close(got, want):
    """Agreement to 1e-9 relative to the largest entry of ``want``."""
    np.testing.assert_allclose(got, want, rtol=1e-9,
                               atol=1e-9 * float(np.abs(want).max()))


positive = st.floats(1e-3, 100.0)


@st.composite
def filter_runs(draw):
    """Initial position and velocity variances, a noise level and a sequence
    of (dt, measurement or None for a miss) steps."""
    p0 = (draw(positive), draw(positive))
    sigma = draw(st.floats(1e-3, 2.0))
    steps = draw(st.lists(st.tuples(
        st.floats(0.01, 0.2),
        st.none() | st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))),
        min_size=1, max_size=80))
    return p0, sigma, steps


class TestTwoAxisFilterProperties:
    @settings(max_examples=200, deadline=None)
    @given(filter_runs())
    def test_matches_four_state_oracle(self, run):
        p0, sigma, steps = run
        state = init(det(120, 80), 0.0, sigma=sigma, p0_pos=p0[0], p0_vel=p0[1])
        x, P = np.array([120.0, 80.0, 0.0, 0.0]), np.diag([p0[0], p0[0], p0[1], p0[1]])
        assert all(np.array_equal(a, b) for a, b in zip(four_state(state), (x, P)))
        t = 0.0
        for dt, noise in steps:
            prev, t = t, t + dt
            state = predict(state, t)
            x, P = oracle_predict(x, P, t - prev, sigma)
            if noise is not None:
                z = (x[0] + noise[0], x[1] + noise[1])
                state = correct(state, z)
                x, P = oracle_correct(x, P, z)
            got_x, got_P = four_state(state)
            assert_close(got_x, x)
            assert_close(got_P, P)
            assert np.array_equal(got_P, got_P.T)
            assert np.linalg.eigvalsh(got_P).min() >= -1e-9 * float(np.abs(P).max())
