"""Acceptance gate: one test per shipped performance criterion.

Each test prints a single CRITERION line so a full run reads as a
checklist. Module-scoped fixtures run the standardized scenarios once.
"""

import csv
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import applied_noise, four_state, standard_scenario, window
from uavtrack import simulator
from uavtrack.cli import main, run_benchmark, DEFAULT_BENCH_SIZES
from uavtrack.config import TrackerConfig
from uavtrack.errors import UndefinedScore
from uavtrack.estimator import correct, init, predict
from uavtrack.gimbal import Gimbal, GimbalState, step_gimbal
from uavtrack.imaging import Frame, Patch
from uavtrack.matcher import Detection, zmncc_fast, zmncc_oracle


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"\nCRITERION {number} FAIL: {label}")
        raise
    print(f"\nCRITERION {number} PASS: {label}")


@pytest.fixture(scope="module")
def benign_report():
    return simulator.run_closed_loop(standard_scenario("benign"))


@pytest.fixture(scope="module")
def dropout_report():
    return simulator.run_closed_loop(standard_scenario("dropout"))


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20110814)
    start = time.perf_counter()
    cases = 0
    worst = 0.0
    while cases < 1000:
        fh = int(rng.integers(12, 65))
        fw = int(rng.integers(12, 65))
        th = int(rng.integers(4, min(17, fh + 1)))
        tw = int(rng.integers(4, min(17, fw + 1)))
        if rng.uniform() < 0.5:
            pixels = rng.integers(0, 256, (fh, fw)).astype(np.float64)
        else:
            pixels = rng.uniform(0.0, 255.0, (fh, fw))
        if rng.uniform() < 0.1:  # plant a flat block to exercise NaN marking
            pixels[2:2 + th + 2, 2:2 + tw + 2] = 128.0
        frame = Frame(pixels)
        template = Patch(rng.uniform(0.0, 255.0, (th, tw)))
        win = window(0, 0, fw, fh)
        fast = zmncc_fast(frame, template, win).scores
        for v in range(fast.shape[0]):
            for u in range(fast.shape[1]):
                try:
                    want = zmncc_oracle(frame.pixels, template, (u, v))
                except UndefinedScore:
                    assert np.isnan(fast[v, u])
                    continue
                worst = max(worst, abs(fast[v, u] - want))
        cases += 1
    elapsed = time.perf_counter() - start
    with criterion(1, f"zmncc_fast == oracle within 1e-9 over {cases} cases "
                      f"(worst {worst:.2e}, {elapsed:.0f}s)"):
        assert worst < 1e-9
        assert elapsed < 60.0


def test_criterion_2_threshold_behavior(benign_report):
    rate = benign_report.detection_rate()
    fp = benign_report.false_positive_count()
    with criterion(2, f"benign scenario: detection rate {rate:.3f} >= 0.95, "
                      f"false positives {fp} == 0 at threshold 0.9"):
        assert rate >= 0.95
        assert fp == 0


def test_criterion_3_rotation_invariance(benign_report):
    detected = [r for r in benign_report.records if r.detected]
    errs = []
    for r in detected:
        d = (r.template_index * 10.0 - r.truth_heading) % 360.0
        errs.append(min(d, 360.0 - d))
    agree = float(np.mean([e <= 10.0 + 1e-9 for e in errs]))
    max_evals = max(r.templates_evaluated for r in benign_report.records)
    with criterion(3, f"matched index within +/-10 deg on {agree:.3f} of frames, "
                      f"max templates/frame {max_evals} <= 7"):
        assert agree >= 0.90
        assert max_evals <= 7


def test_criterion_4_ekf_analytics():
    rng = np.random.default_rng(9)
    # Q as predict applies it: the covariance predicted from none, per axis.
    exact_ok = all(q[0] == 8.0 / 15.0 for q in applied_noise(1.0, 0.4))
    for _ in range(100):
        dt = float(rng.uniform(1e-3, 1.0))
        s = float(rng.uniform(1e-3, 1.0))
        a = dt * s + (1.0 / 3.0) * dt ** 3 * s
        b = 0.5 * dt ** 2 * s
        exact_ok = exact_ok and applied_noise(dt, s) == [(a, b, dt * s)] * 2

    cfg = TrackerConfig()
    st = init(Detection((100, 100), 0.95, 0), 0.0, cfg.sigma, cfg.p0_pos, cfg.p0_vel)
    t = 0.0
    sym_ok = psd_ok = True
    for _ in range(10_000):
        t += float(rng.uniform(0.005, 1.0))
        st = predict(st, t)
        if rng.uniform() < 0.7:
            st = correct(st, (st.position[0] + rng.normal(), st.position[1] + rng.normal()))
        P = four_state(st)[1]
        sym_ok = sym_ok and np.max(np.abs(P - P.T)) < 1e-9
        psd_ok = psd_ok and np.linalg.eigvalsh(P).min() >= -1e-9
    with criterion(4, "Q matches direct evaluation exactly (100 cases, "
                      "a=8/15 at dt=1); P symmetric PSD over 10,000 cycles"):
        assert exact_ok
        assert sym_ok and psd_ok


def test_criterion_5_window_dynamics(benign_report, dropout_report):
    hidden = [r for r in dropout_report.records if not r.truth_visible]
    mono = all(b.half_width >= a.half_width - 1e-12 and
               b.half_height >= a.half_height - 1e-12
               for a, b in zip(hidden, hidden[1:]))
    reappear = max(r.frame_index for r in hidden) + 1
    reacquired = next(r.frame_index for r in dropout_report.records
                      if r.frame_index >= reappear and r.detected)
    delay = reacquired - reappear
    contained = [r.window[0] <= r.truth_x < r.window[2] and
                 r.window[1] <= r.truth_y < r.window[3]
                 for r in benign_report.records if r.truth_visible]
    containment = float(np.mean(contained))
    with criterion(5, f"window monotone over {len(hidden)}-frame dropout, "
                      f"reacquired {delay} frames after reappearance, "
                      f"containment {containment:.4f} >= 0.99"):
        assert len(hidden) == 30
        assert mono
        assert delay <= 10
        assert containment >= 0.99


def test_criterion_6_throughput_ordering():
    rows = run_benchmark(TrackerConfig(), DEFAULT_BENCH_SIZES, n_frames=600)
    fps = [r.fps for r in rows]
    areas = [r.area for r in rows]
    label = ", ".join(f"{r.patch_width}x{r.patch_height}={r.fps:.1f}fps"
                      for r in rows)
    with criterion(6, f"throughput strictly decreases with patch area and "
                      f"stays >= 25 fps on 640x480 ({label})"):
        assert areas == sorted(areas)
        assert all(a > b for a, b in zip(fps, fps[1:]))
        assert min(fps) >= 25.0
        assert all(r.frames >= 500 for r in rows)


def test_criterion_7_gimbal_centering():
    scn = standard_scenario("centering")
    rep = simulator.run_closed_loop(scn)
    cfg = TrackerConfig()
    gimbal = Gimbal(cfg, scn.width, scn.height, scn.fps)
    count_px = gimbal.state.count_resolution / gimbal.cam.rad_per_px_x
    center = gimbal.center
    tail = [r for r in rep.records[-50:] if r.detected]
    steady = max(math.hypot(r.x - center[0], r.y - center[1]) for r in tail)

    rng = np.random.default_rng(77)
    g = GimbalState(pan_limit=cfg.pan_limit, tilt_limit=cfg.tilt_limit, max_rate=5.0,
                    count_resolution=cfg.count_resolution)
    limits_ok = True
    for _ in range(5000):
        counts = (int(rng.integers(-30000, 30000)), int(rng.integers(-30000, 30000)))
        g = step_gimbal(g, counts, dt=float(rng.uniform(0.01, 0.3)))
        limits_ok = limits_ok and abs(g.pan) <= g.pan_limit and abs(g.tilt) <= g.tilt_limit
    with criterion(7, f"closed-loop steady-state error {steady:.2f}px <= "
                      f"{1.0 + count_px:.2f}px; limits never exceeded under fuzzing"):
        assert len(tail) == 50
        assert steady <= 1.0 + count_px
        assert limits_ok


def test_criterion_8_determinism(tmp_path):
    scn = standard_scenario("benign")
    scn.duration = 4.0
    scn_path = tmp_path / "scn.txt"
    scn_path.write_text(simulator.scenario_text(scn))

    def report_lines(out_dir):
        assert main(["simulate", str(scn_path), "--out", str(out_dir),
                     "--export", str(out_dir / "seq")]) == 0
        with open(out_dir / "report.csv") as f:
            rows = list(csv.reader(f))
        drop = rows[0].index("wall_ms")
        return [tuple(c for i, c in enumerate(row) if i != drop) for row in rows]

    sim_same = report_lines(tmp_path / "a") == report_lines(tmp_path / "b")

    roi = simulator.SceneRenderer(scn).target_rect_frame0()
    def track_bytes(out_dir):
        assert main(["track", str(tmp_path / "a" / "seq"),
                     "--roi", ",".join(map(str, roi)), "--out", str(out_dir)]) == 0
        return (out_dir / "track_log.csv").read_bytes()

    track_same = track_bytes(tmp_path / "t1") == track_bytes(tmp_path / "t2")
    with criterion(8, "repeat simulate and track runs are byte-identical "
                      "(timing column excluded)"):
        assert sim_same
        assert track_same
