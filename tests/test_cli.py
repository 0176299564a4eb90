import csv
import gc
import os

import numpy as np
import pytest

from conftest import render_open_loop, standard_scenario
from uavtrack import cli, pgm, simulator
from uavtrack.cli import REPORT_COLUMNS, TRACK_COLUMNS, main
from uavtrack.errors import DimensionMismatch
from uavtrack.imaging import Frame
from uavtrack.tracker import Tracker
from uavtrack.config import TrackerConfig


def quantized_scenario(duration=4.0, **overrides):
    s = standard_scenario("benign")
    s.quantize = True
    s.duration = duration
    for key, value in overrides.items():
        setattr(s, key, value)
    return s


def write_scenario(path, scenario):
    path.write_text(simulator.scenario_text(scenario))
    return str(path)


def read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def strip_timing(path):
    """The CSV's lines without the wall_ms column."""
    lines = open(path).read().splitlines()
    cols = lines[0].split(",")
    keep = [i for i, c in enumerate(cols) if c != "wall_ms"]
    return ["\x00".join(line.split(",")[i] for i in keep) for line in lines]


@pytest.fixture
def exported(tmp_path):
    """Simulate a short quantized run with --export; return key paths."""
    scn = write_scenario(tmp_path / "scn.txt", quantized_scenario())
    out = tmp_path / "sim"
    seq = tmp_path / "seq"
    rc = main(["simulate", scn, "--out", str(out), "--export", str(seq)])
    assert rc == 0
    return scn, out, seq


class TestTrackCommand:
    def test_roi_outside_frame_exits_2(self, exported, tmp_path, capsys):
        _, _, seq = exported
        out = tmp_path / "t"
        rc = main(["track", str(seq), "--roi", "500,10,30,30", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err
        rc = main(["track", str(seq), "--roi", "500,10,30,30", "--out", str(out),
                   "--dump-frames"])
        assert rc == 2 and not out.exists()

    def test_empty_sequence_dir_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["track", str(empty), "--roi", "0,0,10,10"])
        assert rc == 2

    def test_matches_closed_loop_row_for_row(self, exported, tmp_path):
        scn, out, seq = exported
        s = simulator.parse_scenario(open(scn).read())
        roi = simulator.SceneRenderer(s).target_rect_frame0()
        trk = tmp_path / "trk"
        rc = main(["track", str(seq), "--roi", ",".join(map(str, roi)),
                   "--out", str(trk)])
        assert rc == 0
        sim_rows = read_rows(out / "report.csv")
        trk_rows = read_rows(trk / "track_log.csv")
        assert len(sim_rows) == len(trk_rows)
        for sr, tr in zip(sim_rows, trk_rows):
            for col in TRACK_COLUMNS:
                assert sr[col] == tr[col]

    def test_dump_frames_are_loadable(self, exported, tmp_path):
        scn, _, seq = exported
        s = simulator.parse_scenario(open(scn).read())
        roi = simulator.SceneRenderer(s).target_rect_frame0()
        trk = tmp_path / "trk"
        rc = main(["track", str(seq), "--roi", ",".join(map(str, roi)),
                   "--out", str(trk), "--dump-frames"])
        assert rc == 0
        dumps = sorted(os.listdir(trk / "frames"))
        assert len(dumps) == len(os.listdir(seq)) - 1  # minus timestamps.txt
        raster = pgm.read_pgm(str(trk / "frames" / dumps[0]))
        assert raster.max() == 255.0  # burned-in annotations

    def test_non_finite_timestamp_exits_2(self, exported, tmp_path, capsys):
        _, _, seq = exported
        sidecar = seq / pgm.TIMESTAMP_SIDECAR
        lines = sidecar.read_text().splitlines()
        lines[3] = "nan"
        sidecar.write_text("\n".join(lines) + "\n")
        rc = main(["track", str(seq), "--roi", "10,10,30,30",
                   "--out", str(tmp_path / "t")])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_non_numeric_timestamp_exits_2_with_line(self, exported, tmp_path, capsys):
        _, _, seq = exported
        sidecar = seq / pgm.TIMESTAMP_SIDECAR
        lines = sidecar.read_text().splitlines()
        lines[3] = "soon"
        sidecar.write_text("\n".join(lines) + "\n")
        rc = main(["track", str(seq), "--roi", "10,10,30,30",
                   "--out", str(tmp_path / "t")])
        assert rc == 2
        assert f"{pgm.TIMESTAMP_SIDECAR}:4: cannot parse 'soon'" in capsys.readouterr().err

    def test_sidecar_not_utf8_exits_2_with_path_and_line(self, exported, tmp_path, capsys):
        _, _, seq = exported
        sidecar = seq / pgm.TIMESTAMP_SIDECAR
        lines = sidecar.read_bytes().splitlines()
        lines[3] = b"0.1\xff"
        sidecar.write_bytes(b"\n".join(lines) + b"\n")
        rc = main(["track", str(seq), "--roi", "10,10,30,30",
                   "--out", str(tmp_path / "t")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: {sidecar}:4: timestamp sidecar is not UTF-8 text (byte 0xff)\n"

    def test_truncated_frame_exits_2_without_log(self, exported, tmp_path, capsys):
        scn, _, seq = exported
        s = simulator.parse_scenario(open(scn).read())
        roi = simulator.SceneRenderer(s).target_rect_frame0()
        path = seq / pgm.frame_filename(5)
        path.write_bytes(path.read_bytes()[:-100])
        out = tmp_path / "t"
        rc = main(["track", str(seq), "--roi", ",".join(map(str, roi)),
                   "--out", str(out)])
        assert rc == 2
        assert "frame_000005.pgm" in capsys.readouterr().err
        assert not (out / "track_log.csv").exists()

    @pytest.mark.parametrize("header", [
        b"P5\n4.5 4\n255\n", b"P5\n-8 4\n255\n", b"P5\n0 0\n255\n"])
    def test_bad_pgm_header_exits_2_with_path(self, tmp_path, capsys, header):
        seq = tmp_path / "seq"
        seq.mkdir()
        path = seq / pgm.frame_filename(0)
        path.write_bytes(header + bytes(16))
        rc = main(["track", str(seq), "--roi", "0,0,4,4", "--out", str(tmp_path / "t")])
        assert rc == 2
        assert f"{path}: PGM" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        b"P5\n4 2\n255#c\n" + bytes(8), b"P5\n4 2\n15\n" + bytes([200] * 8)])
    def test_malformed_pgm_body_exits_2_with_path(self, tmp_path, capsys, data):
        seq = tmp_path / "seq"
        seq.mkdir()
        path = seq / pgm.frame_filename(0)
        path.write_bytes(data)
        rc = main(["track", str(seq), "--roi", "0,0,4,2", "--out", str(tmp_path / "t")])
        assert rc == 2
        assert f"{path}: PGM" in capsys.readouterr().err

    def test_long_miss_run_exits_1(self, tmp_path):
        s = quantized_scenario(duration=3.0,
                               dropouts=[(0.6, 3.0)])  # 60 trailing miss frames
        frames, _ = render_open_loop(s)
        seq = tmp_path / "seq"
        pgm.write_sequence(str(seq), frames)
        roi = simulator.SceneRenderer(s).target_rect_frame0()
        rc = main(["track", str(seq), "--roi", ",".join(map(str, roi)),
                   "--out", str(tmp_path / "t")])
        assert rc == 1


class TestSimulateCommand:
    def test_repeat_runs_byte_identical_minus_timing(self, tmp_path):
        scn = write_scenario(tmp_path / "scn.txt", quantized_scenario(duration=2.0))
        outs = []
        for name in ("a", "b"):
            rc = main(["simulate", scn, "--out", str(tmp_path / name)])
            assert rc == 0
            outs.append(tmp_path / name)

        assert strip_timing(outs[0] / "report.csv") == strip_timing(outs[1] / "report.csv")
        assert (outs[0] / "motor_log.csv").read_bytes() == (outs[1] / "motor_log.csv").read_bytes()

    def test_record_fields_are_the_report_columns(self):
        s = quantized_scenario(duration=0.5)
        r = simulator.run_closed_loop(s).records[3]
        assert list(vars(r)) == REPORT_COLUMNS
        assert REPORT_COLUMNS[:len(TRACK_COLUMNS)] == TRACK_COLUMNS
        assert TRACK_COLUMNS[-1] == "half_height" and REPORT_COLUMNS[-1] == "wall_ms"
        assert r.window == (r.window_x0, r.window_y0, r.window_x1, r.window_y1)

    def test_malformed_scenario_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("width=320\nheight=240\nwhat is this\n")
        rc = main(["simulate", str(bad)])
        assert rc == 2
        assert ":3:" in capsys.readouterr().err

    def test_non_finite_scenario_value_exits_2_with_line(self, tmp_path, capsys):
        text = simulator.scenario_text(quantized_scenario()) + "heading=0:inf\n"
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2
        line = len(text.splitlines())
        assert f"bad.txt:{line}: 'inf' is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["sigma=nan", "count_resolution=inf", "zmncc_threshold=nan"])
    def test_non_finite_config_exits_2_naming_key(self, tmp_path, capsys, entry):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(entry + "\n")
        scn = write_scenario(tmp_path / "scn.txt", quantized_scenario(duration=0.5))
        rc = main(["simulate", scn, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        key, value = entry.split("=")
        assert f"bad.cfg:1: '{value}' is not a finite number for '{key}'" in capsys.readouterr().err

    def test_repeated_scenario_key_exits_2_with_lines(self, tmp_path, capsys):
        text = simulator.scenario_text(quantized_scenario(duration=0.5))
        first = next(n for n, line in enumerate(text.splitlines(), 1) if line.startswith("seed="))
        bad = tmp_path / "bad.txt"
        bad.write_text(text + "seed=7\n")
        out = tmp_path / "o"
        assert main(["simulate", str(bad), "--out", str(out)]) == 2
        line = len(text.splitlines()) + 1
        assert capsys.readouterr().err == \
            f"error: {bad}:{line}: repeated key 'seed' (first on line {first})\n"
        assert not out.exists()

    def test_repeated_config_key_exits_2_with_lines(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma=0.4\nfps=25\nsigma=0.5\n")
        scn = write_scenario(tmp_path / "scn.txt", quantized_scenario(duration=0.5))
        out = tmp_path / "o"
        assert main(["simulate", scn, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}:3: repeated key 'sigma' (first on line 1)\n"
        assert not out.exists()

    def test_scenario_not_utf8_exits_2_with_path_and_line(self, tmp_path, capsys):
        # Line endings count as a file opened in text mode reads them.
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"width=320\r\nheight=240\r# caf\xe9\n")
        assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            f"error: {bad}:3: scenario is not UTF-8 text (byte 0xe9)\n"

    def test_config_not_utf8_exits_2_with_path_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfesigma=0.4\n")
        scn = write_scenario(tmp_path / "scn.txt", quantized_scenario(duration=0.5))
        rc = main(["simulate", scn, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}:1: config is not UTF-8 text (byte 0xff)\n"

    def test_target_hidden_at_frame_0_exits_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path / "scn.txt",
                             quantized_scenario(duration=1.0, dropouts=[(0.0, 0.5)]))
        out = tmp_path / "o"
        assert main(["simulate", scn, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: target must be visible at frame 0 to select a template\n"
        assert not out.exists()

    def test_viewport_beyond_world_margin_exits_2(self, tmp_path, capsys):
        # At 640x480 the gimbal can pan 240 px; the world reaches only 128 px
        # beyond the frame, and this path pans past it at frame 493.
        s = quantized_scenario(duration=40.0, width=640, height=480, seed=5,
                               position=[(0.0, 320.0, 240.0), (40.0, 580.0, 240.0)])
        out = tmp_path / "o"
        assert main(["simulate", write_scenario(tmp_path / "scn.txt", s),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: frame 493: viewport offset (129, 1) exceeds the world's 128 px margin\n"
        assert not out.exists()

    @pytest.mark.parametrize("entry", [
        "sprite_contrast=62.0", "background_base=105.0", "background_contrast=9.0",
        "background_cell=5", "world_margin=128",
    ])
    def test_fixed_world_key_exits_2_with_line(self, tmp_path, capsys, entry):
        # Every scenario renders the same world, so its values are not keys.
        text = simulator.scenario_text(quantized_scenario(duration=0.5)) + entry + "\n"
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2
        line, key = len(text.splitlines()), entry.split("=")[0]
        assert f"bad.txt:{line}: unknown key '{key}'" in capsys.readouterr().err

    def test_config_environment_variable_is_not_read(self, tmp_path, monkeypatch):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sigma=nan\n")
        scn = write_scenario(tmp_path / "scn.txt", quantized_scenario(duration=1.0))
        assert main(["simulate", scn, "--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("UAVTRACK_CONFIG", str(bad))
        assert main(["simulate", scn, "--out", str(tmp_path / "env")]) == 0
        assert strip_timing(tmp_path / "env" / "report.csv") == \
            strip_timing(tmp_path / "plain" / "report.csv")

    def test_missing_scenario_exits_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.txt")]) == 2

    def test_export_round_trips_through_loader(self, exported):
        _, _, seq = exported
        frames = list(pgm.load_sequence(str(seq), fps=TrackerConfig().fps))
        assert len(frames) == 100
        assert frames[0].pixels.max() <= 255.0


class TestBenchmarkCommand:
    def test_single_size_row(self, tmp_path, capsys):
        rc = main(["benchmark", "--sizes", "20x22", "--frames", "500",
                   "--csv", str(tmp_path / "b.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "20x22(440)" in out
        rows = read_rows(tmp_path / "b.csv")
        assert len(rows) == 1
        assert int(rows[0]["frames"]) >= 500
        assert float(rows[0]["fps"]) > 0

    def test_clip_frames_built_once_per_track(self, monkeypatch):
        clip = cli._Clip.render(20, 22, n_frames=6)
        calls = []
        frames = cli._Clip.frames
        monkeypatch.setattr(cli._Clip, "frames", lambda self: calls.append(1) or frames(self))
        records = list(clip.track(TrackerConfig()))
        assert calls == [1]
        assert [r.frame_index for r in records] == list(range(6))

    def test_clip_frames_equal_the_rendered_frames(self):
        # Frames share one raster, rebuilt in place: each must hold exactly
        # its rendered pixels while it is current, with no trace of the
        # previous frame's target.
        clip = cli._Clip.render(20, 22, n_frames=40)
        renderer = simulator.SceneRenderer(clip.scenario)
        for k, (frame, _) in enumerate(clip.frames()):
            rendered, _ = renderer.render(k)
            np.testing.assert_array_equal(frame.pixels, rendered.pixels.astype(np.uint8))
            assert frame.frame_index == k and frame.timestamp == rendered.timestamp

    def test_passes_rotate_the_turn_with_the_collector_paused(self, monkeypatch):
        # Frame k of pass p starts its turn at size (p + k) mod n and odd
        # passes go through the sizes in reverse, no collection can fall in
        # a timed frame, and the collector is left as the caller had it.
        calls = []
        process = Tracker.process
        monkeypatch.setattr(Tracker, "process",
                            lambda self, frame: calls.append((self.canvas, gc.isenabled()))
                            or process(self, frame))
        sizes = [(20, 22), (27, 28), (30, 33)]
        canvases = [(30, 30), (39, 39), (45, 45)]
        rows = cli.run_benchmark(TrackerConfig(), sizes, n_frames=3)
        assert [r.frames for r in rows] == [3, 3, 3]
        assert calls == [(canvases[(p + k + (-j if p % 2 else j)) % 3], False)
                         for p in range(cli.BENCH_PASSES) for k in range(3) for j in range(3)]
        assert gc.isenabled()
        gc.disable()
        try:
            cli.run_benchmark(TrackerConfig(), sizes[:1], n_frames=3)
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("size", cli.DEFAULT_BENCH_SIZES)
    def test_short_clip_tracks_every_frame(self, size):
        # A short clip follows the start of the full-length path, so it
        # measures tracking, not the miss path.
        records = list(cli._Clip.render(*size, n_frames=40).track(TrackerConfig()))
        assert len(records) == 40 and all(r.detected for r in records)
        assert sum(r.templates_evaluated for r in records) / 40 <= 1.2

    def test_bad_sizes_exit_2(self, capsys):
        assert main(["benchmark", "--sizes", "2x2"]) == 2
        assert main(["benchmark", "--sizes", "notasize"]) == 2
        capsys.readouterr()
        for empty in ("", " "):
            assert main(["benchmark", "--sizes", empty]) == 2
            assert capsys.readouterr().err == "error: --sizes is empty\n"
        assert main(["benchmark", "--sizes", "20x22,"]) == 2
        assert capsys.readouterr().err == "error: --sizes entries need WxH, got ''\n"

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_bad_frames_exit_2(self, capsys, frames):
        assert main(["benchmark", "--sizes", "20x22", "--frames", frames]) == 2
        assert "--frames" in capsys.readouterr().err


class TestTrackerGuards:
    def test_frame_size_mismatch_rejected(self, rng):
        tracker = Tracker(TrackerConfig(), frame_size=(40, 30))
        tracker.select(Frame(rng.uniform(0, 255, (30, 40))), (5, 5, 10, 10))
        with pytest.raises(DimensionMismatch):
            tracker.process(Frame(rng.uniform(0, 255, (31, 40))))

    def test_process_before_select_rejected(self, rng):
        tracker = Tracker(TrackerConfig(), frame_size=(40, 30))
        with pytest.raises(RuntimeError):
            tracker.process(Frame(rng.uniform(0, 255, (30, 40))))

    def test_full_frame_search_until_first_hit(self, rng):
        # target absent in early frames: tracker keeps searching the whole frame
        s = quantized_scenario(duration=2.0, dropouts=[(0.04, 0.4)])
        frames, truth = render_open_loop(s)
        roi = simulator.SceneRenderer(s).target_rect_frame0()
        tracker = Tracker(TrackerConfig(), frame_size=(s.width, s.height))
        tracker.select(frames[0], roi)
        hidden = [f for f, t in zip(frames, truth) if not t.visible]
        for frame in hidden[:3]:
            step = tracker.process(frame)
            assert step.window_rect == (0, 0, s.width, s.height)
            assert step.detection is None
