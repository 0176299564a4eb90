import csv
import os

import pytest

from uavtrack import pgm, simulator
from uavtrack.cli import REPORT_COLUMNS, TRACK_COLUMNS, _export_sink, main
from uavtrack.errors import DimensionMismatch
from uavtrack.imaging import Frame
from uavtrack.tracker import Tracker
from uavtrack.config import TrackerConfig


def quantized_scenario(duration=4.0, **overrides):
    s = simulator.benign_scenario()
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

    def test_long_miss_run_exits_1(self, tmp_path):
        s = quantized_scenario(duration=3.0,
                               dropouts=[(0.6, 3.0)])  # 60 trailing miss frames
        frames, _ = simulator.render_sequence(s)
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

        def strip_timing(path):
            lines = open(path).read().splitlines()
            cols = lines[0].split(",")
            keep = [i for i, c in enumerate(cols) if c != "wall_ms"]
            return ["\x00".join(line.split(",")[i] for i in keep) for line in lines]

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

    def test_missing_scenario_exits_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.txt")]) == 2

    def test_export_round_trips_through_loader(self, exported):
        _, _, seq = exported
        frames = list(pgm.load_sequence(str(seq)))
        assert len(frames) == 100
        assert frames[0].pixels.max() <= 255.0

    def test_export_matches_write_sequence(self, tmp_path, rng):
        frames = [Frame(rng.integers(0, 256, (6, 8)).astype(float),
                        timestamp=k / 3.0, frame_index=k) for k in range(5)]
        exported, written = tmp_path / "exported", tmp_path / "written"
        exported.mkdir()
        (exported / pgm.TIMESTAMP_SIDECAR).write_text("stale\n" * 9)
        sink = _export_sink(str(exported))
        for frame in frames:
            sink(frame)
        pgm.write_sequence(str(written), frames)
        assert sorted(os.listdir(exported)) == sorted(os.listdir(written))
        for name in os.listdir(written):
            assert (exported / name).read_bytes() == (written / name).read_bytes()


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

    def test_bad_sizes_exit_2(self):
        assert main(["benchmark", "--sizes", "2x2"]) == 2
        assert main(["benchmark", "--sizes", "notasize"]) == 2

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
        frames, truth = simulator.render_sequence(s)
        roi = simulator.SceneRenderer(s).target_rect_frame0()
        tracker = Tracker(TrackerConfig(), frame_size=(s.width, s.height))
        tracker.select(frames[0], roi)
        hidden = [f for f, t in zip(frames, truth) if not t.visible]
        for frame in hidden[:3]:
            step = tracker.process(frame)
            assert step.window_rect == (0, 0, s.width, s.height)
            assert step.detection is None
