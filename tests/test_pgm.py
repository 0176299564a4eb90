import numpy as np
import pytest

from uavtrack import pgm
from uavtrack.imaging import Frame


def test_round_trip_exact(tmp_path, rng):
    a = rng.integers(0, 256, (13, 17)).astype(np.float64)
    path = str(tmp_path / "x.pgm")
    pgm.write_pgm(path, a)
    assert np.array_equal(pgm.read_pgm(path), a)


def test_reads_uint8_and_round_trips(tmp_path, rng):
    a = rng.integers(0, 256, (13, 17), dtype=np.uint8)
    first, second = tmp_path / "a.pgm", tmp_path / "b.pgm"
    pgm.write_pgm(str(first), a)
    got = pgm.read_pgm(str(first))
    assert got.dtype == np.uint8 and got.flags.writeable
    assert np.array_equal(got, a)
    pgm.write_pgm(str(second), got)
    assert second.read_bytes() == first.read_bytes()


def test_write_clips_and_rounds(tmp_path):
    path = str(tmp_path / "x.pgm")
    pgm.write_pgm(path, np.array([[-3.0, 12.6, 300.0]]))
    assert np.array_equal(pgm.read_pgm(path), [[0.0, 13.0, 255.0]])


def test_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x07\x09")
    assert np.array_equal(pgm.read_pgm(str(path)), [[7.0, 9.0]])


def test_rejects_16bit_and_bad_magic(tmp_path):
    p1 = tmp_path / "deep.pgm"
    p1.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ValueError):
        pgm.read_pgm(str(p1))
    p2 = tmp_path / "ascii.pgm"
    p2.write_bytes(b"P2\n1 1\n255\n0\n")
    with pytest.raises(ValueError):
        pgm.read_pgm(str(p2))


def test_truncated_pixels(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValueError):
        pgm.read_pgm(str(p))


class TestSequences:
    def _frames(self, rng, n=4):
        return [Frame(rng.integers(0, 256, (6, 8)).astype(float),
                      timestamp=0.1 * k, frame_index=k) for k in range(n)]

    def test_round_trip_with_sidecar(self, tmp_path, rng):
        frames = self._frames(rng)
        pgm.write_sequence(str(tmp_path), frames)
        loaded = list(pgm.load_sequence(str(tmp_path)))
        assert len(loaded) == len(frames)
        for a, b in zip(frames, loaded):
            assert np.array_equal(a.pixels, b.pixels)
            assert a.timestamp == b.timestamp
            assert a.frame_index == b.frame_index

    def test_fps_fallback_without_sidecar(self, tmp_path, rng):
        frames = self._frames(rng, n=3)
        pgm.write_sequence(str(tmp_path), frames)
        (tmp_path / pgm.TIMESTAMP_SIDECAR).unlink()
        loaded = pgm.load_sequence(str(tmp_path), fps=10.0)
        assert [f.timestamp for f in loaded] == [0.0, 0.1, 0.2]

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            pgm.load_sequence(str(tmp_path))

    def test_non_monotone_timestamps_rejected(self, tmp_path, rng):
        frames = self._frames(rng, n=3)
        pgm.write_sequence(str(tmp_path), frames)
        (tmp_path / pgm.TIMESTAMP_SIDECAR).write_text("0.0\n0.2\n0.2\n")
        with pytest.raises(ValueError):
            pgm.load_sequence(str(tmp_path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_rejected(self, tmp_path, rng, bad):
        frames = self._frames(rng, n=3)
        pgm.write_sequence(str(tmp_path), frames)
        (tmp_path / pgm.TIMESTAMP_SIDECAR).write_text(f"0.0\n{bad}\n0.2\n")
        with pytest.raises(ValueError, match="finite"):
            pgm.load_sequence(str(tmp_path))

    def test_sidecar_length_mismatch(self, tmp_path, rng):
        frames = self._frames(rng, n=3)
        pgm.write_sequence(str(tmp_path), frames)
        (tmp_path / pgm.TIMESTAMP_SIDECAR).write_text("0.0\n0.1\n")
        with pytest.raises(ValueError):
            pgm.load_sequence(str(tmp_path))

    def test_no_frame_read_before_iteration(self, tmp_path, rng, monkeypatch):
        pgm.write_sequence(str(tmp_path), self._frames(rng))
        reads = []
        real = pgm.read_pgm
        monkeypatch.setattr(pgm, "read_pgm", lambda path: reads.append(path) or real(path))
        frames = pgm.load_sequence(str(tmp_path))
        assert reads == []
        next(frames)
        assert len(reads) == 1

    @pytest.mark.parametrize("sidecar", ["0.0\n0.1\n0.2\nnan\n", "0.0\n0.1\n0.2\n0.3\n0.4\n"])
    def test_bad_sidecar_rejected_before_any_read(self, tmp_path, rng, monkeypatch, sidecar):
        pgm.write_sequence(str(tmp_path), self._frames(rng))
        (tmp_path / pgm.TIMESTAMP_SIDECAR).write_text(sidecar)
        reads = []
        monkeypatch.setattr(pgm, "read_pgm", reads.append)
        with pytest.raises(ValueError):
            pgm.load_sequence(str(tmp_path))
        assert reads == []
