import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uavtrack import pgm
from uavtrack.cli import main
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


@pytest.mark.parametrize("header, message", [
    (b"P5\n4.5 4\n255\n", "PGM width '4.5' is not a positive integer"),
    (b"P5\n4 four\n255\n", "PGM height 'four' is not a positive integer"),
    (b"P5\n4 4\n2e2\n", "PGM maxval '2e2' is not a positive integer"),
    (b"P5\n-8 4\n255\n", "PGM width '-8' is not a positive integer"),
    (b"P5\n0 0\n255\n", "PGM width '0' is not a positive integer"),
])
def test_bad_header_field_names_file(tmp_path, header, message):
    p = tmp_path / "bad.pgm"
    p.write_bytes(header + bytes(16))
    with pytest.raises(ValueError) as e:
        pgm.read_pgm(str(p))
    assert str(e.value) == f"{p}: {message}"


@pytest.mark.parametrize("data, message", [
    (b"P5\n4 2\n255#c\n" + bytes(8), "PGM maxval 255 is not followed by one whitespace byte"),
    (b"P5\n4 2\n255", "PGM maxval 255 is not followed by one whitespace byte"),
    (b"P5\n4 2\n15\n" + bytes([3, 200, 0, 15, 9, 9, 9, 9]),
     "PGM pixel value 200 exceeds maxval 15"),
])
def test_malformed_body_names_file(tmp_path, data, message):
    p = tmp_path / "bad.pgm"
    p.write_bytes(data)
    with pytest.raises(ValueError) as e:
        pgm.read_pgm(str(p))
    assert str(e.value) == f"{p}: {message}"


def test_pixels_start_one_byte_after_maxval(tmp_path):
    # The first pixel is 10, a newline byte: only one separator is skipped.
    p = tmp_path / "low.pgm"
    p.write_bytes(b"P5\n4 1\n15 " + bytes([10, 15, 7, 0]))
    assert np.array_equal(pgm.read_pgm(str(p)), [[10, 15, 7, 0]])


WHITESPACE = b" \t\n\r\x0b\x0c"


def reference_pgm(data: bytes) -> np.ndarray | None:
    """The raster of a binary PGM, byte by byte, or None if ``data`` is not one.

    The file opens with the magic ``P5``. Width, height and maxval follow,
    each a positive decimal integer, maxval at most 255. A token ends at
    whitespace or at a comment, which runs from '#' through the next CR or
    LF; separators are any mix of the two. Exactly one whitespace byte
    follows maxval, then width x height pixel bytes, none above maxval.
    Bytes after the raster are not read: the format lets another image
    follow.
    """
    def separator(i):
        return i < len(data) and (data[i] in WHITESPACE or data[i] == ord("#"))

    if data[:2] != b"P5" or (len(data) > 2 and not separator(2)):
        return None
    fields, i = [], 2
    while len(fields) < 3:
        while separator(i):
            if data[i] == ord("#"):
                while i < len(data) and data[i] not in b"\r\n":
                    i += 1
            i += 1
        start = i
        while i < len(data) and not separator(i):
            i += 1
        token = data[start:i]
        if not token or any(c not in b"0123456789" for c in token) or int(token) == 0:
            return None
        fields.append(int(token))
    w, h, maxval = fields
    if maxval > 255 or i >= len(data) or data[i] not in WHITESPACE:
        return None
    raster = data[i + 1:i + 1 + w * h]
    if len(raster) != w * h or max(raster) > maxval:
        return None
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def numbers(n):
    """A header integer as its decimal token, sometimes with leading zeros."""
    return st.integers(0, 2).map(lambda zeros: b"0" * zeros + str(n).encode())


def separators():
    """One or more whitespace bytes and comments; a comment's own CR or LF
    is its end, so one may sit directly after a token."""
    text = st.binary(max_size=6).map(lambda b: b.translate(None, b"\r\n"))
    comment = st.builds(lambda t, end: b"#" + t + end, text, st.sampled_from([b"\n", b"\r", b"\r\n"]))
    return st.lists(st.sampled_from(list(WHITESPACE)).map(lambda c: bytes([c])) | comment,
                    min_size=1, max_size=3).map(b"".join)


@st.composite
def pgm_files(draw):
    """A P5 file drawn from the header grammar, then mutated: a token, the
    separators, a comment after maxval, the maxval, the pixel count, and
    single bytes anywhere."""
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    maxval = draw(st.sampled_from([255, 1, 15]) | st.integers(1, 255))
    pixels = bytes(b % (maxval + 1) for b in draw(st.binary(min_size=w * h, max_size=w * h)))
    tokens = [b"P5", draw(numbers(w)), draw(numbers(h)), draw(numbers(maxval))]
    if draw(st.booleans()):
        tokens[draw(st.integers(0, 3))] = draw(st.sampled_from(
            [b"P2", b"P6", b"p5", b"P55", b"", b"+4", b"-3", b"0", b"00", b"4.5", b"2e2",
             b"256", b"65535", b"\xb2", b"9" * 20, b"5P5"]))
    seps = [draw(separators()) for _ in range(3)]
    after_maxval = draw(st.sampled_from([b" ", b"\n", b"\r", b"\t"])
                        | st.sampled_from([b"", b"\n\n", b"#c\n", b" #c\n", b"\r\n"]))
    if draw(st.booleans()):  # a pixel above maxval, or too few or too many pixels
        pixels = draw(st.sampled_from([
            pixels[:-1], pixels + b"\x00", pixels[1:] + bytes([min(maxval + 1, 255)]),
            pixels + b"P5 1 1 255\n\x00"]))
    data = (draw(st.sampled_from([b"", b"", b"", b" ", b"#c\n"])) + tokens[0] + seps[0]
            + tokens[1] + seps[1] + tokens[2] + seps[2] + tokens[3] + after_maxval + pixels)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(list(b" \t\r\n#P50189x\xff")).map(lambda c: bytes([c])))
        data = draw(st.sampled_from([data[:at] + byte + data[at:],  # insert
                                     data[:at] + byte + data[at + 1:],  # replace
                                     data[:at] + data[at + 1:],  # delete
                                     data[:at]]))  # truncate
    return data


@settings(max_examples=400, deadline=None)
@given(pgm_files())
@example(b"P5 1 1 255\n\x07")
@example(b"P5#c\r2#c\n1 255\n\x07\x09")  # comments end at CR as at LF
@example(b" P5 1 1 255\n\x07")  # the magic is the first two bytes
@example(b"P5 1 1 255#c\n\x07")
def test_read_pgm_agrees_with_reference(data):
    want = reference_pgm(data)
    with tempfile.TemporaryDirectory() as d:
        seq = os.path.join(d, "seq")
        os.mkdir(seq)
        path = os.path.join(seq, pgm.frame_filename(0))
        with open(path, "wb") as f:
            f.write(data)
        if want is not None:
            got = pgm.read_pgm(path)
            assert got.dtype == np.uint8 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            return
        with pytest.raises(ValueError) as e:
            pgm.read_pgm(path)
        assert str(e.value).startswith(f"{path}: ")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["track", seq, "--roi", "0,0,2,2", "--out", os.path.join(d, "out")])
        assert rc == 2 and err.getvalue() == f"error: {e.value}\n"


class TestSequences:
    def _frames(self, rng, n=4):
        return [Frame(rng.integers(0, 256, (6, 8)).astype(float),
                      timestamp=0.1 * k, frame_index=k) for k in range(n)]

    def test_round_trip_with_sidecar(self, tmp_path, rng):
        frames = self._frames(rng)
        pgm.write_sequence(str(tmp_path), frames)
        loaded = list(pgm.load_sequence(str(tmp_path), fps=25.0))
        assert len(loaded) == len(frames)
        for a, b in zip(frames, loaded):
            assert np.array_equal(a.pixels, b.pixels)
            assert a.timestamp == b.timestamp
            assert a.frame_index == b.frame_index

    def test_writer_truncates_stale_sidecar(self, tmp_path, rng):
        sidecar = tmp_path / pgm.TIMESTAMP_SIDECAR
        sidecar.write_text("stale\n" * 9)
        write = pgm.sequence_writer(str(tmp_path))
        assert sidecar.read_text() == ""
        for frame in self._frames(rng, n=2):
            write(frame)
        assert sidecar.read_text() == "0.0\n0.1\n"

    def test_writer_adds_one_sidecar_line_per_frame_in_order(self, tmp_path, rng):
        frames = [Frame(rng.integers(0, 256, (6, 8)).astype(float),
                        timestamp=k / 3.0, frame_index=k) for k in range(5)]
        seq = tmp_path / "seq"
        write = pgm.sequence_writer(str(seq))
        for n, frame in enumerate(frames, start=1):
            write(frame)
            lines = (seq / pgm.TIMESTAMP_SIDECAR).read_text().splitlines()
            assert lines == [repr(k / 3.0) for k in range(n)]
        assert sorted(os.listdir(seq)) == [pgm.frame_filename(k) for k in range(5)] + [
            pgm.TIMESTAMP_SIDECAR]
        for frame in frames:
            assert np.array_equal(pgm.read_pgm(str(seq / pgm.frame_filename(frame.frame_index))),
                                  frame.pixels)

    def test_fps_fallback_without_sidecar(self, tmp_path, rng):
        frames = self._frames(rng, n=3)
        pgm.write_sequence(str(tmp_path), frames)
        (tmp_path / pgm.TIMESTAMP_SIDECAR).unlink()
        loaded = pgm.load_sequence(str(tmp_path), fps=10.0)
        assert [f.timestamp for f in loaded] == [0.0, 0.1, 0.2]

    def test_fps_fallback_times_frames_by_index(self, tmp_path, rng):
        frames = [f for f in self._frames(rng) if f.frame_index != 2]  # frames 0, 1, 3
        pgm.write_sequence(str(tmp_path), frames)
        (tmp_path / pgm.TIMESTAMP_SIDECAR).unlink()
        loaded = pgm.load_sequence(str(tmp_path), fps=10.0)
        assert [(f.frame_index, f.timestamp) for f in loaded] == [(0, 0.0), (1, 0.1), (3, 0.3)]

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            pgm.load_sequence(str(tmp_path), fps=25.0)

    def test_non_monotone_timestamps_rejected(self, tmp_path, rng):
        frames = self._frames(rng, n=3)
        pgm.write_sequence(str(tmp_path), frames)
        (tmp_path / pgm.TIMESTAMP_SIDECAR).write_text("0.0\n0.2\n0.2\n")
        with pytest.raises(ValueError):
            pgm.load_sequence(str(tmp_path), fps=25.0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_rejected(self, tmp_path, rng, bad):
        frames = self._frames(rng, n=3)
        pgm.write_sequence(str(tmp_path), frames)
        (tmp_path / pgm.TIMESTAMP_SIDECAR).write_text(f"0.0\n{bad}\n0.2\n")
        with pytest.raises(ValueError, match="finite"):
            pgm.load_sequence(str(tmp_path), fps=25.0)

    def test_non_numeric_timestamp_names_sidecar_line(self, tmp_path, rng):
        pgm.write_sequence(str(tmp_path), self._frames(rng, n=3))
        (tmp_path / pgm.TIMESTAMP_SIDECAR).write_text("0.0\n\n0.1s\n0.2\n")
        with pytest.raises(ValueError, match=r"timestamps\.txt:3: cannot parse '0\.1s'"):
            pgm.load_sequence(str(tmp_path), fps=25.0)

    def test_sidecar_length_mismatch(self, tmp_path, rng):
        frames = self._frames(rng, n=3)
        pgm.write_sequence(str(tmp_path), frames)
        (tmp_path / pgm.TIMESTAMP_SIDECAR).write_text("0.0\n0.1\n")
        with pytest.raises(ValueError):
            pgm.load_sequence(str(tmp_path), fps=25.0)

    def test_no_frame_read_before_iteration(self, tmp_path, rng, monkeypatch):
        pgm.write_sequence(str(tmp_path), self._frames(rng))
        reads = []
        real = pgm.read_pgm
        monkeypatch.setattr(pgm, "read_pgm", lambda path: reads.append(path) or real(path))
        frames = pgm.load_sequence(str(tmp_path), fps=25.0)
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
            pgm.load_sequence(str(tmp_path), fps=25.0)
        assert reads == []
