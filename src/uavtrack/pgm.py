"""Binary PGM (P5, 8-bit) I/O for frames and patches, plus sequence helpers.

A recorded sequence is a directory of ``frame_NNNNNN.pgm`` files with an
optional ``timestamps.txt`` sidecar holding one float (seconds) per line.
Without a sidecar, timestamps fall back to frame_index / fps.
"""

from __future__ import annotations

import os
import re
from typing import Callable, Iterable, Iterator

import numpy as np

from .config import read_float, read_text
from .imaging import Frame

_FRAME_RE = re.compile(r"^frame_(\d+)\.pgm$")
# Whitespace and comments, then a PGM header token (empty at the end of the file).
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*[\r\n]?)*([^\s#]*)")
TIMESTAMP_SIDECAR = "timestamps.txt"


def write_pgm(path: str, pixels: np.ndarray) -> None:
    """Write a raster as binary 8-bit PGM; values are clipped and rounded."""
    a = np.asarray(pixels, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D raster, got shape {a.shape}")
    data = np.rint(np.clip(a, 0.0, 255.0)).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Read a binary P5 PGM into a new, writeable ``uint8`` raster.

    The pixels stay 8-bit: a ``Frame`` keeps them as they are and the
    matcher converts only its search window to float64.
    """
    with open(path, "rb") as f:
        data = f.read()

    # Header: the magic in the first two bytes, then width, height and maxval,
    # tokens separated by whitespace and by comments, each of which runs from
    # '#' through the next CR or LF.
    if data[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {data[:2]!r})")
    tokens, pos = [], 0
    while len(tokens) < 4:
        token = _HEADER_TOKEN.match(data, pos)
        if not token[1]:
            raise ValueError(f"{path}: truncated PGM header")
        tokens.append(token[1])
        pos = token.end()
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    w, h, maxval = (_header_int(path, name, token)
                    for name, token in zip(("width", "height", "maxval"), tokens[1:]))
    if maxval > 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (8-bit only)")
    if not data[pos:pos + 1].isspace():
        raise ValueError(f"{path}: PGM maxval {maxval} is not followed by one whitespace byte")
    pos += 1
    raw = memoryview(data)[pos:pos + w * h]
    if len(raw) != w * h:
        raise ValueError(f"{path}: expected {w * h} pixel bytes, got {len(raw)}")
    pixels = np.frombuffer(bytearray(raw), dtype=np.uint8).reshape(h, w)
    if maxval < 255 and int(pixels.max()) > maxval:
        raise ValueError(f"{path}: PGM pixel value {int(pixels.max())} exceeds maxval {maxval}")
    return pixels


def _header_int(path: str, name: str, token: bytes) -> int:
    """A PGM header field, which must be a positive decimal integer."""
    if not token.isdigit() or int(token) == 0:
        raise ValueError(f"{path}: PGM {name} {token.decode('ascii', 'replace')!r} "
                         "is not a positive integer")
    return int(token)


def frame_filename(index: int) -> str:
    return f"frame_{index:06d}.pgm"


def sequence_writer(dirpath: str) -> Callable[[Frame], None]:
    """A sink that adds each frame it is given to the sequence at ``dirpath``:
    its PGM file, and its timestamp as the next sidecar line. An existing
    sidecar is truncated first."""
    os.makedirs(dirpath, exist_ok=True)
    sidecar = os.path.join(dirpath, TIMESTAMP_SIDECAR)
    open(sidecar, "w").close()

    def write(frame: Frame) -> None:
        write_pgm(os.path.join(dirpath, frame_filename(frame.frame_index)), frame.pixels)
        # Appending keeps the sidecar in step with the frames written so far;
        # truncating and rewriting it costs a disk flush per frame.
        with open(sidecar, "a") as f:
            f.write(repr(float(frame.timestamp)) + "\n")

    return write


def write_sequence(dirpath: str, frames: Iterable[Frame]) -> None:
    """Write frames plus the timestamp sidecar."""
    write = sequence_writer(dirpath)
    for frame in frames:
        write(frame)


def load_sequence(dirpath: str, fps: float) -> Iterator[Frame]:
    """Stream a PGM sequence in index order, one frame per step.

    Without a sidecar, frame N is at N / fps, so a gap in the indices is a
    gap in time. Every timestamp is checked before any frame is read. Raises
    ValueError for an empty directory, mismatched sidecar length, a sidecar
    that cannot be read or is not UTF-8, a sidecar line that is not a finite
    number (each named by its line number), or
    timestamps that fail to strictly increase; a malformed frame raises
    ValueError when the iteration reaches it.
    """
    if not os.path.isdir(dirpath):
        raise ValueError(f"sequence directory not found: {dirpath}")
    entries = sorted((int(m.group(1)), name) for name in os.listdir(dirpath)
                     if (m := _FRAME_RE.match(name)))
    if not entries:
        raise ValueError(f"no frame_NNNNNN.pgm files in {dirpath}")

    sidecar = os.path.join(dirpath, TIMESTAMP_SIDECAR)
    if os.path.exists(sidecar):
        lines = read_text(sidecar, "timestamp sidecar").split("\n")
        timestamps = [_parse_timestamp(line, sidecar, lineno)
                      for lineno, line in enumerate(lines, start=1) if line.strip()]
        if len(timestamps) != len(entries):
            raise ValueError(
                f"{sidecar}: {len(timestamps)} timestamps for {len(entries)} frames")
    else:
        timestamps = [index / fps for index, _ in entries]
    for k in range(1, len(entries)):
        if timestamps[k] <= timestamps[k - 1]:
            raise ValueError(
                f"timestamps must strictly increase: frame {entries[k - 1][0]} at "
                f"{timestamps[k - 1]} followed by frame {entries[k][0]} at {timestamps[k]}")

    return (Frame(read_pgm(os.path.join(dirpath, name)), timestamp=t, frame_index=index)
            for (index, name), t in zip(entries, timestamps))


def _parse_timestamp(line: str, sidecar: str, lineno: int) -> float:
    """One sidecar line as a finite number of seconds."""
    try:
        return read_float(line)
    except ValueError as e:
        raise ValueError(f"{sidecar}:{lineno}: {e}") from None
