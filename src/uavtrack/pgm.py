"""Binary PGM (P5, 8-bit) I/O for frames and patches, plus sequence helpers.

A recorded sequence is a directory of ``frame_NNNNNN.pgm`` files with an
optional ``timestamps.txt`` sidecar holding one float (seconds) per line.
Without a sidecar, timestamps fall back to frame_index / fps.
"""

from __future__ import annotations

import math
import os
import re
from typing import Iterable, Iterator

import numpy as np

from .imaging import Frame

_FRAME_RE = re.compile(r"^frame_(\d+)\.pgm$")
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

    # Header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed between them.
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        c = data[pos:pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace() and data[end:end + 1] != b"#":
                end += 1
            tokens.append(data[pos:end])
            pos = end
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval <= 0 or maxval > 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (8-bit only)")
    pos += 1  # single whitespace byte after maxval
    raw = memoryview(data)[pos:pos + w * h]
    if len(raw) != w * h:
        raise ValueError(f"{path}: expected {w * h} pixel bytes, got {len(raw)}")
    return np.frombuffer(bytearray(raw), dtype=np.uint8).reshape(h, w)


def frame_filename(index: int) -> str:
    return f"frame_{index:06d}.pgm"


def write_sequence(dirpath: str, frames: Iterable[Frame]) -> None:
    """Write frames plus the timestamp sidecar."""
    os.makedirs(dirpath, exist_ok=True)
    lines = []
    for frame in frames:
        write_pgm(os.path.join(dirpath, frame_filename(frame.frame_index)), frame.pixels)
        lines.append(repr(float(frame.timestamp)))
    with open(os.path.join(dirpath, TIMESTAMP_SIDECAR), "w") as f:
        f.write("\n".join(lines) + "\n")


def load_sequence(dirpath: str, fps: float = 25.0) -> Iterator[Frame]:
    """Stream a PGM sequence in index order, one frame per step.

    Every timestamp is checked before any frame is read. Raises ValueError
    for an empty directory, mismatched sidecar length, or timestamps that
    are not finite or fail to strictly increase; a malformed frame raises
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
        with open(sidecar) as f:
            timestamps = [float(line) for line in f if line.strip()]
        for k, t in enumerate(timestamps):
            if not math.isfinite(t):
                raise ValueError(f"{sidecar}: timestamp {k} is {t}, not a finite number")
        if len(timestamps) != len(entries):
            raise ValueError(
                f"{sidecar}: {len(timestamps)} timestamps for {len(entries)} frames")
    else:
        timestamps = [k / fps for k in range(len(entries))]
    for k in range(1, len(entries)):
        if timestamps[k] <= timestamps[k - 1]:
            raise ValueError(
                f"timestamps must strictly increase: frame {entries[k - 1][0]} at "
                f"{timestamps[k - 1]} followed by frame {entries[k][0]} at {timestamps[k]}")

    return (Frame(read_pgm(os.path.join(dirpath, name)), timestamp=t, frame_index=index)
            for (index, name), t in zip(entries, timestamps))
