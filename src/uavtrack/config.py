"""Tracker configuration, and the key=value text format it shares with
scenario files.

Lines are ``key=value`` with ``#`` comments and blank lines allowed. Each
file kind gives every key a reader; a value that its reader rejects is
reported as ``<file>:<line>: <reason> for '<key>'``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterable


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


@dataclass
class TrackerConfig:
    zmncc_threshold: float = 0.9
    sigma: float = 0.4
    hfov_deg: float = 40.0
    vfov_deg: float = 30.0
    pan_limit_deg: float = 15.0
    tilt_limit_deg: float = 15.0
    gimbal_max_rate: float = 0.02
    count_resolution: float = 1e-4
    fps: float = 25.0
    p0_pos: float = 4.0
    p0_vel: float = 25.0
    miss_run_limit: int = 30

    def validate(self) -> "TrackerConfig":
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be a finite number, got {v}")
        if not 0.0 < self.zmncc_threshold <= 1.0:
            raise ConfigError(f"zmncc_threshold must be in (0, 1], got {self.zmncc_threshold}")
        for key in ("sigma", "hfov_deg", "vfov_deg", "pan_limit_deg", "tilt_limit_deg",
                    "gimbal_max_rate", "count_resolution", "fps", "p0_pos", "p0_vel"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        if self.miss_run_limit < 1:
            raise ConfigError(f"miss_run_limit must be >= 1, got {self.miss_run_limit}")
        return self

    @property
    def hfov(self) -> float:
        return math.radians(self.hfov_deg)

    @property
    def vfov(self) -> float:
        return math.radians(self.vfov_deg)

    @property
    def pan_limit(self) -> float:
        return math.radians(self.pan_limit_deg)

    @property
    def tilt_limit(self) -> float:
        return math.radians(self.tilt_limit_deg)

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "TrackerConfig":
        return cls(**parse_kv(text, source, field_readers(cls))).validate()

    @classmethod
    def from_file(cls, path: str) -> "TrackerConfig":
        return cls.from_text(read_text(path, "config"), source=path)


def read_float(raw: str) -> float:
    """A float value; ``inf`` and ``nan`` are rejected here, where they enter."""
    try:
        v = float(raw)
    except ValueError:
        raise ValueError(f"cannot parse '{raw.strip()}' as a number") from None
    if not math.isfinite(v):
        raise ValueError(f"'{raw.strip()}' is not a finite number")
    return v


def read_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"cannot parse '{raw.strip()}' as an integer") from None


def read_flag(raw: str) -> bool:
    """A 0/1 value, read as an integer like the integer keys."""
    v = read_int(raw)
    if v not in (0, 1):
        raise ValueError(f"'{raw}' is not 0 or 1")
    return v == 1


def field_readers(cls) -> dict[str, Callable[[str], object]]:
    """The reader of each int, float and bool field of the dataclass ``cls``,
    by field name, in field order."""
    readers = {"int": read_int, "float": read_float, "bool": read_flag}
    return {f.name: readers[f.type] for f in dataclasses.fields(cls) if f.type in readers}


def parse_kv(text: str, source: str, readers: dict[str, Callable[[str], object]]) -> dict:
    """Every key=value line of ``text``, its value read by ``readers[key]``,
    which rejects a value by raising ValueError with the reason. '#' starts
    a comment."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got '{stripped}'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in readers:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
        try:
            values[key] = readers[key](raw)
        except ValueError as e:
            raise ConfigError(f"{source}:{lineno}: {e} for '{key}'") from None
    return values


def read_text(path: str, kind: str) -> str:
    """The text of the ``kind`` file at ``path``, UTF-8 with every line
    ending read as ``\n``, or a ConfigError naming the file, and the line of
    the first byte that is not UTF-8."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read {kind} {path}: {e}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = _newlines(data[:e.start].decode("utf-8")).count("\n") + 1
        raise ConfigError(f"{path}:{lineno}: {kind} is not UTF-8 text "
                          f"(byte 0x{data[e.start]:02x})") from None
    return _newlines(text)


def _newlines(text: str) -> str:
    """``text`` with ``\r\n`` and ``\r`` line endings read as ``\n``, as
    a file opened in text mode reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def kv_text(kind: str, obj, items: Iterable[tuple[str, str]] = ()) -> str:
    """``obj`` as a key=value file: a ``# uavtrack <kind>`` header, a line per
    int, float and bool field (floats by ``repr``, so that they read back
    exactly), then a line per (key, text) item."""
    lines = [f"# uavtrack {kind}"]
    for name in field_readers(type(obj)):
        v = getattr(obj, name)
        lines.append(f"{name}={v!r}" if isinstance(v, float) else f"{name}={int(v)}")
    lines += [f"{key}={text}" for key, text in items]
    return "\n".join(lines) + "\n"


def resolve_config(path: str | None) -> TrackerConfig:
    """The config read from ``path``, or the defaults when ``path`` is None."""
    if path is None:
        return TrackerConfig().validate()
    return TrackerConfig.from_file(path)
