"""Tracker configuration: a flat key=value text format.

Lines are ``key=value`` with ``#`` comments and blank lines allowed. The
same format (plus schedule-valued keys) is used for scenario files, parsed
in the simulator module.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

CONFIG_ENV_VAR = "UAVTRACK_CONFIG"


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

    def to_text(self) -> str:
        lines = ["# uavtrack configuration"]
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            lines.append(f"{f.name}={v!r}" if isinstance(v, float) else f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "TrackerConfig":
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        values = {}
        for lineno, key, raw in iter_kv_lines(text, source):
            if key not in fields:
                raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
            caster = int if fields[key] in ("int", int) else float
            try:
                values[key] = caster(raw)
            except ValueError:
                raise ConfigError(
                    f"{source}:{lineno}: cannot parse '{raw}' as {caster.__name__} for '{key}'") from None
        return cls(**values).validate()

    @classmethod
    def from_file(cls, path: str) -> "TrackerConfig":
        try:
            with open(path) as f:
                text = f.read()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        return cls.from_text(text, source=path)


def iter_kv_lines(text: str, source: str):
    """Yield (lineno, key, value) for each key=value line; '#' starts a comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got '{stripped}'")
        key, raw = stripped.split("=", 1)
        yield lineno, key.strip(), raw.strip()


def resolve_config(path: str | None) -> TrackerConfig:
    """Load a config from an explicit path, the environment, or defaults.

    Precedence: explicit --config path, then $UAVTRACK_CONFIG, then
    built-in defaults.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return TrackerConfig().validate()
    return TrackerConfig.from_file(path)
