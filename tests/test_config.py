import dataclasses
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SCENARIOS
from uavtrack.config import ConfigError, TrackerConfig, kv_text, resolve_config


def test_defaults_match_tuned_values():
    cfg = TrackerConfig()
    assert cfg.zmncc_threshold == 0.9
    assert cfg.sigma == 0.4
    assert cfg.count_resolution == 1e-4


def test_round_trip_identity():
    cfg = TrackerConfig(zmncc_threshold=0.85, sigma=0.31, hfov_deg=52.5, fps=30.0)
    once = TrackerConfig.from_text(kv_text("configuration", cfg))
    assert once == cfg
    assert TrackerConfig.from_text(kv_text("configuration", once)) == once


def configs():
    """Any valid configuration: every field drawn within its accepted range."""
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    fields = {f.name: positive for f in dataclasses.fields(TrackerConfig)}
    fields["zmncc_threshold"] = st.floats(0.0, 1.0, exclude_min=True)
    fields["miss_run_limit"] = st.integers(1, 10 ** 6)
    return st.builds(TrackerConfig, **fields)


@settings(max_examples=200)
@given(configs())
def test_round_trip_property(cfg):
    assert TrackerConfig.from_text(kv_text("configuration", cfg)) == cfg


def test_partial_file_keeps_defaults():
    cfg = TrackerConfig.from_text("zmncc_threshold=0.8\n# comment\n\nfps=50\n")
    assert cfg.zmncc_threshold == 0.8 and cfg.fps == 50.0
    assert cfg.sigma == 0.4


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match=":2:"):
        TrackerConfig.from_text("fps=25\nnot_a_key=1\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError,
                       match="^<config>:1: cannot parse 'fast' as a number for 'fps'$"):
        TrackerConfig.from_text("fps=fast\n")
    with pytest.raises(ConfigError,
                       match="^<config>:2: cannot parse '3.5' as an integer for 'miss_run_limit'$"):
        TrackerConfig.from_text("fps=30\nmiss_run_limit=3.5\n")


def test_repeated_key_rejected_naming_both_lines():
    # Neither value wins: the second line is rejected, not read over the first.
    with pytest.raises(ConfigError,
                       match=r"^<config>:4: repeated key 'sigma' \(first on line 1\)$"):
        TrackerConfig.from_text("sigma=0.4\nfps=25\n# again\nsigma=0.5\n")
    # The value is read first, so a bad repeated value reports the value.
    with pytest.raises(ConfigError, match="^<config>:2: cannot parse 'x' as a number for 'fps'$"):
        TrackerConfig.from_text("fps=25\nfps=x\n")


def test_missing_equals_reports_line():
    with pytest.raises(ConfigError, match=":1:"):
        TrackerConfig.from_text("just words\n")


def test_fixed_budget_and_bank_size_enforced():
    # The budget (7) and bank size (36) are fixed, so they are not config keys.
    for key in ("template_budget=7", "bank_size=36", "template_budget=5", "bank_size=12"):
        with pytest.raises(ConfigError, match=r":1: unknown key"):
            TrackerConfig.from_text(key + "\n")
    with pytest.raises(ConfigError):
        TrackerConfig.from_text("zmncc_threshold=1.5\n")


FLOAT_KEYS = [f.name for f in dataclasses.fields(TrackerConfig) if f.type in ("float", float)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_value_rejected_naming_key(key, value):
    message = f"^<config>:2: '{value}' is not a finite number for '{key}'$"
    with pytest.raises(ConfigError, match=message):
        TrackerConfig.from_text(f"# comment\n{key}={value}\n")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_field_rejected_by_validate_naming_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be a finite number"):
        TrackerConfig(**{key: value}).validate()


def test_shipped_default_config_lists_every_default():
    path = os.path.join(SCENARIOS, "default.cfg")
    assert TrackerConfig.from_file(path) == TrackerConfig()
    with open(path) as f:
        assert kv_text("configuration", TrackerConfig()) == f.read()


def test_resolve_precedence(tmp_path, monkeypatch):
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("fps=60\n")
    flag_cfg = tmp_path / "flag.cfg"
    flag_cfg.write_text("fps=12\n")

    # --config is the only way to give a file: the environment is not read.
    monkeypatch.setenv("UAVTRACK_CONFIG", str(env_cfg))
    assert resolve_config(None) == TrackerConfig()
    assert resolve_config(str(flag_cfg)).fps == 12.0


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        TrackerConfig.from_file("/nonexistent/config.txt")
