import dataclasses
import math
import os
import re
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import SCENARIOS
from uavtrack import cli
from uavtrack.config import (ConfigError, TrackerConfig, kv_text, parse_kv, read_float,
                             read_int, resolve_config)


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


def test_only_ascii_blanks_and_newlines_delimit():
    # A non-ASCII blank is part of the value, which read_int rejects.
    with pytest.raises(ConfigError, match="^<config>:1: cannot parse '\u00a07' as an integer"):
        TrackerConfig.from_text("miss_run_limit=\u00a07\n")
    # U+2028 and \x1c end no line, so the error names the line an editor shows.
    with pytest.raises(ConfigError, match="^<config>:2: cannot parse 'x' as a number"):
        TrackerConfig.from_text("# note\u2028\x1c\nfps=x\n")


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


# --------------------------------------------------------------------------
# Numbers against an ASCII reference reader
# --------------------------------------------------------------------------

ASCII_SPACE = " \t\n\x0b\x0c\r"  # what Python's int and float skip around a number
ASCII_INT = re.compile(r"[+-]?[0-9]+")
ASCII_FINITE = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def reference_int(raw: str) -> int | None:
    """A sign and the digits 0-9 between ASCII blanks, folded digit by
    digit; None for any other text."""
    text = raw.strip(ASCII_SPACE)
    if not ASCII_INT.fullmatch(text):
        return None
    value = 0
    for c in text.lstrip("+-"):
        value = 10 * value + ord(c) - ord("0")
    return -value if text[0] == "-" else value


def reference_float(raw: str) -> float | None:
    """A decimal number in ASCII, rounded once from its exact value; None
    for any other text and for a number that rounds to an infinity."""
    text = raw.strip(ASCII_SPACE)
    if not ASCII_FINITE.fullmatch(text):
        return None
    value = float(Decimal(text))
    return value if math.isfinite(value) else None


# Pieces of numbers and what Python's own readers also accept: digit
# separators, digits of other scripts (Arabic-Indic, fullwidth, NKo),
# blanks inside and outside ASCII, and the names of the non-finite values.
NUMBER_PIECES = ["0", "1", "7", "9", "12", ".", "e", "E", "+", "-", "_", " ", "\t", "inf",
                 "nan", "Infinity", "x", "\u0663", "\uff13", "\u07c3", "\u00a0",
                 "\u2003", "\x1c", "\x0b"]
number_texts = st.lists(st.sampled_from(NUMBER_PIECES), max_size=8).map("".join)


def same_number(got, want) -> bool:
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def read_or_none(reader, raw):
    try:
        return reader(raw)
    except ValueError:
        return None


@settings(max_examples=400)
@given(number_texts | st.integers().map(str))
@example("1_0")
@example("\u0663")
@example(" 42 ")
def test_read_int_equals_ascii_reference(raw):
    got, want = read_or_none(read_int, raw), reference_int(raw)
    assert got == want and type(got) is type(want)


@settings(max_examples=400)
@given(number_texts | st.floats(allow_nan=False, allow_infinity=False).map(repr))
@example("1_0.5")
@example("\uff13.5")
@example("-0.0")
@example("1e999")
def test_read_float_equals_ascii_reference(raw):
    got, want = read_or_none(read_float, raw), reference_float(raw)
    assert (got is None and want is None) or same_number(got, want)


@pytest.mark.parametrize("reader, kind", [(read_int, "an integer"), (read_float, "a number")])
def test_rejected_number_is_quoted_with_its_non_ascii_blank(reader, kind):
    with pytest.raises(ValueError, match=f"^cannot parse '\u00a01' as {kind}$"):
        reader(" \u00a01\n")


# A value in a key=value line: no comment mark and no line boundary.
line_values = number_texts.filter(lambda t: "".join(t.splitlines()) == t)


@settings(max_examples=200)
@given(line_values, line_values)
def test_key_value_numbers_equal_reference_or_name_file_and_line(count, number):
    text = f"# numbers\ncount={count}\nnumber={number}\n"
    readers = {"count": read_int, "number": read_float}
    want = {"count": reference_int(count), "number": reference_float(number)}
    bad = [(line, key) for line, key in ((2, "count"), (3, "number")) if want[key] is None]
    if bad:
        line, key = bad[0]
        with pytest.raises(ConfigError, match=rf"^numbers\.cfg:{line}: .* for '{key}'$"):
            parse_kv(text, "numbers.cfg", readers)
    else:
        got = parse_kv(text, "numbers.cfg", readers)
        assert got["count"] == want["count"] and same_number(got["number"], want["number"])


@settings(max_examples=200)
@given(line_values.filter(lambda t: "," not in t and "x" not in t))
@example("1_0")
@example("\u0663")
def test_roi_and_sizes_equal_reference(field):
    want = reference_int(field)
    for parse, text, expect in ((cli._parse_roi, f"{field},2,3,4", (want, 2, 3, 4)),
                                (cli._parse_sizes, f"{field}x22", [(want, 22)])):
        if want is None:
            with pytest.raises(ConfigError):
                parse(text)
        else:
            assert parse(text) == expect
