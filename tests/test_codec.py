"""Packed-column codec round trips, for both field separators."""

from __future__ import annotations

import json

import pytest

from repro.codec import JSON_SEP, TAB, col_num, col_str, split_num, split_str
from repro.exceptions import CorruptionError

TRICKY = ["plain", "a|b", "|", "tab\there", "new\nline", "back\\slash", "\\p", "\\t", "", None, "\x7f"]


@pytest.mark.parametrize("sep", [TAB, JSON_SEP])
def test_string_column_round_trip(sep):
    packed = col_str(TRICKY, sep)
    assert split_str(packed, len(TRICKY), sep) == TRICKY


@pytest.mark.parametrize("sep", [TAB, JSON_SEP])
def test_number_column_round_trip(sep):
    floats = [0.1, -0.0, 1e300, 2.5e-12, float("inf")]
    assert list(split_num(col_num(floats, sep), len(floats), sep)) == floats
    ints = [0, -7, 2**70]
    assert list(split_num(col_num(ints, sep), len(ints), sep)) == ints


def test_json_separator_needs_no_json_escape():
    packed = col_str(["n1", "n2", "n3"], JSON_SEP)
    assert json.dumps(packed) == '"' + packed + '"'
    assert "\\" not in json.dumps(col_str(["n1", "n2"], JSON_SEP))


def test_wrong_separator_is_a_count_mismatch():
    packed = col_str(["a", "b", "c"], JSON_SEP)
    with pytest.raises(CorruptionError):
        split_str(packed, 3, TAB)
