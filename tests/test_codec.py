"""Packed-column codec round trips, for both field separators, and its two table pairs."""

from __future__ import annotations

import json

import pytest

from repro.codec import (
    JSON_SEP,
    TAB,
    col_num,
    col_str,
    pack_groups,
    pack_table,
    split_num,
    split_str,
    unpack_groups,
    unpack_table,
)
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


def test_table_packs_columns_or_falls_back_to_rows():
    packed = pack_table([["a", "b|c"], [1.5, 2.0]], "sn", "kv", JSON_SEP)
    assert packed == {"n": 2, "k": "a|b\\pc", "v": {"ty": "f", "t": "1.5|2.0"}}
    keys, values = unpack_table(json.loads(json.dumps(packed)), "sn", "kv", JSON_SEP)
    assert (keys, list(values)) == (["a", "b|c"], [1.5, 2.0])
    # A non-string id leaves the table as rows; one column as a flat list.
    assert pack_table([["a", 7], [1, 2]], "sn", "kv") == [["a", 1], [7, 2]]
    assert pack_table([["a", 7]], "s", "t") == ["a", 7]
    assert unpack_table([["a", 1], [7, 2]], "sn", "kv") == [["a", 7], [1, 2]]
    assert unpack_table(["a", 7], "s", "t") == [["a", 7]]
    assert unpack_table([], "sn", "kv") == [[], []]


def test_table_rows_of_the_wrong_width_are_corrupt():
    with pytest.raises(CorruptionError):
        unpack_table([["a", 1], ["b"]], "sn", "kv")


def test_groups_keep_first_seen_order_and_refuse_unpackable_keys():
    mapping = {"a": "x", "b": "y", "c": "x"}
    groups = pack_groups(mapping, str, lambda keys: [keys])
    assert groups == [["x", 2, "a\tc"], ["y", 1, "b"]]
    by_value = {"x": "X", "y": "Y"}
    assert unpack_groups(groups, by_value, lambda columns: columns[0]) == {
        "a": "X",
        "c": "X",
        "b": "Y",
    }
    # With the known keys, the table keeps their order.
    known = dict.fromkeys("abc")
    table = unpack_groups(groups, by_value, lambda columns: columns[0], known)
    assert list(table.items()) == [("a", "X"), ("b", "Y"), ("c", "X")]
    assert pack_groups({"a": "x", 7: "y"}, str, lambda keys: [keys]) is None


@pytest.mark.parametrize("known", [dict.fromkeys("ab"), dict.fromkeys("acd")])
def test_groups_that_do_not_match_the_known_keys_are_corrupt(known):
    groups = [["x", 2, "a\tc"], ["y", 1, "b"]]
    with pytest.raises(CorruptionError):
        unpack_groups(groups, {"x": 1, "y": 2}, lambda columns: columns[0], known)
