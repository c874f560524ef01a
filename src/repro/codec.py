"""Packed-column codecs shared by the checkpoint and account serialisers.

This module is a dependency leaf (only :mod:`repro.exceptions`), so both
the store layer and the API layer can use it without import cycles.

Row-per-entity JSON dominates both checkpoint payloads and account
metadata sidecars: hundreds of thousands of parser tokens on the way in,
and a Python-level loop per row on the way out.  Packed as tab-joined
*columns* inside single JSON strings the same tables parse at memcpy
speed and decode with bulk C operations only — ``str.split``,
``map(float, ...)``, ``zip``, ``dict.fromkeys``.

``None`` fields ride as a NUL sentinel; tabs/newlines/backslashes (and
the separator) inside fields are escaped (a column takes the slow
unescape path only when its packed text actually contains an escape or
sentinel).  Every packer returns ``None`` when a column is not uniformly
typed (exotic node ids); the caller falls back to plain JSON rows, and
every unpacker accepts both shapes.

Fields are tab-separated by default.  A column that travels inside a JSON
string can use :data:`JSON_SEP` instead: JSON escapes every tab (and every
non-printable character), and decoding one escape per field is most of
the cost of parsing a packed column.
"""

from __future__ import annotations

import re
from typing import Any, Iterator, List, Optional

from repro.exceptions import CorruptionError

NONE_FIELD = "\x00"
#: The default field separator.
TAB = "\t"
#: The separator for columns inside JSON strings: printable, so JSON
#: leaves it as it is.
JSON_SEP = "|"
_UNESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPE_MAP = {"n": "\n", "t": "\t", "p": JSON_SEP, "\\": "\\"}


def escape_field(field: Optional[str], sep: str = TAB) -> str:
    """One field for a ``sep``-separated column (``sep`` is TAB or JSON_SEP)."""
    if field is None:
        return NONE_FIELD
    if "\\" in field or "\t" in field or "\n" in field or sep in field:
        field = field.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
        return field.replace(JSON_SEP, "\\p") if sep == JSON_SEP else field
    return field


def unescape_field(field: str) -> Optional[str]:
    if field == NONE_FIELD:
        return None
    if "\\" not in field:
        return field
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPE_MAP.get(m.group(1), m.group(1)), field)


def col_str(values: List[Any], sep: str = TAB) -> Optional[str]:
    """Strings (or Nones) as one ``sep``-joined column; ``None`` if unpackable."""
    if not all(value is None or isinstance(value, str) for value in values):
        return None
    return sep.join(escape_field(value, sep) for value in values)


def split_str(text: str, count: int, sep: str = TAB) -> List[Optional[str]]:
    """A string column back into its fields, validating the row count."""
    if count == 0:
        return []
    fields: List[Optional[str]] = text.split(sep)
    if len(fields) != count:
        raise CorruptionError(
            f"packed column holds {len(fields)} fields where {count} were recorded"
        )
    if "\\" in text or NONE_FIELD in text:
        fields = [unescape_field(field) for field in fields]
    return fields


def col_num(values: List[Any], sep: str = TAB) -> Optional[dict]:
    """Uniform ints or floats as a type-tagged ``repr`` column (exact).

    ``None`` when the values are mixed or exotic (bools, Decimals): the
    caller falls back to raw JSON rows.  The type tag lets the decoder use
    a single ``map(int, ...)`` / ``map(float, ...)`` pass — ``repr``/``float``
    round-trips are exact, and there is no per-value try/except.
    """
    if all(type(value) is int for value in values):
        tag = "i"
    elif all(type(value) is float for value in values):
        tag = "f"
    else:
        return None
    return {"ty": tag, "t": sep.join(map(repr, values))}


def split_num(spec: dict, count: int, sep: str = TAB) -> Iterator[Any]:
    """A numeric column back into its values (lazily — consumers zip once).

    The row count is validated eagerly; the int/float conversions run
    inside the caller's ``dict(zip(...))`` pass, skipping one intermediate
    list materialisation per column.
    """
    if count == 0:
        return iter(())
    fields = spec["t"].split(sep)
    if len(fields) != count:
        raise CorruptionError(
            f"packed column holds {len(fields)} fields where {count} were recorded"
        )
    return map(int if spec["ty"] == "i" else float, fields)


def pack_pair_table(pairs) -> Any:
    """``[[a, b], ...]`` rows as two packed columns (or raw rows fallback)."""
    rows = list(pairs)
    left = col_str([row[0] for row in rows])
    right = col_str([row[1] for row in rows])
    if left is None or right is None:
        return [[a, b] for a, b in rows]
    return {"n": len(rows), "a": left, "b": right}


def unpack_pair_table(value: Any) -> Iterator[tuple]:
    """Rows back out of either shape, as an iterator of 2-tuples."""
    if isinstance(value, dict):
        count = value["n"]
        return zip(split_str(value["a"], count), split_str(value["b"], count))
    return ((a, b) for a, b in value)


def pack_id_list(values) -> Any:
    """A list of node ids as one packed column (or the raw list fallback)."""
    rows = list(values)
    col = col_str(rows)
    return {"n": len(rows), "t": col} if col is not None else rows


def unpack_id_list(value: Any) -> List[Any]:
    if isinstance(value, dict):
        return split_str(value["t"], value["n"])
    return list(value)


def table_len(value: Any) -> int:
    """Row count of a packed-or-raw table without decoding it."""
    return value["n"] if isinstance(value, dict) else len(value)
