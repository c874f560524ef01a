"""The table codec: how tables of ids and numbers sit inside JSON.

Three formats use it: the service checkpoint body
(:mod:`repro.api.checkpoints`), the protected-account metadata
(:mod:`repro.api.persistence`, read back by the store's account tables)
and the delta-log rows followers tail (:mod:`repro.replication.wire`).
This module is a dependency leaf (only :mod:`repro.exceptions`), so the
store, API and replication layers all use it without import cycles.

Row-per-entity JSON would dominate those payloads: hundreds of thousands
of parser tokens on the way in, and a Python-level loop per row on the way
out.  Packed as separator-joined *columns* inside single JSON strings the
same tables parse at memcpy speed and decode with bulk C operations only —
``str.split``, ``map(float, ...)``, ``zip``, ``dict.fromkeys``.  Two pairs
cover every table:

* :func:`pack_table` / :func:`unpack_table` — equal-length string or
  numeric columns next to a row count ``"n"``.  When a column will not
  pack (exotic node ids), the table is written as its rows, and a
  one-column table as a flat list; the unpacker accepts every shape.
* :func:`pack_groups` / :func:`unpack_groups` — a ``{key: value}`` map
  with few distinct values, as ``[value text, count, *key columns]``
  groups.  Given the keys it already holds (a graph's nodes or edges),
  the decoder rebuilds the largest group from them instead of decoding it.

``None`` fields ride as a NUL sentinel; tabs/newlines/backslashes (and
the separator) inside fields are escaped (a column takes the slow
unescape path only when its packed text actually contains an escape or
sentinel).  Numeric columns are type-tagged ``repr`` text, so ints and
floats round-trip exactly.

Fields are tab-separated by default, as in the account metadata and the
delta rows.  A column that travels inside a JSON string can use
:data:`JSON_SEP` instead, as the checkpoint body does: JSON escapes every
tab (and every non-printable character), and decoding one escape per
field is most of the cost of parsing a packed column.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

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
    """The inverse of :func:`escape_field` (either separator)."""
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


def pack_table(columns: List[List[Any]], kinds: str, names: Sequence[str], sep: str = TAB) -> Any:
    """Equal-length columns as one packed table: ``{"n": rows, name: column, ...}``.

    ``kinds`` holds one letter per column: ``"s"`` for a string column
    (:func:`col_str`), ``"n"`` for a numeric one (:func:`col_num`).
    ``names`` holds the key each column is stored under.  When a column
    will not pack, the table is written as its rows instead, and a
    one-column table as a flat list.
    """
    table: Dict[str, Any] = {"n": len(columns[0])}
    for column, kind, name in zip(columns, kinds, names):
        packed = col_str(column, sep) if kind == "s" else col_num(column, sep)
        if packed is None:
            if len(columns) == 1:
                return list(column)
            return [list(row) for row in zip(*columns)]
        table[name] = packed
    return table


def unpack_table(value: Any, kinds: str, names: Sequence[str], sep: str = TAB) -> List[Any]:
    """The columns of a :func:`pack_table` table, from either shape.

    String columns come back as lists and numeric ones as lazy iterators
    (see :func:`split_num`), so the caller zips each column once.
    """
    if isinstance(value, dict):
        count = value["n"]
        return [
            split_str(value[name], count, sep) if kind == "s" else split_num(value[name], count, sep)
            for kind, name in zip(kinds, names)
        ]
    if len(names) == 1:
        return [list(value)]
    if any(len(row) != len(names) for row in value):
        raise CorruptionError(f"table rows do not hold {len(names)} fields each")
    return [list(column) for column in zip(*value)] if value else [[] for _ in names]


def pack_groups(
    mapping: Any,
    value_text: Callable[[Any], str],
    key_columns: Callable[[List[Any]], List[List[Any]]],
    sep: str = TAB,
) -> Optional[List[List[Any]]]:
    """A ``{key: value}`` map as ``[value_text, count, *key_columns]`` groups.

    Keys are grouped by ``value_text(value)`` in first-seen order, and
    ``key_columns(keys)`` splits one group's keys into string columns.
    ``None`` when a key column will not pack.
    """
    grouped: Dict[str, List[Any]] = {}
    for key, value in mapping.items():
        grouped.setdefault(value_text(value), []).append(key)
    groups = []
    for text, keys in grouped.items():
        columns = [col_str(column, sep) for column in key_columns(keys)]
        if None in columns:
            return None
        groups.append([text, len(keys), *columns])
    return groups


def unpack_groups(
    groups: List[List[Any]],
    by_value: Dict[str, Any],
    keys_of: Callable[[List[List[Any]]], Any],
    known_keys: Optional[Any] = None,
    sep: str = TAB,
) -> Dict[Any, Any]:
    """A ``{key: value}`` table from its :func:`pack_groups` groups.

    ``by_value`` maps each group's text to its value, and ``keys_of``
    makes one group's keys from its decoded columns.  ``known_keys`` (the
    graph's own node or edge dict, proven by the caller to hold exactly
    the table's keys) spares decoding the largest group: the table starts
    as ``dict.fromkeys(known_keys, value)`` — in graph order, sharing the
    graph's key objects — and only the other groups are decoded and
    written over it (``dict.update`` keeps the existing key objects).  The
    group counts must add up and every decoded key must already be known,
    or the table is corrupt.
    """
    table: Dict[Any, Any] = {}
    if known_keys is not None and groups:
        largest = max(groups, key=lambda group: group[1])
        if sum(group[1] for group in groups) != len(known_keys):
            raise CorruptionError("table groups do not cover the graph")
        table = dict.fromkeys(known_keys, by_value[largest[0]])
        groups = [group for group in groups if group is not largest]
    for group in groups:
        columns = [split_str(column, group[1], sep) for column in group[2:]]
        table.update(dict.fromkeys(keys_of(columns), by_value[group[0]]))
    if known_keys is not None and len(table) != len(known_keys):
        raise CorruptionError("table names a key the graph does not have")
    return table


def pack_pair_table(pairs: Iterable[Any]) -> Any:
    """``(a, b)`` pairs as an account-metadata table (see :func:`pack_table`)."""
    rows = list(pairs)
    return pack_table([[row[0] for row in rows], [row[1] for row in rows]], "ss", "ab")


def unpack_pair_table(value: Any) -> Iterator[tuple]:
    """The pairs of a :func:`pack_pair_table` table, as 2-tuples."""
    return zip(*unpack_table(value, "ss", "ab"))


def pack_id_list(values: Iterable[Any]) -> Any:
    """Node ids as an account-metadata table (see :func:`pack_table`)."""
    return pack_table([list(values)], "s", "t")


def unpack_id_list(value: Any) -> List[Any]:
    """The ids of a :func:`pack_id_list` table."""
    return unpack_table(value, "s", "t")[0]
