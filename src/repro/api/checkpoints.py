"""Warm-restart checkpoints: compiled state persisted, delta catch-up on reopen.

A cold :class:`~repro.api.service.ProtectionService` start against an 8k-node
graph pays the whole pipeline again — compile the marking view, walk the
visible sets, generate the account, run the adversary simulation, score.  A
*checkpoint* freezes the expensive results next to the store:

* the :class:`~repro.core.markings.CompiledMarkingView` tables (node default
  markings, incidence overrides, per-edge states),
* the :class:`~repro.core.opacity.CompiledOpacityView` vectors (with the
  exact-Fraction totals, so a restored view is bit-identical to the one that
  scored the checkpointed result),
* the protected account — stored as a *structural diff against the original
  graph* (dropped edges/nodes, surrogate additions, feature changes), so
  restoring it is O(Δ) graph patching instead of O(V+E) JSON rebuild,
* the full :class:`~repro.api.results.ScoreCard`, and
* enough of the originating request to re-seed the
  :class:`~repro.api.cache.AccountCache` (the first ``protect()`` after a
  warm restart is a cache hit).

Every checkpoint is stamped with the store's write-log sequence number,
which is all a restore needs to tell what changed since: catch-up reads
the store's write log, never an in-memory delta record.  On
:func:`restore_service`, three paths:

**warm**
    The write log shows nothing happened since the stamp: every piece is
    restored and the caches seeded.
**catch-up**
    The log holds a *complete* tail after the stamp
    (:attr:`~repro.store.sqlite.wal.SQLiteWriteLog.base_seq` proves no truncation
    gap): the marking view is restored at checkpoint state and patched
    through the tail records — O(affected), the same primitives the
    delta-maintenance layer uses — while the account and scores (stale by
    definition) are left for regeneration against the warm view.
**cold**
    No checkpoint, a CRC/format failure (the file is quarantined aside,
    never deleted), a policy/adversary mismatch, or a truncation gap: the
    service recompiles from scratch.  Corruption degrades to a recompile,
    never to an error or — worse — to silently wrong state.

The payload is a CRC-guarded two-line text file — a JSON header line
(format version + CRC32 of the body) followed by one JSON body — written
through the store's :class:`~repro.store.io.StorageIO` seam (atomic temp +
fsync + rename), so the fault-injection suite covers checkpoint writes like
any other store write.  Restore speed is the whole point of a checkpoint,
so the bulky per-node/per-edge tables inside the body are *packed*: fields
joined with ``|`` (:data:`repro.codec.JSON_SEP`, which JSON leaves
unescaped) inside one JSON string.  A JSON parser flies through one long
string where it would crawl through 100k tokens, and ``str.split``
recovers the rows at C speed.  Tables whose fields are not strings
(exotic node ids) fall back to plain JSON rows, transparently to the
reader.

A warm restore also avoids decoding what it already holds.  Tables keyed
by every node or edge of a graph it has (marking-view defaults and edge
states, path percentages, opacity weights, per-edge opacity over the
dropped edges) are written as value groups and rebuilt from the graph's
own keys, decoding only the small groups; the account's surrogate-edge
set and identity correspondence are named, not repeated, and rebuilt from
the account graph.
"""

from __future__ import annotations

import gc
import json
import weakref
import zlib
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.api.persistence import account_from_metadata, account_metadata_to_dict
from repro.codec import (
    JSON_SEP,
    col_str,
    escape_field,
    pack_groups,
    pack_table,
    split_str,
    unpack_groups,
    unpack_table,
)
from repro.api.requests import ProtectionRequest
from repro.api.results import ProtectionResult, ScoreCard
from repro.core.markings import CompiledMarkingView, EdgeState, Marking
from repro.core.opacity import (
    DEFAULT_ADVERSARY,
    CompiledOpacityView,
    OpacityReport,
    adversary_fingerprint,
)
from repro.core.utility import UtilityReport
from repro.exceptions import CorruptionError, GraphError, ProtectionError, StoreError
from repro.graph.deltas import record_maintenance
from repro.graph.model import PropertyGraph, _edges_from_columns, _node
from repro.graph.serialization import graph_from_json, graph_to_json
from repro.store.sqlite.wal import LogRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.api.service import ProtectionService
    from repro.store.engine import GraphStore

#: Version stamp of the checkpoint payload layout.
CHECKPOINT_FORMAT_VERSION = 3

#: Suffix of checkpoint files inside the store directory.
CHECKPOINT_SUFFIX = ".checkpoint.json"


@dataclass
class RestoreReport:
    """What :func:`restore_service` managed to bring back.

    ``mode`` is ``"warm"`` (everything restored, caches seeded),
    ``"catchup"`` (marking view restored and patched through the write-log
    tail; account/scores left for regeneration) or ``"cold"`` (nothing
    usable — ``reason`` says why).
    """

    mode: str = "cold"
    reason: str = ""
    view_restored: bool = False
    account_restored: bool = False
    scores_restored: bool = False
    cache_seeded: bool = False
    opacity_view_restored: bool = False
    wal_tail_applied: int = 0
    quarantined: Optional[str] = None
    #: The restored account (warm mode), for callers that want it directly.
    account: Optional[object] = field(default=None, repr=False, compare=False)
    scores: Optional[ScoreCard] = field(default=None, repr=False, compare=False)

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-friendly summary (embedded in ``service.health()``)."""
        return {
            "mode": self.mode,
            "reason": self.reason,
            "view_restored": self.view_restored,
            "account_restored": self.account_restored,
            "scores_restored": self.scores_restored,
            "cache_seeded": self.cache_seeded,
            "opacity_view_restored": self.opacity_view_restored,
            "wal_tail_applied": self.wal_tail_applied,
            "quarantined": self.quarantined,
        }


# --------------------------------------------------------------------------- #
# paths and framing
# --------------------------------------------------------------------------- #
def checkpoint_path(store: "GraphStore", name: str) -> Path:
    """Where the named checkpoint lives inside the store directory."""
    directory = store.storage.directory
    if directory is None:
        raise StoreError("service checkpoints need a durable (directory-backed) store")
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)
    return directory / f"{safe}{CHECKPOINT_SUFFIX}"


def _wrap(payload: Dict[str, Any]) -> str:
    """Frame a payload: one JSON header line, then the CRC-guarded JSON body."""
    body = json.dumps(payload, sort_keys=True, default=str)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    header = json.dumps(
        {"format_version": CHECKPOINT_FORMAT_VERSION, "crc32": f"{crc:08x}"},
        sort_keys=True,
    )
    return header + "\n" + body


def _unwrap(data: bytes) -> Dict[str, Any]:
    """Parse a framed checkpoint; raises :class:`CorruptionError` on damage.

    The header and body are parsed separately (the body is never re-encoded
    inside a JSON string), so the big payload is tokenised exactly once, and
    the CRC runs over the bytes as read — no decode/re-encode round trip.
    """
    header_text, sep, body = data.partition(b"\n")
    if not sep:
        raise CorruptionError("checkpoint is missing its header line")
    try:
        header = json.loads(header_text)
    except json.JSONDecodeError as exc:
        raise CorruptionError(f"checkpoint header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or "crc32" not in header:
        raise CorruptionError("checkpoint header is missing its CRC")
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CorruptionError(
            f"unsupported checkpoint format {header.get('format_version')!r}"
        )
    crc = zlib.crc32(body) & 0xFFFFFFFF
    if f"{crc:08x}" != header["crc32"]:
        raise CorruptionError("checkpoint failed its CRC check")
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        raise CorruptionError(f"checkpoint body is not valid JSON: {exc}") from exc


# --------------------------------------------------------------------------- #
# packed tables
# --------------------------------------------------------------------------- #
# The per-node and per-edge tables dominate a checkpoint (a 2 MB payload
# at 8k nodes).  Serialised as JSON rows they cost hundreds of thousands of
# parser tokens *and* a Python-level loop per row on restore; they go
# through the table codec of :mod:`repro.codec` instead.  The body is JSON,
# so its columns are separated by ``JSON_SEP``, which the JSON parser reads
# without an escape per field.
class _Keys(NamedTuple):
    """How the keys of a keyed table split into string columns, and back.

    ``names`` holds the key of each column in a plain table.
    """

    names: str
    columns: Callable[[List[Any]], List[List[Any]]]
    join: Callable[[List[List[Any]]], Any]


_NODE_KEYS = _Keys("k", lambda keys: [keys], lambda columns: columns[0])
_EDGE_KEYS = _Keys(
    "st",
    lambda keys: [[key[0] for key in keys], [key[1] for key in keys]],
    lambda columns: zip(columns[0], columns[1]),
)
#: ``(node, (source, target))`` incidence keys; grouped or raw rows only.
_OVERRIDE_KEYS = _Keys(
    "nst",
    lambda keys: [
        [key[0] for key in keys],
        [key[1][0] for key in keys],
        [key[1][1] for key in keys],
    ],
    lambda columns: zip(columns[0], zip(columns[1], columns[2])),
)


def _pack_keyed(mapping: Any, keys: _Keys, values: List[Any], value_kind: str) -> Any:
    """A keyed map as one plain table: its key columns, then ``values``."""
    columns = [*keys.columns(list(mapping)), values]
    return pack_table(columns, "s" * len(keys.names) + value_kind, keys.names + "v", JSON_SEP)


def _unpack_keyed(value: Any, keys: _Keys, value_kind: str) -> Tuple[Any, Any]:
    """The keys and the values of a :func:`_pack_keyed` table."""
    kinds = "s" * len(keys.names) + value_kind
    *key_columns, values = unpack_table(value, kinds, keys.names + "v", JSON_SEP)
    return keys.join(key_columns), values


def _pack_enum_map(mapping: Any, keys: _Keys) -> Any:
    """A ``{key: Enum}`` mapping, grouped by enum value (few distinct values).

    Keys that will not pack (exotic ids) leave the whole map as raw rows.
    """
    groups = pack_groups(mapping, attrgetter("value"), keys.columns, JSON_SEP)
    if groups is not None:
        return {"groups": groups}
    return _pack_keyed(mapping, keys, [member.value for member in mapping.values()], "s")


def _unpack_enum_map(
    value: Any, by_value: Dict[Any, Any], keys: _Keys, known_keys: Optional[Any] = None
) -> Dict[Any, Any]:
    """Decode a grouped enum map; ``known_keys`` names its exact key set."""
    if isinstance(value, dict):
        return unpack_groups(value["groups"], by_value, keys.join, known_keys, JSON_SEP)
    key_objects, values = _unpack_keyed(value, keys, "s")
    return dict(zip(key_objects, map(by_value.__getitem__, values)))


def _pack_number_map(mapping: Any, known: Optional[Any], keys: _Keys) -> Any:
    """A ``{key: number}`` map; grouped by value when its keys are ``known``.

    Score and opacity maps hold a handful of distinct values over every
    node (or every dropped edge).  When the map's keys are exactly
    ``known`` — keys a restore already holds — in the same order, it is
    written as value groups (each value as its exact ``repr``), and
    :func:`_unpack_number_map` given the same keys decodes only the small
    groups (see :func:`repro.codec.unpack_groups`).  Otherwise, plain
    columns.
    """
    values = list(mapping.values())
    if (
        known is not None
        and len(mapping) == len(known)
        and all(key == known_key for key, known_key in zip(mapping, known))
    ):
        if all(type(value) is float for value in values):
            tag = "f"
        elif all(type(value) is int for value in values):
            tag = "i"
        else:
            tag = None
        groups = pack_groups(mapping, repr, keys.columns, JSON_SEP) if tag else None
        if groups is not None:
            return {"ty": tag, "groups": groups}
    return _pack_keyed(mapping, keys, values, "n")


def _unpack_number_map(value: Any, known: Optional[Any], keys: _Keys) -> Dict[Any, Any]:
    """Decode :func:`_pack_number_map` output; ``known`` as given to it."""
    if isinstance(value, list) or "groups" not in value:
        return dict(zip(*_unpack_keyed(value, keys, "n")))
    convert = int if value["ty"] == "i" else float
    by_value = {group[0]: convert(group[0]) for group in value["groups"]}
    return unpack_groups(value["groups"], by_value, keys.join, known, JSON_SEP)


def _encode_features(features: Dict[str, Any]) -> str:
    return (
        ""
        if not features
        else json.dumps(features, separators=(",", ":"), sort_keys=True, default=str)
    )


def _pack_entities(rows: List[List[Any]]) -> Any:
    """Entity rows (head string fields + a trailing features dict), columnar.

    A head column whose rows all hold one value (every surrogate edge's
    label) is stored once, as ``[value]``; a features column of empty
    dicts only is stored as ``None``.
    """
    head_cols: List[Any] = []
    for col in zip(*[row[:-1] for row in rows]):
        if len(set(col)) == 1 and (col[0] is None or isinstance(col[0], str)):
            head_cols.append([col[0]])
            continue
        head_cols.append(col_str(list(col), JSON_SEP))
        if head_cols[-1] is None:
            return rows
    features_col = None
    if any(row[-1] for row in rows):
        features_col = JSON_SEP.join(
            escape_field(_encode_features(row[-1]), JSON_SEP) for row in rows
        )
    return {"n": len(rows), "cols": head_cols, "f": features_col}


def _constant_column(col: Any, count: int) -> List[Any]:
    if not isinstance(col, list) or len(col) != 1:
        raise CorruptionError(f"entity column {col!r} is neither packed nor constant")
    return col * count


def _entity_columns(value: Any, width: int) -> List[List[Any]]:
    """``width`` head columns plus the decoded features column."""
    if isinstance(value, list):
        if not value:
            return [[] for _ in range(width + 1)]
        return [list(col) for col in zip(*value)]
    count = value["n"]
    if count == 0:
        return [[] for _ in range(width + 1)]
    cols = [
        split_str(col, count, JSON_SEP)
        if isinstance(col, str)
        else _constant_column(col, count)
        for col in value["cols"]
    ]
    if len(cols) != width:
        raise CorruptionError(
            f"entity table holds {len(cols)} columns where {width} were expected"
        )
    if value["f"] is None:
        features = [{} for _ in range(count)]
    else:
        features = [
            json.loads(text) if text else {} for text in split_str(value["f"], count, JSON_SEP)
        ]
    return [*cols, features]


#: Enum members by value, so hot decode loops skip the Enum ``__call__``.
_MARKING_BY_VALUE = {marking.value: marking for marking in Marking}
_EDGE_STATE_BY_VALUE = {state.value: state for state in EdgeState}


def _adversary_crc(adversary: object) -> str:
    """A cross-process identity for an attacker model (repr of its fingerprint)."""
    effective = adversary if adversary is not None else DEFAULT_ADVERSARY
    return f"{zlib.crc32(repr(adversary_fingerprint(effective)).encode('utf-8')) & 0xFFFFFFFF:08x}"


def _policy_crc(policy: object) -> str:
    """A cross-process fingerprint of a release policy's protection-relevant state.

    Covers the lattice's privilege names, the default protected marking, the
    ``lowest()`` assignments and every explicit incidence marking — i.e.
    everything a :class:`~repro.core.markings.CompiledMarkingView` depends
    on.  Version counters are process-local, so content is hashed instead.
    """
    markings = getattr(policy, "markings", policy)
    lattice = markings.lattice
    # The explicit table can run to thousands of incidences, so it is folded
    # with an order-independent sum of per-item CRCs — and ``MarkingPolicy``
    # / ``ReleasePolicy`` maintain those sums incrementally as mutations
    # land, so checkpoint and restore read them in O(1).  The fallback folds
    # cover policy-like objects that do not maintain them; both paths hash
    # identical item strings, so they agree on identical content.
    crc32 = zlib.crc32
    explicit_sum = getattr(markings, "_explicit_crc", None)
    if explicit_sum is None:
        explicit_sum = 0
        for key, marking in markings.explicit_incidences():
            item = f"{key!r}\x1f{marking.value}"
            explicit_sum = (explicit_sum + crc32(item.encode("utf-8"))) & 0xFFFFFFFF
    lowest_sum = getattr(policy, "_lowest_crc", None)
    if lowest_sum is None:
        lowest_sum = 0
        for node, privilege in getattr(policy, "_lowest", {}).items():
            item = f"{node!r}\x1f{getattr(privilege, 'name', str(privilege))}"
            lowest_sum = (lowest_sum + crc32(item.encode("utf-8"))) & 0xFFFFFFFF
    default_lowest = getattr(policy, "default_lowest", None)
    canonical = json.dumps(
        {
            "privileges": sorted(p.name for p in lattice.privileges()),
            "default_protected_marking": markings.default_protected_marking.value,
            "default_lowest": getattr(default_lowest, "name", None),
            "lowest_sum": lowest_sum,
            "explicit_sum": explicit_sum,
        },
        sort_keys=True,
    )
    return f"{crc32(canonical.encode('utf-8')) & 0xFFFFFFFF:08x}"


# --------------------------------------------------------------------------- #
# compiled-view serialisation
# --------------------------------------------------------------------------- #
def _marking_view_to_dict(view: CompiledMarkingView) -> Dict[str, Any]:
    """Serialise a compiled marking view's three tables (packed when possible)."""
    return {
        "privilege": view.privilege.name,
        "node_default": _pack_enum_map(view.node_default, _NODE_KEYS),
        "overrides": _pack_enum_map(view._overrides, _OVERRIDE_KEYS),
        "edge_states": _pack_enum_map(view.edge_state_table, _EDGE_KEYS),
    }


def _marking_view_from_dict(
    payload: Dict[str, Any],
    graph: PropertyGraph,
    policy: object,
    privilege: object,
    *,
    graph_unchanged: bool = False,
) -> CompiledMarkingView:
    """Rebuild a compiled marking view from its serialised tables.

    The view is constructed without the O(V+E) compile pass — slots are
    filled straight from the payload — and stamped *current* for ``graph``
    and ``policy``; the caller is responsible for having proven that the
    tables actually describe the graph's present (warm path) or for patching
    them forward (catch-up path) before handing the view out.  On the warm
    path (``graph_unchanged``) the node and edge tables are keyed by the
    graph's own ids and edge keys rather than decoded copies.
    """
    markings = getattr(policy, "markings", policy)
    view = CompiledMarkingView.__new__(CompiledMarkingView)
    view._graph_ref = weakref.ref(graph)
    view.privilege = privilege
    view.graph_version = graph.version
    view.policy_version = markings.version
    view._policy = markings
    view.node_default = _unpack_enum_map(
        payload["node_default"],
        _MARKING_BY_VALUE,
        _NODE_KEYS,
        graph._nodes if graph_unchanged else None,
    )
    view._overrides = _unpack_enum_map(payload["overrides"], _MARKING_BY_VALUE, _OVERRIDE_KEYS)
    view.edge_state_table = _unpack_enum_map(
        payload["edge_states"],
        _EDGE_STATE_BY_VALUE,
        _EDGE_KEYS,
        graph._edges if graph_unchanged else None,
    )
    record_maintenance("marking_view", "restored")
    return view


def _opacity_view_to_dict(view: CompiledOpacityView, account_nodes: Any) -> Dict[str, Any]:
    """Serialise a compiled opacity view, exact-Fraction totals included.

    ``account_nodes`` (the account graph's node dict) lets the weight maps
    be written as value groups (see :func:`_pack_number_map`).
    """
    counts = view._inference_value_counts
    return {
        "node_count": view.node_count,
        "focus_weights": _pack_number_map(view.focus_weights, account_nodes, _NODE_KEYS),
        "inference_weights": _pack_number_map(view.inference_weights, account_nodes, _NODE_KEYS),
        "total_focus": view.total_focus,
        "total_inference": view.total_inference,
        "total_focus_exact": str(view._total_focus_exact),
        "total_inference_exact": str(view._total_inference_exact),
        "inference_value_counts": pack_table(
            [list(counts), list(counts.values())], "nn", "ab", JSON_SEP
        ),
    }


def _opacity_view_from_dict(
    payload: Dict[str, Any], account_graph: PropertyGraph, adversary: object
) -> CompiledOpacityView:
    """Rebuild a compiled opacity view bound to the restored account graph.

    Exact totals come back as :class:`~fractions.Fraction` values, so the
    restored view's arithmetic is bit-identical to the one checkpointed.
    """
    effective = adversary if adversary is not None else DEFAULT_ADVERSARY
    view = CompiledOpacityView(
        graph_version=account_graph.version,
        node_count=payload["node_count"],
        focus_weights=_unpack_number_map(
            payload["focus_weights"], account_graph._nodes, _NODE_KEYS
        ),
        inference_weights=_unpack_number_map(
            payload["inference_weights"], account_graph._nodes, _NODE_KEYS
        ),
        total_focus=payload["total_focus"],
        total_inference=payload["total_inference"],
        # The leave-one-out denominators are derived state: rebuilt from the
        # exact total and the weight-value multiset on first read (the same
        # stale-refresh path every patched copy uses), so the largest map
        # of the view is never persisted.
        guess_denominators={},
        _denominators_stale=True,
        adversary_key=adversary_fingerprint(effective),
        _graph_ref=weakref.ref(account_graph),
        _total_focus_exact=Fraction(payload["total_focus_exact"]),
        _total_inference_exact=Fraction(payload["total_inference_exact"]),
        _inference_value_counts=Counter(
            dict(zip(*unpack_table(payload["inference_value_counts"], "nn", "ab", JSON_SEP)))
        ),
    )
    record_maintenance("opacity_view", "restored")
    return view


# --------------------------------------------------------------------------- #
# account serialisation (diff against the original graph)
# --------------------------------------------------------------------------- #
def _graph_diff(base: PropertyGraph, target: PropertyGraph) -> Optional[Dict[str, Any]]:
    """``target`` as a structural diff against ``base`` (``None`` if unsupported).

    Unsupported means a node present in both graphs changed its ``kind`` —
    rebuilding that needs edge surgery the O(Δ) patcher doesn't attempt, so
    the caller falls back to a full graph serialisation.
    """
    removed_nodes: List[Any] = []
    changed_nodes: List[List[Any]] = []
    for node_id in base.node_ids():
        if not target.has_node(node_id):
            removed_nodes.append(node_id)
            continue
        old = base.node(node_id)
        new = target.node(node_id)
        if old.kind != new.kind:
            return None
        if dict(old.features) != dict(new.features):
            changed_nodes.append([node_id, dict(new.features)])
    added_nodes = []
    for node_id in target.node_ids():
        if not base.has_node(node_id):
            node = target.node(node_id)
            added_nodes.append([node.node_id, node.kind, dict(node.features)])
    base_edges = set(base.edge_keys())
    target_edges = set(target.edge_keys())
    removed_edges = [[s, t] for (s, t) in base.edge_keys() if (s, t) not in target_edges]
    added_edges = []
    changed_edges = []
    for key in target.edge_keys():
        edge = target.edge(*key)
        if key not in base_edges:
            added_edges.append([edge.source, edge.target, edge.label, dict(edge.features)])
        else:
            old = base.edge(*key)
            if old.label != edge.label or dict(old.features) != dict(edge.features):
                changed_edges.append(
                    [edge.source, edge.target, edge.label, dict(edge.features)]
                )
    return {
        "removed_edges": removed_edges,
        "removed_nodes": removed_nodes,
        "added_nodes": added_nodes,
        "added_edges": added_edges,
        "changed_nodes": changed_nodes,
        "changed_edges": changed_edges,
    }


def _encode_diff(diff: Dict[str, Any]) -> Dict[str, Any]:
    """Pack the diff's six row lists for the checkpoint body."""
    removed_edges = _EDGE_KEYS.columns(diff["removed_edges"])
    return {
        "removed_edges": pack_table(removed_edges, "ss", "st", JSON_SEP),
        "removed_nodes": pack_table([diff["removed_nodes"]], "s", "t", JSON_SEP),
        "added_nodes": _pack_entities(diff["added_nodes"]),
        "added_edges": _pack_entities(diff["added_edges"]),
        "changed_nodes": _pack_entities(diff["changed_nodes"]),
        "changed_edges": _pack_entities(diff["changed_edges"]),
    }


def _apply_graph_diff(
    base: PropertyGraph, diff: Dict[str, Any], name: Optional[str]
) -> Tuple[PropertyGraph, List[Tuple[Any, Any]], List[Tuple[Any, Any]]]:
    """Rebuild an account graph: clone ``base`` structurally, apply the diff.

    ``Node`` and ``Edge`` are immutable value objects, so the clone shares
    them with ``base`` and only copies the containers — and the diff is
    applied by direct container surgery rather than through the public
    mutators, which would re-normalise every feature dict and drive the
    delta machinery for a graph nothing is observing yet.  O(V+E) dict
    copies plus O(Δ) construction, with none of the per-call typing tax.
    Returns the graph and the key tuples of the added and of the removed
    edges, in diff order, which the caller can share rather than decode
    the same keys again.
    """
    (removed_nodes,) = unpack_table(diff["removed_nodes"], "s", "t", JSON_SEP)
    dropped = set(removed_nodes)
    rebuilt = PropertyGraph(name=name)
    nodes = rebuilt._nodes = dict(base._nodes)
    for node_id in removed_nodes:
        del nodes[node_id]
    edges = rebuilt._edges = dict(base._edges)
    # A dropped node's adjacency is neither copied nor patched.
    succ = rebuilt._succ = {
        node: adj.copy() for node, adj in base._succ.items() if node not in dropped
    }
    pred = rebuilt._pred = {
        node: adj.copy() for node, adj in base._pred.items() if node not in dropped
    }

    removed_keys = list(zip(*unpack_table(diff["removed_edges"], "ss", "st", JSON_SEP)))
    for key in removed_keys:
        del edges[key]
        source, target = key
        if source not in dropped:
            del succ[source][target]
        if target not in dropped:
            del pred[target][source]

    ids, kinds, features_col = _entity_columns(diff["added_nodes"], 2)
    nodes.update(zip(ids, map(_node, ids, kinds, features_col)))
    for node_id in ids:
        succ.setdefault(node_id, {})
        pred.setdefault(node_id, {})
    sources, targets, labels, features_col = _entity_columns(diff["added_edges"], 3)
    keys = list(zip(sources, targets))
    edges.update(zip(keys, _edges_from_columns(sources, targets, labels, features_col)))
    for source, target in keys:
        succ[source][target] = None
        pred[target][source] = None

    ids, features_col = _entity_columns(diff["changed_nodes"], 1)
    for node_id, features in zip(ids, features_col):
        nodes[node_id] = _node(node_id, nodes[node_id].kind, features)
    sources, targets, labels, features_col = _entity_columns(diff["changed_edges"], 3)
    edges.update(
        zip(zip(sources, targets), _edges_from_columns(sources, targets, labels, features_col))
    )
    return rebuilt, keys, removed_keys


# --------------------------------------------------------------------------- #
# account metadata inside a checkpoint
# --------------------------------------------------------------------------- #
#: Metadata values standing for tables the checkpoint already holds: the
#: surrogate edges are the edges the account diff adds, and the
#: correspondence maps every account node to itself, in node order.
_ADDED_EDGES = "added_edges"
_IDENTITY = "identity"


def _account_metadata(account: Any, diff: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The account's metadata, its two largest tables elided when redundant.

    The surrogate strategy keeps every node's id and adds exactly its
    surrogate edges, so both tables would repeat keys the account graph
    already holds.  Restore rebuilds them from the graph, sharing its id
    strings and key tuples instead of decoding copies.
    """
    metadata = account_metadata_to_dict(account)
    if diff is not None and account.surrogate_edges == {
        (row[0], row[1]) for row in diff["added_edges"]
    }:
        metadata["surrogate_edges"] = _ADDED_EDGES
    nodes = account.graph._nodes
    if len(account.correspondence) == len(nodes) and all(
        node == original == account_node
        for (node, original), account_node in zip(account.correspondence.items(), nodes)
    ):
        metadata["correspondence"] = _IDENTITY
    return metadata


def _account_from_checkpoint(
    account_graph: PropertyGraph,
    added_keys: Optional[List[Tuple[Any, Any]]],
    metadata: Dict[str, Any],
    lattice: object,
) -> Any:
    """The account back from its graph and :func:`_account_metadata` output."""
    surrogate_edges = None
    if metadata["surrogate_edges"] == _ADDED_EDGES:
        if added_keys is None:
            raise CorruptionError("surrogate edges refer to a diff the account lacks")
        surrogate_edges = set(added_keys)
    correspondence = None
    if metadata["correspondence"] == _IDENTITY:
        nodes = account_graph._nodes
        correspondence = dict(zip(nodes, nodes))
    return account_from_metadata(
        account_graph,
        metadata,
        lattice=lattice,
        correspondence=correspondence,
        surrogate_edges=surrogate_edges,
    )


# --------------------------------------------------------------------------- #
# scores serialisation
# --------------------------------------------------------------------------- #
def _scores_to_dict(
    scores: ScoreCard,
    graph_nodes: Any,
    removed_keys: Optional[List[Tuple[Any, Any]]],
) -> Dict[str, Any]:
    """Serialise a full ScoreCard (per-node and per-edge breakdowns included).

    ``graph_nodes`` (the protected graph's node dict) and ``removed_keys``
    (the edges the account diff drops, in diff order; ``None`` when the
    account is stored whole) let the per-node and per-edge maps be written
    as value groups (see :func:`_pack_number_map`).
    """
    return {
        "utility": {
            "path_utility": scores.utility.path_utility,
            "node_utility": scores.utility.node_utility,
            "path_percentages": _pack_number_map(
                scores.utility.path_percentages, graph_nodes, _NODE_KEYS
            ),
        },
        "opacity": {
            "average": scores.opacity.average,
            "per_edge": _pack_number_map(scores.opacity.per_edge, removed_keys, _EDGE_KEYS),
        },
        "timings_ms": dict(scores.timings_ms),
    }


def _scores_from_dict(
    payload: Dict[str, Any],
    opacity_view: Optional[CompiledOpacityView],
    graph_nodes: Any,
    removed_keys: Optional[List[Tuple[Any, Any]]],
) -> ScoreCard:
    """Rebuild a ScoreCard; ``opacity_view`` rides along for cached re-scores."""
    utility = UtilityReport(
        path_utility=payload["utility"]["path_utility"],
        node_utility=payload["utility"]["node_utility"],
        path_percentages=_unpack_number_map(
            payload["utility"]["path_percentages"], graph_nodes, _NODE_KEYS
        ),
    )
    opacity = OpacityReport(
        average=payload["opacity"]["average"],
        per_edge=_unpack_number_map(payload["opacity"]["per_edge"], removed_keys, _EDGE_KEYS),
        view=opacity_view,
    )
    return ScoreCard(utility=utility, opacity=opacity, timings_ms=payload.get("timings_ms", {}))


# --------------------------------------------------------------------------- #
# request serialisation (for account-cache re-seeding)
# --------------------------------------------------------------------------- #
_REQUEST_FIELDS = (
    "strategy",
    "include_surrogate_edges",
    "repair_connectivity",
    "name",
    "score",
    "normalize_focus",
    "compiled",
)


def _request_to_dict(request: ProtectionRequest) -> Optional[Dict[str, Any]]:
    """The cache-relevant request fields (``None`` when not reproducible).

    Requests carrying an adversary override, explicit scores, protected
    edges or a per-request graph are not checkpointed for cache seeding —
    their fingerprints cannot be reproduced from JSON alone.
    """
    if (
        request.adversary is not None
        or request.explicit_scores is not None
        or request.protect_edges
        or request.graph is not None
        or request.persist_as is not None
    ):
        return None
    payload = {name: getattr(request, name) for name in _REQUEST_FIELDS}
    payload["privileges"] = [
        getattr(p, "name", str(p)) for p in request.privileges
    ]
    payload["opacity_edges"] = (
        [[s, t] for (s, t) in request.opacity_edges]
        if request.opacity_edges is not None
        else None
    )
    return payload


def _request_from_dict(payload: Dict[str, Any], lattice: object) -> ProtectionRequest:
    """Rebuild a request with privileges resolved through the live lattice."""
    options = {name: payload[name] for name in _REQUEST_FIELDS}
    opacity_edges = payload.get("opacity_edges")
    if opacity_edges is not None:
        options["opacity_edges"] = tuple((s, t) for s, t in opacity_edges)
    privileges = tuple(lattice.get(name) for name in payload["privileges"])
    return ProtectionRequest(privileges=privileges, **options)


# --------------------------------------------------------------------------- #
# write
# --------------------------------------------------------------------------- #
def write_checkpoint(
    service: "ProtectionService",
    result: ProtectionResult,
    *,
    store: Optional["GraphStore"] = None,
    name: str = "service",
    graph_name: Optional[str] = None,
) -> Path:
    """Checkpoint one served result (account, scores, compiled views) to the store.

    The store is checkpointed first (snapshots + write-log truncation), so
    the stamp recorded here sits right at a truncation marker and the
    common restart — nothing happened since — takes the warm path.  Returns
    the checkpoint file's path.
    """
    store = store if store is not None else service.store
    if store is None:
        raise StoreError("service checkpoints need a store; pass store= or set one")
    if service.graph is None:
        raise StoreError("a multi-graph service cannot be checkpointed; bind a graph")
    path = checkpoint_path(store, name)
    graph = service.graph
    account = result.account

    store.checkpoint()

    view_payload: Optional[Dict[str, Any]] = None
    privileges = result.request.privileges
    if len(privileges) == 1 and not result.request.protect_edges:
        view = service.policy.markings.compile(graph, privileges[0])
        view_payload = _marking_view_to_dict(view)

    diff = _graph_diff(graph, account.graph)
    if diff is not None:
        account_payload: Dict[str, Any] = {"encoding": "diff", "diff": _encode_diff(diff)}
    else:
        account_payload = {"encoding": "full", "graph": graph_to_json(account.graph)}
    account_payload["name"] = account.graph.name
    account_payload["metadata"] = _account_metadata(account, diff)

    effective_adversary = (
        result.request.adversary if result.request.adversary is not None else service.adversary
    )
    opacity_payload: Optional[Dict[str, Any]] = None
    scores_payload: Optional[Dict[str, Any]] = None
    if result.scores is not None and result.request.explicit_scores is None:
        removed_keys = (
            None if diff is None else [(row[0], row[1]) for row in diff["removed_edges"]]
        )
        scores_payload = _scores_to_dict(result.scores, graph._nodes, removed_keys)
        view_obj = result.scores.opacity.view
        if view_obj is not None:
            opacity_payload = _opacity_view_to_dict(view_obj, account.graph._nodes)

    payload: Dict[str, Any] = {
        "graph_name": graph_name if graph_name is not None else graph.name,
        "node_count": len(graph.node_ids()),
        "edge_count": len(graph.edge_keys()),
        "wal_next_seq": store.storage.wal.next_seq,
        "tenant": service.tenant,
        "policy_crc": _policy_crc(service.policy),
        "adversary_crc": _adversary_crc(effective_adversary),
        "marking_view": view_payload,
        "account": account_payload,
        "scores": scores_payload,
        "opacity_view": opacity_payload,
        "request": _request_to_dict(result.request),
    }
    store.storage.io.atomic_write_text(path, _wrap(payload))
    return path


# --------------------------------------------------------------------------- #
# restore
# --------------------------------------------------------------------------- #
def restore_service(
    service: "ProtectionService",
    *,
    store: Optional["GraphStore"] = None,
    name: str = "service",
    graph_name: Optional[str] = None,
) -> RestoreReport:
    """Bring a freshly constructed service back to its checkpointed state.

    Call after binding the service to the graph recovered from ``store``.
    Never raises on a bad checkpoint: corruption quarantines the file and
    the report comes back ``cold`` — the service simply recompiles.
    """
    if not gc.isenabled():
        return _restore_service_inner(
            service, store=store, name=name, graph_name=graph_name
        )
    # A restore allocates a few hundred thousand objects in one burst, none
    # of them garbage; the cyclic collector would otherwise run several full
    # passes over the live heap mid-decode.  Pause it for the bounded
    # critical section — this alone shaves tens of milliseconds off a warm
    # restart at 8k nodes.
    gc.disable()
    try:
        return _restore_service_inner(
            service, store=store, name=name, graph_name=graph_name
        )
    finally:
        gc.enable()


def _restore_service_inner(
    service: "ProtectionService",
    *,
    store: Optional["GraphStore"],
    name: str,
    graph_name: Optional[str],
) -> RestoreReport:
    """The restore flow proper (see :func:`restore_service`)."""
    store = store if store is not None else service.store
    report = RestoreReport()
    if store is None or service.graph is None:
        report.reason = "no store or no bound graph"
        return report
    try:
        path = checkpoint_path(store, name)
    except StoreError:
        report.reason = "store is not durable"
        return report
    if not path.exists():
        report.reason = "no checkpoint"
        return report

    io = store.storage.io
    try:
        payload = _unwrap(io.read_bytes(path))
    except (CorruptionError, StoreError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError: bitrot can leave bytes that are not even text.
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            io.replace(path, quarantined)
            report.quarantined = str(quarantined)
        except StoreError:  # pragma: no cover - double-fault path
            pass
        record_maintenance("checkpoint", "quarantined")
        report.reason = f"checkpoint corrupt: {exc}"
        return report

    graph = service.graph
    expected_name = graph_name if graph_name is not None else graph.name
    if payload["graph_name"] != expected_name:
        report.reason = (
            f"checkpoint is for graph {payload['graph_name']!r}, not {expected_name!r}"
        )
        return report
    if payload["policy_crc"] != _policy_crc(service.policy):
        report.reason = "policy changed since checkpoint"
        return report

    wal = store.storage.wal
    stamp = payload["wal_next_seq"]
    if stamp > wal.next_seq:
        report.reason = "checkpoint is from the store's future (restored from backup?)"
        return report
    if stamp <= wal.base_seq:
        report.reason = "write-log range since checkpoint was truncated away"
        return report
    tail = [
        record
        for record in wal.records_since(stamp - 1)
        if record.graph == payload["graph_name"]
    ]
    if any(record.op == "drop_graph" for record in tail):
        report.reason = "graph was dropped and recreated since checkpoint"
        return report

    try:
        return _restore_from_payload(service, report, payload, graph, tail)
    except (
        CorruptionError,
        GraphError,
        ProtectionError,
        KeyError,
        ValueError,
        TypeError,
        IndexError,
    ) as exc:
        # The frame's CRC passed but the payload itself would not decode —
        # a format drift or an impossible shape (a malformed account graph
        # raises GraphError, an account whose correspondence does not cover
        # its graph ProtectionError).  Undo any half-restored view,
        # quarantine the file, and come back cold: never wrong.
        markings = service.policy.markings
        for key in [k for k in markings._compiled if k[0] == id(graph)]:
            del markings._compiled[key]
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            io.replace(path, quarantined)
        except StoreError:  # pragma: no cover - double-fault path
            pass
        record_maintenance("checkpoint", "quarantined")
        return RestoreReport(
            quarantined=str(quarantined),
            reason=f"checkpoint unreadable: {exc}",
        )


def _restore_from_payload(
    service: "ProtectionService",
    report: RestoreReport,
    payload: Dict[str, Any],
    graph: PropertyGraph,
    tail: List[LogRecord],
) -> RestoreReport:
    """Interpret a validated checkpoint payload into service state.

    Raises decoding errors upward; :func:`restore_service` converts them
    into a quarantine-and-cold outcome.
    """
    privilege = None
    view = None
    unchanged = (
        not tail
        and payload["node_count"] == len(graph._nodes)
        and payload["edge_count"] == len(graph._edges)
    )
    if payload["marking_view"] is not None:
        privilege = service.policy.lattice.get(payload["marking_view"]["privilege"])
        view = _marking_view_from_dict(
            payload["marking_view"],
            graph,
            service.policy,
            privilege,
            graph_unchanged=unchanged,
        )
        for record in tail:
            _patch_view_from_record(view, record)
        if len(view.node_default) != len(graph._nodes) or len(
            view.edge_state_table
        ) != len(graph._edges):
            # The tail didn't account for every mutation (e.g. the graph
            # was renamed in the store): the view cannot be trusted.
            record_maintenance("marking_view", "restore_rejected")
            view = None
        else:
            markings = service.policy.markings
            markings._compiled[(id(graph), privilege.name)] = view
            report.view_restored = True
            report.wal_tail_applied = len(tail)

    if tail:
        report.mode = "catchup" if report.view_restored else "cold"
        report.reason = "write-log tail after checkpoint; account and scores are stale"
        return report
    if not unchanged:
        report.mode = "catchup" if report.view_restored else "cold"
        report.reason = "graph shape does not match the checkpoint"
        return report

    account_payload = payload["account"]
    added_keys = removed_keys = None
    if account_payload["encoding"] == "diff":
        account_graph, added_keys, removed_keys = _apply_graph_diff(
            graph, account_payload["diff"], account_payload["name"]
        )
    else:
        account_graph = graph_from_json(account_payload["graph"])
    account = _account_from_checkpoint(
        account_graph, added_keys, account_payload["metadata"], service.policy.lattice
    )
    report.account_restored = True
    report.account = account
    record_maintenance("account_cache", "restored")

    adversary_ok = payload["adversary_crc"] == _adversary_crc(service.adversary)
    opacity_view = None
    if adversary_ok and payload["opacity_view"] is not None:
        opacity_view = _opacity_view_from_dict(
            payload["opacity_view"], account.graph, service.adversary
        )
        service._opacity_views.seed(
            account.graph,
            service.adversary if service.adversary is not None else DEFAULT_ADVERSARY,
            opacity_view,
        )
        report.opacity_view_restored = True

    scores = None
    if adversary_ok and payload["scores"] is not None:
        scores = _scores_from_dict(
            payload["scores"], opacity_view, graph._nodes, removed_keys
        )
        report.scores_restored = True
        report.scores = scores

    if payload["request"] is not None and scores is not None:
        request = _request_from_dict(payload["request"], service.policy.lattice)
        fingerprint = request.cache_fingerprint(adversary=service.adversary)
        if fingerprint is not None:
            memoised = ProtectionResult(
                request=request,
                account=account,
                scores=scores,
                timings_ms={},
                stored_as=None,
            )
            service.cache.store(
                service.tenant, graph, service.policy, fingerprint, memoised
            )
            report.cache_seeded = True

    report.mode = "warm"
    report.reason = "checkpoint restored" + (
        "" if adversary_ok else " (adversary changed; scores dropped)"
    )
    return report


# --------------------------------------------------------------------------- #
# write-log tail → marking-view patches (delta catch-up)
# --------------------------------------------------------------------------- #
def _patch_view_from_record(view: CompiledMarkingView, record: LogRecord) -> None:
    """Apply one write-log record's mutations to a restored marking view."""
    if record.op == "txn":
        for item in record.payload.get("operations", []):
            _patch_view_op(view, item["op"], item["payload"])
    else:
        _patch_view_op(view, record.op, record.payload)


def _patch_view_op(view: CompiledMarkingView, op: str, payload: Dict[str, Any]) -> None:
    """One write-log operation as an O(affected) marking-view patch.

    Mirrors :meth:`CompiledMarkingView.apply_delta`, but driven by the
    durable log instead of in-memory :class:`~repro.graph.deltas.GraphDelta`
    events — the restart-time equivalent of delta catch-up.
    """
    if op == "add_node":
        node_id = payload["id"]
        view.node_default[node_id] = view._default_for(node_id)
    elif op == "remove_node":
        node_id = payload["id"]
        for key in [
            key for key in view.edge_state_table if key[0] == node_id or key[1] == node_id
        ]:
            view._remove_edge_entry(key)
        view.node_default.pop(node_id, None)
    elif op == "add_edge":
        view._set_edge_entry((payload["source"], payload["target"]))
    elif op == "remove_edge":
        view._remove_edge_entry((payload["source"], payload["target"]))
    elif op == "set_node_features":
        pass  # markings are feature-blind (mirrors CompiledMarkingView._apply_one)
    # create_graph records and unknown ops carry no marking information.
