"""Wire format for replicated :class:`~repro.graph.deltas.GraphDelta` records.

A leader's :class:`~repro.replication.log.ReplicationPublisher` serialises
every delta it journals into one JSON document per log row; a follower's
:class:`~repro.replication.replica.ReplicaService` decodes the row and
replays it through the ordinary :class:`~repro.graph.model.PropertyGraph`
mutators.  The format therefore only has to round-trip *exactly* — byte
equality of the replayed graph is what the differential suite pins.  The
one genuinely row-shaped payload, the incident-edge table a
``REMOVE_NODE`` carries, goes through the table codec that checkpoints
and account metadata use (:func:`repro.codec.pack_table`): four
TAB-separated string columns next to a row count.

Supported value domain
----------------------
Node ids, kinds, labels and feature values must survive a JSON round trip
unchanged (strings, ints, floats, bools, ``None``, and lists/dicts of
those).  Every encoder *verifies* the round trip and raises
:class:`UnsupportedDeltaError` on anything exotic (tuple ids, object
features) instead of silently shipping a lossy record — the publisher
treats that as a gap in the log, and followers fall back to a fresh seed.

The version vector
------------------
Replication progress is a *vector*: one monotone sequence number per
replicated graph name.  :func:`encode_vector` renders it canonically
(sorted keys, no whitespace) so it can ride in an HTTP header
(``X-Repro-Vector``) and compare byte-wise when equal.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.codec import pack_table, unpack_table
from repro.exceptions import CorruptionError
from repro.graph.deltas import DeltaKind, GraphDelta
from repro.graph.model import Edge, Node

#: Name of the HTTP header carrying an encoded version vector.
VECTOR_HEADER = "X-Repro-Vector"

#: Wire-format version stamped on every record (bump on incompatible change).
WIRE_VERSION = 1


class UnsupportedDeltaError(ValueError):
    """The delta holds values the JSON wire format cannot round-trip."""


# --------------------------------------------------------------------------- #
# scalar round-trip guards
# --------------------------------------------------------------------------- #
def _check_roundtrip(value: Any, what: str) -> Any:
    """JSON-encode ``value`` and prove decoding gives it back *exactly*."""
    try:
        text = json.dumps(value, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise UnsupportedDeltaError(f"{what} is not JSON-serialisable: {value!r}") from exc
    decoded = json.loads(text)
    if decoded != value or type(decoded) is not type(value):
        raise UnsupportedDeltaError(
            f"{what} does not survive a JSON round trip: {value!r} -> {decoded!r}"
        )
    return value


def encode_id(node_id: Any) -> str:
    """A node id as canonical JSON text (verified to round-trip)."""
    _check_roundtrip(node_id, "node id")
    return json.dumps(node_id, separators=(",", ":"), allow_nan=False)


def decode_id(text: str) -> Any:
    return json.loads(text)


def _encode_features(features: Mapping[str, Any], what: str) -> Dict[str, Any]:
    return dict(_check_roundtrip(dict(features), what))


# --------------------------------------------------------------------------- #
# node / edge payloads
# --------------------------------------------------------------------------- #
def _node_payload(node: Node) -> Dict[str, Any]:
    return {
        "i": encode_id(node.node_id),
        "k": _check_roundtrip(node.kind, "node kind"),
        "f": _encode_features(node.features, "node features"),
    }


def _node_from(payload: Mapping[str, Any]) -> Node:
    return Node(
        node_id=decode_id(payload["i"]),
        kind=payload["k"],
        features=dict(payload["f"]),
    )


def _edge_payload(edge: Edge) -> Dict[str, Any]:
    return {
        "s": encode_id(edge.source),
        "t": encode_id(edge.target),
        "l": _check_roundtrip(edge.label, "edge label"),
        "f": _encode_features(edge.features, "edge features"),
    }


def _edge_from(payload: Mapping[str, Any]) -> Edge:
    return Edge(
        source=decode_id(payload["s"]),
        target=decode_id(payload["t"]),
        label=payload["l"],
        features=dict(payload["f"]),
    )


# --------------------------------------------------------------------------- #
# removed-edge tables (the table codec of repro.codec)
# --------------------------------------------------------------------------- #
def _pack_removed_edges(edges: Tuple[Edge, ...]) -> Optional[Dict[str, Any]]:
    """The ``REMOVE_NODE`` incident-edge table as four packed string columns.

    Ids are encoded to JSON text and features to compact JSON, so only the
    labels column can fail to pack (its ``None`` sentinel covers a missing
    label); a label of any other type raises :class:`UnsupportedDeltaError`.
    """
    if not edges:
        return None
    columns = [
        [encode_id(edge.source) for edge in edges],
        [encode_id(edge.target) for edge in edges],
        [_check_roundtrip(edge.label, "edge label") for edge in edges],
        [
            json.dumps(
                _encode_features(edge.features, "edge features"),
                separators=(",", ":"),
                sort_keys=True,
                allow_nan=False,
            )
            for edge in edges
        ],
    ]
    table = pack_table(columns, "ssss", "stlf")
    if not isinstance(table, dict):
        raise UnsupportedDeltaError("removed-edge table holds non-string labels")
    return table


def _unpack_removed_edges(table: Optional[Mapping[str, Any]]) -> Tuple[Edge, ...]:
    if not table:
        return ()
    sources, targets, labels, feats = unpack_table(table, "ssss", "stlf")
    edges = []
    for src, dst, label, feat in zip(sources, targets, labels, feats):
        if src is None or dst is None or feat is None:
            raise CorruptionError("removed-edge table lost an id or feature column")
        edges.append(
            Edge(
                source=decode_id(src),
                target=decode_id(dst),
                label=label,
                features=dict(json.loads(feat)),
            )
        )
    return tuple(edges)


# --------------------------------------------------------------------------- #
# delta records
# --------------------------------------------------------------------------- #
def delta_to_record(delta: GraphDelta) -> Dict[str, Any]:
    """One delta as a JSON-ready dict (recursing through batches)."""
    record: Dict[str, Any] = {
        "k": delta.kind.value,
        "pre": delta.pre_version,
        "post": delta.post_version,
    }
    if delta.node is not None:
        record["n"] = _node_payload(delta.node)
    if delta.old_node is not None:
        record["on"] = _node_payload(delta.old_node)
    if delta.edge is not None:
        record["e"] = _edge_payload(delta.edge)
    if delta.old_edge is not None:
        record["oe"] = _edge_payload(delta.old_edge)
    removed = _pack_removed_edges(delta.removed_edges)
    if removed is not None:
        record["re"] = removed
    if delta.kind is DeltaKind.BATCH:
        record["b"] = [delta_to_record(sub) for sub in delta.deltas]
    return record


def record_to_delta(record: Mapping[str, Any]) -> GraphDelta:
    """The inverse of :func:`delta_to_record`."""
    try:
        kind = DeltaKind(record["k"])
    except (KeyError, ValueError) as exc:
        raise CorruptionError(f"malformed delta record: {exc}") from exc
    return GraphDelta(
        kind=kind,
        pre_version=record["pre"],
        post_version=record["post"],
        node=_node_from(record["n"]) if "n" in record else None,
        old_node=_node_from(record["on"]) if "on" in record else None,
        edge=_edge_from(record["e"]) if "e" in record else None,
        old_edge=_edge_from(record["oe"]) if "oe" in record else None,
        removed_edges=_unpack_removed_edges(record.get("re")),
        deltas=tuple(record_to_delta(sub) for sub in record.get("b", ())),
    )


def dumps_delta(delta: GraphDelta) -> str:
    """One delta as compact JSON text (the delta-log row payload)."""
    envelope = {"v": WIRE_VERSION, "d": delta_to_record(delta)}
    return json.dumps(envelope, separators=(",", ":"), sort_keys=True, allow_nan=False)


def loads_delta(text: str) -> GraphDelta:
    try:
        envelope = json.loads(text)
    except ValueError as exc:
        raise CorruptionError(f"delta-log payload is not JSON: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("v") != WIRE_VERSION:
        raise CorruptionError(
            f"unsupported delta wire version: {envelope.get('v') if isinstance(envelope, dict) else envelope!r}"
        )
    return record_to_delta(envelope["d"])


# --------------------------------------------------------------------------- #
# version vectors
# --------------------------------------------------------------------------- #
def encode_vector(vector: Mapping[str, int]) -> str:
    """A ``{graph: seq}`` vector as canonical JSON (header-safe)."""
    return json.dumps(
        {str(name): int(seq) for name, seq in vector.items()},
        separators=(",", ":"),
        sort_keys=True,
    )


def decode_vector(text: str) -> Dict[str, int]:
    """Parse a vector; raises ``ValueError`` on anything malformed."""
    value = json.loads(text)
    if not isinstance(value, dict):
        raise ValueError(f"version vector must be a JSON object, got {value!r}")
    out: Dict[str, int] = {}
    for name, seq in value.items():
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            raise ValueError(f"vector entry {name!r} has non-sequence value {seq!r}")
        out[str(name)] = seq
    return out


def vector_covers(have: Mapping[str, int], want: Mapping[str, int]) -> bool:
    """True when ``have`` is at least as advanced as ``want`` on every graph."""
    return all(have.get(name, -1) >= seq for name, seq in want.items())
