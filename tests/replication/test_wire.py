"""The delta wire format: exact round-trips and explicit refusals.

Every delta a follower replays travels as the JSON record defined in
``repro/replication/wire.py``.  Round-trip exactness is load-bearing: a
lossy encode would silently diverge a replica, so anything the format
cannot carry *must* raise :class:`UnsupportedDeltaError` (which the
publisher converts into a gap marker) rather than approximate.
"""

from __future__ import annotations

import pytest

from repro.graph.model import PropertyGraph
from repro.replication.wire import (
    UnsupportedDeltaError,
    decode_vector,
    delta_to_record,
    dumps_delta,
    encode_vector,
    loads_delta,
    record_to_delta,
    vector_covers,
)


def collect_deltas(build):
    """Run ``build(graph)`` with the delta log on; return emitted deltas."""
    graph = PropertyGraph(name="wire")
    graph.add_node("a", kind="entity", features={"x": 1})
    graph.add_node("b", kind="agent")
    graph.add_edge("a", "b", label="used", features={"w": 0.5})
    graph.enable_delta_log()
    version = graph.version
    build(graph)
    return graph.deltas_since(version)


#: One edit per single-delta kind, applied to :func:`collect_deltas`' graph.
DELTA_BUILDS = {
    "add_node": lambda g: g.add_node("c", kind="entity", features={"k": [1, 2], "s": "t"}),
    "replace_node": lambda g: g.add_node("a", kind="activity", replace=True),
    "remove_node": lambda g: g.remove_node("a"),
    "set_features": lambda g: g.set_node_features("b", {"role": "writer", "n": None}),
    "add_edge": lambda g: g.add_edge("b", "a", label="wasGeneratedBy"),
    "replace_edge": lambda g: g.add_edge("a", "b", label="swapped", replace=True),
    "remove_edge": lambda g: g.remove_edge("a", "b"),
}


@pytest.mark.parametrize("build", list(DELTA_BUILDS.values()), ids=list(DELTA_BUILDS))
def test_every_kind_round_trips_exactly(build):
    for delta in collect_deltas(build):
        assert record_to_delta(delta_to_record(delta)) == delta
        assert loads_delta(dumps_delta(delta)) == delta


def test_batch_round_trips_with_nested_removed_edges():
    def build(graph):
        with graph.batch():
            graph.add_node("c", kind="entity")
            graph.add_edge("c", "a", label="used")
            graph.remove_node("a")  # carries its incident edges

    (delta,) = collect_deltas(build)
    restored = loads_delta(dumps_delta(delta))
    assert restored == delta
    assert [sub.kind for sub in restored.deltas] == [sub.kind for sub in delta.deltas]


def test_remove_node_keeps_packed_incident_edges():
    def build(graph):
        graph.remove_node("a")

    (delta,) = collect_deltas(build)
    restored = loads_delta(dumps_delta(delta))
    assert restored.removed_edges == delta.removed_edges
    assert len(restored.removed_edges) == 1  # the a->b edge rode along


def test_unsupported_feature_values_are_refused_not_mangled():
    def build(graph):
        graph.set_node_features("a", {"obj": object()})

    (delta,) = collect_deltas(build)
    with pytest.raises(UnsupportedDeltaError):
        dumps_delta(delta)


def test_unsupported_node_ids_are_refused():
    def build(graph):
        graph.add_node(("tuple", "id"), kind="entity")

    (delta,) = collect_deltas(build)
    with pytest.raises(UnsupportedDeltaError):
        dumps_delta(delta)


def test_bad_envelopes_are_corruption_not_silence():
    from repro.exceptions import CorruptionError

    with pytest.raises(CorruptionError):
        loads_delta('{"v": 999, "d": {}}')
    with pytest.raises(CorruptionError):
        loads_delta("not json at all")


class TestVectors:
    def test_round_trip_is_canonical(self):
        vector = {"b": 2, "a": 10}
        encoded = encode_vector(vector)
        assert encoded == '{"a":10,"b":2}'  # sorted keys, compact
        assert decode_vector(encoded) == vector

    def test_rejects_non_integer_sequences(self):
        with pytest.raises(ValueError):
            decode_vector('{"g": "high"}')
        with pytest.raises(ValueError):
            decode_vector('{"g": -1}')
        with pytest.raises(ValueError):
            decode_vector("[1, 2]")

    def test_covers_is_pointwise(self):
        assert vector_covers({"g": 3}, {"g": 3})
        assert vector_covers({"g": 4, "h": 1}, {"g": 3})
        assert not vector_covers({"g": 2}, {"g": 3})
        assert not vector_covers({}, {"g": 1})
        assert vector_covers({}, {})
