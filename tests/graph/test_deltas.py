"""Tests for the typed graph-delta machinery (repro.graph.deltas)."""

import gc

import pytest

from repro.graph.deltas import DeltaBus, DeltaKind, GraphDelta, view_maintenance_stats
from repro.graph.model import DELTA_LOG_LIMIT, PropertyGraph


def tracked_graph():
    graph = PropertyGraph(name="tracked")
    graph.enable_delta_log()
    events = []
    graph.subscribe(lambda g, delta: events.append(delta))
    return graph, events


class TestDeltaEmission:
    def test_add_node_delta(self):
        graph, events = tracked_graph()
        node = graph.add_node("a", kind="person", features={"name": "Alice"})
        assert len(events) == 1
        delta = events[0]
        assert delta.kind is DeltaKind.ADD_NODE
        assert delta.node == node
        assert (delta.pre_version, delta.post_version) == (0, 1)

    def test_replace_node_delta_carries_old_state(self):
        graph, events = tracked_graph()
        old = graph.add_node("a", features={"v": 1})
        new = graph.add_node("a", features={"v": 2}, replace=True)
        delta = events[-1]
        assert delta.kind is DeltaKind.REPLACE_NODE
        assert delta.old_node == old and delta.node == new

    def test_set_node_features_delta(self):
        graph, events = tracked_graph()
        graph.add_node("a", features={"v": 1})
        graph.set_node_features("a", {"v": 2})
        delta = events[-1]
        assert delta.kind is DeltaKind.SET_NODE_FEATURES
        assert delta.old_node.features == {"v": 1}
        assert delta.node.features == {"v": 2}

    def test_edge_deltas(self):
        graph, events = tracked_graph()
        graph.add_node("a")
        graph.add_node("b")
        edge = graph.add_edge("a", "b", label="knows")
        assert events[-1].kind is DeltaKind.ADD_EDGE and events[-1].edge == edge
        replaced = graph.add_edge("a", "b", label="met", replace=True)
        assert events[-1].kind is DeltaKind.REPLACE_EDGE
        assert events[-1].old_edge == edge and events[-1].edge == replaced
        graph.remove_edge("a", "b")
        assert events[-1].kind is DeltaKind.REMOVE_EDGE
        assert events[-1].old_edge == replaced

    def test_remove_node_is_one_delta_and_one_version_bump(self):
        graph, events = tracked_graph()
        for node_id in ("a", "b", "c"):
            graph.add_node(node_id)
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "b")
        version = graph.version
        graph.remove_node("b")
        assert graph.version == version + 1
        delta = events[-1]
        assert delta.kind is DeltaKind.REMOVE_NODE
        assert delta.old_node.node_id == "b"
        assert {edge.key for edge in delta.removed_edges} == {
            ("a", "b"),
            ("b", "c"),
            ("c", "b"),
        }

    def test_untracked_graph_pays_nothing(self):
        graph = PropertyGraph()
        graph.add_node("a")
        assert not graph.delta_log_enabled
        assert graph.deltas_since(0) is None
        assert graph.deltas_since(graph.version) == []


class TestBatch:
    def test_bidirectional_edge_is_one_bump_one_composite_delta(self):
        graph, events = tracked_graph()
        graph.add_node("a")
        graph.add_node("b")
        version = graph.version
        graph.add_bidirectional_edge("a", "b", label="peer")
        assert graph.version == version + 1  # the PR-5 bugfix: no double bump
        delta = events[-1]
        assert delta.kind is DeltaKind.BATCH
        assert [sub.kind for sub in delta.deltas] == [DeltaKind.ADD_EDGE] * 2
        assert {sub.edge.key for sub in delta.deltas} == {("a", "b"), ("b", "a")}

    def test_explicit_batch_coalesces(self):
        graph, events = tracked_graph()
        for node_id in ("a", "b", "c"):
            graph.add_node(node_id)
        version = graph.version
        with graph.batch():
            graph.add_edge("a", "b")
            graph.add_edge("b", "c")
            graph.remove_edge("a", "b")
        assert graph.version == version + 1
        delta = events[-1]
        assert delta.kind is DeltaKind.BATCH
        assert [sub.kind for sub in delta.deltas] == [
            DeltaKind.ADD_EDGE,
            DeltaKind.ADD_EDGE,
            DeltaKind.REMOVE_EDGE,
        ]
        changes = list(delta.edge_changes())
        assert changes[0] == (True, delta.deltas[0].edge)
        assert changes[-1][0] is False

    def test_tracking_enabled_mid_batch_poisons_the_composite(self):
        # Regression: a BATCH delta recorded after tracking started
        # mid-block would be missing the earlier mutations; publishing it
        # would let stale views catch up incompletely.  The batch must
        # commit its version bump but leave the chain unbridgeable.
        graph = PropertyGraph()
        for node_id in ("a", "b", "c"):
            graph.add_node(node_id)
        version_before_log = None
        events = []
        with graph.batch():
            graph.add_edge("a", "b")  # nobody listening yet
            version_before_log = graph.version
            graph.enable_delta_log()
            graph.subscribe(lambda g, d: events.append(d))
            graph.add_edge("b", "c")
        assert graph.version == version_before_log + 1
        assert events == []  # the partial composite was never published
        assert graph.deltas_since(version_before_log) is None  # recompile forced
        # After the poisoned batch, tracking works normally again.
        resumed = graph.version
        graph.add_edge("c", "a")
        assert [d.kind for d in graph.deltas_since(resumed)] == [DeltaKind.ADD_EDGE]

    def test_deltas_since_never_bridges_a_log_hole(self):
        graph, _ = tracked_graph()
        graph.add_node("a")
        version = graph.version
        graph.add_node("b")
        # Simulate a hole (e.g. a poisoned batch) in the recorded chain.
        graph._delta_log.pop()
        graph.add_node("c")
        assert graph.deltas_since(version) is None

    def test_empty_batch_commits_nothing(self):
        graph, events = tracked_graph()
        version = graph.version
        with graph.batch():
            pass
        assert graph.version == version and not events

    def test_nested_batches_join_the_outer_one(self):
        graph, events = tracked_graph()
        graph.add_node("a")
        graph.add_node("b")
        version = graph.version
        with graph.batch():
            graph.add_edge("a", "b")
            with graph.batch():
                graph.remove_edge("a", "b")
        assert graph.version == version + 1
        assert len(events[-1].deltas) == 2

    def test_batch_commits_even_when_the_block_raises(self):
        graph, events = tracked_graph()
        graph.add_node("a")
        graph.add_node("b")
        version = graph.version
        with pytest.raises(ValueError):
            with graph.batch():
                graph.add_edge("a", "b")
                raise ValueError("boom")
        assert graph.version == version + 1  # caches cannot go stale
        assert events[-1].kind is DeltaKind.BATCH


class TestDeltaLog:
    def test_deltas_since_returns_contiguous_chain(self):
        graph, _ = tracked_graph()
        graph.add_node("a")
        version = graph.version
        graph.add_node("b")
        graph.add_edge("a", "b")
        chain = graph.deltas_since(version)
        assert [delta.kind for delta in chain] == [DeltaKind.ADD_NODE, DeltaKind.ADD_EDGE]
        assert chain[0].pre_version == version
        assert chain[-1].post_version == graph.version

    def test_overflowed_log_returns_none(self):
        graph = PropertyGraph()
        graph.enable_delta_log(limit=2)
        version = graph.version
        for index in range(5):
            graph.add_node(f"n{index}")
        assert graph.deltas_since(version) is None
        # ... but a recent-enough version still reconstructs.
        assert len(graph.deltas_since(graph.version - 2)) == 2

    def test_unknown_version_returns_none(self):
        graph, _ = tracked_graph()
        graph.add_node("a")
        assert graph.deltas_since(graph.version + 5) is None

    def test_full_log_matches_a_scan_for_every_covered_version(self):
        graph = PropertyGraph()
        graph.enable_delta_log()
        for index in range(DELTA_LOG_LIMIT + 40):
            graph.add_node(f"n{index}")
            if index % 3 == 2:  # a composite batch delta every few steps
                graph.add_bidirectional_edge(f"n{index - 1}", f"n{index}")
        log = graph._delta_log
        assert len(log) == DELTA_LOG_LIMIT

        def scanned_chain(version):
            if version == graph.version:
                return []
            for start, delta in enumerate(log):
                if delta.pre_version == version:
                    return log[start:]
            return None

        oldest = log[0].pre_version
        for version in range(oldest, graph.version + 1):
            chain = graph.deltas_since(version)
            assert chain is not None
            assert chain == scanned_chain(version)
        # One version older than the log reaches: the start index would be
        # -1, which must not wrap around to the newest entry.
        assert graph.deltas_since(oldest - 1) is None


def scanned_chain(graph, version):
    """The chain found by walking the whole log: the reference for the arithmetic."""
    if version == graph.version:
        return []
    log = graph._delta_log or []
    for start, delta in enumerate(log):
        if delta.pre_version == version:
            chain, expected = log[start:], version
            for entry in chain:
                if entry.pre_version != expected:
                    return None
                expected = entry.post_version
            return chain if expected == graph.version else None
    return None


def grow(graph, count, *, prefix="n", batched=False):
    for index in range(count):
        node_id = f"{prefix}{index}"
        if batched and index:
            with graph.batch():
                graph.add_node(node_id)
                graph.add_edge(f"{prefix}{index - 1}", node_id)
        else:
            graph.add_node(node_id)


def log_partly_filled():
    graph = PropertyGraph()
    graph.enable_delta_log()
    grow(graph, 30)
    return graph


def log_enabled_after_a_bulk_build():
    # The constructor sets the version before any log exists.
    graph = PropertyGraph.from_rows(
        [(f"b{index}", None, None) for index in range(12)],
        [(f"b{index}", f"b{index + 1}", None, None) for index in range(11)],
    )
    graph.enable_delta_log()
    grow(graph, 20)
    return graph


def log_cleared_by_a_tainted_batch():
    graph = PropertyGraph()
    grow(graph, 5, prefix="t")
    with graph.batch():
        graph.add_edge("t0", "t1")  # nobody listening: taints the batch
        graph.enable_delta_log()
        graph.add_edge("t1", "t2")
    grow(graph, 15)
    return graph


def log_of_batches():
    graph = PropertyGraph()
    graph.enable_delta_log()
    grow(graph, 40, batched=True)
    return graph


def log_trimmed_to_a_smaller_limit():
    graph = PropertyGraph()
    graph.enable_delta_log(limit=16)
    grow(graph, 40)
    graph.enable_delta_log(limit=8)
    return graph


LOG_SHAPES = {
    "partly-filled": log_partly_filled,
    "enabled-after-a-bulk-build": log_enabled_after_a_bulk_build,
    "cleared-by-a-tainted-batch": log_cleared_by_a_tainted_batch,
    "batches": log_of_batches,
    "trimmed-to-a-smaller-limit": log_trimmed_to_a_smaller_limit,
}


@pytest.mark.parametrize("shape", sorted(LOG_SHAPES))
def test_deltas_since_agrees_with_a_log_scan_for_every_version(shape):
    graph = LOG_SHAPES[shape]()
    log = graph._delta_log
    assert log, "every shape ends with a non-empty log"
    covered = 0
    for version in range(graph.version + 2):
        chain = graph.deltas_since(version)
        assert chain == scanned_chain(graph, version), version
        covered += chain is not None
    # Exactly the versions from the oldest logged one to the present reconstruct.
    assert covered == len(log) + 1
    assert graph.deltas_since(log[0].pre_version) == log


class TestSubscriptions:
    def test_unsubscribe(self):
        graph = PropertyGraph()
        seen = []
        token = graph.subscribe(lambda g, d: seen.append(d))
        graph.add_node("a")
        graph.unsubscribe(token)
        graph.add_node("b")
        assert len(seen) == 1

    def test_bus_fans_out_and_detaches(self):
        bus = DeltaBus()
        seen = []
        bus.subscribe(lambda graph, delta: seen.append((graph, delta.kind)))
        graph = PropertyGraph()
        token = bus.attach(graph)
        assert graph.delta_log_enabled
        graph.add_node("a")
        assert seen == [(graph, DeltaKind.ADD_NODE)]
        bus.detach(graph, token)
        graph.add_node("b")
        assert len(seen) == 1

    def test_dead_bus_subscription_is_pruned(self):
        graph = PropertyGraph()
        bus = DeltaBus()
        bus.subscribe(lambda g, d: pytest.fail("dead bus must not be called"))
        bus.attach(graph)
        del bus
        gc.collect()
        graph.add_node("a")  # must not raise nor call the dead listener

    def test_maintenance_stats_shape(self):
        stats = view_maintenance_stats()
        assert isinstance(stats, dict)
        for counters in stats.values():
            assert all(isinstance(count, int) for count in counters.values())
