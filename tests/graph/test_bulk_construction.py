"""Differential tests for the bulk construction paths of :class:`PropertyGraph`.

Every whole-graph build — :meth:`PropertyGraph.copy`, decoding with
:func:`graph_from_dict` and the SQLite engine's paged load — must produce exactly the graph that calling
:meth:`~PropertyGraph.add_node` per node and :meth:`~PropertyGraph.add_edge`
per edge produces: the same node order, edge order, per-node successor and
predecessor order, :attr:`~PropertyGraph.version` and equality.  The inputs
are the four workload families after seeded mutation scripts, so node
replacement, removal and re-insertion have moved things around first.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    GraphError,
    NodeNotFoundError,
)
from repro.api.checkpoints import _apply_graph_diff, _encode_diff, _graph_diff
from repro.graph.model import PropertyGraph, _edge, _edges_from_columns
from repro.graph.serialization import graph_from_dict, graph_to_dict
from repro.store.sqlite import PagingStats, SQLiteGraphStorage, load_graph_paged
from repro.workloads.motifs import all_motifs
from repro.workloads.random_graphs import random_digraph
from repro.workloads.social import figure2_variant
from repro.workloads.synthetic import small_family_for_tests

FAMILIES = {
    "random": lambda: random_digraph(40, 110, seed=5),
    "synthetic": lambda: small_family_for_tests(node_count=30, connectivity_targets=(6,))[0].graph,
    "motif": lambda: all_motifs()[0].graph,
    "social": lambda: figure2_variant("b").graph,
}


def rebuild_with_mutators(graph: PropertyGraph) -> PropertyGraph:
    """The reference: one public mutator call per node, then per edge."""
    rebuilt = PropertyGraph(name=graph.name)
    for node in graph.nodes():
        rebuilt.add_node(node.node_id, kind=node.kind, features=dict(node.features))
    for edge in graph.edges():
        rebuilt.add_edge(edge.source, edge.target, label=edge.label, features=dict(edge.features))
    return rebuilt


def shape(graph: PropertyGraph):
    """Everything whose order or value a bulk path could get wrong."""
    return (
        graph.name,
        graph.node_ids(),
        [(node.kind, node.features) for node in graph.nodes()],
        graph.edge_keys(),
        [(edge.label, edge.features) for edge in graph.edges()],
        [list(graph.iter_successors(node_id)) for node_id in graph.node_ids()],
        [list(graph.iter_predecessors(node_id)) for node_id in graph.node_ids()],
        graph.version,
    )


def mutated(family: str, seed: int, steps: int = 80) -> PropertyGraph:
    """A family graph after a seeded add/replace/remove/set-features script."""
    graph = rebuild_with_mutators(FAMILIES[family]())
    rng = random.Random(f"{family}:{seed}")
    fresh = 0
    for _ in range(steps):
        ids = graph.node_ids()
        keys = graph.edge_keys()
        roll = rng.random()
        if roll < 0.15 or len(ids) < 4:
            fresh += 1
            graph.add_node(f"new{fresh}", kind=rng.choice([None, "data", "agent"]), features={"n": fresh})
        elif roll < 0.25:
            node_id = rng.choice(ids)
            graph.add_node(node_id, kind="replaced", features={"r": rng.randrange(9)}, replace=True)
        elif roll < 0.35:
            graph.remove_node(rng.choice(ids))
        elif roll < 0.45:
            graph.set_node_features(rng.choice(ids), {"s": rng.randrange(9), "nested": {"k": [1, 2]}})
        elif roll < 0.65 and keys:
            graph.remove_edge(*rng.choice(keys))
        elif roll < 0.75 and keys:
            source, target = rng.choice(keys)
            graph.add_edge(source, target, label="swapped", features={"w": rng.random()}, replace=True)
        else:
            source, target = rng.sample(ids, 2)
            if not graph.has_edge(source, target):
                graph.add_edge(source, target, label=rng.choice([None, "used"]), features={"e": fresh})
    return graph


def sqlite_round_trip(graph: PropertyGraph) -> PropertyGraph:
    storage = SQLiteGraphStorage(None)
    try:
        storage.put_graph(graph, name=graph.name)
        stats = PagingStats(page_rows=7)
        loaded = load_graph_paged(storage.db, graph.name, page_rows=7, stats=stats)
        assert 0 < stats.peak_page_rows <= 7
        return loaded
    finally:
        storage.close()


BULK_PATHS = {
    "copy": lambda graph: graph.copy(),
    "graph_from_dict": lambda graph: graph_from_dict(graph_to_dict(graph)),
    "load_graph_paged": sqlite_round_trip,
}

CASES = [(family, seed) for family in FAMILIES for seed in range(3)]


@pytest.mark.parametrize("path", sorted(BULK_PATHS))
@pytest.mark.parametrize("family,seed", CASES, ids=[f"{f}-{s}" for f, s in CASES])
def test_bulk_path_matches_mutator_rebuild(path, family, seed):
    graph = mutated(family, seed)
    reference = rebuild_with_mutators(graph)
    built = BULK_PATHS[path](graph)
    assert shape(built) == shape(reference)
    assert built == reference == graph


@pytest.mark.parametrize("family,seed", CASES, ids=[f"{f}-{s}" for f, s in CASES])
def test_copy_keeps_the_original_adjacency_orders(family, seed):
    # copy() copies the adjacency dicts instead of rebuilding them, which is
    # only sound while every mutator keeps them in edge order.
    graph = mutated(family, seed)
    assert shape(graph.copy())[:-1] == shape(graph)[:-1]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_subgraph_and_reverse_match_mutator_builds(family):
    graph = mutated(family, 7)
    keep = graph.node_ids()[::2]
    kept = set(keep)
    expected_sub = PropertyGraph(name="sub")
    for node in graph.nodes():
        if node.node_id in kept:
            expected_sub.add_node(node.node_id, kind=node.kind, features=node.features)
    for edge in graph.edges():
        if edge.source in kept and edge.target in kept:
            expected_sub.add_edge(edge.source, edge.target, label=edge.label, features=edge.features)
    assert shape(graph.subgraph(keep, name="sub")) == shape(expected_sub)

    expected_rev = PropertyGraph(name=graph.name)
    for node in graph.nodes():
        expected_rev.add_node(node.node_id, kind=node.kind, features=node.features)
    for edge in graph.edges():
        expected_rev.add_edge(edge.target, edge.source, label=edge.label, features=edge.features)
    assert shape(graph.reverse()) == shape(expected_rev)


@pytest.mark.parametrize("path", sorted(BULK_PATHS))
def test_built_graph_owns_its_feature_dicts(path):
    graph = mutated("random", 1)
    before = graph_to_dict(graph)
    built = BULK_PATHS[path](graph)
    for node in built.nodes():
        node.features["written"] = True
    for edge in built.edges():
        edge.features["written"] = True
    assert graph_to_dict(graph) == before


def test_from_rows_consumes_rows_lazily_nodes_first():
    seen = []

    def nodes():
        for node_id in "abc":
            seen.append(("node", node_id))
            yield node_id, None, None

    def edges():
        seen.append(("edges", len(seen)))
        yield "a", "b", None, None

    graph = PropertyGraph.from_rows(nodes(), edges(), name="lazy")
    assert seen == [("node", "a"), ("node", "b"), ("node", "c"), ("edges", 3)]
    assert graph.version == 4 and graph.name == "lazy"


# ---------------------------------------------------------------------- #
# malformed rows: the bulk loader raises what the mutators raise
# ---------------------------------------------------------------------- #
MALFORMED = {
    "duplicate-node": ([("a", None, {}), ("a", None, {})], []),
    "duplicate-edge": ([("a", None, {}), ("b", None, {})], [("a", "b", None, {}), ("a", "b", "x", {})]),
    "missing-source": ([("a", None, {})], [("z", "a", None, {})]),
    "missing-target": ([("a", None, {})], [("a", "z", None, {})]),
    "self-loop": ([("a", None, {})], [("a", "a", None, {})]),
    "node-features-not-mapping": ([("a", None, ["x"])], []),
    "edge-features-not-mapping": ([("a", None, {}), ("b", None, {})], [("a", "b", None, "x")]),
    "unhashable-node-id": ([(["a"], None, {})], []),
    "unhashable-endpoint": ([("a", None, {})], [(["a"], "a", None, {})]),
}

EXPECTED_TYPES = {
    "duplicate-node": DuplicateNodeError,
    "duplicate-edge": DuplicateEdgeError,
    "missing-source": NodeNotFoundError,
    "missing-target": NodeNotFoundError,
    "self-loop": ValueError,
    "node-features-not-mapping": TypeError,
    "edge-features-not-mapping": TypeError,
    "unhashable-node-id": TypeError,
    "unhashable-endpoint": TypeError,
}


def _mutator_error(nodes, edges):
    graph = PropertyGraph()
    try:
        for node_id, kind, features in nodes:
            graph.add_node(node_id, kind=kind, features=features)
        for source, target, label, features in edges:
            graph.add_edge(source, target, label=label, features=features)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return exc
    raise AssertionError("the mutators accepted a malformed row")


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_rows_raise_what_the_mutators_raise(case):
    nodes, edges = MALFORMED[case]
    expected = _mutator_error(nodes, edges)
    with pytest.raises(Exception) as caught:
        PropertyGraph.from_rows(nodes, edges)
    assert type(caught.value) is type(expected) is EXPECTED_TYPES[case]
    assert str(caught.value) == str(expected)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_graph_from_dict_turns_every_malformed_row_into_a_graph_error(case):
    nodes, edges = MALFORMED[case]
    payload = {
        "nodes": [{"id": node_id, "kind": kind, "features": features} for node_id, kind, features in nodes],
        "edges": [
            {"source": source, "target": target, "label": label, "features": features}
            for source, target, label, features in edges
        ],
    }
    with pytest.raises(GraphError) as caught:
        graph_from_dict(payload)
    if issubclass(EXPECTED_TYPES[case], GraphError):
        assert type(caught.value) is EXPECTED_TYPES[case]


@pytest.mark.parametrize(
    "payload",
    [
        {"nodes": [{"kind": "data"}], "edges": []},
        {"nodes": ["a"], "edges": []},
        {"nodes": [{"id": "a"}], "edges": [["a", "b"]]},
        {"nodes": [{"id": "a"}], "edges": [{"target": "a"}]},
        {"nodes": 3, "edges": []},
    ],
    ids=["node-without-id", "non-object-node", "non-object-edge", "edge-without-source", "rows-not-a-list"],
)
def test_graph_from_dict_rejects_malformed_rows_as_graph_errors(payload):
    with pytest.raises(GraphError) as caught:
        graph_from_dict(payload)
    assert type(caught.value) is GraphError


def test_edges_from_columns_matches_one_edge_per_row():
    rows = [("a", "b", "used", {"w": 1}), ("b", "c", None, {}), ("c", "a", "x", {"k": [1]})]
    columns = [list(column) for column in zip(*rows)]
    assert _edges_from_columns(*columns) == [_edge(*row) for row in rows]
    with pytest.raises(ValueError):
        _edges_from_columns(["a"], ["b"], [None], [])


@pytest.mark.parametrize("family,seed", CASES, ids=[f"{f}-{s}" for f, s in CASES])
def test_checkpoint_diff_rebuilds_the_target_graph(family, seed):
    base = rebuild_with_mutators(FAMILIES[family]())
    # An account-like target: nodes and edges dropped and added, features
    # changed, no node changing kind (that would take the full encoding).
    target = base.copy()
    rng = random.Random(f"diff:{family}:{seed}")
    for step in range(40):
        ids, keys, roll = target.node_ids(), target.edge_keys(), rng.random()
        if roll < 0.1 and len(ids) > 4:
            target.remove_node(rng.choice(ids))
        elif roll < 0.3 and keys:
            target.remove_edge(*rng.choice(keys))
        elif roll < 0.4:
            target.add_node(f"added{step}", kind="surrogate", features={"s": step})
        elif roll < 0.5:
            target.set_node_features(rng.choice(ids), {"c": step})
        elif roll < 0.6 and keys:
            source, target_id = rng.choice(keys)
            target.add_edge(source, target_id, label="changed", features={"c": step}, replace=True)
        else:
            source, target_id = rng.sample(ids, 2)
            if not target.has_edge(source, target_id):
                target.add_edge(source, target_id, label="surrogate")
    diff = _graph_diff(base, target)
    encoded = json.loads(json.dumps(_encode_diff(diff)))
    rebuilt, added, removed = _apply_graph_diff(base, encoded, target.name)
    assert rebuilt == target
    assert added == [(row[0], row[1]) for row in diff["added_edges"]]
    assert removed == [(row[0], row[1]) for row in diff["removed_edges"]]
    # Adjacency orders follow edge order, as every mutator keeps them.
    assert shape(rebuilt)[:-1] == shape(rebuild_with_mutators(rebuilt))[:-1]
