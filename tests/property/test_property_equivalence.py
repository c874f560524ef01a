"""Equivalence of the compiled fast paths with the seed reference semantics.

The perf layer (compiled marking views, memoized visible-set walks,
component-based utility) must be *observationally invisible*: on any graph,
policy and privilege it has to produce byte-identical markings, edge states,
walks, accounts and scores to the uncompiled per-call implementations it
replaced.  These tests pin that down with hypothesis over random
graph/policy/consumer triples and with the seeded synthetic workload graphs
(``workloads/random_graphs.py``) the benchmarks use.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.core.generation import build_protected_account
from repro.core.markings import Marking
from repro.core.permitted import (
    VisibleWalkCache,
    backward_visible_set,
    forward_visible_set,
    hw_permitted_targets,
    surrogate_edge_candidates,
)
from repro.core.policy import ReleasePolicy
from repro.core.privileges import figure1_lattice
from repro.core.utility import path_percentage, path_percentages, utility_report
from repro.workloads.random_graphs import random_digraph, sample_edges

from tests.property.strategies import graph_with_policy


# --------------------------------------------------------------------------- #
# hypothesis: arbitrary small graphs, lattices, markings
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(graph_with_policy())
def test_compiled_view_matches_reference_markings(triple):
    """Every incidence marking and edge state agrees with MarkingPolicy's
    per-call resolution, and the view's full table matches per-edge queries."""
    graph, policy, consumer = triple
    view = policy.markings.compile(graph, consumer)
    for edge in graph.edges():
        key = edge.key
        for node_id in key:
            assert view.marking(node_id, key) is policy.markings.marking(
                node_id, key, consumer
            )
        assert view.edge_state(key) is policy.markings.edge_state(key, consumer)
        assert view.edge_state_table[key] is policy.markings.edge_state(key, consumer)


@settings(max_examples=60, deadline=None)
@given(graph_with_policy())
def test_memoized_walks_match_reference_walks(triple):
    """VisibleWalkCache answers (and repeated answers) equal the uncompiled
    single-shot walks, with and without an anchor set."""
    graph, policy, consumer = triple
    anchors = {node_id for node_id in graph.node_ids() if policy.visible(node_id, consumer)}
    for anchor_set in (None, anchors):
        walks = VisibleWalkCache(graph, policy.markings, consumer, anchors=anchor_set)
        for node_id in graph.node_ids():
            reference_forward = forward_visible_set(
                graph, policy.markings, consumer, node_id, anchors=anchor_set, compiled=False
            )
            reference_backward = backward_visible_set(
                graph, policy.markings, consumer, node_id, anchors=anchor_set, compiled=False
            )
            assert walks.forward(node_id) == reference_forward
            assert walks.backward(node_id) == reference_backward
            # Second (memoized) read is identical.
            assert walks.forward(node_id) == reference_forward
            assert walks.backward(node_id) == reference_backward


@settings(max_examples=60, deadline=None)
@given(graph_with_policy())
def test_candidates_and_targets_match_reference(triple):
    graph, policy, consumer = triple
    anchors = {node_id for node_id in graph.node_ids() if policy.visible(node_id, consumer)}
    assert surrogate_edge_candidates(
        graph, policy.markings, consumer, anchors=anchors
    ) == surrogate_edge_candidates(
        graph, policy.markings, consumer, anchors=anchors, compiled=False
    )
    for node_id in graph.node_ids():
        assert hw_permitted_targets(
            graph, policy.markings, consumer, node_id
        ) == hw_permitted_targets(
            graph, policy.markings, consumer, node_id, compiled=False
        )


@settings(max_examples=60, deadline=None)
@given(graph_with_policy())
def test_compiled_account_is_byte_identical(triple):
    """The compiled pipeline yields the same account as the reference path —
    same nodes and edges in the same insertion order, same correspondence,
    same surrogate bookkeeping, same utility scores."""
    graph, policy, consumer = triple
    compiled = build_protected_account(
        graph, policy, consumer, ensure_maximal_connectivity=True
    )
    reference = build_protected_account(
        graph, policy, consumer, ensure_maximal_connectivity=True, compiled=False
    )
    assert compiled.graph == reference.graph
    assert compiled.graph.node_ids() == reference.graph.node_ids()
    assert compiled.graph.edge_keys() == reference.graph.edge_keys()
    assert compiled.correspondence == reference.correspondence
    assert compiled.surrogate_nodes == reference.surrogate_nodes
    assert compiled.surrogate_edges == reference.surrogate_edges
    compiled_report = utility_report(graph, compiled)
    reference_report = utility_report(graph, reference)
    assert compiled_report.path_utility == reference_report.path_utility
    assert compiled_report.node_utility == reference_report.node_utility


@settings(max_examples=60, deadline=None)
@given(graph_with_policy())
def test_component_utility_matches_per_node_bfs(triple):
    """Component-based %P equals the per-node BFS reference for every node."""
    graph, policy, consumer = triple
    account = build_protected_account(graph, policy, consumer)
    component_based = path_percentages(graph, account)
    assert set(component_based) == set(graph.node_ids())
    for node_id in graph.node_ids():
        assert component_based[node_id] == path_percentage(graph, account, node_id)


@settings(max_examples=40, deadline=None)
@given(graph_with_policy())
def test_compiled_view_tracks_policy_and_graph_mutations(triple):
    """Views are cached but never stale: marking, lowest() and graph edits
    all force recompilation with the reference answers."""
    graph, policy, consumer = triple
    if graph.edge_count() == 0:
        return
    view = policy.markings.compile(graph, consumer)
    assert policy.markings.compile(graph, consumer) is view  # cache hit

    edge = graph.edges()[0]
    policy.markings.set_marking(edge.source, edge.key, consumer, Marking.HIDE)
    after_marking = policy.markings.compile(graph, consumer)
    assert after_marking is not view
    assert after_marking.marking(edge.source, edge.key) is policy.markings.marking(
        edge.source, edge.key, consumer
    )

    non_public = [p for p in policy.lattice.privileges() if p != policy.lattice.public]
    if non_public:
        policy.set_lowest(edge.target, non_public[0])
        after_lowest = policy.markings.compile(graph, consumer)
        assert after_lowest is not after_marking
        assert after_lowest.marking(edge.target, edge.key) is policy.markings.marking(
            edge.target, edge.key, consumer
        )

    graph.add_node("fresh-node")
    after_graph = policy.markings.compile(graph, consumer)
    assert after_graph.graph_version == graph.version


@settings(max_examples=30, deadline=None)
@given(graph_with_policy())
def test_compiled_view_matches_reference_for_odd_incidences(triple):
    """Off-endpoint incidences and edges outside the graph defer to the
    reference semantics rather than silently answering from node defaults."""
    graph, policy, consumer = triple
    if graph.edge_count() == 0:
        return
    edge = graph.edges()[0].key
    outsider = next(
        (n for n in graph.node_ids() if n not in edge), graph.node_ids()[0]
    )
    policy.markings.set_marking(outsider, edge, consumer, Marking.HIDE)
    phantom_edge = ("phantom-a", "phantom-b")
    policy.markings.set_marking("phantom-a", phantom_edge, consumer, Marking.SURROGATE)
    view = policy.markings.compile(graph, consumer)
    assert view.marking(outsider, edge) is policy.markings.marking(outsider, edge, consumer)
    assert view.marking("phantom-a", phantom_edge) is policy.markings.marking(
        "phantom-a", phantom_edge, consumer
    )
    assert view.edge_state(phantom_edge) is policy.markings.edge_state(phantom_edge, consumer)


# --------------------------------------------------------------------------- #
# seeded synthetic workloads (the graphs the scaling benchmark runs on)
# --------------------------------------------------------------------------- #
def _workload_policy(graph, seed):
    lattice, privileges = figure1_lattice()
    policy = ReleasePolicy(lattice)
    rng = random.Random(seed)
    protected = rng.sample(graph.node_ids(), max(1, graph.node_count() // 10))
    for node_id in protected:
        policy.protect_node(graph, node_id, privileges["Low-2"], lowest=privileges["High-1"])
    policy.protect_edges(
        sample_edges(graph, max(1, graph.edge_count() // 20), seed=seed),
        privileges["Low-2"],
    )
    return policy, privileges["Low-2"]


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_workload_account_and_scores_match_reference(seed):
    graph = random_digraph(120, 360, seed=seed)
    policy, consumer = _workload_policy(graph, seed)
    compiled = build_protected_account(graph, policy, consumer)
    reference = build_protected_account(graph, policy, consumer, compiled=False)
    assert compiled.graph == reference.graph
    assert compiled.graph.node_ids() == reference.graph.node_ids()
    assert compiled.graph.edge_keys() == reference.graph.edge_keys()
    assert compiled.correspondence == reference.correspondence
    assert compiled.surrogate_edges == reference.surrogate_edges
    compiled_report = utility_report(graph, compiled)
    reference_report = utility_report(graph, reference)
    assert compiled_report.path_utility == reference_report.path_utility
    assert compiled_report.node_utility == reference_report.node_utility
    assert compiled_report.path_percentages == {
        node_id: path_percentage(graph, compiled, node_id) for node_id in graph.node_ids()
    }
