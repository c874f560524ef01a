"""Shared fixtures for the replication suites.

The workload families mirror ``tests/property/test_delta_maintenance.py``:
random digraphs, the synthetic generator, the Figure-6 motifs and the
Figure-1/2 social example — so the follower-differential suite pins the
same edit surface the PR-5 view-maintenance suite does, now replayed
through the durable delta log instead of an in-process bus.
"""

from __future__ import annotations

import random

import pytest

from repro.core.policy import ReleasePolicy
from repro.core.privileges import figure1_lattice
from repro.graph.model import PropertyGraph
from repro.store.engine import GraphStore
from repro.workloads.motifs import all_motifs
from repro.workloads.random_graphs import random_digraph, sample_edges
from repro.workloads.social import figure2_variant
from repro.workloads.synthetic import small_family_for_tests


def random_family(seed=13):
    graph = random_digraph(40, 110, seed=seed)
    lattice, privileges = figure1_lattice()
    policy = ReleasePolicy(lattice)
    rng = random.Random(seed)
    for node_id in rng.sample(graph.node_ids(), 6):
        policy.protect_node(graph, node_id, privileges["Low-2"], lowest=privileges["High-1"])
    policy.protect_edges(sample_edges(graph, 8, seed=seed), privileges["Low-2"])
    return graph, policy, privileges["Low-2"]


def synthetic_family():
    instance = small_family_for_tests(node_count=24, connectivity_targets=(5,))[0]
    lattice, privileges = figure1_lattice()
    policy = ReleasePolicy(lattice)
    policy.protect_edges(instance.protected_edges, privileges["Low-2"])
    return instance.graph, policy, privileges["Low-2"]


def motif_family():
    motif = all_motifs()[0]
    lattice, privileges = figure1_lattice()
    policy = ReleasePolicy(lattice)
    policy.protect_edge(motif.protected_edge, privileges["Low-2"])
    return motif.graph, policy, privileges["Low-2"]


def social_family():
    example = figure2_variant("b")
    return example.graph, example.policy, example.high2


WORKLOADS = [random_family, synthetic_family, motif_family, social_family]
WORKLOAD_IDS = ["random", "synthetic", "motif", "social"]


@pytest.fixture(params=WORKLOADS, ids=WORKLOAD_IDS)
def workload(request):
    """One (graph, policy, consumer) triple per workload family."""
    return request.param


def apply_random_edit(graph: PropertyGraph, rng: random.Random, step: int) -> None:
    """One random mutation drawn from every *replicable* mutator.

    Same distribution as the PR-5 maintenance suite; every payload is
    JSON-round-trippable, so the wire format carries each delta exactly
    (the gap-marker path has its own tests).
    """
    nodes = graph.node_ids()
    edges = graph.edge_keys()
    roll = rng.random()
    if roll < 0.28 and edges:
        graph.remove_edge(*rng.choice(edges))
    elif roll < 0.5 and len(nodes) >= 2:
        source, target = rng.sample(nodes, 2)
        if not graph.has_edge(source, target):
            graph.add_edge(source, target, label=f"e{step}")
    elif roll < 0.62 and nodes:
        graph.set_node_features(rng.choice(nodes), {"step": step})
    elif roll < 0.74 and len(nodes) > 4:
        graph.remove_node(rng.choice(nodes))
    elif roll < 0.86 and nodes:
        graph.add_node(f"fresh-{step}", kind="data")
        graph.add_bidirectional_edge(f"fresh-{step}", rng.choice(nodes))
    elif len(nodes) >= 2:
        source, target = rng.sample(nodes, 2)
        graph.add_edge(source, target, label=f"r{step}", replace=True, create_nodes=True)


def graph_state(graph: PropertyGraph):
    """Order-insensitive canonical state: the equality the replay must hit."""
    nodes = {}
    for node_id in graph.node_ids():
        node = graph.node(node_id)
        nodes[str(node_id)] = (node.kind, dict(node.features))
    edges = {}
    for source, target in graph.edge_keys():
        edge = graph.edge(source, target)
        edges[(str(source), str(target))] = (edge.label, dict(edge.features))
    return nodes, edges


@pytest.fixture
def leader_store(tmp_path):
    """A writable sqlite store root for one leader."""
    store = GraphStore(tmp_path / "tenant")
    yield store
    store.storage.close()
