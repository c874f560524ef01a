"""Seeded inputs.  The program only ever sees what these functions build."""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro.core.policy import ReleasePolicy
from repro.core.privileges import figure1_lattice
from repro.graph.model import PropertyGraph
from repro.graph.serialization import graph_to_dict
from repro.workloads.random_graphs import random_connected_dag, random_digraph, sample_edges


def derive_seeds(seed: int, count: int, salt: str) -> List[int]:
    """``count`` independent seeds for one workload input family."""
    rng = random.Random(f"{salt}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def protect_policy(graph: PropertyGraph, seed: int) -> Tuple[ReleasePolicy, Any]:
    """The scaling benchmark's policy recipe over ``graph``.

    As ``build_workload`` in ``benchmarks/test_bench_scaling.py``: 10% of
    nodes lifted to High-1 with surrogate-routed incidences, 5% of edges
    protected, scored for the Low-2 consumer class.
    """
    lattice, privileges = figure1_lattice()
    policy = ReleasePolicy(lattice)
    rng = random.Random(seed)
    node_count = graph.node_count()
    edge_count = graph.edge_count()
    for node_id in rng.sample(graph.node_ids(), max(1, node_count // 10)):
        policy.protect_node(graph, node_id, privileges["Low-2"], lowest=privileges["High-1"])
    policy.protect_edges(
        sample_edges(graph, max(1, edge_count // 20), seed=seed), privileges["Low-2"]
    )
    return policy, privileges["Low-2"]


def protect_graph(node_count: int, seed: int) -> PropertyGraph:
    """A random digraph with three edges per node (the scaling family)."""
    return random_digraph(node_count, 3 * node_count, seed=seed)


def provenance_dag(node_count: int, seed: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """A connected provenance DAG as its wire dict, plus its policy spec.

    A seeded 10% of the nodes are lifted to ``High``; requests are served
    for ``Public``.
    """
    graph = random_connected_dag(node_count, 3 * node_count, seed=seed, name=f"prov-{seed}")
    rng = random.Random(seed)
    lifted = rng.sample(graph.node_ids(), node_count // 10)
    spec = {"lattice": {"High": ["Public"]}, "lowest": {node_id: "High" for node_id in lifted}}
    return graph_to_dict(graph), spec
