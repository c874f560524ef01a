"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not figures from the paper; they quantify the cost/benefit of the
library's own moving parts:

* surrogate-edge computation on/off (what step 3 of the algorithm costs),
* the optional maximal-connectivity repair pass,
* scaling of the generation algorithm with graph size.
"""

from __future__ import annotations

import pytest

from repro.core.generation import build_protected_account
from repro.core.policy import ReleasePolicy
from repro.core.privileges import PrivilegeLattice
from repro.workloads.synthetic import SyntheticGraphSpec, synthetic_graph


def _protected_policy(graph, protected_edges):
    policy = ReleasePolicy(PrivilegeLattice())
    policy.protect_edges(protected_edges, policy.lattice.public, strategy="surrogate")
    return policy


@pytest.fixture(scope="module")
def medium_instance():
    return synthetic_graph(
        SyntheticGraphSpec(node_count=150, target_connected_pairs=40, protect_fraction=0.4, seed=17)
    )


@pytest.mark.benchmark(group="ablation-surrogate-edges")
def test_bench_generation_with_surrogate_edges(benchmark, medium_instance):
    policy = _protected_policy(medium_instance.graph, medium_instance.protected_edges)
    account = benchmark(
        build_protected_account, medium_instance.graph, policy, policy.lattice.public
    )
    assert account.surrogate_edges


@pytest.mark.benchmark(group="ablation-surrogate-edges")
def test_bench_generation_without_surrogate_edges(benchmark, medium_instance):
    policy = _protected_policy(medium_instance.graph, medium_instance.protected_edges)
    account = benchmark(
        lambda: build_protected_account(
            medium_instance.graph, policy, policy.lattice.public, include_surrogate_edges=False
        )
    )
    assert account.surrogate_edges == set()


@pytest.mark.benchmark(group="ablation-repair-pass")
def test_bench_generation_with_connectivity_repair(benchmark, medium_instance):
    policy = _protected_policy(medium_instance.graph, medium_instance.protected_edges)
    account = benchmark.pedantic(
        lambda: build_protected_account(
            medium_instance.graph,
            policy,
            policy.lattice.public,
            ensure_maximal_connectivity=True,
        ),
        rounds=2,
        iterations=1,
    )
    assert account.graph.node_count() == 150


@pytest.mark.parametrize("node_count", [50, 100, 200])
@pytest.mark.benchmark(group="ablation-scaling")
def test_bench_generation_scaling(benchmark, node_count):
    """The algorithm's claimed O(n^2 d) worst case stays tractable at paper scale."""
    instance = synthetic_graph(
        SyntheticGraphSpec(
            node_count=node_count,
            target_connected_pairs=max(10, node_count // 5),
            protect_fraction=0.3,
            seed=23,
        )
    )
    policy = _protected_policy(instance.graph, instance.protected_edges)
    account = benchmark(
        build_protected_account, instance.graph, policy, policy.lattice.public
    )
    assert account.graph.node_count() == node_count
