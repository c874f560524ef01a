"""E6 — regenerate Figure 10: the cost of producing and protecting a graph.

The paper reports total time, DB access, graph build, protect-via-hide and
protect-via-surrogate on a log scale, and concludes that the protection
transformation (~10 ms) is subsumed by graph construction.  The absolute
numbers here differ (our substrate is an embedded in-memory store, not a
remote RDBMS), but the same phases are measured and the transformation
remains in the tens-of-milliseconds range on the paper's 200-node scale.
"""

from __future__ import annotations

import pytest

from repro.experiments.figure10 import run_figure10
from repro.provenance.plus import PLUSClient
from repro.store.engine import GraphStore
from repro.workloads.synthetic import SyntheticGraphSpec, synthetic_graph


@pytest.mark.benchmark(group="figure10")
def test_bench_figure10_phases(benchmark):
    """Time the whole Figure-10 measurement (store load + all four phases)."""
    result = benchmark.pedantic(
        lambda: run_figure10(node_count=200, connected_pairs_target=60, protect_fraction=0.2, repeats=3),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())

    rows = {row["activity"]: row["time_ms"] for row in result.as_rows()}
    assert rows["total"] > 0
    # Hiding is never more expensive than surrogating (it does strictly less work),
    # and both stay within the same order of magnitude as serving the graph —
    # the paper's "no significant impact" claim, with slack for the much faster
    # in-memory DB-access phase of this reproduction.
    assert rows["protect_via_hide"] <= rows["protect_via_surrogate"] + 1.0
    assert result.protection_is_cheap(factor=50.0)


@pytest.mark.benchmark(group="figure10")
def test_bench_store_roundtrip(benchmark):
    """Time the DB-access phase alone: write a 200-node graph and read it back."""
    instance = synthetic_graph(
        SyntheticGraphSpec(node_count=200, target_connected_pairs=60, protect_fraction=0.2, seed=5)
    )

    def roundtrip():
        store = GraphStore()
        store.put_graph(instance.graph, name="bench")
        return store.graph("bench")

    graph = benchmark(roundtrip)
    assert graph.node_count() == 200


@pytest.mark.benchmark(group="figure10")
def test_bench_protect_via_surrogate_only(benchmark):
    """Time one surrogate protection pass on the stored 200-node graph."""
    instance = synthetic_graph(
        SyntheticGraphSpec(node_count=200, target_connected_pairs=60, protect_fraction=0.2, seed=6)
    )
    from repro.api import ProtectionService
    from repro.core.policy import ReleasePolicy
    from repro.core.privileges import PrivilegeLattice

    service = ProtectionService(instance.graph, ReleasePolicy(PrivilegeLattice()))

    def protect():
        # use_cache=False: an account-cache hit would answer every round after the first.
        return service.protect(
            privilege="Public",
            protect_edges=instance.protected_edges,
            strategy="surrogate",
            score=False,
            use_cache=False,
        ).account

    account = benchmark(protect)
    assert account.graph.node_count() == 200


@pytest.mark.benchmark(group="figure10")
def test_bench_protect_via_hide_only(benchmark):
    """Time one hide protection pass on the stored 200-node graph (the baseline)."""
    instance = synthetic_graph(
        SyntheticGraphSpec(node_count=200, target_connected_pairs=60, protect_fraction=0.2, seed=6)
    )
    from repro.api import ProtectionService
    from repro.core.policy import ReleasePolicy
    from repro.core.privileges import PrivilegeLattice

    service = ProtectionService(instance.graph, ReleasePolicy(PrivilegeLattice()))

    def protect():
        # use_cache=False: an account-cache hit would answer every round after the first.
        return service.protect(
            privilege="Public",
            protect_edges=instance.protected_edges,
            strategy="hide",
            score=False,
            use_cache=False,
        ).account

    account = benchmark(protect)
    assert account.surrogate_edges == set()


@pytest.mark.benchmark(group="figure10")
def test_bench_plus_lineage_query(benchmark):
    """Time a protected lineage query through the PLUS facade (the motivating workload)."""
    example_nodes = 200
    instance = synthetic_graph(
        SyntheticGraphSpec(node_count=example_nodes, target_connected_pairs=60, protect_fraction=0.2, seed=7)
    )
    from repro.core.policy import ReleasePolicy
    from repro.core.privileges import PrivilegeLattice

    policy = ReleasePolicy(PrivilegeLattice())
    client = PLUSClient(store=GraphStore(), policy=policy, graph_name="bench")
    client.import_graph(instance.graph)
    sink = max(instance.graph.node_ids(), key=lambda node: instance.graph.in_degree(node))

    result = benchmark(client.lineage_for, policy.lattice.public, sink)
    assert len(result) >= 0
