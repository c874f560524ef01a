"""Differential suite: delta-maintained views == freshly compiled ones.

The PR-5 contract: after *any* edit script, a compiled structure that was
carried forward through :class:`~repro.graph.deltas.GraphDelta` patches must
be **exactly** equal — same dicts, same enum entries, bit-identical floats —
to one compiled from scratch against the edited graph.  These tests pin
that for every maintainer:

* :class:`~repro.core.markings.CompiledMarkingView.apply_delta` (patched via
  ``MarkingPolicy.compile``'s catch-up path),
* :class:`~repro.core.opacity.CompiledOpacityView.apply_delta` and
  :meth:`~repro.core.opacity.CompiledOpacityView.derive_for`,
* :class:`~repro.core.permitted.VisibleWalkCache.apply_delta` (delta-scoped
  walk eviction through the region index, checked against a scan of every
  cached walk),
* the account-level caches (:class:`~repro.api.cache.AccountCache`,
  :class:`~repro.core.opacity.OpacityViewCache`) under mixed edit scripts,

across randomized edit scripts over all four workload generator families —
random digraphs, the synthetic family, the Figure-6 motifs and the
Figure-1/2 social example — exercising every mutator, including the
under-tested ``remove_node`` (with incident edges) and
``set_node_features`` paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.core.markings import CompiledMarkingView
from repro.core.opacity import (
    AdvancedAdversary,
    CompiledOpacityView,
    NaiveAdversary,
    OpacityViewCache,
    opacity_simulations_run,
)
from repro.core.permitted import VisibleWalkCache
from repro.core.policy import ReleasePolicy
from repro.core.privileges import figure1_lattice
from repro.graph.deltas import view_maintenance_stats
from repro.workloads.motifs import all_motifs
from repro.workloads.random_graphs import random_digraph, sample_edges
from repro.workloads.social import figure2_variant
from repro.workloads.synthetic import small_family_for_tests


def random_family(seed=13):
    graph = random_digraph(60, 180, seed=seed)
    lattice, privileges = figure1_lattice()
    policy = ReleasePolicy(lattice)
    rng = random.Random(seed)
    for node_id in rng.sample(graph.node_ids(), 8):
        policy.protect_node(graph, node_id, privileges["Low-2"], lowest=privileges["High-1"])
    policy.protect_edges(sample_edges(graph, 12, seed=seed), privileges["Low-2"])
    return graph, policy, privileges["Low-2"]


def synthetic_family():
    instance = small_family_for_tests(node_count=30, connectivity_targets=(6,))[0]
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


def apply_random_edit(graph, rng, step):
    """One random mutation drawn from every supported mutator."""
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


def apply_random_edge_edit(graph, rng, step):
    """One random edit that leaves the node set alone (walk caches patch these)."""
    nodes = graph.node_ids()
    edges = graph.edge_keys()
    roll = rng.random()
    if roll < 0.35 and edges:
        graph.remove_edge(*rng.choice(edges))
    elif roll < 0.65:
        source, target = rng.sample(nodes, 2)
        if not graph.has_edge(source, target):
            graph.add_edge(source, target, label=f"e{step}")
    elif roll < 0.75 and edges:
        source, target = rng.choice(edges)
        graph.add_edge(source, target, label=f"r{step}", replace=True)
    elif roll < 0.85:
        graph.set_node_features(rng.choice(nodes), {"step": step})
    else:
        with graph.batch():
            for _edit in range(rng.randint(2, 4)):
                edges = graph.edge_keys()
                if edges and rng.random() < 0.5:
                    graph.remove_edge(*rng.choice(edges))
                else:
                    source, target = rng.sample(nodes, 2)
                    if not graph.has_edge(source, target):
                        graph.add_edge(source, target)


def region_index(walks_by_start):
    """Region node -> starts of the walks whose region holds it, rebuilt."""
    index = {}
    for start, (_collected, region) in walks_by_start.items():
        for node_id in region:
            index.setdefault(node_id, set()).add(start)
    return index


def scan_evictions(walks, delta):
    """The walks a scan over every cached walk evicts for ``delta``."""
    forward = dict(walks._forward)
    backward = dict(walks._backward)
    evicted = set()
    for _added, edge in delta.edge_changes():
        for start, (_collected, region) in list(forward.items()):
            if edge.source in region:
                del forward[start]
                evicted.add(("forward", start))
        for start, (_collected, region) in list(backward.items()):
            if edge.target in region:
                del backward[start]
                evicted.add(("backward", start))
    return evicted


@pytest.mark.parametrize("workload", WORKLOADS, ids=WORKLOAD_IDS)
class TestMarkingViewMaintenance:
    def test_patched_view_equals_fresh_compile_under_random_edits(self, workload):
        graph, policy, consumer = workload()
        graph.enable_delta_log()
        view = policy.markings.compile(graph, consumer)
        rng = random.Random(99)
        patched = 0
        for step in range(40):
            apply_random_edit(graph, rng, step)
            maintained = policy.markings.compile(graph, consumer)
            fresh = CompiledMarkingView(
                graph, policy.markings, policy.lattice.get(consumer)
            )
            assert maintained.node_default == fresh.node_default
            assert maintained.edge_state_table == fresh.edge_state_table
            assert maintained._overrides == fresh._overrides
            assert maintained.graph_version == graph.version
            if maintained is view:
                patched += 1
        # The edits above are all patchable: the cached view object must
        # survive the whole script (delta path, not recompilation).
        assert patched == 40

    def test_broken_chain_falls_back_to_recompile(self, workload):
        graph, policy, consumer = workload()
        graph.enable_delta_log(limit=2)
        view = policy.markings.compile(graph, consumer)
        rng = random.Random(7)
        for step in range(6):  # more edits than the log holds
            apply_random_edit(graph, rng, step)
        before = view_maintenance_stats()["marking_view"].get("compiled", 0)
        maintained = policy.markings.compile(graph, consumer)
        assert maintained is not view
        assert view_maintenance_stats()["marking_view"]["compiled"] == before + 1
        fresh = CompiledMarkingView(graph, policy.markings, policy.lattice.get(consumer))
        assert maintained.edge_state_table == fresh.edge_state_table


@dataclass(frozen=True)
class FocusOnlyAdversary:
    """Focus falls with degree, inference is flat: the two weights move apart."""

    LOCAL_WEIGHTS = True

    def focus_probability(self, account_graph, node_id):
        return 1.0 / (1 + account_graph.neighbor_count(node_id))

    def inference_probability(self, account_graph, node_id):
        return 0.5


@pytest.mark.parametrize("workload", WORKLOADS, ids=WORKLOAD_IDS)
@pytest.mark.parametrize(
    "adversary",
    [
        NaiveAdversary(),
        AdvancedAdversary(),
        AdvancedAdversary.figure5(),
        FocusOnlyAdversary(),
    ],
    ids=["naive", "advanced", "figure5", "focus-only"],
)
class TestOpacityViewMaintenance:
    def test_patched_view_equals_fresh_compile_under_random_edits(
        self, workload, adversary
    ):
        graph, _policy, _consumer = workload()
        graph.enable_delta_log()
        view = CompiledOpacityView.compile(graph, adversary)
        rng = random.Random(31)
        last_version = graph.version
        for step in range(40):
            apply_random_edit(graph, rng, step)
            for delta in graph.deltas_since(last_version):
                focus = dict(view.focus_weights)
                inference = dict(view.inference_weights)
                revision = view.weights_revision
                assert view.apply_delta(delta, adversary)
                # The revision moves exactly when some weight did.
                moved = view.focus_weights != focus or view.inference_weights != inference
                assert view.weights_revision == revision + moved
            last_version = graph.version
            fresh = CompiledOpacityView.compile(graph, adversary)
            assert view.focus_weights == fresh.focus_weights
            assert view.inference_weights == fresh.inference_weights
            assert view.total_focus == fresh.total_focus
            assert view.total_inference == fresh.total_inference
            assert view.denominators() == fresh.denominators()
            assert view.node_count == fresh.node_count

    def test_derived_view_equals_fresh_compile(self, workload, adversary):
        graph, _policy, _consumer = workload()
        other = graph.copy()
        rng = random.Random(17)
        for step in range(10):
            apply_random_edit(other, rng, step)
        view = CompiledOpacityView.compile(graph, adversary)
        simulations = opacity_simulations_run()
        derived = view.derive_for(other, adversary)
        assert derived is not None
        assert opacity_simulations_run() == simulations  # zero new simulations
        fresh = CompiledOpacityView.compile(other, adversary)
        assert derived.focus_weights == fresh.focus_weights
        assert derived.inference_weights == fresh.inference_weights
        assert derived.total_focus == fresh.total_focus
        assert derived.total_inference == fresh.total_inference
        assert derived.denominators() == fresh.denominators()


class TestOpacityViewGuards:
    def test_non_local_adversary_refuses_patch_and_derivation(self):
        class GlobalAdversary:
            """Weights depend on global structure: not delta-local."""

            def focus_probability(self, account_graph, node_id):
                return float(account_graph.edge_count())

            def inference_probability(self, account_graph, node_id):
                return 1.0

        graph = random_digraph(10, 20, seed=1)
        graph.enable_delta_log()
        adversary = GlobalAdversary()
        view = CompiledOpacityView.compile(graph, adversary)
        version = graph.version
        graph.add_node("x")
        (delta,) = graph.deltas_since(version)
        assert view.apply_delta(delta, adversary) is False
        assert view.derive_for(graph.copy(), adversary) is None

    def test_stale_chain_refuses_patch(self):
        graph = random_digraph(10, 20, seed=2)
        graph.enable_delta_log()
        adversary = AdvancedAdversary()
        view = CompiledOpacityView.compile(graph, adversary)
        version = graph.version
        graph.add_node("x")
        graph.add_node("y")
        deltas = graph.deltas_since(version)
        assert view.apply_delta(deltas[1], adversary) is False  # skipped one


@pytest.mark.parametrize("workload", WORKLOADS, ids=WORKLOAD_IDS)
class TestWalkCacheMaintenance:
    def test_evicted_walks_recompute_to_fresh_answers(self, workload):
        graph, policy, consumer = workload()
        graph.enable_delta_log()
        view = policy.markings.compile(graph, consumer)
        walks = VisibleWalkCache(graph, view, policy.lattice.get(consumer))
        for node_id in graph.node_ids():
            walks.forward(node_id)
            walks.backward(node_id)
        rng = random.Random(5)
        last_version = graph.version
        for step in range(25):
            nodes = graph.node_ids()
            edges = graph.edge_keys()
            if step % 2 == 0 and edges:
                graph.remove_edge(*rng.choice(edges))
            else:
                source, target = rng.sample(nodes, 2)
                if graph.has_edge(source, target):
                    continue
                graph.add_edge(source, target)
            view = policy.markings.compile(graph, consumer)  # patched in place
            for delta in graph.deltas_since(last_version):
                assert walks.apply_delta(delta) is not None
            last_version = graph.version
            fresh = VisibleWalkCache(graph, view, policy.lattice.get(consumer))
            for node_id in graph.node_ids():
                assert walks.forward(node_id) == fresh.forward(node_id), step
                assert walks.backward(node_id) == fresh.backward(node_id), step

    def test_eviction_is_scoped_not_blanket(self, workload):
        graph, policy, consumer = workload()
        graph.enable_delta_log()
        view = policy.markings.compile(graph, consumer)
        walks = VisibleWalkCache(graph, view, policy.lattice.get(consumer))
        for node_id in graph.node_ids():
            walks.forward(node_id)
            walks.backward(node_id)
        populated = walks.cached_walk_count()
        edges = graph.edge_keys()
        version = graph.version
        graph.remove_edge(*edges[0])
        policy.markings.compile(graph, consumer)
        (delta,) = graph.deltas_since(version)
        evicted = walks.apply_delta(delta)
        assert evicted is not None
        assert len(evicted) < populated  # only intersecting walks went

    def test_region_index_eviction_matches_a_full_scan(self, workload):
        graph, policy, consumer = workload()
        graph.enable_delta_log()
        privilege = policy.lattice.get(consumer)
        view = policy.markings.compile(graph, consumer)
        walks = VisibleWalkCache(graph, view, privilege)
        rng = random.Random(23)
        evicted_total = 0
        walks.forward(graph.node_ids()[0])
        assert walks._forward_index is None  # built by the first patch only
        for step in range(40):
            # A partly filled cache: eviction must find walks, not sweep them.
            for node_id in rng.sample(graph.node_ids(), len(graph) // 2):
                if rng.random() < 0.5:
                    walks.forward(node_id)
                else:
                    walks.backward(node_id)
            version = graph.version
            apply_random_edge_edit(graph, rng, step)
            view = policy.markings.compile(graph, consumer)  # patched in place
            for delta in graph.deltas_since(version):
                expected = scan_evictions(walks, delta)
                evicted = walks.apply_delta(delta)
                assert evicted is not None
                assert len(evicted) == len(set(evicted)) == len(expected), step
                assert set(evicted) == expected, step
                evicted_total += len(evicted)
            if walks._forward_index is not None:
                assert walks._forward_index == region_index(walks._forward), step
                assert walks._backward_index == region_index(walks._backward), step
            # Every walk the patch kept answers as a fresh walk would.
            fresh = VisibleWalkCache(graph, view, privilege)
            for start, cached in walks._forward.items():
                fresh.forward(start)
                assert cached == fresh._forward[start], step
            for start, cached in walks._backward.items():
                fresh.backward(start)
                assert cached == fresh._backward[start], step
        assert evicted_total > 0
        assert walks._forward_index is not None

    def test_node_structural_delta_demands_rebuild(self, workload):
        graph, policy, consumer = workload()
        graph.enable_delta_log()
        view = policy.markings.compile(graph, consumer)
        walks = VisibleWalkCache(graph, view, policy.lattice.get(consumer))
        version = graph.version
        graph.add_node("brand-new")
        policy.markings.compile(graph, consumer)
        (delta,) = graph.deltas_since(version)
        assert walks.apply_delta(delta) is None


class TestCacheDeltaScoping:
    def test_account_cache_entries_evicted_on_graph_delta(self):
        from repro.api import ProtectionRequest, ProtectionService

        graph, policy, consumer = random_family()
        other_graph, other_policy, other_consumer = random_family(seed=77)
        service = ProtectionService(None, policy)
        service.protect(ProtectionRequest(privileges=(consumer,), graph=graph))
        service.protect(
            ProtectionRequest(privileges=(other_consumer,), graph=other_graph)
        )
        assert len(service.cache) == 2
        graph.remove_edge(*graph.edge_keys()[0])
        # Only the edited graph's entry is dropped, promptly.
        assert len(service.cache) == 1

    def test_opacity_view_cache_patches_and_rekeys_on_delta(self):
        adversary = AdvancedAdversary()
        cache = OpacityViewCache()
        graph = random_digraph(30, 90, seed=3)
        graph.enable_delta_log()
        token = None
        try:
            from repro.graph.deltas import DeltaBus

            bus = DeltaBus()
            bus.subscribe(cache.on_delta)
            token = bus.attach(graph)
            view = cache.get_or_compile(graph, adversary)
            pre_edit_total = view.total_inference
            simulations = opacity_simulations_run()
            graph.remove_edge(*graph.edge_keys()[0])
            patched = cache.get_or_compile(graph, adversary)
            # Copy-on-patch: a new, patched object is served with zero new
            # simulations, while concurrent holders of the old view keep a
            # consistent (stale, now-rejected) snapshot.
            assert patched is not view
            assert opacity_simulations_run() == simulations
            assert view.total_inference == pre_edit_total
            assert not view.is_current_for(graph, adversary)
            fresh = CompiledOpacityView.compile(graph, adversary)
            assert patched.denominators() == fresh.denominators()
            assert patched.total_inference == fresh.total_inference
        finally:
            if token is not None:
                bus.detach(graph, token)
