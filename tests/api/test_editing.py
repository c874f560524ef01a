"""Tests for :class:`repro.api.editing.EditSession` and the edit pipeline.

The load-bearing property is *observational invisibility*: after any edit
script, the session's account and ScoreCard must be exactly — graph equality,
set equality, bit-identical floats — what a cold ``protect()+score()`` of
the edited graph produces.  Everything else (timings keys, maintenance
counters, fallback behaviour, simulation sharing) is pinned on top of that.
"""

from __future__ import annotations

import random

import pytest

from repro.api import ProtectionRequest, ProtectionService
from repro.api.editing import _ComponentIndex
from repro.core.opacity import (
    DEFAULT_ADVERSARY,
    AdvancedAdversary,
    opacity_simulations_run,
)
from repro.core.policy import ReleasePolicy
from repro.core.privileges import figure1_lattice
from repro.exceptions import ProtectionError
from repro.graph.deltas import view_maintenance_stats
from repro.graph.model import PropertyGraph
from repro.graph.traversal import connected_pairs
from repro.workloads.motifs import all_motifs
from repro.workloads.random_graphs import random_digraph, sample_edges
from repro.workloads.social import figure2_variant
from repro.workloads.synthetic import small_family_for_tests


def build_workload(node_count=120, edge_count=360, seed=21):
    graph = random_digraph(node_count, edge_count, seed=seed)
    lattice, privileges = figure1_lattice()
    policy = ReleasePolicy(lattice)
    rng = random.Random(seed)
    for node_id in rng.sample(graph.node_ids(), max(1, node_count // 10)):
        policy.protect_node(graph, node_id, privileges["Low-2"], lowest=privileges["High-1"])
    policy.protect_edges(
        sample_edges(graph, max(1, edge_count // 20), seed=seed), privileges["Low-2"]
    )
    return graph, policy, privileges["Low-2"]


def assert_matches_fresh(
    result, graph, policy, consumer, adversary=None, normalize_focus=False
):
    """The session result == a cold protect()+score() of the edited graph."""
    service = ProtectionService(graph, policy.copy())
    reference = service.protect(ProtectionRequest(privileges=(consumer,), score=False))
    scores = service.score(
        reference.account, adversary=adversary, normalize_focus=normalize_focus
    )
    assert result.account.graph == reference.account.graph
    assert result.account.surrogate_edges == reference.account.surrogate_edges
    assert result.account.correspondence == reference.account.correspondence
    assert result.scores.path_utility == scores.path_utility
    assert result.scores.node_utility == scores.node_utility
    assert result.scores.average_opacity == scores.average_opacity
    assert result.scores.min_opacity == scores.min_opacity
    assert result.scores.opacity.per_edge == scores.opacity.per_edge
    assert result.scores.utility.path_percentages == scores.utility.path_percentages
    # Key order too: the float averages are order-dependent sums.
    assert list(result.scores.opacity.per_edge.items()) == list(
        scores.opacity.per_edge.items()
    )
    assert list(result.scores.utility.path_percentages.items()) == list(
        scores.utility.path_percentages.items()
    )


def _stat(component, event):
    return view_maintenance_stats().get(component, {}).get(event, 0)


class TestEditSessionEquivalence:
    def test_edge_edits_take_the_delta_path_and_stay_exact(self):
        graph, policy, consumer = build_workload()
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        rng = random.Random(77)
        removed = []
        for step in range(30):
            if step % 3 == 2 and removed:
                edge = removed.pop()
                session.add_edge(edge.source, edge.target, label=edge.label)
            elif step % 3 == 1:
                source, target = rng.sample(graph.node_ids(), 2)
                if graph.has_edge(source, target):
                    continue
                session.add_edge(source, target, label=f"new{step}")
            else:
                removed.append(session.remove_edge(*rng.choice(graph.edge_keys())))
            result = session.commit()
            assert result.timings_ms["recompile_fallback"] == 0.0
            assert result.timings_ms["delta_apply"] > 0.0
            assert_matches_fresh(result, graph, policy, consumer)
        session.close()

    def test_multiple_edits_in_one_commit_stay_on_the_delta_path(self):
        # Regression: a commit replaying a chain of >1 deltas used to fall
        # back because the walk cache demanded the marking view sit exactly
        # at each intermediate post-version.
        graph, policy, consumer = build_workload(seed=23)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        rng = random.Random(1)
        session.remove_edge(*rng.choice(graph.edge_keys()))
        session.remove_edge(*rng.choice(graph.edge_keys()))
        source, target = rng.sample(graph.node_ids(), 2)
        if not graph.has_edge(source, target):
            session.add_edge(source, target)
        result = session.commit()
        assert result.timings_ms["recompile_fallback"] == 0.0
        assert result.timings_ms["delta_apply"] > 0.0
        assert_matches_fresh(result, graph, policy, consumer)
        session.close()

    def test_bidirectional_insert_is_one_commit_one_patch(self):
        graph, policy, consumer = build_workload(seed=5)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        before = view_maintenance_stats()["edit_session"].get("delta_applied", 0)
        source, target = [n for n in graph.node_ids() if not graph.has_link(n, graph.node_ids()[0])][:2]
        session.add_bidirectional_edge(source, target, label="peer")
        result = session.commit()
        assert view_maintenance_stats()["edit_session"]["delta_applied"] == before + 1
        assert result.timings_ms["recompile_fallback"] == 0.0
        assert_matches_fresh(result, graph, policy, consumer)
        session.close()

    def test_node_removal_falls_back_and_stays_exact(self):
        graph, policy, consumer = build_workload(seed=9)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        rng = random.Random(11)
        # Remove a node with incident edges: the under-tested invalidation path.
        candidates = [n for n in graph.node_ids() if graph.degree(n) > 2]
        session.remove_node(rng.choice(candidates))
        result = session.commit()
        assert result.timings_ms["recompile_fallback"] > 0.0
        assert result.timings_ms["delta_apply"] == 0.0
        assert_matches_fresh(result, graph, policy, consumer)
        session.close()

    def test_feature_edit_falls_back_and_stays_exact(self):
        graph, policy, consumer = build_workload(seed=13)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        session.set_node_features(graph.node_ids()[3], {"label": "edited"})
        result = session.commit()
        assert result.timings_ms["recompile_fallback"] > 0.0
        assert_matches_fresh(result, graph, policy, consumer)
        session.close()

    def test_mixed_script_interleaves_paths_and_stays_exact(self):
        graph, policy, consumer = build_workload(seed=31)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        rng = random.Random(3)
        fallbacks = patched = 0
        for step in range(25):
            roll = rng.random()
            nodes = graph.node_ids()
            if roll < 0.4:
                session.remove_edge(*rng.choice(graph.edge_keys()))
            elif roll < 0.7:
                source, target = rng.sample(nodes, 2)
                if graph.has_edge(source, target):
                    continue
                session.add_edge(source, target)
            elif roll < 0.8:
                session.set_node_features(rng.choice(nodes), {"step": step})
            elif roll < 0.9 and len(nodes) > 20:
                session.remove_node(rng.choice(nodes))
            else:
                session.add_node(f"fresh{step}")
                session.add_bidirectional_edge(f"fresh{step}", rng.choice(nodes))
            result = session.commit()
            if result.timings_ms["recompile_fallback"] > 0.0:
                fallbacks += 1
            else:
                patched += 1
            assert_matches_fresh(result, graph, policy, consumer)
        assert patched > 0 and fallbacks > 0  # both paths exercised
        session.close()

    def test_policy_change_falls_back(self):
        graph, policy, consumer = build_workload(seed=41)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        policy.protect_edge(graph.edge_keys()[0], consumer)
        session.remove_edge(*graph.edge_keys()[1])
        result = session.commit()
        assert result.timings_ms["recompile_fallback"] > 0.0
        assert_matches_fresh(result, graph, policy, consumer)
        session.close()

    def test_policy_only_change_falls_back(self):
        # Regression: with no graph edit pending, commit() used to return
        # the previous result even though the policy had changed.
        graph, policy, consumer = build_workload(seed=41)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        first = session.result

        def fallbacks():
            stats = view_maintenance_stats().get("edit_session", {})
            return stats.get("recompile_fallback", 0)

        before = fallbacks()
        policy.protect_edge(graph.edge_keys()[0], consumer)
        result = session.commit()
        assert result is not first
        assert result.timings_ms["recompile_fallback"] > 0.0
        assert fallbacks() == before + 1
        assert_matches_fresh(result, graph, policy, consumer)
        assert session.commit() is result  # nothing pending any more
        session.close()

    def test_removals_around_a_cut_vertex_in_one_commit(self):
        # Regression: each removal of a batch used to search the edited
        # graph from its source alone, so cutting both edges of a cut
        # vertex in one commit left its two far sides counted as connected.
        graph, policy, consumer = build_workload(seed=43)
        graph.add_node("hub")
        graph.add_node("leaf")
        graph.add_edge("hub", graph.node_ids()[0])
        graph.add_edge("hub", "leaf")
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        session.remove_edge("hub", graph.node_ids()[0])
        session.remove_edge("hub", "leaf")
        result = session.commit()
        assert result.timings_ms["recompile_fallback"] == 0.0
        assert_matches_fresh(result, graph, policy, consumer)
        session.close()


class TestEditSessionBehaviour:
    def test_commit_without_edits_returns_last_result(self):
        graph, policy, consumer = build_workload(seed=2)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        first = session.result
        assert session.commit() is first
        session.close()

    def test_context_manager_commits_pending_edits(self):
        graph, policy, consumer = build_workload(seed=4)
        service = ProtectionService(graph, policy)
        with service.edit(consumer) as session:
            session.remove_edge(*graph.edge_keys()[0])
        assert_matches_fresh(session.result, graph, policy, consumer)

    def test_closed_session_refuses_commit(self):
        graph, policy, consumer = build_workload(seed=6)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        session.close()
        graph.remove_edge(*graph.edge_keys()[0])
        with pytest.raises(ProtectionError):
            session.commit()

    def test_multi_graph_service_refuses_edit(self):
        _graph, policy, consumer = build_workload(seed=8)
        service = ProtectionService(None, policy)
        with pytest.raises(ProtectionError):
            service.edit(consumer)

    def test_direct_graph_mutation_is_observed(self):
        graph, policy, consumer = build_workload(seed=10)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        graph.remove_edge(*graph.edge_keys()[0])  # not via the proxy
        result = session.commit()
        assert result.timings_ms["delta_apply"] > 0.0
        assert_matches_fresh(result, graph, policy, consumer)
        session.close()

    def test_session_account_is_private_never_the_cached_one(self):
        graph, policy, consumer = build_workload(seed=12)
        service = ProtectionService(graph, policy)
        cached = service.protect(ProtectionRequest(privileges=(consumer,)))
        session = service.edit(consumer)
        assert session.account is not cached.account
        session.close()

    def test_fallback_counters_are_recorded(self):
        graph, policy, consumer = build_workload(seed=14)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        before = dict(view_maintenance_stats().get("edit_session", {}))
        session.remove_edge(*graph.edge_keys()[0])
        session.commit()
        session.remove_node(graph.node_ids()[0])
        session.commit()
        after = view_maintenance_stats()["edit_session"]
        assert after.get("delta_applied", 0) == before.get("delta_applied", 0) + 1
        assert (
            after.get("recompile_fallback", 0)
            == before.get("recompile_fallback", 0) + 1
        )
        session.close()


class TestOpacityViewReuseAcrossEdits:
    def test_commit_patches_the_session_simulation_in_place(self):
        graph, policy, consumer = build_workload(seed=25)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        account_graph = session.account.graph
        view = session.result.scores.opacity.view
        assert view is not None
        version = account_graph.version
        patches = _stat("opacity_view", "delta_applied")
        simulations = opacity_simulations_run()
        shown = next(
            key
            for key in graph.edge_keys()
            if session.account.contains_original_edge(*key)
        )
        session.remove_edge(*shown)
        result = session.commit()
        assert result.timings_ms["recompile_fallback"] == 0.0
        assert account_graph.version > version  # the commit changed the account
        assert result.scores.opacity.view is view
        assert view.graph_version == account_graph.version
        assert _stat("opacity_view", "delta_applied") == patches + 1
        assert opacity_simulations_run() == simulations
        assert all(
            cached._graph_ref() is not account_graph
            for cached in service._opacity_views._entries.values()
        )
        assert_matches_fresh(result, graph, policy, consumer)
        session.close()

    def test_commit_patches_the_account_simulation_at_most_once(self):
        # Regression: each account-edge mutation used to dispatch its own
        # delta, patching the simulation once per edge; the diff now
        # commits as one batch -> at most one patch per commit.
        graph, policy, consumer = build_workload(seed=25)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        before = view_maintenance_stats()["opacity_view"].get("delta_applied", 0)
        rng = random.Random(9)
        session.remove_edge(*rng.choice(graph.edge_keys()))
        result = session.commit()
        assert result.timings_ms["recompile_fallback"] == 0.0
        after = view_maintenance_stats()["opacity_view"].get("delta_applied", 0)
        assert after - before <= 1
        session.close()

    def test_edit_loop_runs_zero_extra_simulations_on_the_delta_path(self):
        graph, policy, consumer = build_workload(seed=16)
        service = ProtectionService(graph, policy)
        session = service.edit(consumer)
        simulations = opacity_simulations_run()
        rng = random.Random(5)
        for _step in range(10):
            session.remove_edge(*rng.choice(graph.edge_keys()))
            session.commit()
        # Every re-score ran off the *patched* compiled simulation.
        assert opacity_simulations_run() == simulations
        session.close()


class TestMultiPrivilegeSimulationSharing:
    def multi_workload(self, seed=18):
        graph = random_digraph(150, 450, seed=seed)
        lattice, privileges = figure1_lattice()
        policy = ReleasePolicy(lattice)
        for index, node_id in enumerate(graph.node_ids()):
            if index % 4 == 0:
                policy.set_lowest(node_id, privileges["High-1"])
            elif index % 5 == 0:
                policy.set_lowest(node_id, privileges["High-2"])
        # Hide-protect some edges between *visible* nodes so the accounts
        # carry hidden edges whose endpoints are representable — the case
        # that actually needs an adversary simulation to score.
        from repro.core.policy import STRATEGY_HIDE

        policy.protect_edges(
            sample_edges(graph, 40, seed=seed), "Public", strategy=STRATEGY_HIDE
        )
        return graph, policy

    def test_sub_accounts_share_one_simulation(self):
        graph, policy = self.multi_workload()
        service = ProtectionService(graph, policy)
        merged = service.protect(
            ProtectionRequest(privileges=("High-1", "High-2"), score=False)
        ).account
        family = merged.derivation_peers
        assert len(family) == 3 and merged in family
        before = opacity_simulations_run()
        service.score(merged)
        assert opacity_simulations_run() == before + 1  # the one family simulation
        for member in family:
            if member is not merged:
                service.score(member)
        assert opacity_simulations_run() == before + 1  # derived, not re-simulated
        derived = view_maintenance_stats()["opacity_view"].get("derived", 0)
        assert derived >= 2

    def test_derived_sub_account_scores_are_exact(self):
        graph, policy = self.multi_workload(seed=20)
        service = ProtectionService(graph, policy)
        merged = service.protect(
            ProtectionRequest(privileges=("High-1", "High-2"), score=False)
        ).account
        service.score(merged)  # seeds the family simulation
        fresh_service = ProtectionService(graph, policy)
        for member in merged.derivation_peers:
            derived = service.score(member)
            independent = fresh_service.score(member)
            assert derived.opacity.average == independent.opacity.average
            assert derived.opacity.per_edge == independent.opacity.per_edge


# ---------------------------------------------------------------------- #
# randomized edit scripts over the four workload families
# ---------------------------------------------------------------------- #
def random_family():
    return build_workload(node_count=60, edge_count=150, seed=13)


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


FAMILIES = [random_family, synthetic_family, motif_family, social_family]
FAMILY_IDS = ["random", "synthetic", "motif", "social"]


def _bridge_edges(graph):
    """Edges whose removal cuts a node off (it has no other neighbour)."""
    return [
        (source, target)
        for source, target in graph.edge_keys()
        if graph.neighbor_count(source) == 1 or graph.neighbor_count(target) == 1
    ]


def _tier_edit(session, graph, rng):
    """An edit at a node whose account degree sits on an adversary tier edge.

    The default adversary weighs account nodes by connected-node count with
    tiers at 0, 1 and 2+, so adding or cutting an edge at a node with one or
    two account neighbours moves it across a tier whenever the account
    shows the change.
    """
    account = session.account
    boundary = [
        node_id
        for node_id in graph.node_ids()
        if account.account_node_of(node_id) is not None
        and account.graph.neighbor_count(account.account_node_of(node_id)) in (1, 2)
    ]
    if not boundary:
        return None
    node_id = rng.choice(boundary)
    incident = [edge.key for edge in graph.incident_edges(node_id)]
    if incident and rng.random() < 0.5:
        return session.remove_edge(*rng.choice(incident))
    others = [
        other
        for other in graph.node_ids()
        if other != node_id
        and not graph.has_edge(node_id, other)
        and account.account_node_of(other) is not None
    ]
    if not others:
        return None
    session.add_edge(node_id, rng.choice(others), label="tier")
    return None


COMMITS = 60


def run_random_edit_script(family, adversary=None, normalize_focus=False):
    """Run a seeded random edit script, each commit checked against a fresh one.

    Returns how many commits rescored every hidden edge.
    """
    graph, policy, consumer = family()
    service = ProtectionService(graph, policy)
    session = service.edit(consumer, adversary=adversary, normalize_focus=normalize_focus)
    rng = random.Random(FAMILY_IDS[FAMILIES.index(family)])
    rescored_before = _stat("edit_session", "opacity_rescored")
    removed = []
    for step in range(COMMITS):
        for _edit in range(rng.randint(1, 3)):
            roll = rng.random()
            edges = graph.edge_keys()
            if roll < 0.25 and edges:
                removed.append(session.remove_edge(*rng.choice(edges)))
            elif roll < 0.45 and removed:
                edge = removed.pop(rng.randrange(len(removed)))
                if not graph.has_edge(edge.source, edge.target):
                    session.add_edge(
                        edge.source, edge.target, label=edge.label, features=dict(edge.features)
                    )
            elif roll < 0.6:
                source, target = rng.sample(graph.node_ids(), 2)
                if not graph.has_edge(source, target):
                    session.add_edge(source, target, label=f"fresh{step}")
            elif roll < 0.75:
                bridges = _bridge_edges(graph)
                if bridges:
                    removed.append(session.remove_edge(*rng.choice(bridges)))
            else:
                edge = _tier_edit(session, graph, rng)
                if edge is not None:
                    removed.append(edge)
        result = session.commit()
        assert result.timings_ms["recompile_fallback"] == 0.0
        assert_matches_fresh(
            result, graph, policy, consumer, adversary, normalize_focus
        )
    session.close()
    return _stat("edit_session", "opacity_rescored") - rescored_before


@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_random_edit_scripts_stay_exact_including_key_order(family):
    rescores = run_random_edit_script(family)
    # Both opacity paths ran: some commits moved the adversary's weights
    # (every hidden edge rescored), most carried the other values over.  The
    # social example only hides edges at nodes its account drops, so it
    # never needs the adversary simulation at all.
    assert rescores < COMMITS
    assert rescores > 0 or family is social_family


class NonLocalAdversary:
    """The default adversary's tiers, without declaring ``LOCAL_WEIGHTS``.

    Every in-place patch of its simulation is refused, so each commit that
    changes the account compiles a fresh view and compares its weight maps
    with the stale one's.
    """

    def focus_probability(self, account_graph, node_id):
        return DEFAULT_ADVERSARY.focus_probability(account_graph, node_id)

    def inference_probability(self, account_graph, node_id):
        return DEFAULT_ADVERSARY.inference_probability(account_graph, node_id)


ADVERSARY_VARIANTS = [
    (None, True),
    (AdvancedAdversary.figure5(), False),
    (NonLocalAdversary(), False),
    (NonLocalAdversary(), True),
]
ADVERSARY_IDS = ["normalized", "figure5", "non-local", "non-local-normalized"]


# The social example never needs the adversary simulation (see above).
@pytest.mark.parametrize("family", FAMILIES[:3], ids=FAMILY_IDS[:3])
@pytest.mark.parametrize("adversary,normalize_focus", ADVERSARY_VARIANTS, ids=ADVERSARY_IDS)
def test_random_edit_scripts_stay_exact_for_every_adversary(
    family, adversary, normalize_focus
):
    patches = _stat("opacity_view", "delta_applied")
    rescores = run_random_edit_script(family, adversary, normalize_focus)
    # Both opacity paths ran, as above.
    assert 0 < rescores < COMMITS
    # A delta-local adversary's simulation was patched in place; any other
    # was recompiled and compared on every commit that changed the account.
    local = not isinstance(adversary, NonLocalAdversary)
    assert (_stat("opacity_view", "delta_applied") > patches) is local


# ---------------------------------------------------------------------- #
# the component index against connected_pairs
# ---------------------------------------------------------------------- #
def _assert_index_exact(index, graph, before, moved):
    truth = connected_pairs(graph)
    counts = {node_id: index.connected_count(node_id) for node_id in graph.node_ids()}
    assert counts == truth
    changed = {node_id for node_id in truth if truth[node_id] != before[node_id]}
    assert changed <= set(moved)


class TestComponentIndex:
    def test_random_inserts_and_removals_match_connected_pairs(self):
        rng = random.Random(5)
        graph = random_digraph(40, 45, seed=5)
        index = _ComponentIndex(graph)
        for _step in range(400):
            before = connected_pairs(graph)
            edges = graph.edge_keys()
            if edges and rng.random() < 0.5:
                source, target = rng.choice(edges)
                graph.remove_edge(source, target)
                moved = index.remove_edge(source, target)
            else:
                source, target = rng.sample(graph.node_ids(), 2)
                if graph.has_edge(source, target):
                    continue
                graph.add_edge(source, target)
                moved = index.add_edge(source, target)
            _assert_index_exact(index, graph, before, moved)

    def test_equal_size_split(self):
        graph = PropertyGraph()
        for step in range(8):
            graph.add_node(step)
        for step in range(7):
            graph.add_edge(step, step + 1)
        index = _ComponentIndex(graph)
        before = connected_pairs(graph)
        graph.remove_edge(3, 4)
        moved = index.remove_edge(3, 4)
        _assert_index_exact(index, graph, before, moved)
        assert {index.connected_count(node_id) for node_id in range(8)} == {3}

    def test_pair_still_linked_in_reverse_does_not_split(self):
        graph = PropertyGraph()
        for node_id in "abc":
            graph.add_node(node_id)
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        graph.add_edge("b", "c")
        index = _ComponentIndex(graph)
        graph.remove_edge("a", "b")
        assert index.remove_edge("a", "b") == set()
        assert index.connected_count("a") == 2

    def test_interleaved_batches_match_connected_pairs(self):
        rng = random.Random(11)
        graph = random_digraph(40, 50, seed=11)
        index = _ComponentIndex(graph)
        for _batch in range(150):
            before = connected_pairs(graph)
            changes = []
            for _edit in range(rng.randint(2, 5)):
                edges = graph.edge_keys()
                if edges and rng.random() < 0.6:
                    changes.append((False, graph.remove_edge(*rng.choice(edges))))
                else:
                    source, target = rng.sample(graph.node_ids(), 2)
                    if not graph.has_edge(source, target):
                        changes.append((True, graph.add_edge(source, target)))
            moved = index.apply_changes(changes)
            _assert_index_exact(index, graph, before, moved)

    def test_batch_cutting_both_edges_of_a_cut_vertex(self):
        graph = PropertyGraph()
        for node_id in "xsyz":
            graph.add_node(node_id)
        graph.add_edge("s", "x")
        graph.add_edge("s", "y")
        graph.add_edge("y", "z")
        index = _ComponentIndex(graph)
        before = connected_pairs(graph)
        changes = [
            (False, graph.remove_edge("s", "x")),
            (False, graph.remove_edge("s", "y")),
        ]
        moved = index.apply_changes(changes)
        _assert_index_exact(index, graph, before, moved)
        assert index.connected_count("x") == 0
        assert index.connected_count("y") == 1
