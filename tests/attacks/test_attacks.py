"""Unit tests for the edge-inference attack simulation."""

import pytest

from repro.api import ProtectionService
from repro.attacks.adversary import AttackOutcome, simulate_attack
from repro.attacks.inference import EdgeInferenceAttack
from repro.core.generation import build_protected_account
from repro.core.hiding import naive_protected_account
from repro.core.opacity import average_opacity
from repro.core.policy import ReleasePolicy
from repro.core.privileges import PrivilegeLattice
from repro.graph.builders import graph_from_edges
from repro.workloads.social import figure1_example


def _strategy_accounts(graph, policy, protected_edges):
    """The Public hide and surrogate accounts for the same protected edges."""
    service = ProtectionService(graph, policy)
    return {
        strategy: service.protect(
            privilege="Public", protect_edges=protected_edges, strategy=strategy, score=False
        ).account
        for strategy in ("hide", "surrogate")
    }


class TestEdgeInferenceAttack:
    def test_candidates_exclude_existing_edges_and_self_loops(self):
        graph = graph_from_edges([("a", "b"), ("b", "c")])
        attack = EdgeInferenceAttack()
        candidates = {edge.key for edge in attack.candidate_scores(graph)}
        assert ("a", "b") not in candidates
        assert ("a", "a") not in candidates
        assert ("a", "c") in candidates and ("c", "a") in candidates

    def test_scores_prefer_loner_endpoints(self):
        graph = graph_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("b", "d")], nodes=["lonely"])
        attack = EdgeInferenceAttack()
        ranked = attack.candidate_scores(graph)
        best = ranked[0]
        assert "lonely" in best.key or "a" in best.key

    def test_top_guesses_budget(self):
        graph = graph_from_edges([("a", "b"), ("b", "c")])
        attack = EdgeInferenceAttack()
        assert len(attack.top_guesses(graph, 3)) == 3
        assert attack.top_guesses(graph, 0) == []

    def test_tiny_graph_has_no_candidates(self):
        graph = graph_from_edges([], nodes=["only"])
        assert EdgeInferenceAttack().candidate_scores(graph) == []


class TestSimulateAttack:
    def test_outcome_metrics_bounded(self, figure1):
        account = naive_protected_account(figure1.graph, figure1.policy, figure1.high2)
        outcome = simulate_attack(figure1.graph, account)
        assert isinstance(outcome, AttackOutcome)
        assert 0.0 <= outcome.precision <= 1.0
        assert 0.0 <= outcome.recall <= 1.0
        assert outcome.summary()["hidden_edges"] == len(outcome.hidden)

    def test_nothing_hidden_means_nothing_to_recover(self, chain_graph):
        policy = ReleasePolicy(PrivilegeLattice())
        account = build_protected_account(chain_graph, policy, policy.lattice.public)
        outcome = simulate_attack(chain_graph, account, guess_budget=2)
        assert outcome.hits == set()
        assert outcome.recall == 0.0 or len(outcome.hidden) == 0

    def test_attacker_recovers_obvious_missing_link(self):
        # A chain whose middle edge is hidden leaves two suspicious stubs; with a
        # reasonable budget the attacker should name the missing link.
        graph = graph_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
        policy = ReleasePolicy(PrivilegeLattice())
        account = (
            ProtectionService(graph, policy)
            .protect(privilege="Public", protect_edges=[("b", "c")], strategy="hide", score=False)
            .account
        )
        outcome = simulate_attack(graph, account, guess_budget=4)
        assert ("b", "c") in outcome.hidden
        assert outcome.recall > 0.0

    def test_surrogate_account_no_easier_to_attack_than_hide(self):
        graph = graph_from_edges(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "c"), ("c", "e")]
        )
        policy = ReleasePolicy(PrivilegeLattice())
        protected_edges = [("b", "c"), ("c", "d")]
        accounts = _strategy_accounts(graph, policy, protected_edges)
        hide_outcome = simulate_attack(graph, accounts["hide"], guess_budget=4)
        surrogate_outcome = simulate_attack(graph, accounts["surrogate"], guess_budget=4)
        assert surrogate_outcome.recall <= hide_outcome.recall + 1e-9

    def test_opacity_and_attack_success_are_consistent(self):
        """Accounts with higher average opacity should not be easier to attack."""
        graph = graph_from_edges(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "c"), ("c", "e"), ("b", "d")]
        )
        policy = ReleasePolicy(PrivilegeLattice())
        protected_edges = [("b", "c")]
        accounts = _strategy_accounts(graph, policy, protected_edges)
        opacity_by_strategy = {
            name: average_opacity(graph, account, protected_edges) for name, account in accounts.items()
        }
        recall_by_strategy = {
            name: simulate_attack(graph, account, guess_budget=3).recall
            for name, account in accounts.items()
        }
        better = max(opacity_by_strategy, key=opacity_by_strategy.get)
        worse = min(opacity_by_strategy, key=opacity_by_strategy.get)
        assert recall_by_strategy[better] <= recall_by_strategy[worse] + 1e-9


class TestAttackOnMaintainedViews:
    def test_patched_view_scores_match_fresh_compile(self):
        # Regression: the attack used to read view.guess_denominators raw,
        # bypassing the lazy refresh of delta-patched/derived views.
        from repro.core.opacity import AdvancedAdversary, CompiledOpacityView
        from repro.workloads.random_graphs import random_digraph

        graph = random_digraph(25, 60, seed=6)
        graph.enable_delta_log()
        adversary = AdvancedAdversary()
        view = CompiledOpacityView.compile(graph, adversary)
        version = graph.version
        graph.remove_edge(*graph.edge_keys()[0])
        graph.remove_edge(*graph.edge_keys()[0])
        for delta in graph.deltas_since(version):
            assert view.apply_delta(delta, adversary)
        attack = EdgeInferenceAttack(adversary=adversary)
        patched = attack.top_guesses(graph, 5, view=view)
        fresh = attack.top_guesses(graph, 5)
        assert [(g.source, g.target, g.score) for g in patched] == [
            (g.source, g.target, g.score) for g in fresh
        ]

    def test_derived_view_scores_match_fresh_compile(self):
        from repro.core.opacity import AdvancedAdversary, CompiledOpacityView
        from repro.workloads.random_graphs import random_digraph

        graph = random_digraph(25, 60, seed=8)
        other = graph.copy()
        other.remove_edge(*other.edge_keys()[0])
        adversary = AdvancedAdversary()
        derived = CompiledOpacityView.compile(graph, adversary).derive_for(
            other, adversary
        )
        attack = EdgeInferenceAttack(adversary=adversary)
        from_derived = attack.top_guesses(other, 5, view=derived)
        fresh = attack.top_guesses(other, 5)
        assert [(g.source, g.target, g.score) for g in from_derived] == [
            (g.source, g.target, g.score) for g in fresh
        ]
