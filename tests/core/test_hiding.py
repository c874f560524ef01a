"""Unit tests for the naive and hide baselines."""

import pytest

from repro.api import ProtectionService
from repro.core.hiding import STRATEGY_NAIVE, naive_protected_account
from repro.core.markings import Marking
from repro.core.policy import ReleasePolicy
from repro.core.utility import path_utility
from repro.core.validation import validate_protected_account


class TestNaiveAccount:
    def test_figure1c_nodes_and_components(self, figure1):
        account = naive_protected_account(figure1.graph, figure1.policy, figure1.high2)
        assert set(account.graph.node_ids()) == {"b", "c", "g", "h", "i", "j"}
        assert account.strategy == STRATEGY_NAIVE
        assert account.surrogate_nodes == set()
        assert account.surrogate_edges == set()
        # Exactly the visible-visible edges survive.
        assert set(account.graph.edge_keys()) == {("b", "c"), ("g", "j"), ("h", "i"), ("i", "j")}

    def test_naive_account_is_sound(self, figure1):
        account = naive_protected_account(figure1.graph, figure1.policy, figure1.high2)
        assert validate_protected_account(figure1.graph, account).ok

    def test_naive_respects_explicit_edge_hiding(self, chain_graph, basic_policy):
        public = basic_policy.lattice.public
        basic_policy.markings.mark_edge(("a", "b"), public, target=Marking.HIDE)
        account = naive_protected_account(chain_graph, basic_policy, public)
        assert not account.graph.has_edge("a", "b")

    def test_naive_can_ignore_edge_markings(self, chain_graph, basic_policy):
        public = basic_policy.lattice.public
        basic_policy.markings.mark_edge(("a", "b"), public, target=Marking.HIDE)
        account = naive_protected_account(
            chain_graph, basic_policy, public, respect_edge_markings=False
        )
        assert account.graph.has_edge("a", "b")

    def test_naive_for_fully_privileged_consumer_is_the_whole_graph(self, figure1):
        account = naive_protected_account(figure1.graph, figure1.policy, "High-1")
        assert account.graph == figure1.graph


class TestHideAccount:
    def test_hide_removes_protected_edges_without_summaries(self, chain_graph, basic_policy):
        account = (
            ProtectionService(chain_graph, basic_policy)
            .protect(privilege="Public", protect_edges=[("b", "c")], strategy="hide", score=False)
            .account
        )
        assert not account.graph.has_edge("b", "c")
        assert account.surrogate_edges == set()
        assert account.strategy == "hide"

    def test_hide_without_edges_uses_existing_markings(self, chain_graph, basic_policy):
        basic_policy.set_lowest("c", "Secret")
        account = (
            ProtectionService(chain_graph, basic_policy)
            .protect(privilege="Public", strategy="hide", include_surrogate_edges=False, score=False)
            .account
        )
        assert "c" not in account.graph.node_ids()
        assert account.surrogate_edges == set()

    def test_hide_does_not_mutate_the_policy(self, chain_graph, basic_policy):
        ProtectionService(chain_graph, basic_policy).protect(
            privilege="Public", protect_edges=[("b", "c")], strategy="hide", score=False
        )
        assert basic_policy.markings.explicit_marking("c", ("b", "c"), "Public") is None

    def test_hide_reduces_utility_vs_surrogate(self, chain_graph, basic_policy):
        service = ProtectionService(chain_graph, basic_policy)
        hide, surrogate = (
            service.protect(
                privilege="Public", protect_edges=[("a", "b")], strategy=strategy, score=False
            ).account
            for strategy in ("hide", "surrogate")
        )
        assert path_utility(chain_graph, surrogate) >= path_utility(chain_graph, hide)
