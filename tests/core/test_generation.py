"""Unit tests for the Surrogate Generation Algorithm (``build_protected_account``)."""

import pytest

from repro.core.generation import build_protected_account
from repro.core.markings import Marking
from repro.core.policy import ReleasePolicy, STRATEGY_SURROGATE
from repro.core.privileges import PrivilegeLattice
from repro.core.validation import validate_maximally_informative, validate_protected_account
from repro.exceptions import ProtectionError
from repro.graph.builders import graph_from_edges
from repro.workloads.social import figure2_variant


class TestNodeSelection:
    def test_visible_nodes_carried_over_unchanged(self, chain_graph, basic_policy):
        account = build_protected_account(chain_graph, basic_policy, "Public")
        assert set(account.graph.node_ids()) == {"a", "b", "c", "d"}
        assert account.surrogate_nodes == set()

    def test_protected_node_without_surrogate_is_omitted(self, chain_graph, basic_policy):
        basic_policy.set_lowest("c", "Secret")
        account = build_protected_account(chain_graph, basic_policy, "Public")
        assert "c" not in account.graph.node_ids()
        assert not account.represents("c")

    def test_protected_node_with_surrogate_is_replaced(self, chain_graph, basic_policy):
        basic_policy.set_lowest("c", "Secret")
        basic_policy.add_surrogate("c", "Public", surrogate_id="c_prime", features={"kind": "redacted"})
        account = build_protected_account(chain_graph, basic_policy, "Public")
        assert account.account_node_of("c") == "c_prime"
        assert account.is_surrogate_node("c_prime")
        assert account.graph.node("c_prime").features == {"kind": "redacted"}

    def test_null_surrogate_option(self, chain_graph, basic_policy):
        basic_policy.set_lowest("c", "Secret")
        basic_policy.use_null_surrogates = True
        account = build_protected_account(chain_graph, basic_policy, "Public")
        surrogate_id = account.account_node_of("c")
        assert surrogate_id is not None
        assert account.graph.node(surrogate_id).features == {}

    def test_surrogate_id_collision_raises(self, chain_graph, basic_policy):
        basic_policy.set_lowest("c", "Secret")
        # A surrogate whose id collides with an existing visible node.
        basic_policy.add_surrogate("c", "Public", surrogate_id="a")
        with pytest.raises(ProtectionError):
            build_protected_account(chain_graph, basic_policy, "Public")

    def test_consumer_with_full_privilege_sees_everything(self, chain_graph, basic_policy):
        basic_policy.set_lowest("c", "Secret")
        account = build_protected_account(chain_graph, basic_policy, "Secret")
        assert set(account.graph.node_ids()) == {"a", "b", "c", "d"}
        assert set(account.graph.edge_keys()) == set(chain_graph.edge_keys())


class TestEdgeGeneration:
    def test_visible_edges_between_present_nodes(self, chain_graph, basic_policy):
        account = build_protected_account(chain_graph, basic_policy, "Public")
        assert set(account.graph.edge_keys()) == set(chain_graph.edge_keys())
        assert account.surrogate_edges == set()

    def test_edges_to_hidden_nodes_dropped(self, chain_graph, basic_policy):
        basic_policy.set_lowest("c", "Secret")
        account = build_protected_account(chain_graph, basic_policy, "Public")
        assert set(account.graph.edge_keys()) == {("a", "b")}

    def test_surrogate_edge_skips_hidden_node(self, chain_graph, protected_chain_policy):
        account = build_protected_account(chain_graph, protected_chain_policy, "Public")
        assert ("b", "d") in account.graph.edge_keys()
        assert account.is_surrogate_edge("b", "d")
        assert account.graph.edge("b", "d").label == "surrogate"

    def test_visible_edges_attach_to_surrogate_nodes(self, chain_graph, two_level_lattice):
        policy = ReleasePolicy(two_level_lattice)
        policy.set_lowest("c", "Secret")
        policy.add_surrogate("c", "Public", surrogate_id="c_prime")
        public = two_level_lattice.public
        policy.markings.mark_edge(("b", "c"), public, target=Marking.VISIBLE)
        policy.markings.mark_edge(("c", "d"), public, source=Marking.VISIBLE)
        account = build_protected_account(chain_graph, policy, public)
        assert account.graph.has_edge("b", "c_prime")
        assert account.graph.has_edge("c_prime", "d")
        assert account.surrogate_edges == set()

    def test_include_surrogate_edges_flag(self, chain_graph, protected_chain_policy):
        account = build_protected_account(
            chain_graph, protected_chain_policy, "Public", include_surrogate_edges=False
        )
        assert not account.graph.has_edge("b", "d")

    def test_hidden_direct_edge_never_reasserted(self, two_level_lattice):
        graph = graph_from_edges([("a", "b"), ("a", "c"), ("c", "b")])
        policy = ReleasePolicy(two_level_lattice)
        public = two_level_lattice.public
        # a->b is sensitive and must not be shown; a->c->b would allow inferring
        # a computed a->b edge, but Definition 8's clause forbids it.
        policy.protect_edge(("a", "b"), public, strategy=STRATEGY_SURROGATE)
        policy.markings.mark_edge(("a", "c"), public, target=Marking.SURROGATE)
        account = build_protected_account(graph, policy, public)
        assert not account.graph.has_edge("a", "b")

    def test_generation_is_deterministic(self, chain_graph, protected_chain_policy):
        first = build_protected_account(chain_graph, protected_chain_policy, "Public")
        second = build_protected_account(chain_graph, protected_chain_policy, "Public")
        assert first.graph == second.graph
        assert first.surrogate_edges == second.surrogate_edges


class TestFigure2Accounts:
    @pytest.mark.parametrize(
        "variant, expected_edges",
        [
            ("a", {("b", "c"), ("c", "f'"), ("f'", "g"), ("g", "j"), ("h", "i"), ("i", "j")}),
            ("b", {("b", "c"), ("c", "g"), ("g", "j"), ("h", "i"), ("i", "j")}),
            ("c", {("b", "c"), ("g", "j"), ("h", "i"), ("i", "j")}),
            ("d", {("b", "c"), ("c", "g"), ("g", "j"), ("h", "i"), ("i", "j")}),
        ],
    )
    def test_account_edge_sets_match_paper(self, variant, expected_edges):
        example = figure2_variant(variant)
        account = build_protected_account(example.graph, example.policy, example.high2)
        assert set(account.graph.edge_keys()) == expected_edges

    def test_every_figure2_account_is_sound_and_maximal(self):
        for variant in ("a", "b", "c", "d"):
            example = figure2_variant(variant)
            account = build_protected_account(example.graph, example.policy, example.high2)
            assert validate_protected_account(example.graph, account).ok
            assert validate_maximally_informative(
                example.graph, example.policy, example.high2, account
            ).ok

