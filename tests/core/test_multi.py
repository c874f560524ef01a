"""Unit tests for multi-privilege (incomparable classes) protected accounts."""

import pytest

from repro.core.generation import build_protected_account
from repro.core.multi import build_multi_privilege_account, merge_accounts
from repro.core.policy import ReleasePolicy
from repro.core.privileges import PrivilegeLattice
from repro.core.utility import path_utility
from repro.core.validation import validate_protected_account
from repro.exceptions import ProtectionError
from repro.graph.builders import graph_from_edges
from repro.workloads.social import figure1_example


@pytest.fixture
def fork_policy():
    """a -> b -> c -> d with b visible only to Left and c visible only to Right."""
    lattice = PrivilegeLattice()
    left = lattice.add("Left", dominates=["Public"])
    right = lattice.add("Right", dominates=["Public"])
    graph = graph_from_edges([("a", "b"), ("b", "c"), ("c", "d")], name="fork")
    policy = ReleasePolicy(lattice)
    policy.set_lowest("b", left)
    policy.set_lowest("c", right)
    return graph, policy, left, right


class TestGenerateMultiPrivilegeAccount:
    def test_requires_at_least_one_privilege(self, fork_policy):
        graph, policy, left, right = fork_policy
        with pytest.raises(ProtectionError):
            build_multi_privilege_account(graph, policy, [])

    def test_single_privilege_reduces_to_plain_generation(self, fork_policy):
        graph, policy, left, right = fork_policy
        multi = build_multi_privilege_account(graph, policy, [left])
        single = build_protected_account(graph, policy, left)
        assert multi.graph == single.graph
        assert multi.correspondence == single.correspondence

    def test_dominated_privileges_are_ignored(self, fork_policy):
        graph, policy, left, right = fork_policy
        public = policy.lattice.public
        multi = build_multi_privilege_account(graph, policy, [left, public])
        single = build_protected_account(graph, policy, left)
        assert set(multi.graph.node_ids()) == set(single.graph.node_ids())

    def test_union_of_visibility(self, fork_policy):
        graph, policy, left, right = fork_policy
        account = build_multi_privilege_account(graph, policy, [left, right])
        # Left alone sees {a, b, d}; Right alone sees {a, c, d}; together: every node.
        assert set(account.graph.node_ids()) == {"a", "b", "c", "d"}
        # Edges are the union of what each class may be shown.  The edge (b, c)
        # is not releasable to either class on its own (each class may see only
        # one of its incidences), so the conservative per-class merge does not
        # assert it either.
        assert set(account.graph.edge_keys()) == {("a", "b"), ("c", "d")}
        assert validate_protected_account(graph, account, strict=True)

    def test_merged_account_at_least_as_useful_as_each_class(self, fork_policy):
        graph, policy, left, right = fork_policy
        merged = build_multi_privilege_account(graph, policy, [left, right])
        for privilege in (left, right):
            single = build_protected_account(graph, policy, privilege)
            assert path_utility(graph, merged) >= path_utility(graph, single) - 1e-9

    def test_figure1_high1_plus_high2_sees_whole_graph(self):
        example = figure1_example()
        account = build_multi_privilege_account(
            example.graph, example.policy, [example.privileges["High-1"], example.privileges["High-2"]]
        )
        assert set(account.graph.node_ids()) == set(example.graph.node_ids())
        assert path_utility(example.graph, account) == pytest.approx(1.0)


class TestSurrogatePreference:
    def test_original_representation_beats_surrogate(self, fork_policy):
        graph, policy, left, right = fork_policy
        # Right-only consumers get a surrogate for b; Left sees b itself.  The
        # merged account must show the original b.
        policy.add_surrogate("b", "Right", surrogate_id="b_redacted", features={})
        account = build_multi_privilege_account(graph, policy, [left, right])
        assert account.account_node_of("b") == "b"
        assert not account.is_surrogate_node("b")

    def test_richest_surrogate_chosen_when_no_original_visible(self):
        lattice = PrivilegeLattice()
        left = lattice.add("Left", dominates=["Public"])
        right = lattice.add("Right", dominates=["Public"])
        top = lattice.add("Top", dominates=[left, right])
        graph = graph_from_edges([("a", "x"), ("x", "b")], name="mid")
        policy = ReleasePolicy(lattice)
        policy.set_lowest("x", top)
        policy.add_surrogate("x", left, surrogate_id="x_left", features={"role": "redacted", "kind": "step"})
        policy.add_surrogate("x", right, surrogate_id="x_right", features={"role": "redacted"})
        account = build_multi_privilege_account(graph, policy, [left, right])
        chosen = account.account_node_of("x")
        assert chosen == "x_left"
        assert account.is_surrogate_node("x_left")


class TestMergeAccounts:
    def test_merge_requires_accounts(self, fork_policy):
        graph, policy, left, right = fork_policy
        with pytest.raises(ProtectionError):
            merge_accounts(graph, [])

    def test_surrogate_edge_downgraded_when_any_account_shows_it_directly(self):
        lattice = PrivilegeLattice()
        left = lattice.add("Left", dominates=["Public"])
        right = lattice.add("Right", dominates=["Public"])
        graph = graph_from_edges([("a", "x"), ("x", "b")], name="bridge")
        policy = ReleasePolicy(lattice)
        policy.set_lowest("x", left)
        from repro.core.markings import Marking

        # Right-class consumers bridge over x with a surrogate edge a -> b.
        policy.markings.mark_edge(("a", "x"), right, source=Marking.VISIBLE, target=Marking.SURROGATE)
        policy.markings.mark_edge(("x", "b"), right, source=Marking.SURROGATE, target=Marking.VISIBLE)
        left_account = build_protected_account(graph, policy, left)
        right_account = build_protected_account(graph, policy, right)
        assert right_account.is_surrogate_edge("a", "b")
        merged = merge_accounts(graph, [left_account, right_account])
        # The merged consumer sees x itself, the real edges, plus the bridging
        # edge a -> b which is still only a summary (no direct a -> b edge exists).
        assert merged.graph.has_edge("a", "x") and merged.graph.has_edge("x", "b")
        assert merged.is_surrogate_edge("a", "b")
        assert validate_protected_account(graph, merged).ok

    def test_merged_account_is_sound_for_running_example(self):
        example = figure1_example(with_feature_surrogate=True)
        accounts = [
            build_protected_account(example.graph, example.policy, example.privileges[name])
            for name in ("High-2", "Low-2")
        ]
        merged = merge_accounts(example.graph, accounts)
        assert validate_protected_account(example.graph, merged).ok
        assert merged.represented_originals() >= accounts[0].represented_originals()
