"""Property-based tests for the core protection machinery.

These encode the paper's formal statements as invariants over random graphs,
lattices, markings and surrogate registries:

* every generated account satisfies Definition 5 (soundness) and
  Definition 9 (maximal informativeness) — the content of Theorem 1;
* utility and opacity always land in [0, 1];
* the surrogate strategy never does worse than the hide strategy on either
  measure (the headline of Section 6);
* the high-water set is always an antichain that covers every node.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ProtectionService
from repro.core.generation import build_protected_account
from repro.core.hiding import naive_protected_account
from repro.core.opacity import average_opacity, opacity
from repro.core.privileges import HighWaterSet
from repro.core.utility import node_utility, path_utility
from repro.core.validation import validate_maximally_informative, validate_protected_account

from tests.property.strategies import graph_with_policy, graphs


@settings(max_examples=50, deadline=None)
@given(graph_with_policy())
def test_generated_accounts_satisfy_definition5(triple):
    graph, policy, consumer = triple
    account = build_protected_account(graph, policy, consumer)
    report = validate_protected_account(graph, account)
    assert report.ok, report.violations


@settings(max_examples=50, deadline=None)
@given(graph_with_policy())
def test_generated_accounts_are_maximally_informative(triple):
    """Theorem 1, end to end: with the closure-repair pass enabled, the generated
    account satisfies all three properties of Definition 9 on arbitrary graphs,
    policies and markings."""
    graph, policy, consumer = triple
    account = build_protected_account(
        graph, policy, consumer, ensure_maximal_connectivity=True
    )
    report = validate_maximally_informative(graph, policy, consumer, account)
    assert report.ok, report.violations
    # The repaired account must still be sound (no fabricated connectivity).
    assert validate_protected_account(graph, account).ok


@settings(max_examples=50, deadline=None)
@given(graph_with_policy())
def test_default_algorithm_satisfies_node_properties(triple):
    """The plain Appendix-B algorithm always satisfies maximal node visibility and
    dominant surrogacy (properties 1-2 of Definition 9); only the connectivity
    property can require the optional repair pass under adversarial markings."""
    graph, policy, consumer = triple
    account = build_protected_account(graph, policy, consumer)
    report = validate_maximally_informative(graph, policy, consumer, account)
    connectivity_only = [v for v in report.violations if "maximal connectivity" not in v]
    assert connectivity_only == [], connectivity_only


@settings(max_examples=50, deadline=None)
@given(graph_with_policy())
def test_naive_account_is_always_sound(triple):
    graph, policy, consumer = triple
    account = naive_protected_account(graph, policy, consumer)
    assert validate_protected_account(graph, account).ok


@settings(max_examples=50, deadline=None)
@given(graph_with_policy())
def test_metrics_stay_in_unit_interval(triple):
    graph, policy, consumer = triple
    account = build_protected_account(graph, policy, consumer)
    assert 0.0 <= path_utility(graph, account) <= 1.0
    assert 0.0 <= node_utility(graph, account) <= 1.0
    for edge in graph.edge_keys():
        assert 0.0 <= opacity(graph, account, edge) <= 1.0


@settings(max_examples=50, deadline=None)
@given(graph_with_policy())
def test_protected_account_never_beats_full_access_utility(triple):
    graph, policy, consumer = triple
    account = build_protected_account(graph, policy, consumer)
    naive = naive_protected_account(graph, policy, consumer)
    # The generated account is at least as useful as the naive one, and at most
    # as useful as the original graph served whole (utility 1).
    assert path_utility(graph, account) >= path_utility(graph, naive) - 1e-9
    assert node_utility(graph, account) >= node_utility(graph, naive) - 1e-9
    assert path_utility(graph, account) <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(graphs(min_nodes=3), st.data())
def test_surrogate_strategy_dominates_hide_strategy(graph, data):
    """On arbitrary graphs the surrogate strategy never loses *utility* and never
    leaks a protected edge.

    (The paper's "surrogating always beats hiding on opacity too" is an
    empirical finding over its motif and synthetic workloads — reproduced in
    the Figure 7/9 tests — not a theorem: adding a surrogate edge can change
    a *third* node's degree class and thereby sharpen the attacker's
    candidate distribution, so it is deliberately not asserted here for
    arbitrary graphs.)
    """
    from repro.core.policy import ReleasePolicy
    from repro.core.privileges import PrivilegeLattice

    if graph.edge_count() == 0:
        return
    policy = ReleasePolicy(PrivilegeLattice())
    public = policy.lattice.public
    edge_count = data.draw(st.integers(min_value=1, max_value=graph.edge_count()))
    protected_edges = data.draw(
        st.lists(
            st.sampled_from(graph.edge_keys()),
            min_size=edge_count,
            max_size=edge_count,
            unique=True,
        )
    )
    service = ProtectionService(graph, policy)
    hide_account, surrogate_account = (
        service.protect(
            privilege=public, protect_edges=protected_edges, strategy=strategy, score=False
        ).account
        for strategy in ("hide", "surrogate")
    )
    assert validate_protected_account(graph, hide_account).ok
    assert validate_protected_account(graph, surrogate_account).ok
    assert path_utility(graph, surrogate_account) >= path_utility(graph, hide_account) - 1e-9
    # The surrogate account is always a superset of the hide account's edges:
    # the extra surrogate edges are the only difference.
    assert set(hide_account.graph.edge_keys()) <= set(surrogate_account.graph.edge_keys())
    for edge_key in surrogate_account.graph.edge_keys():
        if edge_key not in hide_account.graph.edge_keys():
            assert surrogate_account.is_surrogate_edge(*edge_key)
    # Opacity stays well-defined for every protected edge under both strategies.
    assert 0.0 <= average_opacity(graph, hide_account, protected_edges) <= 1.0
    assert 0.0 <= average_opacity(graph, surrogate_account, protected_edges) <= 1.0
    # Neither strategy ever shows a protected edge between its original endpoints.
    for edge in protected_edges:
        assert not hide_account.contains_original_edge(*edge)
        assert not surrogate_account.contains_original_edge(*edge)


@settings(max_examples=50, deadline=None)
@given(graph_with_policy())
def test_high_water_set_is_a_covering_antichain(triple):
    graph, policy, consumer = triple
    hw = policy.high_water(graph)
    assert isinstance(hw, HighWaterSet)
    assert policy.lattice.is_antichain(hw.members)
    for node_id in graph.node_ids():
        assert hw.covers(policy.lowest(node_id))
    # Clause 3: every member is some node's lowest.
    lowests = {policy.lowest(node_id) for node_id in graph.node_ids()}
    for member in hw.members:
        assert member in lowests


@settings(max_examples=50, deadline=None)
@given(graph_with_policy())
def test_account_nodes_never_exceed_original_and_never_leak(triple):
    graph, policy, consumer = triple
    account = build_protected_account(graph, policy, consumer)
    assert account.graph.node_count() <= graph.node_count()
    for account_node in account.graph.node_ids():
        original = account.original_of(account_node)
        if not account.is_surrogate_node(account_node):
            # Shown originals must genuinely be visible to the consumer class.
            assert policy.visible(original, consumer)


@settings(max_examples=50, deadline=None)
@given(graph_with_policy())
def test_generation_is_deterministic(triple):
    graph, policy, consumer = triple
    first = build_protected_account(graph, policy, consumer)
    second = build_protected_account(graph, policy, consumer)
    assert first.graph == second.graph
    assert first.correspondence == second.correspondence
    assert first.surrogate_edges == second.surrogate_edges
