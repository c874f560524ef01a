"""Round-trip tests for the process-pool wire format.

The wire codecs must be *content*-exact: a worker rebuilding a graph or
policy from the packed payload has to iterate and compile identically to
the parent's originals, and anything unshippable has to be flagged as
``None`` (so the caller routes it inline) rather than shipped lossily.
"""

from __future__ import annotations

import pytest

from repro.api.requests import ProtectionRequest
from repro.core.markings import Marking
from repro.core.opacity import AdvancedAdversary, NaiveAdversary
from repro.core.policy import STRATEGY_HIDE
from repro.graph.model import PropertyGraph
from repro.graph.serialization import graph_to_dict
from repro.parallel import wire

from tests.parallel.conftest import WORKLOAD_IDS, WORKLOADS


# --------------------------------------------------------------------------- #
# graph codec
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("family", WORKLOADS, ids=WORKLOAD_IDS)
def test_graph_round_trip_is_exact(family):
    graph, _policy, _consumer = family()
    rebuilt = wire.unpack_graph(wire.pack_graph(graph))
    assert graph_to_dict(rebuilt) == graph_to_dict(graph)
    # Insertion order is part of the contract, not just content equality.
    assert rebuilt.node_ids() == graph.node_ids()
    assert rebuilt.edge_keys() == graph.edge_keys()


def test_graph_codec_falls_back_for_non_string_ids():
    graph = PropertyGraph(name="ints")
    graph.add_node(1, kind="data", features={"w": 2})
    graph.add_node(2, kind="data")
    graph.add_node("three", kind="agent")
    graph.add_edge(1, 2, label="used")
    graph.add_edge(2, "three", label="wasGeneratedBy", features={"ts": 7})
    payload = wire.pack_graph(graph)
    # Non-string ids cannot ride the packed string columns.
    assert isinstance(payload["nodes"], list)
    assert isinstance(payload["edges"], list)
    rebuilt = wire.unpack_graph(payload)
    assert rebuilt.node_ids() == graph.node_ids()
    assert rebuilt.edge_keys() == graph.edge_keys()
    assert rebuilt.node(1).features == {"w": 2}
    assert rebuilt.edge(2, "three").features == {"ts": 7}


def test_graph_codec_escapes_tab_bearing_labels():
    graph = PropertyGraph(name="tabs")
    graph.add_node("a\tb", kind="data")
    graph.add_node("plain", kind="data")
    graph.add_edge("a\tb", "plain", label="has\ttab")
    rebuilt = wire.unpack_graph(wire.pack_graph(graph))
    assert graph_to_dict(rebuilt) == graph_to_dict(graph)


# --------------------------------------------------------------------------- #
# policy codec
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("family", WORKLOADS, ids=WORKLOAD_IDS)
def test_policy_round_trip_compiles_identically(family):
    graph, policy, consumer = family()
    rebuilt = wire.unpack_policy(wire.pack_policy(policy))

    lattice, twin = policy.lattice, rebuilt.lattice
    assert [p.name for p in twin.privileges()] == [p.name for p in lattice.privileges()]
    for privilege in lattice.privileges():
        for other in lattice.privileges():
            assert twin.dominates(privilege.name, other.name) == lattice.dominates(
                privilege.name, other.name
            )
    assert rebuilt.default_lowest.name == policy.default_lowest.name
    assert {
        node: privilege.name for node, privilege in rebuilt.lowest_assignments().items()
    } == {node: privilege.name for node, privilege in policy.lowest_assignments().items()}
    assert sorted(
        (key[0], key[1], key[2], marking)
        for key, marking in rebuilt.markings.explicit_incidences()
    ) == sorted(
        (key[0], key[1], key[2], marking)
        for key, marking in policy.markings.explicit_incidences()
    )

    # The real bar: a compile against the same graph lands on identical state.
    original_view = policy.markings.compile(graph, consumer)
    twin_view = rebuilt.markings.compile(graph, twin.get(consumer.name))
    assert twin_view.node_default == original_view.node_default
    assert twin_view.edge_state_table == original_view.edge_state_table


def test_policy_round_trip_carries_surrogates_and_defaults():
    from repro.core.policy import ReleasePolicy
    from repro.core.privileges import PrivilegeLattice

    lattice = PrivilegeLattice()
    high = lattice.add("High", dominates=["Public"])
    policy = ReleasePolicy(
        lattice, default_lowest=high, default_protected_marking=Marking.HIDE
    )
    policy.set_lowest("secret", high)
    policy.surrogates.add(
        "secret", high, surrogate_id="s-1", kind="agent", info_score=0.25,
        features={"role": "source"},
    )
    policy.markings.mark_edge(
        ("a", "secret"), lattice.public, source=Marking.VISIBLE, target=Marking.SURROGATE
    )
    rebuilt = wire.unpack_policy(wire.pack_policy(policy))
    assert rebuilt.default_lowest.name == "High"
    assert rebuilt.markings.default_protected_marking is Marking.HIDE
    twin = {s.original_id: s for s in rebuilt.surrogates}
    original = {s.original_id: s for s in policy.surrogates}
    assert set(twin) == set(original)
    for original_id, surrogate in original.items():
        other = twin[original_id]
        assert other.surrogate_id == surrogate.surrogate_id
        assert other.lowest.name == surrogate.lowest.name
        assert other.kind == surrogate.kind
        assert other.info_score == surrogate.info_score
        assert dict(other.features) == dict(surrogate.features)


# --------------------------------------------------------------------------- #
# adversary + request codecs
# --------------------------------------------------------------------------- #
def test_adversary_codec_covers_builtins_and_flags_custom():
    assert wire.unpack_adversary(wire.pack_adversary(None)) is None
    assert isinstance(
        wire.unpack_adversary(wire.pack_adversary(NaiveAdversary())), NaiveAdversary
    )
    tuned = AdvancedAdversary(loner_focus=0.7, isolated_focus=0.95)
    rebuilt = wire.unpack_adversary(wire.pack_adversary(tuned))
    assert rebuilt == tuned

    class CustomModel:
        def focus_probability(self, graph, node_id):
            return 0.5

        def inference_probability(self, graph, node_id):
            return 0.5

    assert wire.pack_adversary(CustomModel()) is None


def test_request_round_trip_preserves_options(family=None):
    from repro.core.privileges import figure1_lattice

    lattice, privileges = figure1_lattice()
    request = ProtectionRequest(
        privileges=(privileges["Low-2"],),
        strategy=STRATEGY_HIDE,
        protect_edges=(("a", "b"),),
        opacity_edges=(("a", "b"),),
        score=True,
        name="acct",
        adversary=NaiveAdversary(),
        explicit_scores={"a": 0.5},
    )
    payload = wire.pack_request(request)
    rebuilt = wire.unpack_request(payload, lattice)
    assert rebuilt.privileges[0] is privileges["Low-2"]
    assert rebuilt.strategy == STRATEGY_HIDE
    assert rebuilt.protect_edges == (("a", "b"),)
    assert rebuilt.opacity_edges == (("a", "b"),)
    assert rebuilt.score is True
    assert rebuilt.name == "acct"
    assert isinstance(rebuilt.adversary, NaiveAdversary)
    assert dict(rebuilt.explicit_scores) == {"a": 0.5}


def test_unshippable_requests_pack_to_none():
    from repro.core.privileges import figure1_lattice

    _lattice, privileges = figure1_lattice()

    class CustomModel:
        def focus_probability(self, graph, node_id):
            return 0.0

        def inference_probability(self, graph, node_id):
            return 0.0

    persisting = ProtectionRequest(privileges=(privileges["Low-2"],), persist_as="x")
    custom = ProtectionRequest(
        privileges=(privileges["Low-2"],), adversary=CustomModel()
    )
    assert wire.pack_request(persisting) is None
    assert wire.pack_request(custom) is None
