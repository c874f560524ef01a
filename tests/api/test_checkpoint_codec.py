"""Round trips through the checkpoint codec, one table at a time.

A warm restart is only as exact as the codec under it: every table the
checkpoint writes — the compiled marking view, the compiled opacity view,
the score card, the account graph as a diff against the protected graph
and the cache-seeding request — must decode to exactly what was encoded,
after a trip through JSON as the checkpoint file makes it.  The tables
keyed by every node or edge a restore already holds are written as value
groups against those keys; the tests cover both that form and the plain
columns it falls back to.
"""

from __future__ import annotations

import json

import pytest

from repro.api.checkpoints import (
    _NODE_KEYS,
    _apply_graph_diff,
    _encode_diff,
    _graph_diff,
    _marking_view_from_dict,
    _marking_view_to_dict,
    _opacity_view_from_dict,
    _opacity_view_to_dict,
    _pack_number_map,
    _request_from_dict,
    _request_to_dict,
    _scores_from_dict,
    _scores_to_dict,
    _unpack_number_map,
)
from repro.api.requests import ProtectionRequest
from repro.api.service import ProtectionService
from repro.core.opacity import DEFAULT_ADVERSARY, CompiledOpacityView, NaiveAdversary
from repro.core.policy import STRATEGY_HIDE
from repro.core.privileges import figure1_lattice
from repro.graph.model import PropertyGraph
from repro.server.encoding import scorecard_payload

from tests.replication.conftest import WORKLOAD_IDS, WORKLOADS


def through_json(payload):
    """The payload as a checkpoint file hands it back to restore."""
    return json.loads(json.dumps(payload))


@pytest.fixture(params=WORKLOADS, ids=WORKLOAD_IDS)
def family(request):
    """One deterministic (graph, policy, consumer) builder per workload family."""
    return request.param


def protected(family):
    """The family's graph and policy, plus one scored surrogate account."""
    graph, policy, consumer = family()
    result = ProtectionService(graph, policy).protect(ProtectionRequest(privileges=(consumer,)))
    return graph, policy, consumer, result


# --------------------------------------------------------------------------- #
# compiled views
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("graph_unchanged", [False, True], ids=["decoded-keys", "graph-keys"])
def test_marking_view_round_trip_is_exact(family, graph_unchanged):
    graph, policy, consumer = family()
    view = policy.markings.compile(graph, consumer)
    restored = _marking_view_from_dict(
        through_json(_marking_view_to_dict(view)),
        graph,
        policy,
        consumer,
        graph_unchanged=graph_unchanged,
    )
    assert restored.node_default == view.node_default
    assert restored._overrides == view._overrides
    assert restored.edge_state_table == view.edge_state_table
    assert restored.graph_version == graph.version
    assert restored.policy_version == policy.markings.version


def test_opacity_view_round_trip_is_exact(family):
    _graph, _policy, _consumer, result = protected(family)
    account_graph = result.account.graph
    view = CompiledOpacityView.compile(account_graph, DEFAULT_ADVERSARY)
    restored = _opacity_view_from_dict(
        through_json(_opacity_view_to_dict(view, account_graph._nodes)), account_graph, None
    )
    assert restored.is_current_for(account_graph, DEFAULT_ADVERSARY)
    assert restored.node_count == view.node_count
    assert restored.focus_weights == view.focus_weights
    assert restored.inference_weights == view.inference_weights
    assert (restored.total_focus, restored.total_inference) == (
        view.total_focus,
        view.total_inference,
    )
    assert restored._total_focus_exact == view._total_focus_exact
    assert restored._total_inference_exact == view._total_inference_exact
    # The denominators are not stored; rebuilt on first read, they match.
    assert restored.denominators() == view.denominators()
    ids = account_graph.node_ids()
    pairs = [(source, target) for source in ids[:6] for target in ids[-6:] if source != target]
    assert restored.inference_likelihoods(pairs) == view.inference_likelihoods(pairs)


def test_scores_round_trip_is_exact(family):
    graph, _policy, _consumer, result = protected(family)
    diff = _graph_diff(graph, result.account.graph)
    assert diff is not None
    removed_keys = [(row[0], row[1]) for row in diff["removed_edges"]]
    scores = result.scores
    restored = _scores_from_dict(
        through_json(_scores_to_dict(scores, graph._nodes, removed_keys)),
        None,
        graph._nodes,
        removed_keys,
    )
    assert restored.utility.path_percentages == scores.utility.path_percentages
    assert restored.opacity.per_edge == scores.opacity.per_edge
    assert scorecard_payload(restored) == scorecard_payload(scores)


def test_account_diff_rebuilds_the_account_graph(family):
    graph, _policy, _consumer, result = protected(family)
    account_graph = result.account.graph
    diff = _graph_diff(graph, account_graph)
    assert diff is not None
    rebuilt, added, removed = _apply_graph_diff(
        graph, through_json(_encode_diff(diff)), account_graph.name
    )
    assert rebuilt == account_graph
    assert rebuilt.name == account_graph.name
    assert set(added) == set(account_graph.edge_keys()) - set(graph.edge_keys())
    assert set(removed) == set(graph.edge_keys()) - set(account_graph.edge_keys())
    # The base graph is cloned, never patched in place.
    assert graph == family()[0]


# --------------------------------------------------------------------------- #
# value-grouped number maps
# --------------------------------------------------------------------------- #
NODES = {"a": None, "b": None, "c": None, "d": None}
NUMBER_MAPS = {
    # Keys exactly the known ones, in order: written as value groups.
    "grouped-floats": ({"a": 0.1 + 0.2, "b": 0.5, "c": 0.1 + 0.2, "d": 1e-300}, "groups"),
    "grouped-ints": ({"a": 3, "b": 3, "c": 0, "d": -7}, "groups"),
    # Anything else falls back to plain columns.
    "reordered-keys": ({"b": 0.5, "a": 0.25, "c": 0.5, "d": 1.0}, None),
    "subset-of-keys": ({"a": 0.5, "c": 0.75}, None),
    "mixed-types": ({"a": 1, "b": 0.5, "c": 2, "d": 0.5}, None),
}


@pytest.mark.parametrize("case", sorted(NUMBER_MAPS))
def test_number_map_round_trip_is_exact(case):
    mapping, form = NUMBER_MAPS[case]
    packed = through_json(_pack_number_map(mapping, NODES, _NODE_KEYS))
    assert ("groups" in packed) == (form == "groups")
    unpacked = _unpack_number_map(packed, NODES, _NODE_KEYS)
    assert unpacked == mapping
    assert [type(value) for value in unpacked.values()] == [
        type(mapping[key]) for key in unpacked
    ]


# --------------------------------------------------------------------------- #
# graph diff edge cases
# --------------------------------------------------------------------------- #
def test_diff_codec_falls_back_to_rows_for_non_string_ids():
    base = PropertyGraph(name="ints")
    base.add_node(1, kind="data", features={"w": 2})
    base.add_node(2, kind="data")
    base.add_node("three", kind="agent")
    base.add_edge(1, 2, label="used")
    base.add_edge(2, "three", label="wasGeneratedBy", features={"ts": 7})
    target = base.copy()
    target.remove_edge(1, 2)
    target.remove_node(2)
    target.add_node(4, kind="surrogate", features={"s": 1})
    target.add_edge(1, 4, label="surrogate")
    encoded = _encode_diff(_graph_diff(base, target))
    # Non-string ids cannot ride the packed string columns.
    assert isinstance(encoded["removed_edges"], list)
    assert isinstance(encoded["removed_nodes"], list)
    rebuilt, added, removed = _apply_graph_diff(base, through_json(encoded), target.name)
    assert rebuilt == target
    # Removing node 2 took its other edge with it.
    assert (added, removed) == ([(1, 4)], [(1, 2), (2, "three")])


def test_diff_codec_escapes_tab_bearing_ids_and_labels():
    base = PropertyGraph(name="tabs")
    base.add_node("a\tb", kind="data")
    base.add_node("plain", kind="data")
    base.add_node("c\\d", kind="data")
    base.add_edge("a\tb", "plain", label="has\ttab")
    base.add_edge("plain", "c\\d")
    target = base.copy()
    target.remove_edge("a\tb", "plain")
    target.add_node("new\tnode", kind="surrogate")
    target.add_edge("new\tnode", "c\\d", label="tab\there")
    encoded = _encode_diff(_graph_diff(base, target))
    assert isinstance(encoded["removed_edges"], dict)
    rebuilt, _added, removed = _apply_graph_diff(base, through_json(encoded), target.name)
    assert rebuilt == target
    assert removed == [("a\tb", "plain")]


# --------------------------------------------------------------------------- #
# cache-seeding requests
# --------------------------------------------------------------------------- #
_LATTICE, _PRIVILEGES = figure1_lattice()

CHECKPOINTABLE = {
    "single-privilege": dict(privileges=(_PRIVILEGES["Low-2"],)),
    "merged-privileges": dict(privileges=(_PRIVILEGES["Low-2"], _PRIVILEGES["High-1"])),
    "hide-with-opacity-edges": dict(
        privileges=(_PRIVILEGES["Low-2"],), strategy=STRATEGY_HIDE, opacity_edges=(("a", "b"),)
    ),
    "empty-opacity-edges": dict(privileges=(_PRIVILEGES["Low-2"],), opacity_edges=()),
    "every-option-flipped": dict(
        privileges=(_LATTICE.public,),
        include_surrogate_edges=False,
        repair_connectivity=True,
        name="acct",
        score=False,
        normalize_focus=True,
        compiled=False,
    ),
}


@pytest.mark.parametrize("case", sorted(CHECKPOINTABLE))
def test_checkpointable_request_round_trips(case):
    request = ProtectionRequest(**CHECKPOINTABLE[case])
    rebuilt = _request_from_dict(through_json(_request_to_dict(request)), _LATTICE)
    assert rebuilt == request
    assert all(
        mine is theirs for mine, theirs in zip(rebuilt.privileges, request.privileges)
    )


NOT_CHECKPOINTABLE = {
    "adversary-override": dict(adversary=NaiveAdversary()),
    "explicit-scores": dict(explicit_scores={"a": 0.5}),
    "protect-edges": dict(protect_edges=(("a", "b"),)),
    "per-request-graph": dict(graph=PropertyGraph(name="other")),
    "persisting": dict(persist_as="saved"),
}


@pytest.mark.parametrize("case", sorted(NOT_CHECKPOINTABLE))
def test_unreproducible_requests_are_not_checkpointed(case):
    # Their cache fingerprints cannot be rebuilt from JSON alone.
    request = ProtectionRequest(privileges=(_PRIVILEGES["Low-2"],), **NOT_CHECKPOINTABLE[case])
    assert _request_to_dict(request) is None
