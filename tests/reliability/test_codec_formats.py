"""Format pins: the bytes a checkpoint, an account sidecar and a delta-log row hold.

Checkpoint format 3, account metadata format 1 and delta wire version 1
outlive the code that writes them: a checkpoint written before an upgrade
must still restore warm, a persisted account must still load, and a
follower must keep tailing its leader's delta log.  ``data/codec_formats.json``
holds what the encoders wrote for a few inputs when these pins were added.
Each format is checked in both directions: encoding today gives exactly
the pinned text, and decoding the pinned text gives back the live objects.

The inputs cover the packed columns, their escapes and their row
fallbacks: the ``social`` workload family, a six-node graph whose ids mix
ints with strings holding a tab, a ``|`` and a backslash, and that graph's
all-string twin.  Set-valued tables (an account's surrogate nodes and
edges) iterate in hash order, so every input keeps them at most one
element long and the pinned text does not depend on ``PYTHONHASHSEED``.

``encode_all()`` produces the fixture's content; rewrite the fixture only
together with a format version bump.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from repro.api.checkpoints import _unwrap, _wrap
from repro.api.persistence import account_from_metadata, account_metadata_to_dict
from repro.api.requests import ProtectionRequest
from repro.api.service import ProtectionService
from repro.core.policy import ReleasePolicy
from repro.core.privileges import figure1_lattice
from repro.graph.model import PropertyGraph
from repro.replication.wire import dumps_delta, loads_delta
from repro.server.encoding import scorecard_payload
from repro.store.engine import GraphStore

from tests.replication.conftest import social_family
from tests.replication.test_wire import DELTA_BUILDS, collect_deltas

FIXTURE = Path(__file__).parent / "data" / "codec_formats.json"
GRAPH = "pinned"
MIXED_IDS = (1, 2, "a\tb", "c|d", "e\\f", "g")
STRING_IDS = ("1", "2", "a\tb", "c|d", "e\\f", "g")


def six_node_family(ids):
    """Six nodes, seven edges; one lifted sink node and one protected edge."""
    one, two, tab, pipe, slash, plain = ids
    graph = PropertyGraph(name="six")
    for index, node_id in enumerate(ids):
        graph.add_node(
            node_id,
            kind="data" if index % 2 else "process",
            features={"w": index} if index % 3 == 0 else {},
        )
    for source, target, label in [
        (one, two, "used"),
        (two, tab, "used"),
        (one, tab, None),
        (two, pipe, "wasGeneratedBy"),
        (pipe, slash, "used"),
        (slash, plain, "used"),
        (one, plain, "used"),
    ]:
        graph.add_edge(source, target, label=label)
    lattice, privileges = figure1_lattice()
    policy = ReleasePolicy(lattice)
    policy.protect_node(graph, tab, privileges["Low-2"], lowest=privileges["High-1"])
    policy.protect_edge((pipe, slash), privileges["Low-2"])
    return graph, policy, privileges["Low-2"]


FAMILIES = {
    "social": social_family,
    "mixed-ids": lambda: six_node_family(MIXED_IDS),
    "string-ids": lambda: six_node_family(STRING_IDS),
}


def _remove_node_with_escaped_edges(graph):
    graph.add_node("x\ty", kind="entity")
    graph.add_node("p|q", kind="entity")
    graph.add_edge("a", "x\ty", label=None)
    graph.add_edge("p|q", "a", label="tab\there", features={"w": 1})
    graph.remove_node("a")


def _batch(graph):
    with graph.batch():
        graph.add_node("c", kind="entity")
        graph.add_edge("c", "a", label="used")
        graph.remove_node("a")


DELTAS = {
    **DELTA_BUILDS,
    "remove_node_escaped_edges": _remove_node_with_escaped_edges,
    "batch": _batch,
}


def serve(root, family):
    """Protect the family's graph from a durable store and checkpoint it."""
    graph, policy, consumer = family()
    store = GraphStore(root)
    store.put_graph(graph, name=GRAPH)
    service = ProtectionService(store.graph(GRAPH), policy, store=store)
    result = service.protect(ProtectionRequest(privileges=(consumer,)))
    path = service.checkpoint(result)
    account = result.account
    assert len(account.surrogate_nodes) <= 1 and len(account.surrogate_edges) <= 1
    return store, service, consumer, result, path


def checkpoint_text(path):
    """The checkpoint body, canonical, without its wall-clock timings."""
    body = _unwrap(path.read_bytes())
    body["scores"]["timings_ms"] = {}
    return json.dumps(body, sort_keys=True)


def metadata_text(account):
    return json.dumps(account_metadata_to_dict(account), sort_keys=True)


def encode_all():
    """Every pinned string, as the encoders write it today."""
    pinned = {"checkpoints": {}, "account_metadata": {}, "deltas": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, family in FAMILIES.items():
            store, _service, _consumer, result, path = serve(Path(tmp) / name, family)
            pinned["checkpoints"][name] = checkpoint_text(path)
            pinned["account_metadata"][name] = metadata_text(result.account)
            store.storage.close()
    for name, build in DELTAS.items():
        pinned["deltas"][name] = [dumps_delta(delta) for delta in collect_deltas(build)]
    return pinned


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


# --------------------------------------------------------------------------- #
# checkpoint format 3
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_checkpoint_body_is_unchanged(tmp_path, pinned, name):
    store, _service, _consumer, _result, path = serve(tmp_path / "store", FAMILIES[name])
    store.storage.close()
    assert checkpoint_text(path) == pinned["checkpoints"][name]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_pinned_checkpoint_restores_the_live_state(tmp_path, pinned, name):
    root = tmp_path / "store"
    store, service, consumer, result, path = serve(root, FAMILIES[name])
    live_view = service.policy.markings.compile(service.graph, consumer)
    text = pinned["checkpoints"][name]
    framed = _wrap(json.loads(text))
    assert framed.partition("\n")[2] == text
    path.write_text(framed, encoding="utf-8")
    store.storage.close()

    store = GraphStore(root)
    graph = store.graph(GRAPH)
    _graph, policy, _consumer = FAMILIES[name]()
    report = ProtectionService(graph, policy, store=store).restore()
    store.storage.close()
    assert report.mode == "warm", report.reason
    assert report.view_restored

    view = policy.markings._compiled[(id(graph), consumer.name)]
    assert list(view.node_default.items()) == list(live_view.node_default.items())
    # The override table is written grouped by marking, so only its content
    # is fixed, not its order.
    assert view._overrides == live_view._overrides
    assert list(view.edge_state_table.items()) == list(live_view.edge_state_table.items())

    assert report.account == result.account
    assert report.account.graph.edge_keys() == result.account.graph.edge_keys()
    assert list(report.account.correspondence.items()) == list(
        result.account.correspondence.items()
    )

    scores, live = report.scores, result.scores
    assert scorecard_payload(scores) == scorecard_payload(live)
    assert list(scores.utility.path_percentages.items()) == list(
        live.utility.path_percentages.items()
    )
    assert list(scores.opacity.per_edge.items()) == list(live.opacity.per_edge.items())

    opacity, live_opacity = scores.opacity.view, live.opacity.view
    assert report.opacity_view_restored == (live_opacity is not None)
    if live_opacity is None:
        return
    assert list(opacity.focus_weights.items()) == list(live_opacity.focus_weights.items())
    assert list(opacity.inference_weights.items()) == list(
        live_opacity.inference_weights.items()
    )
    assert opacity._total_focus_exact == live_opacity._total_focus_exact
    assert opacity._total_inference_exact == live_opacity._total_inference_exact
    assert opacity._inference_value_counts == live_opacity._inference_value_counts


# --------------------------------------------------------------------------- #
# account metadata format 1
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_account_metadata_is_unchanged_and_decodes(tmp_path, pinned, name):
    store, service, _consumer, result, _path = serve(tmp_path / "store", FAMILIES[name])
    store.storage.close()
    account = result.account
    text = pinned["account_metadata"][name]
    assert metadata_text(account) == text
    decoded = account_from_metadata(
        account.graph, json.loads(text), lattice=service.policy.lattice
    )
    assert decoded == account
    assert list(decoded.correspondence.items()) == list(account.correspondence.items())


# --------------------------------------------------------------------------- #
# delta wire version 1
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", list(DELTAS))
def test_delta_rows_are_unchanged_and_decode(pinned, name):
    deltas = collect_deltas(DELTAS[name])
    assert [dumps_delta(delta) for delta in deltas] == pinned["deltas"][name]
    assert [loads_delta(line) for line in pinned["deltas"][name]] == deltas
