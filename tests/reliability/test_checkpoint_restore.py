"""Service checkpoints: warm exactness, delta catch-up, corruption quarantine.

Every test follows the restart shape for real: one process-worth of state
builds and checkpoints, then a *fresh* store, policy and service — sharing
no objects with the first — restore from disk.  Warm restores must be
*exact* (tables equal a fresh compile, scores equal a fresh recompute);
anything suspicious must come back ``cold``, never wrong.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

from repro.api import ProtectionService
from repro.api.checkpoints import _unwrap, _wrap
from repro.api.persistence import account_metadata_to_dict
from repro.core.markings import Marking
from repro.core.policy import ReleasePolicy
from repro.core.privileges import PrivilegeLattice
from repro.exceptions import StoreError
from repro.graph.builders import GraphBuilder
from repro.graph.serialization import graph_to_dict
from repro.store.engine import GraphStore


def build_lattice() -> PrivilegeLattice:
    lattice = PrivilegeLattice()
    confidential = lattice.add("Confidential", dominates=["Public"])
    lattice.add("Secret", dominates=[confidential])
    return lattice


def build_policy(lattice: PrivilegeLattice) -> ReleasePolicy:
    """Chain policy hiding ``c`` from Public behind surrogate markings."""
    policy = ReleasePolicy(lattice)
    policy.set_lowest("c", "Secret")
    public = lattice.public
    policy.markings.mark_edge(
        ("b", "c"), public, source=Marking.VISIBLE, target=Marking.SURROGATE
    )
    policy.markings.mark_edge(
        ("c", "d"), public, source=Marking.SURROGATE, target=Marking.VISIBLE
    )
    return policy


def first_boot(tmp_path):
    """A durable store holding the chain graph, plus a service over it."""
    store = GraphStore(tmp_path / "store")
    store.put_graph(GraphBuilder("chain").chain(["a", "b", "c", "d"]).build())
    graph = store.graph("chain")
    service = ProtectionService(graph, build_policy(build_lattice()), store=store)
    return store, service


def reboot(tmp_path):
    """A second process: fresh store handle, fresh policy, fresh service."""
    store = GraphStore(tmp_path / "store")
    graph = store.graph("chain")
    service = ProtectionService(graph, build_policy(build_lattice()), store=store)
    return store, service


def fresh_tables(graph):
    """A from-scratch compile on an unrelated policy object, for comparison."""
    view = build_policy(build_lattice()).markings.compile(graph, "Public")
    return dict(view.node_default), dict(view.edge_state_table)


def _tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_dropped_warm_restarts_leave_the_root_byte_identical(tmp_path):
    """Reopen, restore warm, protect, drop — without a full collection.

    Each dropped store must close its database on the spot: the root keeps
    exactly its bytes and no ``-wal``/``-shm`` file outlives the store.
    """
    store, service = first_boot(tmp_path)
    service.checkpoint(service.protect(privilege="Public"), name="svc")
    store = service = None
    root = tmp_path / "store"
    before = _tree(root)
    assert not [name for name in before if name.endswith(("-wal", "-shm"))]
    gc.disable()
    try:
        for _ in range(3):
            store, service = reboot(tmp_path)
            report = service.restore(name="svc")
            result = service.protect(privilege="Public")
            assert report.mode == "warm", report.reason
            assert result.timings_ms["cache_hit"] == 1.0
            store = service = report = result = None
            assert _tree(root) == before
    finally:
        gc.enable()


def test_warm_restore_is_exact(tmp_path):
    store, service = first_boot(tmp_path)
    result = service.protect(privilege="Public")
    path = service.checkpoint(result, name="svc")
    assert path.exists()

    store2, service2 = reboot(tmp_path)
    report = service2.restore(name="svc")
    assert report.mode == "warm", report.reason
    assert report.view_restored
    assert report.account_restored
    assert report.scores_restored
    assert report.cache_seeded

    # The restored compiled view's tables equal a from-scratch compile.
    graph2 = service2.graph
    restored = service2.policy.markings._compiled[(id(graph2), "Public")]
    node_default, edge_states = fresh_tables(graph2)
    assert dict(restored.node_default) == node_default
    assert dict(restored.edge_state_table) == edge_states

    # First protect after restart answers from the seeded cache, with the
    # exact scores the original run produced.
    warm = service2.protect(privilege="Public")
    assert warm.timings_ms["cache_hit"] == 1.0
    assert warm.scores.path_utility == result.scores.path_utility
    assert warm.scores.node_utility == result.scores.node_utility
    assert warm.scores.average_opacity == result.scores.average_opacity
    assert set(warm.account.graph.node_ids()) == set(result.account.graph.node_ids())


def test_catchup_restore_patches_the_wal_tail(tmp_path):
    store, service = first_boot(tmp_path)
    result = service.protect(privilege="Public")
    service.checkpoint(result, name="svc")
    # Post-checkpoint mutations land in the write-log tail.
    store.add_node("chain", "e", kind="data")
    store.add_edge("chain", "d", "e", label="used")

    store2, service2 = reboot(tmp_path)
    report = service2.restore(name="svc")
    assert report.mode == "catchup", report.reason
    assert report.view_restored
    assert not report.account_restored  # stale: the graph moved on
    assert report.wal_tail_applied >= 2

    # The patched view equals a fresh compile of the *mutated* graph.
    graph2 = service2.graph
    assert graph2.has_node("e")
    patched = service2.policy.markings._compiled[(id(graph2), "Public")]
    node_default, edge_states = fresh_tables(graph2)
    assert dict(patched.node_default) == node_default
    assert dict(patched.edge_state_table) == edge_states

    # And protecting over the patched view matches a cold service exactly.
    catchup = service2.protect(privilege="Public")
    cold = ProtectionService(graph2, build_policy(build_lattice())).protect(
        privilege="Public"
    )
    assert "e" in catchup.account.graph.node_ids()
    assert set(catchup.account.graph.node_ids()) == set(cold.account.graph.node_ids())
    assert catchup.scores.path_utility == cold.scores.path_utility
    assert catchup.scores.average_opacity == cold.scores.average_opacity


def test_corrupt_checkpoint_is_quarantined_and_cold(tmp_path):
    store, service = first_boot(tmp_path)
    result = service.protect(privilege="Public")
    path = service.checkpoint(result, name="svc")
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))

    store2, service2 = reboot(tmp_path)
    report = service2.restore(name="svc")
    assert report.mode == "cold"
    assert report.quarantined is not None
    quarantine = Path(report.quarantined)
    assert quarantine.exists() and quarantine.name.endswith(".corrupt")
    assert not path.exists()  # the bad file is out of the way, not reread

    # A second restore finds nothing — still a graceful cold start.
    second = service2.restore(name="svc")
    assert second.mode == "cold"
    assert second.reason == "no checkpoint"

    health = service2.health()
    assert health["status"] == "degraded"
    assert any("cold" in issue for issue in health["issues"])
    # Degradation is not failure: the service still serves correctly.
    assert service2.protect(privilege="Public").scores.path_utility == (
        result.scores.path_utility
    )


def test_checkpoint_behind_a_later_truncation_goes_cold(tmp_path):
    store, service = first_boot(tmp_path)
    result = service.protect(privilege="Public")
    service.checkpoint(result, name="svc")
    # More mutations, then a *store* checkpoint without a fresh service
    # checkpoint: the write-log range the old stamp needs is gone.
    store.add_node("chain", "e", kind="data")
    store.checkpoint()

    store2, service2 = reboot(tmp_path)
    report = service2.restore(name="svc")
    assert report.mode == "cold"
    assert "truncated" in report.reason


def test_policy_drift_goes_cold(tmp_path):
    store, service = first_boot(tmp_path)
    result = service.protect(privilege="Public")
    service.checkpoint(result, name="svc")

    store2 = GraphStore(tmp_path / "store")
    drifted = build_policy(build_lattice())
    drifted.set_lowest("b", "Secret")  # the checkpointed tables are wrong now
    service2 = ProtectionService(store2.graph("chain"), drifted, store=store2)
    report = service2.restore(name="svc")
    assert report.mode == "cold"
    assert "policy" in report.reason


def test_checkpoint_requires_a_durable_store(tmp_path):
    graph = GraphBuilder("chain").chain(["a", "b", "c", "d"]).build()
    service = ProtectionService(
        graph, build_policy(build_lattice()), store=GraphStore()
    )
    result = service.protect(privilege="Public")
    with pytest.raises(StoreError):
        service.checkpoint(result, name="svc")


def test_health_is_ok_after_a_warm_restart(tmp_path):
    store, service = first_boot(tmp_path)
    result = service.protect(privilege="Public")
    service.checkpoint(result, name="svc")

    store2, service2 = reboot(tmp_path)
    report = service2.restore(name="svc")
    assert report.mode == "warm"
    health = service2.health()
    assert health["status"] == "ok", health["issues"]
    assert health["last_restore"]["mode"] == "warm"
    assert health["store"]["durable"] is True
    # The account cache and the opacity-view cache listen on the bus.
    assert health["delta_bus"]["listeners"] >= 2


def rewrite_checkpoint(path, edit):
    """Apply ``edit`` to a checkpoint's payload and re-frame it with a valid CRC."""
    payload = _unwrap(path.read_bytes())
    edit(payload)
    path.write_text(_wrap(payload), encoding="utf-8")


def test_checkpoint_written_with_a_delta_journal_seq_still_restores_warm(tmp_path):
    # Checkpoints no longer record the delta-bus journal position; files
    # of the same format written before that still carry the key, and
    # restore ignores it (catch-up reads the store's write-log instead).
    store, service = first_boot(tmp_path)
    result = service.protect(privilege="Public")
    path = service.checkpoint(result, name="svc")
    assert "delta_journal_seq" not in _unwrap(path.read_bytes())
    rewrite_checkpoint(path, lambda payload: payload.update(delta_journal_seq=41))

    store2, service2 = reboot(tmp_path)
    report = service2.restore(name="svc")
    assert report.mode == "warm", report.reason
    warm = service2.protect(privilege="Public")
    assert warm.timings_ms["cache_hit"] == 1.0
    assert warm.scores.average_opacity == result.scores.average_opacity


def test_warm_restore_rebuilds_the_account_from_the_graph(tmp_path):
    store, service = first_boot(tmp_path)
    result = service.protect(privilege="Public")
    path = service.checkpoint(result, name="svc")
    # The surrogate edges are the edges the diff adds and every node keeps
    # its id, so the checkpoint names both tables instead of repeating them.
    metadata = _unwrap(path.read_bytes())["account"]["metadata"]
    assert metadata["surrogate_edges"] == "added_edges"
    assert metadata["correspondence"] == "identity"

    store2, service2 = reboot(tmp_path)
    report = service2.restore(name="svc")
    assert report.mode == "warm", report.reason
    account, original = report.account, result.account
    assert account == original
    assert account.graph.node_ids() == original.graph.node_ids()
    assert account.graph.edge_keys() == original.graph.edge_keys()
    assert list(account.correspondence.items()) == list(original.correspondence.items())
    # The restored view is keyed by the graph's own ids and edge keys, in
    # graph order, as a fresh compile is.
    graph2 = service2.graph
    view = service2.policy.markings._compiled[(id(graph2), "Public")]
    assert all(a is b for a, b in zip(view.node_default, graph2._nodes))
    assert all(a is b for a, b in zip(view.edge_state_table, graph2._edges))
    assert list(view.edge_state_table) == list(fresh_tables(graph2)[1])


@pytest.mark.parametrize(
    "group, change",
    [
        ("node_default", "drop_a_row"),
        ("edge_states", "drop_a_row"),
        ("node_default", "unknown_key"),
        ("edge_states", "unknown_key"),
    ],
)
def test_view_table_that_misses_the_graph_goes_cold(tmp_path, group, change):
    store, service = first_boot(tmp_path)
    result = service.protect(privilege="Public")
    path = service.checkpoint(result, name="svc")

    def edit(payload):
        groups = payload["marking_view"][group]["groups"]
        smallest = min(groups, key=lambda row: row[1])
        if change == "drop_a_row":
            # The counts no longer add up to the graph's size.
            smallest[1] -= 1
            for index in range(2, len(smallest)):
                smallest[index] = smallest[index].split("|", 1)[-1]
        else:
            # Same count, but one key the graph does not have.
            for index in range(2, len(smallest)):
                smallest[index] = "|".join(["zz"] + smallest[index].split("|")[1:])

    rewrite_checkpoint(path, edit)
    store2, service2 = reboot(tmp_path)
    report = service2.restore(name="svc")
    assert report.mode == "cold", report.reason
    assert report.quarantined is not None
    assert service2.protect(privilege="Public").scores.path_utility == (
        result.scores.path_utility
    )


@pytest.mark.parametrize(
    "malformed",
    ["self_loop", "row_without_id", "list_features", "uncovered_node"],
)
def test_malformed_full_account_is_quarantined_and_cold(tmp_path, malformed):
    """A CRC-valid account graph that does not decode never escapes restore."""
    store, service = first_boot(tmp_path)
    result = service.protect(privilege="Public")
    path = service.checkpoint(result, name="svc")

    def edit(payload):
        graph = graph_to_dict(result.account.graph)
        if malformed == "self_loop":
            graph["edges"].append({"source": "a", "target": "a", "label": None, "features": {}})
        elif malformed == "row_without_id":
            graph["nodes"].append({"kind": "data", "features": {}})
        elif malformed == "list_features":
            graph["nodes"][0]["features"] = ["not", "a", "mapping"]
        else:
            # Decodes, but the correspondence does not cover the new node.
            graph["nodes"].append({"id": "zz", "kind": None, "features": {}})
        account = payload["account"]
        metadata = account_metadata_to_dict(result.account)
        account.update(encoding="full", graph=json.dumps(graph), metadata=metadata)
        del account["diff"]

    rewrite_checkpoint(path, edit)
    store2, service2 = reboot(tmp_path)
    report = service2.restore(name="svc")
    assert report.mode == "cold", report.reason
    assert report.quarantined is not None
    assert Path(report.quarantined).exists()
    assert not path.exists()
    assert service2.protect(privilege="Public").scores.path_utility == (
        result.scores.path_utility
    )
