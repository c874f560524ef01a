"""Importing store roots written by the retired JSON file engine.

``data/legacy_file_root`` was written by the file engine itself: two graphs,
a catalog with tenant metadata, and a ``wal.jsonl`` holding a checkpoint
marker, records after it and a torn tail.  ``legacy_file_root.expected.json``
holds what the file engine recovered from those exact files.  The other
roots here are written by hand in the same layout (``conftest.py``).
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.exceptions import CorruptionError
from repro.graph.builders import GraphBuilder
from repro.graph.serialization import graph_to_dict
from repro.reliability import FaultInjector, Injection, RetryPolicy, SimulatedCrash
from repro.store.engine import GraphStore
from repro.store.sqlite import SQLiteGraphStorage

from tests.store.conftest import legacy_frame, write_legacy_root

DATA = Path(__file__).parent / "data"


@pytest.fixture
def committed_root(tmp_path):
    root = tmp_path / "root"
    shutil.copytree(DATA / "legacy_file_root", root)
    return root


def _tree(root):
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


class TestCommittedFileEngineRoot:
    def test_import_matches_what_the_file_engine_recovered(self, committed_root):
        expected = json.loads((DATA / "legacy_file_root.expected.json").read_text())
        storage = SQLiteGraphStorage(committed_root)
        assert storage.names() == list(expected["graphs"])
        for name, payload in expected["graphs"].items():
            assert graph_to_dict(storage.graph(name)) == payload
        for name, attributes in expected["catalog"].items():
            descriptor = storage.catalog.get(name)
            assert descriptor.kind == attributes["kind"]
            assert descriptor.description == attributes["description"]
            assert descriptor.metadata == attributes["metadata"]
        assert storage.wal.next_seq == expected["next_seq"]
        report = storage.recovery_report
        assert report.migrated_graphs == len(expected["graphs"])
        assert report.records_replayed == expected["records_replayed"]
        assert report.wal_torn_bytes == expected["torn_bytes"]
        assert not report.clean  # the torn tail is reported

    def test_import_survives_a_reopen_and_reads_only_the_legacy_files(self, committed_root):
        expected = json.loads((DATA / "legacy_file_root.expected.json").read_text())
        before = _tree(committed_root)
        SQLiteGraphStorage(committed_root).close()
        after = _tree(committed_root)
        assert {name: after[name] for name in before} == before  # never rewritten
        reopened = GraphStore(committed_root)
        assert reopened.storage.recovery_report.migrated_graphs == 0
        assert reopened.storage.wal.next_seq == expected["next_seq"]
        for name, payload in expected["graphs"].items():
            assert graph_to_dict(reopened.graph(name)) == payload
        assert reopened.storage.catalog.get("beta").metadata == {"tenant": "acme"}


def _legacy_log_root(root):
    """A snapshot, a checkpoint marker and one record after it."""
    graph = GraphBuilder("lg").chain(["x", "y"]).build()
    log = legacy_frame(3, "checkpoint", graph="") + legacy_frame(
        4, "add_edge", graph="lg", payload={"source": "y", "target": "z"}
    )
    catalog = {"lg": {"kind": "provenance", "description": "old store", "metadata": {}}}
    return write_legacy_root(root, [graph], catalog=catalog, log=log)


class TestLegacyMigration:
    def test_file_store_imports_on_first_open(self, tmp_path):
        storage = SQLiteGraphStorage(_legacy_log_root(tmp_path))
        assert storage.recovery_report.migrated_graphs == 1
        assert storage.graph("lg").edge_count() == 2
        assert storage.catalog.get("lg").kind == "provenance"
        # The log's tail replayed and the sequence counter carries over,
        # keeping service-checkpoint stamps comparable.
        assert storage.wal.next_seq == 5
        assert storage.wal.append("add_node", "lg", {"id": "w"}).seq == 5
        # Interval reachability works immediately on imported rows.
        assert storage.sql_lineage("lg", "x", direction="descendants") == {"y", "z"}

    def test_second_open_does_not_remigrate(self, tmp_path):
        first = SQLiteGraphStorage(_legacy_log_root(tmp_path))
        first.close()
        second = SQLiteGraphStorage(tmp_path)
        assert second.recovery_report.migrated_graphs == 0
        assert second.graph("lg").edge_count() == 2

    def test_migration_leaves_legacy_files_in_place(self, tmp_path):
        SQLiteGraphStorage(_legacy_log_root(tmp_path))
        assert (tmp_path / "wal.jsonl").exists()
        assert list(tmp_path.glob("*.graph.json"))

    def test_dropped_imported_graphs_stay_dropped(self, tmp_path):
        root = write_legacy_root(tmp_path, [GraphBuilder("lg").chain(["x", "y"]).build()])
        store = GraphStore(root)
        store.drop_graph("lg")
        store.checkpoint()
        store = None
        reopened = GraphStore(root)
        assert reopened.storage.recovery_report.migrated_graphs == 0
        assert reopened.graph_names() == []

    def test_a_crash_mid_import_leaves_nothing_and_the_next_open_imports(self, tmp_path):
        root = write_legacy_root(
            tmp_path,
            [GraphBuilder(name).chain(["a", "b", "c"]).build() for name in ("g1", "g2", "g3")],
        )
        crashing = FaultInjector([Injection(mode="crash", point="sqlite.import.commit")])
        with pytest.raises(SimulatedCrash):
            SQLiteGraphStorage(root, io=crashing)
        reopened = SQLiteGraphStorage(root)
        assert reopened.recovery_report.migrated_graphs == 3
        assert reopened.names() == ["g1", "g2", "g3"]
        assert all(reopened.graph(name).edge_count() == 2 for name in reopened.names())

    def test_a_transient_fault_mid_import_is_retried(self, tmp_path):
        root = _legacy_log_root(tmp_path)
        flaky = FaultInjector([Injection(mode="os_error", point="sqlite.import.commit")])
        retry = RetryPolicy(3, sleep=lambda _s: None)
        store = GraphStore(root, io=flaky, retry=retry)
        assert flaky.fired == ["sqlite.import.commit"]
        assert retry.stats()["retries"] == 1
        assert store.storage.recovery_report.migrated_graphs == 1
        assert store.graph("lg").edge_count() == 2

    def test_mid_log_damage_refuses_to_open(self, tmp_path):
        graph = GraphBuilder("lg").chain(["x", "y"]).build()
        damaged = bytearray(legacy_frame(2, "add_node", graph="lg", payload={"id": "z"}))
        damaged[len(damaged) // 2] ^= 0xFF
        log = legacy_frame(1, "add_node", graph="lg", payload={"id": "w"}) + bytes(damaged)
        log += legacy_frame(3, "add_node", graph="lg", payload={"id": "v"})
        write_legacy_root(tmp_path, [graph], log=log)
        with pytest.raises(CorruptionError):
            GraphStore(tmp_path)


def _append_row(table, row):
    def corrupt(path):
        payload = json.loads(path.read_text())
        payload[table].append(row)
        path.write_text(json.dumps(payload))

    return corrupt


def _prepend_non_utf8_byte(path):
    path.write_bytes(b"\xff" + path.read_bytes())


class TestSnapshotRecovery:
    """A legacy snapshot that does not decode to a valid graph is quarantined."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _append_row("edges", {"source": "a", "target": "a", "label": None, "features": {}}),
            _append_row("edges", {"source": "a", "target": "ghost", "label": None, "features": {}}),
            _append_row("nodes", {"kind": "data"}),
            _append_row("nodes", {"id": "f", "features": ["x"]}),
            _prepend_non_utf8_byte,
        ],
        ids=["self-loop", "dangling-endpoint", "node-without-id", "list-features", "not-utf8"],
    )
    def test_invalid_snapshot_is_quarantined_and_siblings_load(
        self, make_storage, tmp_path, small_graph, corrupt
    ):
        write_legacy_root(
            tmp_path, [small_graph.copy(name="good"), small_graph.copy(name="bad")]
        )
        bad = tmp_path / "bad.graph.json"
        corrupt(bad)

        reopened = make_storage(tmp_path)
        assert bad.name in reopened.recovery_report.quarantined
        assert list(tmp_path.glob(f"{bad.name}.corrupt*"))
        assert reopened.graph("good") == small_graph
        assert not reopened.has_graph("bad")

    def test_catalog_that_is_not_text_is_quarantined(self, make_storage, tmp_path, small_graph):
        write_legacy_root(tmp_path, [small_graph.copy(name="good")])
        _prepend_non_utf8_byte(tmp_path / "catalog.json")

        reopened = make_storage(tmp_path)
        assert "catalog.json" in reopened.recovery_report.quarantined
        assert reopened.graph("good") == small_graph
