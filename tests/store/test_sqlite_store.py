"""SQLite specifics: search, listings, quarantine, the write log, paging.

The storage contract lives in ``test_storage_engine.py`` and the import of
legacy file-engine roots in ``test_legacy_import.py``; this module covers
the FTS search index, the materialized account listing, the database
quarantine path, the table-backed write log and the paged loader.
"""

import gc
import json
import sqlite3

import pytest

from repro.exceptions import CatalogError, StoreError, TransientError
from repro.graph.builders import GraphBuilder
from repro.graph.model import PropertyGraph
from repro.store.engine import GraphStore
from repro.store.io import StorageIO
from repro.store.sqlite import (
    DATABASE_NAME,
    Database,
    SQLiteGraphStorage,
    SQLiteWriteLog,
    ensure_schema,
)

from tests.store.conftest import in_memory_and_durable


def _db(storage):
    return storage.db


@pytest.fixture
def fresh_log(placement, tmp_path):
    """An empty write log over a ``:memory:`` or an on-disk database."""
    db = Database(
        ":memory:" if placement == "memory" else tmp_path / DATABASE_NAME, io=StorageIO()
    )
    ensure_schema(db)
    return db, SQLiteWriteLog(db, io=StorageIO())


@in_memory_and_durable
class TestSQLiteWriteLog:
    def test_append_and_sequence(self, fresh_log):
        _, wal = fresh_log
        first = wal.append("create_graph", "g")
        second = wal.append("add_node", "g", {"id": "a"})
        assert first.seq == 1 and second.seq == 2
        assert len(wal) == 2
        assert [record.op for record in wal] == ["create_graph", "add_node"]

    def test_unknown_operation_rejected(self, fresh_log):
        _, wal = fresh_log
        with pytest.raises(StoreError):
            wal.append("truncate_table", "g")

    def test_truncate_preserves_sequence(self, fresh_log):
        db, wal = fresh_log
        wal.append("create_graph", "g")
        wal.append("add_node", "g", {"id": "a"})
        wal.truncate()
        assert len(wal) == 0
        assert wal.base_seq == 3
        assert wal.append("add_node", "g", {"id": "b"}).seq == 4
        # A fresh log over the same database sees the carried-over counter.
        reopened = SQLiteWriteLog(db, io=StorageIO())
        assert reopened.next_seq == 5
        assert reopened.records_since(3)[0].payload["id"] == "b"

    def test_recovery_info_counts_the_records_found_at_open(self, fresh_log):
        db, wal = fresh_log
        wal.append("create_graph", "g")
        wal.append("add_node", "g", {"id": "a"})
        assert SQLiteWriteLog(db, io=StorageIO()).recovery_info.records == 2


def test_read_only_open_reads_only_the_rows_present_at_open(tmp_path):
    leader = GraphStore(tmp_path)
    leader.create_graph("g")
    leader.add_node("g", "a", kind="data")
    follower = GraphStore(tmp_path, read_only=True)
    leader.add_node("g", "b", kind="data")
    wal = follower.storage.wal
    assert [record.op for record in wal.records()] == ["create_graph", "add_node"]
    assert len(wal) == 2 and wal.records_since(1)[0].payload["id"] == "a"
    assert follower.graph("g").node_ids() == ["a"]
    assert len(leader.storage.wal) == 3
    follower.storage.close()
    leader.storage.close()


class TestDatabase:
    def test_operational_error_is_transient(self, tmp_path):
        db = Database(tmp_path / "x.sqlite", io=StorageIO())
        with pytest.raises(TransientError):
            db.execute("SELECT * FROM missing_table")

    def test_wal_mode_on_file_backed(self, tmp_path):
        db = Database(tmp_path / "x.sqlite", io=StorageIO())
        (mode,) = db.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"

    def test_page_cache_budget_applied(self, tmp_path):
        db = Database(tmp_path / "x.sqlite", io=StorageIO(), page_cache_pages=16)
        (size,) = db.execute("PRAGMA cache_size").fetchone()
        assert size == 16


class TestFullTextSearch:
    @in_memory_and_durable
    def test_fts_match_queries(self, make_storage):
        storage = make_storage()
        if not storage.db.fts_enabled:
            pytest.skip("sqlite built without FTS5")
        graph = (
            GraphBuilder("docs")
            .node("a", kind="paper", features={"title": "provenance security"})
            .node("b", kind="paper", features={"title": "graph databases"})
            .node("c", kind="review", features={"title": "provenance graphs"})
            .build()
        )
        storage.put_graph(graph)
        assert storage.search_nodes("docs", "provenance") == {"a", "c"}
        # Full MATCH syntax is available, not just single terms.
        assert storage.search_nodes("docs", "provenance AND security") == {"a"}
        assert storage.search_nodes("docs", "review") == {"c"}

    @in_memory_and_durable
    def test_search_tracks_feature_edits(self, make_store):
        store = make_store()
        store.create_graph("g")
        store.add_node("g", "a", features={"name": "before"})
        assert store.search_nodes("g", "before") == {"a"}
        store.set_node_features("g", "a", {"name": "after"})
        assert store.search_nodes("g", "before") == set()
        assert store.search_nodes("g", "after") == {"a"}

    def test_search_unknown_graph_rejected(self):
        with pytest.raises(CatalogError):
            SQLiteGraphStorage().search_nodes("nope", "term")


@in_memory_and_durable
class TestAccountListing:
    def test_listing_materialized_from_catalog(self, make_store):
        store = make_store(tenant="acme")
        account_graph = GraphBuilder("alice-account").chain(["a", "b", "c"]).build()
        store.put_graph(account_graph, name="alice-account")
        descriptor = store.storage.catalog.get("alice-account")
        descriptor.kind = "protected_account"
        descriptor.metadata["protected_account"] = json.dumps(
            {
                "format_version": 1,
                "graph_name": "alice-account",
                "privilege": "Secret",
                "strategy": "surrogate",
                "correspondence": [],
                "surrogate_nodes": ["b"],
                "surrogate_edges": [["a", "b"], ["b", "c"]],
            }
        )
        store.storage.save_catalog()
        listing = store.list_accounts()
        assert len(listing) == 1
        entry = listing[0]
        assert entry["name"] == "alice-account"
        assert entry["privilege"] == "Secret"
        assert entry["strategy"] == "surrogate"
        assert entry["tenant"] == "acme"
        assert entry["surrogate_nodes"] == 1
        assert entry["surrogate_edges"] == 2
        assert store.list_accounts(tenant="other") == []
        # The listing is real rows, not a per-call scan.
        rows = _db(store.storage).execute("SELECT count(*) FROM account_listing").fetchone()
        assert rows == (1,)
        # Markings rows carry the surrogate sets.
        markings = _db(store.storage).execute(
            "SELECT marking, count(*) FROM markings GROUP BY marking ORDER BY marking"
        ).fetchall()
        assert markings == [("surrogate_edge", 2), ("surrogate_node", 1)]

    def test_drop_graph_clears_account_rows(self, make_store):
        store = make_store()
        store.put_graph(GraphBuilder("acct").chain(["a", "b"]).build(), name="acct")
        descriptor = store.storage.catalog.get("acct")
        descriptor.kind = "protected_account"
        descriptor.metadata["protected_account"] = json.dumps(
            {"graph_name": "acct", "surrogate_nodes": [], "surrogate_edges": []}
        )
        store.storage.save_catalog()
        assert len(store.list_accounts()) == 1
        store.drop_graph("acct")
        assert store.list_accounts() == []


class TestQuarantine:
    def test_corrupt_database_quarantined_not_deleted(self, tmp_path):
        storage = SQLiteGraphStorage(tmp_path)
        storage.put_graph(GraphBuilder("g").chain(["a", "b"]).build(), name="g")
        storage.db.close()
        (tmp_path / DATABASE_NAME).write_bytes(b"this is not a database" * 64)
        for sidecar in (f"{DATABASE_NAME}-wal", f"{DATABASE_NAME}-shm"):
            path = tmp_path / sidecar
            if path.exists():
                path.unlink()
        reopened = SQLiteGraphStorage(tmp_path)
        assert DATABASE_NAME in reopened.recovery_report.quarantined
        assert not reopened.recovery_report.clean
        # The damaged file was renamed aside, never silently removed.
        assert list(tmp_path.glob(f"{DATABASE_NAME}.corrupt*"))
        # The store stays usable.
        reopened.put_graph(GraphBuilder("h").chain(["x", "y"]).build(), name="h")
        assert reopened.graph("h").has_edge("x", "y")


class TestPagedLoading:
    def test_lazy_open_loads_nothing(self, tmp_path):
        storage = SQLiteGraphStorage(tmp_path)
        storage.put_graph(GraphBuilder("g").chain(["a", "b", "c"]).build(), name="g")
        storage.checkpoint()
        storage.db.close()
        reopened = SQLiteGraphStorage(tmp_path)
        assert reopened.resident_names() == []
        assert reopened.names() == ["g"]
        assert reopened.paging.rows_streamed == 0

    def test_page_budget_respected(self, tmp_path):
        storage = SQLiteGraphStorage(tmp_path, page_rows=4)
        graph = PropertyGraph(name="g")
        for index in range(37):
            graph.add_node(f"n{index}")
        storage.put_graph(graph)
        storage.checkpoint()
        storage.db.close()
        reopened = SQLiteGraphStorage(tmp_path, page_rows=4)
        loaded = reopened.graph("g")
        assert loaded.node_count() == 37
        assert reopened.paging.peak_page_rows <= 4
        assert reopened.paging.pages_fetched >= 10


    @pytest.mark.parametrize(
        "ids",
        [
            ["a", "b", "c"],
            [3, 1, 2],
            ["1", 1, "01", 10],
            ["\u00fcml\u00e4ut", "\u4e2d\u6587", "smile \U0001F600"],
            ['say "hi"', "back\\slash", "tab\tid", "new\nline"],
        ],
        ids=["plain", "ints", "numeric-strings", "unicode", "escapes"],
    )
    def test_every_id_kind_survives_a_reload(self, tmp_path, ids):
        """Ids are encoded and decoded once each per snapshot; none may merge."""
        graph = PropertyGraph(name="g")
        for node_id in ids:
            graph.add_node(node_id, features={"label": str(node_id)})
        for source, target in zip(ids, ids[1:]):
            graph.add_edge(source, target, features={"w": 1})
        graph.add_edge(ids[-1], ids[0])
        storage = SQLiteGraphStorage(tmp_path)
        storage.put_graph(graph)
        storage.checkpoint()
        storage.db.close()
        loaded = SQLiteGraphStorage(tmp_path).graph("g")
        assert loaded == graph
        assert loaded.node_ids() == ids
        assert [type(node_id) for node_id in loaded.node_ids()] == [type(node_id) for node_id in ids]
        assert loaded.edge_keys() == graph.edge_keys()

    def test_empty_features_load_as_separate_dicts(self, tmp_path):
        storage = SQLiteGraphStorage(tmp_path)
        storage.put_graph(GraphBuilder("g").chain(["a", "b", "c"]).build(), name="g")
        storage.checkpoint()
        storage.db.close()
        loaded = SQLiteGraphStorage(tmp_path).graph("g")
        loaded.node("a").features["touched"] = True
        loaded.edge("a", "b").features["touched"] = True
        assert [loaded.node(node).features for node in "bc"] == [{}, {}]
        assert loaded.edge("b", "c").features == {}


class TestOneDatabase:
    def test_store_uses_one_database_file(self, tmp_path):
        store = GraphStore(tmp_path)
        store.create_graph("g")
        store.add_node("g", "a")
        store.checkpoint()
        assert (tmp_path / DATABASE_NAME).exists()
        assert not list(tmp_path.glob("*.graph.json"))
        # It really is SQLite on disk.
        raw = sqlite3.connect(tmp_path / DATABASE_NAME)
        tables = {
            row[0]
            for row in raw.execute("SELECT name FROM sqlite_master WHERE type='table'")
        }
        raw.close()
        assert {"graphs", "nodes", "edges", "wal_log", "intervals"} <= tables

    def test_a_dropped_store_closes_its_connection(self, tmp_path):
        """Freeing a store closes its database without a full collection."""
        sidecars = [tmp_path / f"{DATABASE_NAME}-wal", tmp_path / f"{DATABASE_NAME}-shm"]
        store = GraphStore(tmp_path)
        store.create_graph("g")
        store.add_node("g", "a")
        assert all(path.exists() for path in sidecars)
        gc.disable()
        try:
            store = None
            assert not any(path.exists() for path in sidecars)
        finally:
            gc.enable()
        assert GraphStore(tmp_path).graph("g").node_ids() == ["a"]

    def test_registry_tenant_stores_are_databases(self, tmp_path):
        from repro.api.registry import ServiceRegistry

        registry = ServiceRegistry(tmp_path)
        registry.register("acme")
        store = registry.store_for("acme")
        assert store.health()["tenant"] == "acme"
        assert (store.storage.directory / DATABASE_NAME).exists()
