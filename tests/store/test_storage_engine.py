"""The storage contract suite: one body per behavior, in memory and durable.

Each test receives the ``make_store`` / ``make_storage`` factories from
``conftest.py``.  SQLite specifics (FTS search syntax, quarantine file
layout, paging) live in ``test_sqlite_store.py``, and the import of legacy
file-engine roots in ``test_legacy_import.py``.
"""

import pytest

from repro.exceptions import CatalogError, StoreError, TransactionError

from tests.store.conftest import in_memory_and_durable


class TestStorageContract:
    @in_memory_and_durable
    def test_create_and_fetch(self, make_storage, placement):
        storage = make_storage()
        storage.create_graph("g")
        assert storage.has_graph("g")
        assert storage.names() == ["g"]
        assert storage.graph("g").node_count() == 0
        assert storage.durable is (placement == "durable")

    @in_memory_and_durable
    def test_missing_graph_raises(self, make_storage):
        storage = make_storage()
        with pytest.raises(CatalogError):
            storage.graph("nope")

    @in_memory_and_durable
    def test_put_graph_and_export_import(self, make_storage, small_graph):
        storage = make_storage()
        storage.put_graph(small_graph, name="snapshot")
        payload = storage.export_graph("snapshot")
        other = make_storage()
        other.import_graph(payload, name="copy")
        assert other.graph("copy").edge_count() == small_graph.edge_count()

    @in_memory_and_durable
    def test_unnamed_graph_rejected(self, make_storage):
        from repro.graph.model import PropertyGraph

        storage = make_storage()
        with pytest.raises(StoreError):
            storage.put_graph(PropertyGraph())

    @in_memory_and_durable
    def test_duplicate_create_rejected(self, make_storage):
        storage = make_storage()
        storage.create_graph("g")
        with pytest.raises(CatalogError):
            storage.create_graph("g")

    @in_memory_and_durable
    def test_drop_missing_graph_rejected(self, make_storage):
        storage = make_storage()
        with pytest.raises(CatalogError):
            storage.drop_graph("nope")

    def test_durable_snapshot_recovery(self, make_storage, tmp_path, small_graph):
        storage = make_storage(tmp_path)
        storage.put_graph(small_graph, name="persisted")
        reopened = make_storage(tmp_path)
        assert reopened.has_graph("persisted")
        assert reopened.graph("persisted") == small_graph

    def test_catalog_attributes_survive_reopen(self, make_storage, tmp_path):
        storage = make_storage(tmp_path)
        storage.create_graph("g", kind="provenance", description="lineage demo")
        storage.catalog.get("g").metadata["tenant"] = "acme"
        storage.save_catalog()
        reopened = make_storage(tmp_path)
        descriptor = reopened.catalog.get("g")
        assert descriptor.kind == "provenance"
        assert descriptor.description == "lineage demo"
        assert descriptor.metadata["tenant"] == "acme"

    def test_wal_replay_recovers_logged_mutations(self, make_store, tmp_path):
        store = make_store(tmp_path)
        store.create_graph("g")
        store.add_node("g", "a", features={"v": 1})
        store.add_node("g", "b")
        store.add_edge("g", "a", "b")
        store.remove_node("g", "b")
        reopened = make_store(tmp_path)
        graph = reopened.graph("g")
        assert graph.has_node("a") and not graph.has_node("b")
        assert graph.node("a").features == {"v": 1}

    def test_checkpoint_truncates_log(self, make_store, tmp_path):
        store = make_store(tmp_path)
        store.create_graph("g")
        store.add_node("g", "a")
        assert len(store.storage.wal) > 0
        store.checkpoint()
        assert len(store.storage.wal) == 0
        reopened = make_store(tmp_path)
        assert reopened.graph("g").has_node("a")

    def test_sequence_counter_survives_checkpoint(self, make_store, tmp_path):
        store = make_store(tmp_path)
        store.create_graph("g")
        store.add_node("g", "a")
        seq_before = store.storage.wal.next_seq
        store.checkpoint()
        assert store.storage.wal.next_seq >= seq_before
        assert store.storage.wal.base_seq >= seq_before - 1
        reopened = make_store(tmp_path)
        assert reopened.storage.wal.next_seq >= seq_before

    def test_snapshot_graph_excludes_wal_tail(self, make_store, tmp_path):
        store = make_store(tmp_path)
        store.create_graph("g")
        store.add_node("g", "a")
        store.checkpoint()
        store.add_node("g", "b")
        snapshot = store.storage.snapshot_graph("g")
        assert snapshot is not None
        assert snapshot.has_node("a") and not snapshot.has_node("b")


class TestGraphStoreEngine:
    @in_memory_and_durable
    def test_mutations_and_indexed_queries(self, make_store):
        store = make_store()
        store.create_graph("g")
        store.add_node("g", "a", features={"role": "person"})
        store.add_node("g", "b")
        store.add_node("g", "c")
        store.add_edge("g", "a", "b")
        store.add_edge("g", "b", "c")
        assert store.successors("g", "a") == {"b"}
        assert store.predecessors("g", "c") == {"b"}
        assert store.find_nodes("g", "role", "person") == {"a"}
        assert store.lineage("g", "c", direction="ancestors") == {"a", "b"}
        assert store.lineage("g", "a", direction="descendants") == {"b", "c"}
        with pytest.raises(ValueError):
            store.lineage("g", "a", direction="sideways")

    @in_memory_and_durable
    def test_graph_returns_a_copy(self, make_store):
        store = make_store()
        store.create_graph("g")
        store.add_node("g", "a")
        copy = store.graph("g")
        copy.add_node("intruder")
        assert not store.graph("g").has_node("intruder")

    @in_memory_and_durable
    def test_remove_operations_update_indexes(self, make_store):
        store = make_store()
        store.create_graph("g")
        store.add_node("g", "a")
        store.add_node("g", "b")
        store.add_edge("g", "a", "b")
        store.remove_edge("g", "a", "b")
        assert store.successors("g", "a") == set()
        store.remove_node("g", "b")
        assert not store.graph("g").has_node("b")

    @in_memory_and_durable
    def test_set_node_features_reindexes(self, make_store):
        store = make_store()
        store.create_graph("g")
        store.add_node("g", "a", features={"role": "person"})
        store.set_node_features("g", "a", {"role": "robot"})
        assert store.find_nodes("g", "role", "person") == set()
        assert store.find_nodes("g", "role", "robot") == {"a"}

    @in_memory_and_durable
    def test_put_and_drop_graph(self, make_store, small_graph):
        store = make_store()
        store.put_graph(small_graph, name="demo")
        assert store.has_graph("demo")
        assert store.successors("demo", "b") == {"c", "d"}
        store.drop_graph("demo")
        assert not store.has_graph("demo")

    def test_drop_graph_survives_reopen(self, make_store, tmp_path, small_graph):
        store = make_store(tmp_path)
        store.put_graph(small_graph, name="demo")
        store.drop_graph("demo")
        reopened = make_store(tmp_path)
        assert not reopened.has_graph("demo")
        assert reopened.graph_names() == []

    @in_memory_and_durable
    def test_stats_accumulate(self, make_store):
        store = make_store()
        store.create_graph("g")
        store.add_node("g", "a")
        store.add_node("g", "b")
        store.add_edge("g", "a", "b")
        store.successors("g", "a")
        assert store.stats.nodes_written == 2
        assert store.stats.edges_written == 1
        assert store.stats.queries_answered == 1
        assert store.stats.as_dict()["nodes_written"] == 2

    @in_memory_and_durable
    def test_lineage_after_structural_edits(self, make_store):
        """Lineage answers track edits on every engine (interval re-encode)."""
        store = make_store()
        store.create_graph("g")
        for node in "abcd":
            store.add_node("g", node)
        store.add_edge("g", "a", "b")
        store.add_edge("g", "b", "c")
        assert store.lineage("g", "a", direction="descendants") == {"b", "c"}
        store.add_edge("g", "c", "d")
        assert store.lineage("g", "a", direction="descendants") == {"b", "c", "d"}
        store.remove_edge("g", "b", "c")
        assert store.lineage("g", "a", direction="descendants") == {"b"}
        assert store.lineage("g", "d", direction="ancestors") == {"c"}

    @in_memory_and_durable
    def test_search_nodes_single_term(self, make_store):
        store = make_store()
        store.create_graph("g")
        store.add_node("g", "a", kind="person", features={"name": "alice"})
        store.add_node("g", "b", kind="process", features={"name": "builder"})
        assert store.search_nodes("g", "alice") == {"a"}
        assert "a" in store.search_nodes("g", "person")
        assert store.search_nodes("g", "nomatch") == set()

    def test_health_of_an_in_memory_store(self, make_store):
        store = make_store()
        health = store.health()
        assert "engine" not in health
        assert health["durable"] is False
        assert health["recovery"]["clean"] is True

    @in_memory_and_durable
    def test_list_accounts_empty(self, make_store):
        assert make_store().list_accounts() == []

    @in_memory_and_durable
    def test_health_counts_the_live_write_log(self, make_store):
        store = make_store()
        store.create_graph("g")
        for node in "abc":
            store.add_node("g", node)
        wal = store.health()["wal"]
        assert wal["records"] == len(store.storage.wal) == 4
        assert wal["next_seq"] == 5
        assert wal["records_at_open"] == 0

    def test_health_reports_the_records_found_at_reopen(self, make_store, tmp_path):
        store = make_store(tmp_path)
        store.create_graph("g")
        store.add_node("g", "a")
        reopened = make_store(tmp_path)
        reopened.add_node("g", "b")
        wal = reopened.health()["wal"]
        assert wal["records_at_open"] == 2
        assert wal["records"] == 3

    @in_memory_and_durable
    def test_list_accounts_sees_a_persisted_account(self, make_store, figure2b):
        from repro.api import ProtectionService, persist_account

        store = make_store(tenant="acme")
        service = ProtectionService(figure2b.graph, figure2b.policy)
        account = service.protect(privilege=figure2b.high2).account
        persist_account(store, account, "fig2b")
        [entry] = store.list_accounts()
        assert entry["name"] == "fig2b"
        assert entry["tenant"] == "acme"
        assert entry["nodes"] == account.graph.node_count()


class TestTransactions:
    @in_memory_and_durable
    def test_commit_applies_all_operations(self, make_store):
        store = make_store()
        store.create_graph("g")
        with store.transaction("g") as txn:
            txn.add_node("a").add_node("b").add_edge("a", "b", label="next")
        graph = store.graph("g")
        assert graph.has_edge("a", "b")
        assert store.stats.transactions_committed == 1

    @in_memory_and_durable
    def test_rollback_discards_buffer(self, make_store):
        store = make_store()
        store.create_graph("g")
        txn = store.transaction("g")
        txn.add_node("a")
        txn.rollback()
        assert not store.graph("g").has_node("a")
        with pytest.raises(TransactionError):
            txn.commit()

    @in_memory_and_durable
    def test_failed_batch_leaves_graph_untouched(self, make_store):
        store = make_store()
        store.create_graph("g")
        store.add_node("g", "existing")
        txn = store.transaction("g")
        txn.add_node("new_node")
        txn.add_edge("new_node", "missing")  # invalid: endpoint never created
        with pytest.raises(Exception):
            txn.commit()
        graph = store.graph("g")
        assert not graph.has_node("new_node")
        assert graph.has_node("existing")

    @in_memory_and_durable
    def test_exception_inside_context_rolls_back(self, make_store):
        store = make_store()
        store.create_graph("g")
        with pytest.raises(RuntimeError):
            with store.transaction("g") as txn:
                txn.add_node("a")
                raise RuntimeError("boom")
        assert not store.graph("g").has_node("a")

    @in_memory_and_durable
    def test_transaction_on_missing_graph_rejected(self, make_store):
        store = make_store()
        with pytest.raises(StoreError):
            store.transaction("nope")

    @in_memory_and_durable
    def test_transactional_set_features_and_removals(self, make_store):
        store = make_store()
        store.create_graph("g")
        store.add_node("g", "a", features={"v": 1})
        store.add_node("g", "b")
        store.add_edge("g", "a", "b")
        with store.transaction("g") as txn:
            txn.set_node_features("a", {"v": 2}).remove_edge("a", "b").remove_node("b")
        graph = store.graph("g")
        assert graph.node("a").features == {"v": 2}
        assert not graph.has_node("b")

    def test_transaction_survives_reopen(self, make_store, tmp_path):
        store = make_store(tmp_path)
        store.create_graph("g")
        with store.transaction("g") as txn:
            txn.add_node("a").add_node("b").add_edge("a", "b")
        reopened = make_store(tmp_path)
        assert reopened.graph("g").has_edge("a", "b")


class TestStoreQueries:
    @in_memory_and_durable
    def test_adjacency_of_an_unknown_node_is_empty(self, make_store, small_graph):
        store = make_store()
        store.put_graph(small_graph, name="demo")
        assert store.successors("demo", "ghost") == set()
        assert store.predecessors("demo", "ghost") == set()
        with pytest.raises(CatalogError):
            store.successors("nope", "a")

    def test_feature_index_builds_on_first_lookup_and_then_tracks_writes(
        self, make_store, tmp_path, small_graph
    ):
        store = make_store(tmp_path)
        store.put_graph(small_graph, name="demo")
        reopened = make_store(tmp_path)
        assert reopened._features == {}  # opening builds no index
        assert reopened.find_nodes("demo", "name", "A") == {"a"}
        reopened.add_node("demo", "f", features={"name": "A"})
        reopened.set_node_features("demo", "a", {"name": "Z"})
        assert reopened.find_nodes("demo", "name", "A") == {"f"}
        reopened.remove_node("demo", "f")
        assert reopened.find_nodes("demo", "name", "A") == set()
        with reopened.transaction("demo") as txn:
            txn.add_node("g", features={"name": "Z"})
        assert reopened.find_nodes("demo", "name", "Z") == {"a", "g"}
