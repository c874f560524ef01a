"""Unit tests for the write log, catalog and indexes of the embedded store.

The write log's tests here reopen its database file; its behaviour within
one open database is in ``test_sqlite_store.py``.
"""

import pytest

from repro.exceptions import CatalogError
from repro.graph.builders import graph_from_edges
from repro.store.catalog import Catalog
from repro.store.index import FeatureIndex
from repro.store.io import StorageIO
from repro.store.sqlite import DATABASE_NAME, Database, SQLiteWriteLog, ensure_schema


def open_log(path):
    db = Database(path, io=StorageIO())
    ensure_schema(db)
    return db, SQLiteWriteLog(db, io=StorageIO())


class TestWriteAheadLog:
    def test_file_backed_round_trip(self, tmp_path):
        path = tmp_path / DATABASE_NAME
        db, wal = open_log(path)
        wal.append("create_graph", "g")
        wal.append("add_edge", "g", {"source": "a", "target": "b"})
        db.close()
        _, reopened = open_log(path)
        assert len(reopened) == 2
        assert reopened.records()[1].payload["target"] == "b"
        # New appends continue the sequence.
        assert reopened.append("add_node", "g", {"id": "c"}).seq == 3

    def test_truncate(self, tmp_path):
        path = tmp_path / DATABASE_NAME
        db, wal = open_log(path)
        wal.append("create_graph", "g")
        wal.truncate()
        assert len(wal) == 0
        db.close()
        _, reopened = open_log(path)
        assert reopened.records() == []
        # The truncation's own sequence number is not handed out again.
        assert reopened.next_seq == 3

    def test_record_json_round_trip(self, tmp_path):
        """A record read back from its row equals the one appended."""
        path = tmp_path / DATABASE_NAME
        db, wal = open_log(path)
        record = wal.append(
            "add_node",
            "g",
            {"id": 7, "kind": None, "features": {"name": "\u00fcn\u00ef", "weight": 1.5, "tags": ["x"]}},
        )
        db.close()
        _, reopened = open_log(path)
        assert reopened.records() == [record]


class TestCatalog:
    def test_register_get_drop(self):
        catalog = Catalog()
        catalog.register("g", kind="provenance", description="demo")
        assert "g" in catalog and len(catalog) == 1
        descriptor = catalog.get("g")
        assert descriptor.kind == "provenance"
        dropped = catalog.drop("g")
        assert dropped.name == "g"
        assert "g" not in catalog

    def test_duplicate_registration_rejected(self):
        catalog = Catalog()
        catalog.register("g")
        with pytest.raises(CatalogError):
            catalog.register("g")

    def test_missing_graph_rejected(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.get("nope")
        with pytest.raises(CatalogError):
            catalog.drop("nope")

    def test_update_counts_and_as_dict(self):
        catalog = Catalog()
        catalog.register("g")
        catalog.update_counts("g", node_count=10, edge_count=20)
        payload = catalog.get("g").as_dict()
        assert payload["nodes"] == 10 and payload["edges"] == 20
        assert catalog.names() == ["g"]
        assert [d.name for d in catalog.descriptors()] == ["g"]


class TestFeatureIndex:
    def test_lookup_by_attribute_value(self):
        graph = graph_from_edges([("a", "b")])
        graph.set_node_features("a", {"role": "person", "age": 30})
        graph.set_node_features("b", {"role": "person"})
        index = FeatureIndex.build(graph)
        assert index.lookup("role", "person") == {"a", "b"}
        assert index.lookup("age", 30) == {"a"}
        assert index.lookup("role", "robot") == set()
        assert "role" in index.attributes()

    def test_reindex_and_remove(self):
        index = FeatureIndex()
        index.index_node("a", {"role": "person"})
        index.index_node("a", {"role": "robot"})
        assert index.lookup("role", "person") == set()
        assert index.lookup("role", "robot") == {"a"}
        index.remove_node("a")
        assert index.lookup("role", "robot") == set()

    def test_unhashable_values_skipped(self):
        index = FeatureIndex()
        index.index_node("a", {"tags": ["x", "y"], "name": "A"})
        assert index.lookup("name", "A") == {"a"}
        assert index.lookup_any("name", ["A", "B"]) == {"a"}
