"""Out-of-core regression: tiny page-cache budget, identical answers.

The SQLite engine must serve a store bigger than its configured cache
without ever materializing more than one page of rows at a time and
without changing a single query result.  This pins three things at once:

* the paged loader streams in bounded pages (``peak_page_rows`` never
  exceeds the configured ``page_rows``),
* interval reachability runs as pure SQL — a fresh store with **zero**
  resident graphs answers lineage queries without loading the graph,
* every answer is byte-identical to the in-memory reference path.
"""

import json

import pytest

from repro.graph.model import PropertyGraph
from repro.graph.serialization import graph_to_dict
from repro.graph.traversal import ancestors, descendants
from repro.store.engine import GraphStore
from repro.store.sqlite import SQLiteGraphStorage

NODE_COUNT = 3000
CHAIN_LENGTH = 50  # 60 chains of 50 keeps closures bounded, rows plentiful
PAGE_ROWS = 64
PAGE_CACHE_PAGES = 8


def build_large_graph():
    """A deterministic DAG of many chains: dwarfs the cache, bounded depth."""
    graph = PropertyGraph(name="big")
    for index in range(NODE_COUNT):
        graph.add_node(f"n{index}", kind="record", features={"bucket": index % 17})
    for index in range(NODE_COUNT):
        offset = index % CHAIN_LENGTH
        for step in (1, 7):  # chain edge plus a skip edge (forces extra edges)
            if offset + step < CHAIN_LENGTH:
                graph.add_edge(f"n{index}", f"n{index + step}")
    for chain in range(0, NODE_COUNT // CHAIN_LENGTH - 1, 2):
        # Pair up chains (never transitively) so some closures cross graphs'
        # DFS-tree boundaries without recreating one giant component.
        head = chain * CHAIN_LENGTH
        graph.add_edge(f"n{head + CHAIN_LENGTH - 1}", f"n{head + CHAIN_LENGTH}")
    return graph


@pytest.fixture(scope="module")
def big_store(tmp_path_factory):
    directory = tmp_path_factory.mktemp("out-of-core")
    storage = SQLiteGraphStorage(
        directory, page_cache_pages=PAGE_CACHE_PAGES, page_rows=PAGE_ROWS
    )
    storage.put_graph(build_large_graph())
    storage.checkpoint()
    storage.db.close()
    return directory


def reference_graph():
    return build_large_graph()


class TestOutOfCore:
    def test_page_budget_bounds_peak_resident_rows(self, big_store):
        reopened = SQLiteGraphStorage(
            big_store, page_cache_pages=PAGE_CACHE_PAGES, page_rows=PAGE_ROWS
        )
        loaded = reopened.graph("big")
        assert loaded.node_count() == NODE_COUNT
        stats = reopened.paging
        assert stats.peak_page_rows <= PAGE_ROWS
        assert stats.pages_fetched >= (NODE_COUNT // PAGE_ROWS)
        assert stats.rows_streamed >= NODE_COUNT

    def test_sql_lineage_with_zero_residency(self, big_store):
        """Reachability answers arrive without materializing the graph."""
        reopened = SQLiteGraphStorage(
            big_store, page_cache_pages=PAGE_CACHE_PAGES, page_rows=PAGE_ROWS
        )
        assert reopened.resident_names() == []
        reference = reference_graph()
        for probe in ("n0", "n17", "n1500", "n2960", f"n{NODE_COUNT - 1}"):
            assert reopened.sql_lineage(
                "big", probe, direction="descendants"
            ) == descendants(reference, probe)
            assert reopened.sql_lineage(
                "big", probe, direction="ancestors"
            ) == ancestors(reference, probe)
        # The queries above never pulled the graph into memory.
        assert reopened.resident_names() == []
        assert reopened.paging.rows_streamed == 0

    def test_paged_load_byte_identical_to_in_memory(self, big_store):
        """The streamed graph serializes identically to the reference."""
        reopened = SQLiteGraphStorage(
            big_store, page_cache_pages=PAGE_CACHE_PAGES, page_rows=PAGE_ROWS
        )
        loaded = reopened.graph("big")
        reference = reference_graph()
        assert loaded == reference
        streamed = json.dumps(graph_to_dict(loaded), sort_keys=True, default=str).encode()
        in_memory = json.dumps(graph_to_dict(reference), sort_keys=True, default=str).encode()
        assert streamed == in_memory

    def test_engine_wrapper_respects_paging_options(self, big_store, tmp_path):
        store = GraphStore(
            tmp_path,
            page_cache_pages=PAGE_CACHE_PAGES,
            page_rows=PAGE_ROWS,
        )
        store.create_graph("g")
        for index in range(200):
            store.add_node("g", f"n{index}")
        store.checkpoint()
        reopened = GraphStore(
            tmp_path,
            page_cache_pages=PAGE_CACHE_PAGES,
            page_rows=PAGE_ROWS,
        )
        assert reopened.graph("g").node_count() == 200
        assert reopened.storage.paging.peak_page_rows <= PAGE_ROWS
