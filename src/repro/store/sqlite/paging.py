"""Paged graph loading: stream snapshot rows in bounded batches.

The point of the SQLite engine is that a graph no longer has to fit the
page cache to be *stored*; this module is what keeps the *load* path
bounded too.  Rows stream out of SQLite via ``fetchmany(page_rows)`` —
never ``fetchall`` — so the peak number of row tuples resident in Python
at any instant is one page, regardless of graph size.  The out-of-core
regression test pins :attr:`PagingStats.peak_page_rows` against the
configured budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator

from repro.graph.model import PropertyGraph
from repro.store.sqlite.connection import Database

#: Default rows per fetched page; small enough to bound memory, large
#: enough that per-page overhead is noise.
DEFAULT_PAGE_ROWS = 2048


@dataclass
class PagingStats:
    """Counters proving loads stayed paged (read by the out-of-core test)."""

    page_rows: int = DEFAULT_PAGE_ROWS
    pages_fetched: int = 0
    rows_streamed: int = 0
    #: Largest single batch of row tuples held at once — bounded by
    #: ``page_rows`` whenever every load went through the paged path.
    peak_page_rows: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "page_rows": self.page_rows,
            "pages_fetched": self.pages_fetched,
            "rows_streamed": self.rows_streamed,
            "peak_page_rows": self.peak_page_rows,
        }


def decode_id(text: str) -> Any:
    """Node-id column → original id (JSON round-trip)."""
    return json.loads(text)


def encode_id(node_id: Any) -> str:
    """Original node id → stable TEXT key."""
    return json.dumps(node_id, sort_keys=True, default=str)


class IdTexts(dict):
    """Node id → TEXT key, encoding each distinct id once (one per write)."""

    def __missing__(self, node_id: Any) -> str:
        text = self[node_id] = encode_id(node_id)
        return text


class _DecodedIds(dict):
    """TEXT key → node id, decoding each distinct key once (one per load)."""

    def __missing__(self, text: str) -> Any:
        node_id = self[text] = decode_id(text)
        return node_id


def _features(text: str) -> Dict[str, Any]:
    return {} if text == "{}" else json.loads(text)


def _paged_rows(db: Database, sql: str, name: str, page_rows: int, stats: PagingStats) -> Iterator[tuple]:
    """One query's rows, fetched ``page_rows`` at a time once iteration starts."""
    cursor = db.execute(sql, (name,))
    while True:
        page = cursor.fetchmany(page_rows)
        if not page:
            return
        stats.pages_fetched += 1
        stats.rows_streamed += len(page)
        stats.peak_page_rows = max(stats.peak_page_rows, len(page))
        yield from page


def load_graph_paged(
    db: Database,
    name: str,
    *,
    page_rows: int,
    stats: PagingStats,
) -> PropertyGraph:
    """Rebuild one graph from its snapshot rows, one page at a time.

    :meth:`PropertyGraph.from_rows` pulls rows as it builds, so the edge
    query starts only once every node row is in, and at most one page of
    row tuples is resident at any instant.  Edge endpoints repeat node ids,
    so each distinct id text is decoded once per load, and the common
    empty features text skips the JSON parser.
    """
    nodes = _paged_rows(
        db, "SELECT id, kind, features FROM nodes WHERE graph = ? ORDER BY position", name, page_rows, stats
    )
    edges = _paged_rows(
        db,
        "SELECT source, target, label, features FROM edges WHERE graph = ? ORDER BY position",
        name,
        page_rows,
        stats,
    )
    ids = _DecodedIds()
    return PropertyGraph.from_rows(
        ((ids[node_id], kind, _features(features)) for node_id, kind, features in nodes),
        (
            (ids[source], ids[target], label, _features(features))
            for source, target, label, features in edges
        ),
        name=name,
    )
