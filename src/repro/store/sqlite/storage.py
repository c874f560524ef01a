"""`SQLiteGraphStorage`: named-graph persistence over one SQLite database.

Every store root holds one database (``store.sqlite``, WAL mode); an
in-memory store runs the same code over a ``:memory:`` database.  The
storage model is a snapshot plus a logical write log, kept in tables:

* ``nodes``/``edges`` rows are the snapshot, rewritten wholesale per graph
  at put/checkpoint time inside one transaction;
* ``wal_log`` rows are the logical write log
  (:class:`~repro.store.sqlite.wal.SQLiteWriteLog`), each append one
  committed transaction;
* :meth:`SQLiteGraphStorage.checkpoint` writes snapshot rows first and
  truncates the log second, with a named injection point in the gap: a
  crash there replays the full log over fresh rows on reopen, which
  converges because replay is idempotent.

On top of that:

* **lazy, paged loads** — opening a store reads the catalog and replays
  the write log only for the graphs it touches; everything else loads on
  first use through :func:`~repro.store.sqlite.paging.load_graph_paged`
  in bounded row pages (the out-of-core path);
* **interval-encoded reachability** — every snapshot write persists the
  pre/post-order DFS-forest encoding (:mod:`repro.graph.intervals`), so
  ancestor/descendant closures run as recursive range scans via
  :meth:`sql_lineage` without materializing the graph;
* **FTS node search** and **materialized account listing** tables
  refreshed with the catalog.

A database file that fails to open is renamed aside (``.corrupt``),
recorded in the :class:`RecoveryReport`, and a fresh store continues — one
damaged file never takes the tenant down.  A root written by the retired
JSON file engine is imported on its first open
(:mod:`repro.store.sqlite.legacy`), in one transaction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from repro.codec import unpack_id_list, unpack_pair_table
from repro.exceptions import (
    CatalogError,
    CorruptionError,
    NodeNotFoundError,
    ReadOnlyStoreError,
    StoreError,
)
from repro.graph.deltas import record_maintenance
from repro.graph.intervals import IntervalIndex, attach_interval_maintenance
from repro.graph.model import PropertyGraph
from repro.graph.traversal import ancestors, descendants
from repro.graph.serialization import graph_from_dict, graph_to_dict
from repro.store.catalog import Catalog
from repro.store.io import TMP_SUFFIX, StorageIO, quarantine, resolve_io
from repro.store.sqlite import legacy, reachability
from repro.store.sqlite.connection import Database
from repro.store.sqlite.paging import (
    DEFAULT_PAGE_ROWS,
    IdTexts,
    PagingStats,
    encode_id,
    load_graph_paged,
)
from repro.store.sqlite.schema import ensure_schema
from repro.store.sqlite.wal import LogRecord, SQLiteWriteLog, write_base_seq

#: Database file name inside a store root.
DATABASE_NAME = "store.sqlite"

#: Catalog kind under which account persistence registers protected
#: accounts (mirrors ``repro.api.persistence.ACCOUNT_METADATA_KEY``; the
#: literal is duplicated to keep the store layer below the api layer).
ACCOUNT_KIND = "protected_account"


def replay_operation(graph: PropertyGraph, op: str, payload: Dict[str, Any]) -> None:
    """Apply one primitive write-log operation to ``graph`` idempotently.

    The existence guards make replay idempotent, which is what lets a
    checkpoint crash between snapshot and log truncation converge on
    reopen.
    """
    if op == "add_node":
        if not graph.has_node(payload["id"]):
            graph.add_node(payload["id"], kind=payload.get("kind"), features=payload.get("features") or {})
    elif op == "remove_node":
        if graph.has_node(payload["id"]):
            graph.remove_node(payload["id"])
    elif op == "add_edge":
        if not graph.has_edge(payload["source"], payload["target"]):
            graph.add_edge(
                payload["source"],
                payload["target"],
                label=payload.get("label"),
                features=payload.get("features") or {},
                create_nodes=True,
            )
    elif op == "remove_edge":
        if graph.has_edge(payload["source"], payload["target"]):
            graph.remove_edge(payload["source"], payload["target"])
    elif op == "set_node_features":
        if graph.has_node(payload["id"]):
            graph.set_node_features(payload["id"], payload.get("features") or {})
    else:  # pragma: no cover - KNOWN_OPS guards this
        raise StoreError(f"cannot replay unknown operation {op!r}")


@dataclass
class RecoveryReport:
    """What one store open had to repair (health surface)."""

    snapshots_loaded: int = 0
    records_replayed: int = 0
    #: Files renamed aside because they did not decode: a damaged database,
    #: or a legacy snapshot or catalog that is not UTF-8, not JSON, or
    #: (snapshots) not a valid graph.
    quarantined: List[str] = field(default_factory=list)
    #: Orphaned atomic-write temp files removed (crash between stage and rename).
    tmp_files_removed: int = 0
    #: Torn bytes at the end of an imported legacy write log (left on disk,
    #: not replayed).
    wal_torn_bytes: int = 0
    #: Graphs imported from a legacy JSON file root.
    migrated_graphs: int = 0

    @property
    def clean(self) -> bool:
        """True when recovery found nothing to repair."""
        return not self.quarantined and self.tmp_files_removed == 0 and self.wal_torn_bytes == 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "clean": self.clean,
            "snapshots_loaded": self.snapshots_loaded,
            "records_replayed": self.records_replayed,
            "quarantined": list(self.quarantined),
            "tmp_files_removed": self.tmp_files_removed,
            "wal_torn_bytes": self.wal_torn_bytes,
            "migrated_graphs": self.migrated_graphs,
        }


class SQLiteGraphStorage:
    """Named-graph persistence over SQLite with write-log recovery."""

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        io: Optional[StorageIO] = None,
        page_cache_pages: Optional[int] = None,
        page_rows: Optional[int] = None,
        read_only: bool = False,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.io = resolve_io(io)
        self.read_only = read_only
        self.catalog = Catalog()
        self.recovery_report = RecoveryReport()
        self._page_rows = page_rows if page_rows is not None else DEFAULT_PAGE_ROWS
        self.paging = PagingStats(page_rows=self._page_rows)
        self._graphs: Dict[str, PropertyGraph] = {}
        self._row_versions: Dict[str, int] = {}
        self._interval_index: Dict[str, IntervalIndex] = {}
        self._interval_written: Dict[str, int] = {}
        self._interval_tokens: Dict[str, int] = {}
        self._lineage_seen: Dict[str, int] = {}
        self._snapshotted: Set[str] = set()
        if read_only:
            # Follower-style open: never create, import, clean up or write —
            # another process owns this root.  WAL records are replayed into
            # memory only, so reads reflect the leader's full durable state.
            if self.directory is None:
                raise StoreError("a read-only store needs a durable root directory")
            path = self.directory / DATABASE_NAME
            if not path.exists():
                raise StoreError(f"no SQLite store at {path} to open read-only")
            self.db = Database(
                path, io=self.io, page_cache_pages=page_cache_pages, read_only=True
            )
            self.db.integrity_probe()
        elif self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._remove_orphan_tmp_files()
            self.db = self._open_database(page_cache_pages)
            if self._needs_legacy_import():
                self._import_legacy_root()
        else:
            self.db = Database(":memory:", io=self.io, page_cache_pages=page_cache_pages)
            ensure_schema(self.db)
        self.wal = SQLiteWriteLog(self.db, io=self.io)
        if self.directory is not None:
            self._recover()

    # ------------------------------------------------------------------ #
    # opening / recovery
    # ------------------------------------------------------------------ #
    def _open_database(self, page_cache_pages: Optional[int]) -> Database:
        assert self.directory is not None
        path = self.directory / DATABASE_NAME
        try:
            db = Database(path, io=self.io, page_cache_pages=page_cache_pages)
            db.integrity_probe()
            ensure_schema(db)
            return db
        except CorruptionError:
            if not path.exists():
                raise
            self._quarantine_database(path)
            self.recovery_report.quarantined.append(path.name)
            db = Database(path, io=self.io, page_cache_pages=page_cache_pages)
            ensure_schema(db)
            return db

    def _quarantine_database(self, path: Path) -> None:
        """Rename a damaged database (and its journal files) aside."""
        target = quarantine(self.io, path)
        for journal in ("-wal", "-shm"):
            sidecar = path.with_name(path.name + journal)
            if sidecar.exists():
                self.io.replace(sidecar, target.with_name(target.name + journal))

    def _remove_orphan_tmp_files(self) -> None:
        """Delete staging files a crash left behind (never committed state)."""
        assert self.directory is not None
        for orphan in self.directory.glob(f"*{TMP_SUFFIX}"):
            self.io.unlink(orphan)
            self.recovery_report.tmp_files_removed += 1

    def _needs_legacy_import(self) -> bool:
        """True when the root holds legacy file-engine files and a database
        with no history: no graph rows, no write-log rows and no truncated
        log (a store whose graphs were all dropped has the last)."""
        assert self.directory is not None
        if not legacy.has_legacy_files(self.directory):
            return False
        (history,) = self.db.execute(
            "SELECT (SELECT count(*) FROM graphs) + (SELECT count(*) FROM wal_log) "
            "+ (SELECT count(*) FROM meta WHERE key = 'wal_base_seq')"
        ).fetchone()
        return history == 0

    def _import_legacy_root(self) -> None:
        """Import a JSON file-engine root into the empty database.

        Snapshots load first (in file-name order), the legacy write log
        replays over them, and the catalog's descriptor attributes merge in
        last — the order the file engine recovered in.  Every graph's rows,
        the catalog rows and the carried-over sequence counter then commit
        in **one** transaction: a crash mid-import leaves the database
        empty, and the next open imports again.  The legacy files stay in
        place; an import never destroys its source.
        """
        assert self.directory is not None
        report = self.recovery_report
        for name, graph in legacy.read_snapshots(self.directory, self.io, report.quarantined):
            if name not in self.catalog:
                self.catalog.register(name)
            self._graphs[name] = graph
            self._refresh_counts(name)
        log = legacy.read_log(self.directory, self.io)
        for record in log.records:
            self._replay(record)
        report.records_replayed += len(log.records)
        report.wal_torn_bytes += log.torn_bytes
        attributes = legacy.read_catalog(self.directory, self.io, report.quarantined)
        for name, values in attributes.items():
            if name not in self.catalog:
                continue  # snapshot gone: the graphs on disk win
            descriptor = self.catalog.get(name)
            descriptor.kind = values.get("kind", descriptor.kind)
            descriptor.description = values.get("description", descriptor.description)
            descriptor.metadata.update(values.get("metadata", {}))
        with self.db.transaction("sqlite.import"):
            for name in self.catalog.names():
                index = self._interval_index_for(name)
                self._insert_graph_rows(name, index)
                self._mark_rows_written(name, index)
            self._insert_catalog_rows()
            if log.next_seq > 1:
                write_base_seq(self.db, log.next_seq - 1)
        report.migrated_graphs += len(self.catalog)

    def _recover(self) -> None:
        """Load the catalog, then replay write-log records over row state.

        Only graphs the log actually touches are materialized here; every
        other graph stays on disk until first use (the lazy half of the
        out-of-core story).
        """
        for name, kind, description, metadata, nodes, edges, snapshotted in self.db.execute(
            "SELECT name, kind, description, metadata, node_count, edge_count, snapshotted "
            "FROM graphs ORDER BY position"
        ).fetchall():
            if name in self.catalog:  # registered by the legacy import
                continue
            self.catalog.register(
                name, kind=kind, description=description, metadata=json.loads(metadata)
            )
            self.catalog.update_counts(name, node_count=nodes, edge_count=edges)
            if snapshotted:
                self._snapshotted.add(name)
        for record in self.wal.records():
            self._replay(record)
            self.recovery_report.records_replayed += 1

    def _replay(self, record: LogRecord) -> None:
        name = record.graph
        payload = record.payload
        if record.op == "create_graph":
            if name not in self.catalog:
                self.catalog.register(
                    name,
                    kind=payload.get("kind", "graph"),
                    description=payload.get("description", ""),
                )
            if name not in self._graphs:
                self._graphs[name] = PropertyGraph(name=name)
            return
        if record.op == "drop_graph":
            if name in self.catalog:
                self.catalog.drop(name)
            self._graphs.pop(name, None)
            self._detach_intervals(name)
            return
        graph = self._materialize(name)
        if record.op == "txn":
            for operation in payload.get("operations", []):
                replay_operation(graph, operation.get("op"), operation.get("payload", {}))
        else:
            replay_operation(graph, record.op, payload)
        self._refresh_counts(name)

    def _materialize(self, name: str) -> PropertyGraph:
        """The live graph for ``name``, loading snapshot rows if needed."""
        if name in self._graphs:
            return self._graphs[name]
        if name not in self.catalog:
            # Mutation for a graph with no row and no create record (its
            # snapshot may have been removed by hand): tolerate it.
            self.catalog.register(name)
            self._graphs[name] = PropertyGraph(name=name)
            return self._graphs[name]
        with self.db.read_snapshot():
            graph = load_graph_paged(self.db, name, page_rows=self._page_rows, stats=self.paging)
        self._graphs[name] = graph
        self._row_versions[name] = graph.version
        self.recovery_report.snapshots_loaded += 1
        return graph

    # ------------------------------------------------------------------ #
    # graph lifecycle
    # ------------------------------------------------------------------ #
    @property
    def durable(self) -> bool:
        """True when backed by a directory on disk."""
        return self.directory is not None

    def _require_writable(self, action: str) -> None:
        if self.read_only:
            raise ReadOnlyStoreError(f"cannot {action}: store opened read-only")

    def create_graph(self, name: str, *, kind: str = "graph", description: str = "") -> PropertyGraph:
        """Create (and log) an empty named graph (write-ahead ordering)."""
        self._require_writable("create a graph")
        if name in self.catalog:
            self.catalog.register(name)  # raises the canonical CatalogError
        self.wal.append("create_graph", name, {"kind": kind, "description": description})
        self.catalog.register(name, kind=kind, description=description)
        graph = PropertyGraph(name=name)
        self._graphs[name] = graph
        return graph

    def put_graph(
        self,
        graph: PropertyGraph,
        *,
        name: Optional[str] = None,
        save_catalog: bool = True,
    ) -> str:
        """Store an already-built graph under ``name`` (default: its own name)."""
        self._require_writable("store a graph")
        name = name if name is not None else graph.name
        if not name:
            raise StoreError("a stored graph needs a name")
        if name in self.catalog:
            self.catalog.drop(name)
        self.catalog.register(name)
        self._detach_intervals(name)
        self._graphs[name] = graph.copy(name=name)
        self._refresh_counts(name)
        # Rows are written in memory mode too: the interval and search
        # indexes live in SQLite regardless of durability.
        self._write_graph_rows(name)
        if save_catalog:
            self.save_catalog()
        return name

    def drop_graph(self, name: str) -> None:
        """Remove a graph from the store (rows, indexes, accounts and all)."""
        self._require_writable("drop a graph")
        if name not in self.catalog:
            self.catalog.drop(name)  # raises the canonical CatalogError
        self.wal.append("drop_graph", name)
        self.catalog.drop(name)
        self._graphs.pop(name, None)
        self._detach_intervals(name)
        self._row_versions.pop(name, None)
        self._snapshotted.discard(name)
        with self.db.transaction("sqlite.drop"):
            self._delete_graph_rows(name)
            self.db.execute("DELETE FROM graphs WHERE name = ?", (name,))
            self.db.execute("DELETE FROM markings WHERE account = ?", (name,))
            self.db.execute("DELETE FROM accounts WHERE name = ?", (name,))
            self.db.execute("DELETE FROM account_listing WHERE name = ?", (name,))
        if self.durable:
            self.save_catalog()

    def graph(self, name: str) -> PropertyGraph:
        """The live graph object for ``name`` (loaded lazily, page by page)."""
        if name in self._graphs:
            return self._graphs[name]
        if name not in self.catalog:
            raise CatalogError(f"graph {name!r} is not in the store")
        return self._materialize(name)

    def has_graph(self, name: str) -> bool:
        return name in self._graphs or name in self.catalog

    def names(self) -> List[str]:
        return self.catalog.names()

    def resident_names(self) -> List[str]:
        """Graphs currently materialized in memory (loaded or replayed)."""
        return list(self._graphs)

    # ------------------------------------------------------------------ #
    # logged mutations
    # ------------------------------------------------------------------ #
    def log(self, op: str, graph_name: str, payload: Optional[dict] = None) -> LogRecord:
        """Append one mutation record to the logical write log."""
        self._require_writable("log a mutation")
        return self.wal.append(op, graph_name, payload)

    def _refresh_counts(self, name: str) -> None:
        graph = self._graphs[name]
        self.catalog.update_counts(name, node_count=graph.node_count(), edge_count=graph.edge_count())

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> None:
        """Write snapshot rows for every dirty graph, then truncate the log.

        Snapshot rows and the catalog commit *before* the log empties, and
        the injection point in the gap lets the crash suite prove that
        replaying the full log over fresh rows converges (replay is
        idempotent).
        """
        if not self.durable:
            return
        self._require_writable("checkpoint the store")
        for name in self.catalog.names():
            graph = self._graphs.get(name)
            if graph is None:
                continue  # never materialized ⇒ rows already current
            if self._row_versions.get(name) != graph.version or name not in self._snapshotted:
                self._write_graph_rows(name)
        self.save_catalog()
        self.io.checkpoint("sqlite.checkpoint.staged")
        self.wal.truncate()

    def save_catalog(self) -> None:
        """Persist catalog descriptors and refresh the account tables.

        One transaction rewrites the ``graphs`` descriptor rows and
        re-materializes ``accounts``/``markings``/``account_listing`` from
        the ``protected_account`` descriptors.  Callers that mutate a
        descriptor directly (e.g. account persistence) call this afterwards.
        In-memory stores skip it: nothing reopens them, and
        :meth:`list_accounts` refreshes its rows on demand there.
        """
        if not self.durable or self.read_only:
            return
        with self.db.transaction("sqlite.catalog"):
            self._insert_catalog_rows()

    def _insert_catalog_rows(self) -> None:
        """Rewrite the descriptor and account rows (inside the caller's txn)."""
        self.db.execute("DELETE FROM graphs")
        for position, descriptor in enumerate(self.catalog.descriptors()):
            self.db.execute(
                "INSERT INTO graphs (name, kind, description, metadata, node_count, "
                "edge_count, position, snapshotted) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    descriptor.name,
                    descriptor.kind,
                    descriptor.description,
                    json.dumps(dict(descriptor.metadata), default=str),
                    descriptor.node_count,
                    descriptor.edge_count,
                    position,
                    1 if descriptor.name in self._snapshotted else 0,
                ),
            )
        self._refresh_account_tables()

    def _refresh_account_tables(self) -> None:
        """Rebuild accounts/markings/account_listing (inside the caller's txn)."""
        self.db.execute("DELETE FROM accounts")
        self.db.execute("DELETE FROM markings")
        self.db.execute("DELETE FROM account_listing")
        for descriptor in self.catalog.find(kind=ACCOUNT_KIND):
            raw = descriptor.metadata.get(ACCOUNT_KIND)
            if raw is None:
                continue
            try:
                payload = json.loads(raw) if isinstance(raw, str) else dict(raw)
            except (json.JSONDecodeError, TypeError):
                continue
            surrogate_nodes = unpack_id_list(payload.get("surrogate_nodes", []))
            surrogate_edges = list(
                unpack_pair_table(payload.get("surrogate_edges", []))
            )
            self.db.execute(
                "INSERT INTO accounts (name, graph, payload) VALUES (?, ?, ?)",
                (
                    descriptor.name,
                    str(payload.get("graph_name", "")),
                    json.dumps(payload, default=str),
                ),
            )
            self.db.executemany(
                "INSERT INTO markings (account, node, edge_source, edge_target, marking) "
                "VALUES (?, ?, ?, ?, ?)",
                [
                    (descriptor.name, encode_id(node), None, None, "surrogate_node")
                    for node in surrogate_nodes
                ],
            )
            self.db.executemany(
                "INSERT INTO markings (account, node, edge_source, edge_target, marking) "
                "VALUES (?, ?, ?, ?, ?)",
                [
                    (descriptor.name, None, encode_id(source), encode_id(target), "surrogate_edge")
                    for source, target in surrogate_edges
                ],
            )
            self.db.execute(
                "INSERT INTO account_listing (name, graph, tenant, privilege, strategy, "
                "node_count, edge_count, surrogate_nodes, surrogate_edges) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    descriptor.name,
                    str(payload.get("graph_name", "")),
                    descriptor.metadata.get("tenant"),
                    payload.get("privilege"),
                    payload.get("strategy"),
                    descriptor.node_count,
                    descriptor.edge_count,
                    len(surrogate_nodes),
                    len(surrogate_edges),
                ),
            )

    def _delete_graph_rows(self, name: str) -> None:
        """Delete one graph's snapshot + derived rows (inside caller's txn)."""
        for table in ("nodes", "edges", "intervals", "extra_edges"):
            self.db.execute(f"DELETE FROM {table} WHERE graph = ?", (name,))
        if self.db.fts_enabled:
            self.db.execute("DELETE FROM node_search WHERE graph = ?", (name,))

    def _interval_index_for(self, name: str) -> IntervalIndex:
        """The graph's interval index: attached on first use, refreshed after.

        The delta hook (:func:`~repro.graph.intervals.attach_interval_maintenance`)
        keeps the index valid across feature-only edits, so a refresh
        re-encodes only after structural changes.
        """
        graph = self._graphs[name]
        index = self._interval_index.get(name)
        if index is None:
            index = self._interval_index[name] = IntervalIndex(graph)
            self._interval_tokens[name] = attach_interval_maintenance(graph, index) or 0
        else:
            index.refresh(graph)
        return index

    def _write_graph_rows(self, name: str) -> None:
        """Atomically rewrite one graph's snapshot + derived rows."""
        index = self._interval_index_for(name)
        with self.db.transaction("sqlite.snapshot"):
            self._insert_graph_rows(name, index)
        self._mark_rows_written(name, index)

    def _mark_rows_written(self, name: str, index: IntervalIndex) -> None:
        self._snapshotted.add(name)
        self._row_versions[name] = self._graphs[name].version
        self._interval_written[name] = index.revision

    def _insert_graph_rows(self, name: str, index: IntervalIndex) -> None:
        """Replace one graph's snapshot + derived rows (inside the caller's txn)."""
        graph = self._graphs[name]
        descriptor = self.catalog.get(name)
        keys = IdTexts()
        self._delete_graph_rows(name)
        self.db.executemany(
            "INSERT INTO nodes (graph, id, kind, features, position) VALUES (?, ?, ?, ?, ?)",
            [
                (
                    name,
                    keys[node.node_id],
                    node.kind,
                    json.dumps(dict(node.features), default=str),
                    position,
                )
                for position, node in enumerate(graph.nodes())
            ],
        )
        self.db.executemany(
            "INSERT INTO edges (graph, source, target, label, features, position) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            [
                (
                    name,
                    keys[edge.source],
                    keys[edge.target],
                    edge.label,
                    json.dumps(dict(edge.features), default=str),
                    position,
                )
                for position, edge in enumerate(graph.edges())
            ],
        )
        self._insert_interval_rows(name, index, keys)
        if self.db.fts_enabled:
            self.db.executemany(
                "INSERT INTO node_search (graph, id, body) VALUES (?, ?, ?)",
                [(name, keys[node.node_id], _search_body(node)) for node in graph.nodes()],
            )
        self.db.execute(
            "INSERT INTO graphs (name, kind, description, metadata, node_count, "
            "edge_count, position, snapshotted) VALUES (?, ?, ?, ?, ?, ?, "
            "COALESCE((SELECT position FROM graphs WHERE name = ?), "
            "(SELECT COALESCE(MAX(position), -1) + 1 FROM graphs)), 1) "
            "ON CONFLICT(name) DO UPDATE SET kind = excluded.kind, "
            "description = excluded.description, metadata = excluded.metadata, "
            "node_count = excluded.node_count, edge_count = excluded.edge_count, "
            "snapshotted = 1",
            (
                name,
                descriptor.kind,
                descriptor.description,
                json.dumps(dict(descriptor.metadata), default=str),
                graph.node_count(),
                graph.edge_count(),
                name,
            ),
        )

    def _insert_interval_rows(self, name: str, index: IntervalIndex, keys: IdTexts) -> None:
        forward, reverse = index.forward, index.reverse
        self.db.executemany(
            "INSERT INTO intervals (graph, node, pre, post, level, rpre, rpost, rlevel) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    name,
                    keys[node],
                    forward.pre[node],
                    forward.post[node],
                    forward.level[node],
                    reverse.pre[node],
                    reverse.post[node],
                    reverse.level[node],
                )
                for node in forward.pre
            ],
        )
        self.db.executemany(
            "INSERT INTO extra_edges "
            "(graph, direction, source, target, source_pre, source_post) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            [
                (name, "f", keys[source], keys[target], forward.pre[source], forward.post[source])
                for source, target in forward.extra_edges
            ]
            + [
                (name, "r", keys[source], keys[target], reverse.pre[source], reverse.post[source])
                for source, target in reverse.extra_edges
            ],
        )

    def _detach_intervals(self, name: str) -> None:
        index = self._interval_index.pop(name, None)
        token = self._interval_tokens.pop(name, None)
        self._interval_written.pop(name, None)
        graph = self._graphs.get(name)
        if index is not None and token is not None and graph is not None:
            graph.unsubscribe(token)

    def snapshot_graph(self, name: str) -> Optional[PropertyGraph]:
        """The graph exactly as its snapshot rows record it (or ``None``).

        Reads the rows fresh, so write-log records appended after the last
        snapshot write are *not* included — the contract warm-restart
        checkpoints validate against.
        """
        if not self.durable:
            return None
        if name not in self._snapshotted:
            return None
        # The snapshot pin matters to concurrent readers: node rows and
        # edge rows load in separate statements, and a checkpoint landing
        # between them must not produce a torn graph.
        with self.db.read_snapshot():
            return load_graph_paged(self.db, name, page_rows=self._page_rows, stats=self.paging)

    # ------------------------------------------------------------------ #
    # SQL query surface (what the relational engine adds)
    # ------------------------------------------------------------------ #
    def sql_lineage(self, name: str, node_id: Any, *, direction: str = "ancestors") -> Set[Any]:
        """Ancestor/descendant closure as an interval range scan.

        Runs entirely against the ``intervals``/``extra_edges`` tables —
        a graph that was never materialized stays on disk.  During an edit
        burst — structural changes still arriving between queries — the
        closure is answered by an in-memory traversal instead (pinned equal
        to the interval scan by the differential suite), so
        the O(V) forest re-encode runs once when the burst settles rather
        than once per interleaved query.  Read-only opens whose write-log
        replay advanced a graph past its snapshot rows take the same
        traversal path: a follower never rewrites the leader's rows.
        """
        if name not in self.catalog:
            raise CatalogError(f"graph {name!r} is not in the store")
        if self._defer_interval_encode(name):
            record_maintenance("interval_index", "deferred_traversal")
            graph = self._graphs[name]
            if not graph.has_node(node_id):
                raise NodeNotFoundError(node_id)
            if direction == "ancestors":
                return ancestors(graph, node_id)
            return descendants(graph, node_id)
        self._ensure_intervals(name)
        result = reachability.interval_reach(self.db, name, node_id, direction=direction)
        if result is None:
            raise NodeNotFoundError(node_id)
        return result

    def _defer_interval_encode(self, name: str) -> bool:
        """Should this lineage query skip the interval re-encode?

        True while a structural edit burst is in flight over a resident
        graph: the graph's version moved since the previous lineage query
        (or a batch is literally open, or this store is read-only and
        replay advanced the graph past its persisted rows).  The version
        watermark makes the heuristic self-settling — the first query *not*
        preceded by new edits re-encodes, and every later query scans rows.
        """
        graph = self._graphs.get(name)
        if graph is None:
            return False
        if graph.in_batch:
            return True
        if self.read_only:
            # A follower never rewrites the leader's interval rows, and a
            # resident graph here means the write-log replay (or a caller)
            # already paid for the in-memory structure — traverse it.
            return True
        index = self._interval_index.get(name)
        rows_current = (
            index is not None
            and not index.stale_for(graph)
            and self._interval_written.get(name) == index.revision
        )
        if rows_current:
            self._lineage_seen[name] = graph.version
            return False
        last_seen = self._lineage_seen.get(name)
        self._lineage_seen[name] = graph.version
        return last_seen is not None and last_seen != graph.version

    def visible_frontier(
        self, name: str, markings: Any, privilege: Any, start: Any, *, forward: bool = True
    ) -> Set[Any]:
        """Stop-at-VISIBLE walk frontier with the expansion run in SQL."""
        if name in self._graphs:
            edges = [(edge.source, edge.target) for edge in self._graphs[name].edges()]
        else:
            if name not in self.catalog:
                raise CatalogError(f"graph {name!r} is not in the store")
            edges = [
                (json.loads(source), json.loads(target))
                for source, target in self.db.execute(
                    "SELECT source, target FROM edges WHERE graph = ? ORDER BY position",
                    (name,),
                ).fetchall()
            ]
        steps = reachability.walk_steps_from_view(edges, markings, privilege, forward=forward)
        return reachability.visible_frontier(self.db, steps, start)

    def search_nodes(self, name: str, query: str) -> Set[Any]:
        """Nodes whose kind or features match ``query`` (FTS when available).

        With FTS5, ``query`` uses full MATCH syntax; the fallback without
        FTS5 is a case-insensitive substring scan over the same text.
        """
        if name not in self.catalog:
            raise CatalogError(f"graph {name!r} is not in the store")
        graph = self._graphs.get(name)
        if graph is not None and self._row_versions.get(name) != graph.version:
            if self.read_only:
                # Followers cannot refresh the FTS rows; scan the replayed
                # in-memory graph with the substring semantics instead.
                needle = query.lower()
                return {
                    node.node_id
                    for node in graph.nodes()
                    if needle in _search_body(node).lower()
                }
            self._write_graph_rows(name)
        if self.db.fts_enabled:
            rows = self.db.execute(
                "SELECT id FROM node_search WHERE graph = ? AND body MATCH ?",
                (name, query),
            ).fetchall()
            return {json.loads(text) for (text,) in rows}
        needle = query.lower()
        found: Set[Any] = set()
        cursor = self.db.execute(
            "SELECT id, kind, features FROM nodes WHERE graph = ?", (name,)
        )
        while True:
            page = cursor.fetchmany(self._page_rows)
            if not page:
                break
            for id_text, kind, features in page:
                if needle in f"{kind or ''} {features}".lower():
                    found.add(json.loads(id_text))
        return found

    def list_accounts(self, *, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        """The materialized account listing, optionally filtered by tenant."""
        if not self.durable:
            # In-memory stores skip catalog writes (see save_catalog).
            with self.db.transaction("sqlite.catalog"):
                self._refresh_account_tables()
        sql = (
            "SELECT name, graph, tenant, privilege, strategy, node_count, edge_count, "
            "surrogate_nodes, surrogate_edges FROM account_listing"
        )
        params: tuple = ()
        if tenant is not None:
            sql += " WHERE tenant = ?"
            params = (tenant,)
        rows = self.db.execute(sql + " ORDER BY name", params).fetchall()
        return [
            {
                "name": name,
                "graph": graph,
                "tenant": owner,
                "privilege": privilege,
                "strategy": strategy,
                "nodes": nodes,
                "edges": edges,
                "surrogate_nodes": surrogate_nodes,
                "surrogate_edges": surrogate_edges,
            }
            for (
                name,
                graph,
                owner,
                privilege,
                strategy,
                nodes,
                edges,
                surrogate_nodes,
                surrogate_edges,
            ) in rows
        ]

    def _ensure_intervals(self, name: str) -> None:
        """Bring the persisted interval rows up to date with the live graph.

        Non-resident graphs need nothing — their rows were written with
        their snapshot.  Resident graphs re-encode lazily: only structural
        changes (or a fresh residency) trigger an encode + row rewrite.
        """
        if name not in self._graphs or self.read_only:
            return
        index = self._interval_index_for(name)
        if self._interval_written.get(name) != index.revision or name not in self._interval_rows():
            with self.db.transaction("sqlite.intervals"):
                self.db.execute("DELETE FROM intervals WHERE graph = ?", (name,))
                self.db.execute("DELETE FROM extra_edges WHERE graph = ?", (name,))
                self._insert_interval_rows(name, index, IdTexts())
            self._interval_written[name] = index.revision

    def _interval_rows(self) -> Set[str]:
        rows = self.db.execute("SELECT DISTINCT graph FROM intervals").fetchall()
        return {name for (name,) in rows}

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def export_graph(self, name: str) -> dict:
        """The serialised form of one stored graph."""
        return graph_to_dict(self.graph(name))

    def import_graph(self, payload: dict, *, name: Optional[str] = None) -> str:
        """Store a graph from its serialised form."""
        graph = graph_from_dict(payload)
        return self.put_graph(graph, name=name)

    def close(self) -> None:
        """Close the underlying connection (further use is undefined)."""
        self.db.close()


def _search_body(node: Any) -> str:
    """Flatten one node's kind + features into the FTS document text."""
    parts = [str(node.kind or "")]
    for key, value in node.features.items():
        parts.append(str(key))
        parts.append(str(value))
    return " ".join(part for part in parts if part)
