"""Durable storage of named graphs: snapshots plus the write log.

A :class:`GraphStorage` manages a directory with one JSON snapshot per graph
(``<name>.graph.json``) and one shared write log (``wal.jsonl``).  Opening a
directory loads every snapshot and replays any log records appended after
the latest snapshot, so the store recovers to its last durable state.  When
constructed without a directory the storage is purely in-memory (the mode
used by most tests and benchmarks).

Crash consistency
-----------------
All file writes flow through the :class:`~repro.store.io.StorageIO` seam
with explicit commit points:

* snapshots and the catalog are written atomically (temp file + fsync +
  ``os.replace`` + directory fsync) — a reader never observes partial JSON;
* write-log appends are framed, checksummed and fsynced per record
  (:mod:`repro.store.wal`), and a torn tail left by a crash is truncated on
  reopen;
* :meth:`GraphStorage.checkpoint` orders snapshot-then-truncate, and a crash
  *between* the two is safe: replaying the full log over the fresh snapshots
  converges, because replay applies operations in original order and the
  existence guards only skip exact duplicates.

Recovery keeps a :class:`RecoveryReport` of everything it had to do —
snapshots quarantined (unreadable JSON is renamed aside, never silently
deleted), torn write-log bytes truncated, orphaned temp files removed — so
``service.health()`` can surface the store's last-known condition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.exceptions import CatalogError, GraphError, StoreError
from repro.graph.model import PropertyGraph
from repro.graph.serialization import graph_from_dict, graph_to_dict, graph_to_json
from repro.store.catalog import Catalog
from repro.store.io import TMP_SUFFIX, StorageIO, resolve_io
from repro.store.wal import LogRecord, WriteAheadLog

_SNAPSHOT_SUFFIX = ".graph.json"
_WAL_NAME = "wal.jsonl"
_CATALOG_NAME = "catalog.json"
_QUARANTINE_SUFFIX = ".corrupt"


def replay_operation(graph: PropertyGraph, op: str, payload: Dict[str, Any]) -> None:
    """Apply one primitive write-log operation to ``graph`` idempotently.

    Shared by every storage engine (the JSON file engine below and the
    SQLite engine in :mod:`repro.store.sqlite`): replay semantics are part
    of the log format, not of any one backend.  The existence guards make
    replay idempotent, which is what lets a checkpoint crash between
    snapshot and log truncation converge on reopen.
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
    """What one :class:`GraphStorage` open had to repair (health surface)."""

    snapshots_loaded: int = 0
    records_replayed: int = 0
    #: Files renamed aside because they did not decode: not UTF-8, not
    #: JSON, or (snapshots) not a valid graph.
    quarantined: List[str] = field(default_factory=list)
    #: Orphaned atomic-write temp files removed (crash between stage and rename).
    tmp_files_removed: int = 0
    #: Torn write-log bytes truncated on open.
    wal_torn_bytes: int = 0
    #: Graphs imported from another engine's on-disk format (the SQLite
    #: engine's compatibility reader for legacy JSON file stores).
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


class GraphStorage:
    """Named-graph persistence with write-log recovery."""

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        io: Optional[StorageIO] = None,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.io = resolve_io(io)
        self.catalog = Catalog()
        self._graphs: Dict[str, PropertyGraph] = {}
        self.recovery_report = RecoveryReport()
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._remove_orphan_tmp_files()
            self.wal = WriteAheadLog(self.directory / _WAL_NAME, io=self.io)
            self.recovery_report.wal_torn_bytes = self.wal.recovery_info.torn_bytes_truncated
            self._recover()
        else:
            self.wal = WriteAheadLog(io=self.io)

    @property
    def durable(self) -> bool:
        """True when backed by a directory on disk."""
        return self.directory is not None

    # ------------------------------------------------------------------ #
    # graph lifecycle
    # ------------------------------------------------------------------ #
    def create_graph(self, name: str, *, kind: str = "graph", description: str = "") -> PropertyGraph:
        """Create (and log) an empty named graph.

        Write-ahead ordering: the duplicate check runs first, the log record
        becomes durable second, and only then does the catalog register the
        graph — so a failed (or retried) append leaves no half-registered
        state behind.
        """
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
        """Store an already-built graph under ``name`` (default: its own name).

        ``save_catalog=False`` defers the catalog write for callers that
        mutate the descriptor right after storing (tenant stamps, account
        metadata) and save once themselves.
        """
        name = name if name is not None else graph.name
        if not name:
            raise StoreError("a stored graph needs a name")
        if name in self.catalog:
            self.catalog.drop(name)
        self.catalog.register(name)
        self._graphs[name] = graph.copy(name=name)
        self._refresh_counts(name)
        if self.durable:
            self._write_snapshot(name)
            if save_catalog:
                self.save_catalog()
        return name

    def drop_graph(self, name: str) -> None:
        """Remove a graph from the store (and its snapshot, when durable)."""
        if name not in self.catalog:
            self.catalog.drop(name)  # raises the canonical CatalogError
        self.wal.append("drop_graph", name)
        self.catalog.drop(name)
        self._graphs.pop(name, None)
        if self.durable:
            self.io.unlink(self._snapshot_path(name))
            self.save_catalog()

    def graph(self, name: str) -> PropertyGraph:
        """The live graph object for ``name`` (mutations must go through the engine)."""
        if name not in self._graphs:
            raise CatalogError(f"graph {name!r} is not in the store")
        return self._graphs[name]

    def has_graph(self, name: str) -> bool:
        return name in self._graphs

    def names(self) -> List[str]:
        return self.catalog.names()

    # ------------------------------------------------------------------ #
    # logged mutations (called by the engine)
    # ------------------------------------------------------------------ #
    def log(self, op: str, graph_name: str, payload: Optional[dict] = None) -> LogRecord:
        """Append one mutation record to the write log."""
        record = self.wal.append(op, graph_name, payload)
        return record

    def _refresh_counts(self, name: str) -> None:
        graph = self._graphs[name]
        self.catalog.update_counts(name, node_count=graph.node_count(), edge_count=graph.edge_count())

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> None:
        """Write a snapshot of every graph and truncate the write log.

        Ordering matters: snapshots and the catalog become durable *before*
        the log is emptied.  A crash between the two replays the full log
        over the new snapshots on reopen, which converges (see the module
        docstring); a crash before the snapshots leaves the old
        snapshot+log pair intact.  Either way no committed state is lost.
        """
        if not self.durable:
            return
        for name in self._graphs:
            self._write_snapshot(name)
        self.save_catalog()
        self.wal.truncate()

    def save_catalog(self) -> None:
        """Persist catalog descriptors (kind, description, metadata) to disk.

        Snapshots only carry graph structure; without this file a reopened
        store would rebuild its catalog with default kinds and empty
        metadata, losing the ``protected_account`` kind and the tenant
        stamps the registry's audit report relies on.  Counts are excluded —
        they are recomputed from the graphs on recovery.  Callers that
        mutate a descriptor directly (e.g. account persistence) must call
        this afterwards; it is a no-op for in-memory stores.  The write is
        atomic (temp + rename), so the catalog on disk is always whole.
        """
        if not self.durable:
            return
        payload = {
            descriptor.name: {
                "kind": descriptor.kind,
                "description": descriptor.description,
                "metadata": dict(descriptor.metadata),
            }
            for descriptor in self.catalog.descriptors()
        }
        self.io.atomic_write_text(
            self.directory / _CATALOG_NAME, json.dumps(payload, indent=2, default=str)
        )

    def _restore_catalog(self) -> None:
        """Merge the persisted descriptor attributes into the rebuilt catalog."""
        assert self.directory is not None
        path = self.directory / _CATALOG_NAME
        if not path.exists():
            return
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            # Catalog writes are atomic, so damage here is external; the
            # descriptors are advisory (graphs and accounts still load), so
            # quarantine and continue rather than refuse to open.
            self._quarantine(path)
            self.recovery_report.quarantined.append(path.name)
            return
        for name, attributes in payload.items():
            if name not in self.catalog:
                continue  # snapshot gone: the graphs on disk win
            descriptor = self.catalog.get(name)
            descriptor.kind = attributes.get("kind", descriptor.kind)
            descriptor.description = attributes.get("description", descriptor.description)
            descriptor.metadata.update(attributes.get("metadata", {}))

    def _write_snapshot(self, name: str) -> None:
        assert self.directory is not None
        self.io.atomic_write_text(self._snapshot_path(name), graph_to_json(self._graphs[name]))

    def _snapshot_path(self, name: str) -> Path:
        assert self.directory is not None
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)
        return self.directory / f"{safe}{_SNAPSHOT_SUFFIX}"

    def snapshot_graph(self, name: str) -> Optional[PropertyGraph]:
        """The graph exactly as its on-disk snapshot records it (or ``None``).

        Warm-restart checkpoints validate against snapshot state before
        trusting their cached views; this reads the snapshot file fresh so
        post-snapshot write-log records are *not* included.
        """
        if not self.durable:
            return None
        path = self._snapshot_path(name)
        if not path.exists():
            return None
        return graph_from_dict(json.loads(self.io.read_text(path)))

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def _remove_orphan_tmp_files(self) -> None:
        """Delete staging files a crash left behind (never committed state)."""
        assert self.directory is not None
        for orphan in self.directory.glob(f"*{TMP_SUFFIX}"):
            self.io.unlink(orphan)
            self.recovery_report.tmp_files_removed += 1

    def _quarantine(self, path: Path) -> None:
        """Rename a damaged file aside (``<name>.corrupt``), never delete it."""
        target = path.with_name(path.name + _QUARANTINE_SUFFIX)
        suffix = 0
        while target.exists():
            suffix += 1
            target = path.with_name(f"{path.name}{_QUARANTINE_SUFFIX}.{suffix}")
        self.io.replace(path, target)

    def _recover(self) -> None:
        """Load snapshots, then replay write-log records on top of them.

        A snapshot that is not UTF-8 text, whose JSON will not parse, or
        that does not describe a valid graph (:func:`graph_from_dict` raises
        :class:`GraphError` for every malformed payload) is quarantined
        (renamed aside) and recovery continues: the write log may still
        rebuild the graph from its ``create_graph`` record, and every other
        graph in the store stays available instead of one bad file taking
        the directory down.
        """
        assert self.directory is not None
        for snapshot in sorted(self.directory.glob(f"*{_SNAPSHOT_SUFFIX}")):
            try:
                graph = graph_from_dict(json.loads(self.io.read_text(snapshot)))
            except (UnicodeDecodeError, json.JSONDecodeError, GraphError):
                self._quarantine(snapshot)
                self.recovery_report.quarantined.append(snapshot.name)
                continue
            name = graph.name or snapshot.name[: -len(_SNAPSHOT_SUFFIX)]
            if name not in self.catalog:
                self.catalog.register(name)
            self._graphs[name] = graph
            self._refresh_counts(name)
            self.recovery_report.snapshots_loaded += 1
        for record in self.wal.records():
            self._replay(record)
            self.recovery_report.records_replayed += 1
        self._restore_catalog()

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
            self._graphs.setdefault(name, PropertyGraph(name=name))
            return
        if record.op == "drop_graph":
            if name in self.catalog:
                self.catalog.drop(name)
            self._graphs.pop(name, None)
            return
        if name not in self._graphs:
            # Mutation for a graph that has no snapshot and no create record:
            # tolerate it (the snapshot may have been deleted manually).
            self._graphs[name] = PropertyGraph(name=name)
            if name not in self.catalog:
                self.catalog.register(name)
        graph = self._graphs[name]
        if record.op == "txn":
            # One framed record per transaction: the whole batch replays (or
            # was never durable) as a unit.
            for operation in payload.get("operations", []):
                self._replay_op(graph, operation.get("op"), operation.get("payload", {}))
        else:
            self._replay_op(graph, record.op, payload)
        self._refresh_counts(name)

    def _replay_op(self, graph: PropertyGraph, op: str, payload: Dict[str, Any]) -> None:
        """Apply one primitive operation idempotently during replay."""
        replay_operation(graph, op, payload)

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
