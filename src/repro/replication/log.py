"""The durable delta log a leader appends and followers tail.

One SQLite database per tenant root (``replication.sqlite``, beside the
store's own files, whichever engine the store runs) holds three tables:

* ``delta_log`` — one row per dispatched :class:`~repro.graph.deltas
  .GraphDelta`, keyed ``(graph, seq)`` with *per-graph* monotone sequence
  numbers and the :mod:`repro.replication.wire` JSON payload;
* ``heads`` — the latest sequence per graph (the leader's published
  version vector, surviving compaction);
* ``stamps`` — the sequence number each graph's store snapshot corresponds
  to.  A follower seeds from the snapshot and replays strictly after the
  stamp; compaction may therefore truncate *up to* the stamp and never
  strands anyone (the property suite drives every truncation point).

The database reuses :class:`~repro.store.sqlite.connection.Database`, so
the WAL-mode pragma recipe, the 30 s busy timeout, the typed error mapping
and the fault-injection points all match the store engine — and followers
open it with ``mode=ro`` exactly like a read-only store.

:class:`ReplicationPublisher` is the leader-side glue: subscribed to a
:class:`~repro.api.service.ProtectionService`'s delta bus, it appends every
delta of every *published* graph (identity-matched, so ephemeral
per-request graphs never hit the log) and checkpoints snapshots + stamps.
A delta the wire format cannot carry (exotic ids) is replaced by an
explicit **gap marker** followed by an immediate checkpoint: followers
crossing the gap reseed from the new snapshot instead of silently serving
a divergent view.
"""

from __future__ import annotations

import threading
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import ReplicationError, ReplicationGapError
from repro.graph.deltas import GraphDelta, record_maintenance
from repro.graph.model import PropertyGraph
from repro.replication.wire import UnsupportedDeltaError, dumps_delta, loads_delta
from repro.store.io import StorageIO, resolve_io
from repro.store.sqlite.connection import Database

#: Delta-log database file name inside a tenant store root.
DELTA_LOG_NAME = "replication.sqlite"

#: ``kind`` column value marking an unreplicable delta (see module docs).
GAP_KIND = "__gap__"

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS delta_log (
        graph TEXT NOT NULL,
        seq INTEGER NOT NULL,
        kind TEXT NOT NULL,
        payload TEXT NOT NULL,
        PRIMARY KEY (graph, seq)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS heads (
        graph TEXT PRIMARY KEY,
        seq INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS stamps (
        graph TEXT PRIMARY KEY,
        seq INTEGER NOT NULL
    )
    """,
)


def delta_log_path(root: Union[str, Path]) -> Path:
    """Where the delta log lives inside a tenant store root."""
    return Path(root) / DELTA_LOG_NAME


class DeltaLog:
    """Append/tail access to one tenant's durable delta log.

    Exactly one process (the leader) opens the log writable; any number of
    followers open it with ``read_only=True``.  All methods are
    thread-safe — the underlying :class:`Database` serialises statements.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        io: Optional[StorageIO] = None,
        read_only: bool = False,
    ) -> None:
        self.path = delta_log_path(root)
        self.read_only = read_only
        self.io = resolve_io(io)
        if read_only and not self.path.exists():
            raise ReplicationError(f"no delta log at {self.path} to tail")
        self.db = Database(self.path, io=self.io, read_only=read_only)
        self._lock = threading.Lock()
        if not read_only:
            with self.db.transaction("replication.schema"):
                for statement in _SCHEMA:
                    self.db.execute(statement)

    # ------------------------------------------------------------------ #
    # leader side
    # ------------------------------------------------------------------ #
    def append(self, graph_name: str, delta: GraphDelta) -> int:
        """Durably append one delta; returns its per-graph sequence number.

        Raises :class:`~repro.replication.wire.UnsupportedDeltaError` when
        the delta cannot ride the wire format — callers decide whether that
        becomes a gap marker (see :meth:`append_gap`).
        """
        payload = dumps_delta(delta)  # serialise (and maybe refuse) pre-commit
        return self._append_row(graph_name, str(delta.kind), payload)

    def append_gap(self, graph_name: str) -> int:
        """Record that the next delta was dropped; followers must reseed."""
        return self._append_row(graph_name, GAP_KIND, "")

    def _append_row(self, graph_name: str, kind: str, payload: str) -> int:
        with self._lock:
            with self.db.transaction("replication.append"):
                row = self.db.execute(
                    "SELECT seq FROM heads WHERE graph = ?", (graph_name,)
                ).fetchone()
                seq = (row[0] if row is not None else 0) + 1
                self.db.execute(
                    "INSERT INTO delta_log (graph, seq, kind, payload) VALUES (?, ?, ?, ?)",
                    (graph_name, seq, kind, payload),
                )
                self.db.execute(
                    "INSERT INTO heads (graph, seq) VALUES (?, ?) "
                    "ON CONFLICT(graph) DO UPDATE SET seq = excluded.seq",
                    (graph_name, seq),
                )
            return seq

    def stamp(self, graph_name: str, seq: Optional[int] = None) -> int:
        """Record that the store snapshot of ``graph_name`` is current at
        ``seq`` (default: the graph's head).  Stamps only move forward."""
        with self._lock:
            if seq is None:
                seq = self._head(graph_name)
            with self.db.transaction("replication.stamp"):
                self.db.execute(
                    "INSERT INTO stamps (graph, seq) VALUES (?, ?) "
                    "ON CONFLICT(graph) DO UPDATE SET seq = max(stamps.seq, excluded.seq)",
                    (graph_name, seq),
                )
            return seq

    def compact(self, graph_name: str, *, below: Optional[int] = None) -> int:
        """Drop rows at or below ``below`` (clamped to the checkpoint stamp).

        The clamp is the no-strand guarantee: a follower behind the stamp
        reseeds from the snapshot (which *is* the stamp's state) and replays
        the surviving tail; a follower at or past the stamp still finds a
        contiguous suffix.  Returns how many rows were deleted.
        """
        floor = self.stamp_for(graph_name)
        limit = floor if below is None else min(below, floor)
        with self._lock:
            with self.db.transaction("replication.compact"):
                cursor = self.db.execute(
                    "DELETE FROM delta_log WHERE graph = ? AND seq <= ?",
                    (graph_name, limit),
                )
            return cursor.rowcount if cursor.rowcount is not None else 0

    # ------------------------------------------------------------------ #
    # follower side
    # ------------------------------------------------------------------ #
    def vector(self) -> Dict[str, int]:
        """The published ``{graph: head_seq}`` version vector.

        Stamped graphs count even before their first delta (``heads`` gets
        its row on first append, but a publish stamps immediately), so a
        freshly published, never-edited graph is already visible to
        followers at sequence 0.
        """
        vector = {
            graph: seq
            for graph, seq in self.db.execute("SELECT graph, seq FROM stamps")
        }
        for graph, seq in self.db.execute("SELECT graph, seq FROM heads"):
            vector[graph] = max(seq, vector.get(graph, 0))
        return vector

    def stamp_for(self, graph_name: str) -> int:
        """The newest snapshot stamp for one graph (0 when never stamped)."""
        row = self.db.execute(
            "SELECT seq FROM stamps WHERE graph = ?", (graph_name,)
        ).fetchone()
        return row[0] if row is not None else 0

    def head_for(self, graph_name: str) -> int:
        return self._head(graph_name)

    def _head(self, graph_name: str) -> int:
        row = self.db.execute(
            "SELECT seq FROM heads WHERE graph = ?", (graph_name,)
        ).fetchone()
        return row[0] if row is not None else 0

    def records_since(
        self, graph_name: str, seq: int, *, limit: Optional[int] = None
    ) -> List[Tuple[int, GraphDelta]]:
        """Decoded ``(seq, delta)`` rows strictly after ``seq``, in order.

        Raises :class:`~repro.exceptions.ReplicationGapError` when the log
        cannot prove a contiguous suffix from ``seq`` — compaction passed
        it, rows are missing, or a gap marker sits in the range.  Callers
        must treat that as "reseed from snapshot + stamp", never as "no
        changes".
        """
        sql = (
            "SELECT seq, kind, payload FROM delta_log "
            "WHERE graph = ? AND seq > ? ORDER BY seq"
        )
        params: Tuple = (graph_name, seq)
        if limit is not None:
            sql += " LIMIT ?"
            params = (graph_name, seq, limit)
        rows = self.db.execute(sql, params).fetchall()
        if not rows:
            if self._head(graph_name) > seq:
                raise ReplicationGapError(
                    f"delta log for {graph_name!r} was compacted past seq {seq}"
                )
            return []
        expected = seq + 1
        out: List[Tuple[int, GraphDelta]] = []
        for row_seq, kind, payload in rows:
            if row_seq != expected:
                raise ReplicationGapError(
                    f"delta log for {graph_name!r} jumps from seq {expected - 1} "
                    f"to {row_seq}"
                )
            if kind == GAP_KIND:
                raise ReplicationGapError(
                    f"delta log for {graph_name!r} records an unreplicable delta "
                    f"at seq {row_seq}"
                )
            out.append((row_seq, loads_delta(payload)))
            expected += 1
        return out

    def stats(self) -> Dict[str, object]:
        """Log condition for status endpoints and health payloads."""
        (rows,) = self.db.execute("SELECT count(*) FROM delta_log").fetchone()
        return {
            "path": str(self.path),
            "read_only": self.read_only,
            "rows": rows,
            "vector": self.vector(),
            "stamps": {
                graph: seq
                for graph, seq in self.db.execute("SELECT graph, seq FROM stamps")
            },
        }

    def close(self) -> None:
        self.db.close()


class ReplicationPublisher:
    """Leader-side bridge from a service's delta bus into the durable log.

    Parameters
    ----------
    service:
        The :class:`~repro.api.service.ProtectionService` whose bus to tap.
        Its store must be durable — the log lives beside it and followers
        seed from its snapshots.
    log:
        An already-open :class:`DeltaLog` (default: create/open the log in
        the service store's root).
    """

    def __init__(self, service, *, log: Optional[DeltaLog] = None) -> None:
        self.service = service
        store = service.store
        if log is None:
            directory = getattr(store.storage, "directory", None)
            if directory is None:
                raise ReplicationError(
                    "replication needs a durable store root to host the delta log"
                )
            log = DeltaLog(directory)
        self.log = log
        self._lock = threading.Lock()
        # name -> weak graph ref, and graph identity -> name.  The weakref
        # callback purges *both* maps when a published graph dies, so a new
        # object reusing the id() can never be misattributed to the old name.
        self._names: Dict[str, "weakref.ref[PropertyGraph]"] = {}
        self._ids: Dict[int, str] = {}
        self._token = service.delta_bus.subscribe(self._on_delta)

    # ------------------------------------------------------------------ #
    # publication lifecycle
    # ------------------------------------------------------------------ #
    def publish(self, name: str, graph: Optional[PropertyGraph] = None) -> PropertyGraph:
        """Start replicating ``graph`` under ``name``.

        Seeds followers by snapshotting the graph into the store and
        stamping the log at the graph's current head, then streams every
        later delta.  ``graph=None`` publishes the service's bound graph.
        """
        if graph is None:
            graph = self.service.graph
        if graph is None:
            raise ReplicationError("no graph to publish (service is multi-graph)")
        with self._lock:
            previous_ref = self._names.get(name)
            previous = previous_ref() if previous_ref is not None else None
            if previous is not None:
                self._ids.pop(id(previous), None)
            gid = id(graph)
            self._names[name] = weakref.ref(
                graph, lambda _ref, gid=gid, name=name: self._forget(gid, name)
            )
            self._ids[gid] = name
        self.service._attach_graph(graph)  # noqa: SLF001 - service-owned bus wiring
        self.checkpoint(name)
        return graph

    def _forget(self, gid: int, name: str) -> None:
        with self._lock:
            self._ids.pop(gid, None)
            ref = self._names.get(name)
            if ref is not None and ref() is None:
                self._names.pop(name, None)

    def published(self) -> Dict[str, PropertyGraph]:
        with self._lock:
            live = {}
            for name, ref in self._names.items():
                graph = ref()
                if graph is not None:
                    live[name] = graph
            return live

    def graph_for(self, name: str) -> Optional[PropertyGraph]:
        with self._lock:
            ref = self._names.get(name)
            return ref() if ref is not None else None

    def checkpoint(self, name: str) -> int:
        """Snapshot one published graph and stamp the log at its head.

        This is what bounds follower catch-up (and licenses compaction):
        after the stamp, a fresh follower replays only the tail past it.
        """
        graph = self.graph_for(name)
        if graph is None:
            raise ReplicationError(f"graph {name!r} is not published")
        self.service.store.put_graph(graph, name=name)
        return self.log.stamp(name, self.log.head_for(name))

    def compact(self, name: str) -> int:
        """Checkpoint, then drop every row the checkpoint made redundant."""
        self.checkpoint(name)
        return self.log.compact(name)

    def vector(self) -> Dict[str, int]:
        return self.log.vector()

    def status(self) -> Dict[str, object]:
        return {
            "role": "leader",
            "published": sorted(self.published()),
            "log": self.log.stats(),
        }

    def close(self) -> None:
        self.service.delta_bus.unsubscribe(self._token)

    # ------------------------------------------------------------------ #
    # bus listener
    # ------------------------------------------------------------------ #
    def _on_delta(self, graph: PropertyGraph, delta: GraphDelta) -> None:
        name = self._ids.get(id(graph))
        if name is None:
            return  # unpublished (or ephemeral per-request) graph
        ref = self._names.get(name)
        if ref is None or ref() is not graph:
            return
        try:
            self.log.append(name, delta)
            record_maintenance("replication", "delta_logged")
        except UnsupportedDeltaError:
            # Poison the suffix explicitly, then publish a fresh seed point
            # so followers recover by reseeding rather than diverging.
            self.log.append_gap(name)
            self.service.store.put_graph(graph, name=name)
            self.log.stamp(name, self.log.head_for(name))
            record_maintenance("replication", "unsupported_delta")
