"""Follower runtime: replay the delta log into live, view-maintained graphs.

A :class:`ReplicaService` opens a leader's store root **read-only**, seeds
each replicated graph from the store snapshot at its checkpoint stamp, and
then tails ``replication.sqlite``, re-applying every logged delta through
the ordinary :class:`~repro.graph.model.PropertyGraph` mutators.  That last
point is the design's fulcrum: replaying through the public mutators makes
the follower's graph emit *its own* deltas, so every subscriber of the
follower's bus — :class:`~repro.core.markings.CompiledMarkingView`,
:class:`~repro.core.opacity.CompiledOpacityView`,
:class:`~repro.api.cache.AccountCache`,
:class:`~repro.core.opacity.OpacityViewCache` — patches itself in place via
the exact ``apply_delta`` code paths the leader exercises.  Nothing in the
view-maintenance layer knows replication exists.

Replay is **idempotent** (:func:`apply_delta_to_graph` skips a mutation
whose effect is already present).  That closes the seed race — the leader
stamps *after* writing the snapshot, so a follower can observe a snapshot
slightly ahead of the stamp it read — and makes crash/restart of a
follower mid-replay safe by construction: reseed, replay from the stamp,
converge to the same state.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.exceptions import (
    CatalogError,
    ReplicationError,
    ReplicationGapError,
    StaleReplicaError,
)
from repro.graph.deltas import DeltaKind, GraphDelta, record_maintenance
from repro.graph.model import PropertyGraph
from repro.replication.log import DeltaLog
from repro.store.engine import GraphStore
from repro.store.io import StorageIO

#: How long :meth:`ReplicaService.wait_for` may block by default (seconds).
DEFAULT_STALENESS_BUDGET = 2.0

#: Default delay between tail-thread polls (seconds).
DEFAULT_POLL_INTERVAL = 0.05


def apply_delta_to_graph(graph: PropertyGraph, delta: GraphDelta) -> bool:
    """Re-apply one logged delta through the public mutators; True if it
    changed the graph (False when its effect was already present).

    Batches replay inside ``graph.batch()`` so the follower emits one
    composite delta exactly as the leader did.
    """
    kind = delta.kind
    if kind is DeltaKind.BATCH:
        changed = False
        with graph.batch():
            for sub in delta.deltas:
                changed = apply_delta_to_graph(graph, sub) or changed
        return changed
    if kind is DeltaKind.ADD_NODE or kind is DeltaKind.REPLACE_NODE:
        node = delta.node
        existing = graph.node(node.node_id) if graph.has_node(node.node_id) else None
        if existing == node:
            return False
        graph.add_node(node.node_id, kind=node.kind, features=node.features, replace=True)
        return True
    if kind is DeltaKind.REMOVE_NODE:
        node_id = delta.old_node.node_id
        if not graph.has_node(node_id):
            return False
        graph.remove_node(node_id)
        return True
    if kind is DeltaKind.SET_NODE_FEATURES:
        node = delta.node
        if not graph.has_node(node.node_id):
            graph.add_node(node.node_id, kind=node.kind, features=node.features)
            return True
        if graph.node(node.node_id).features == node.features:
            return False
        graph.set_node_features(node.node_id, node.features)
        return True
    if kind is DeltaKind.ADD_EDGE or kind is DeltaKind.REPLACE_EDGE:
        edge = delta.edge
        existing = (
            graph.edge(edge.source, edge.target)
            if graph.has_edge(edge.source, edge.target)
            else None
        )
        if existing == edge:
            return False
        graph.add_edge(
            edge.source,
            edge.target,
            label=edge.label,
            features=edge.features,
            create_nodes=True,
            replace=True,
        )
        return True
    if kind is DeltaKind.REMOVE_EDGE:
        edge = delta.old_edge
        if not graph.has_edge(edge.source, edge.target):
            return False
        graph.remove_edge(edge.source, edge.target)
        return True
    raise ReplicationError(f"cannot replay delta kind {kind!r}")


class ReplicaService:
    """Tails one tenant's delta log and maintains live replica graphs.

    Parameters
    ----------
    root:
        The leader's tenant store root (holding ``store.sqlite`` and
        ``replication.sqlite``).  Opened strictly read-only.
    poll_interval:
        Tail-thread delay between polls, seconds.
    io:
        Storage I/O seam (fault injection in tests).
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        io: Optional[StorageIO] = None,
    ) -> None:
        self.root = Path(root)
        self.poll_interval = poll_interval
        self._io = io
        self.store = GraphStore(self.root, read_only=True, io=io)
        self.log = DeltaLog(self.root, read_only=True, io=io)
        self._graphs: Dict[str, PropertyGraph] = {}
        self._applied: Dict[str, int] = {}
        self._reseeds = 0
        self._deltas_applied = 0
        self._lock = threading.RLock()
        self._progress = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # graph access
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """Every replicated graph name the leader has published."""
        return sorted(self.log.vector())

    def graph(self, name: str) -> PropertyGraph:
        """The live replica of one published graph (seeded on first use).

        The returned object is *owned by the replica* — callers subscribe
        views to it (or read it) but must not mutate it themselves.
        """
        with self._lock:
            graph = self._graphs.get(name)
            if graph is None:
                graph = self._seed(name)
            return graph

    def applied_vector(self) -> Dict[str, int]:
        """The ``{graph: seq}`` positions this replica has replayed to."""
        with self._lock:
            return dict(self._applied)

    # ------------------------------------------------------------------ #
    # seeding and replay
    # ------------------------------------------------------------------ #
    def _seed(self, name: str) -> PropertyGraph:
        """Load one graph's snapshot at its stamp (callers hold the lock)."""
        stamp = self.log.stamp_for(name)
        snapshot = self._snapshot(name)
        if snapshot is None:
            if name in self.log.vector():
                # Published after this replica opened its store: the open-time
                # catalog has no row yet.  Reopen to pick the snapshot up.
                self._reopen_store()
                snapshot = self._snapshot(name)
            if snapshot is None:
                raise ReplicationError(
                    f"graph {name!r} has no snapshot to seed from at {self.root}"
                )
        self._graphs[name] = snapshot
        self._applied[name] = stamp
        return snapshot

    def _snapshot(self, name: str) -> Optional[PropertyGraph]:
        reader = getattr(self.store.storage, "snapshot_graph", None)
        if reader is None:
            return None
        try:
            return reader(name)
        except CatalogError:
            return None

    def _reopen_store(self) -> None:
        old = self.store
        self.store = GraphStore(self.root, read_only=True, io=self._io)
        try:
            old.storage.close()
        except Exception:  # pragma: no cover - best-effort close
            pass

    def _reseed(self, name: str) -> None:
        """Recover from a log gap: fresh snapshot + stamp, replayed anew.

        The replica graph object is *replaced*; views subscribed to the old
        object must recompile against the new one (their version chain broke
        anyway — that is what a gap means).
        """
        self._graphs.pop(name, None)
        self._applied.pop(name, None)
        self._reopen_store()
        self._seed(name)
        self._reseeds += 1
        record_maintenance("replica", "reseeded")

    def poll(self, *, max_records: Optional[int] = None) -> int:
        """Replay every newly logged delta once; returns how many applied.

        Safe to call concurrently with readers of :meth:`graph` — replay
        holds the replica lock, so a reader never observes a half-applied
        batch (the mutators themselves are atomic per delta).
        """
        applied = 0
        for name in self.names():
            applied += self._poll_graph(name, max_records)
        return applied

    def _poll_graph(self, name: str, max_records: Optional[int]) -> int:
        with self._lock:
            if name not in self._graphs:
                self._seed(name)
            graph = self._graphs[name]
            position = self._applied[name]
            try:
                records = self.log.records_since(name, position, limit=max_records)
            except ReplicationGapError:
                self._reseed(name)
                self._progress.notify_all()
                return 0
            count = 0
            for seq, delta in records:
                apply_delta_to_graph(graph, delta)
                self._applied[name] = seq
                count += 1
            if count:
                self._deltas_applied += count
                record_maintenance("replica", "delta_applied", count)
                self._progress.notify_all()
            return count

    # ------------------------------------------------------------------ #
    # the staleness handshake
    # ------------------------------------------------------------------ #
    def current_for(self, vector: Mapping[str, int]) -> bool:
        """True when this replica has replayed at least ``vector``."""
        with self._lock:
            for name, seq in vector.items():
                if self._applied.get(name, -1) < seq:
                    return False
            return True

    def wait_for(
        self,
        vector: Mapping[str, int],
        *,
        budget: float = DEFAULT_STALENESS_BUDGET,
    ) -> None:
        """Block until the replica covers ``vector`` or the budget expires.

        Polls eagerly (so the handshake works without the tail thread) and
        raises :class:`~repro.exceptions.StaleReplicaError` — carrying both
        vectors — when the budget runs out.
        """
        deadline = time.monotonic() + budget
        while True:
            self.poll()
            if self.current_for(vector):
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise StaleReplicaError(
                    f"replica did not reach {dict(vector)!r} within {budget}s",
                    wanted=dict(vector),
                    applied=self.applied_vector(),
                )
            with self._progress:
                self._progress.wait(timeout=min(remaining, self.poll_interval))

    # ------------------------------------------------------------------ #
    # background tailing
    # ------------------------------------------------------------------ #
    def start(self) -> "ReplicaService":
        """Start the tail thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._tail, name="replica-tail", daemon=True
            )
            self._thread.start()
        return self

    def _tail(self) -> None:
        while not self._stop.is_set():
            try:
                self.poll()
            except ReplicationError:
                record_maintenance("replica", "poll_error")
            self._stop.wait(self.poll_interval)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def close(self) -> None:
        self.stop()
        self.log.close()
        try:
            self.store.storage.close()
        except Exception:  # pragma: no cover - best-effort close
            pass

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def status(self) -> Dict[str, object]:
        leader = self.log.vector()
        applied = self.applied_vector()
        return {
            "role": "replica",
            "root": str(self.root),
            "leader_vector": leader,
            "applied_vector": applied,
            "lag": {
                name: leader[name] - applied.get(name, 0)
                for name in leader
            },
            "reseeds": self._reseeds,
            "deltas_applied": self._deltas_applied,
            "tailing": self._thread is not None and self._thread.is_alive(),
        }
