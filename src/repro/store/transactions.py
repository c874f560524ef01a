"""Atomic multi-operation batches against one stored graph.

The engine hands out :class:`Transaction` objects; operations are buffered
and validated, then applied to the live graph (and the write log) only at
commit time.  Rolling back simply discards the buffer.  The goal is not a
full ACID implementation but the property the benchmarks and examples rely
on: a failed batch leaves the stored graph untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.exceptions import TransactionError
from repro.graph.model import NodeId, PropertyGraph


@dataclass
class _Operation:
    op: str
    payload: Dict[str, Any]


@dataclass
class Transaction:
    """A buffered batch of mutations for one named graph."""

    graph_name: str
    _apply: Callable[["Transaction"], None]
    operations: List[_Operation] = field(default_factory=list)
    state: str = "open"

    # ------------------------------------------------------------------ #
    # buffered operations
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        node_id: NodeId,
        *,
        kind: Optional[str] = None,
        features: Optional[Mapping[str, Any]] = None,
    ) -> "Transaction":
        """Buffer a node insertion."""
        self._ensure_open()
        self.operations.append(
            _Operation("add_node", {"id": node_id, "kind": kind, "features": dict(features or {})})
        )
        return self

    def add_edge(
        self,
        source: NodeId,
        target: NodeId,
        *,
        label: Optional[str] = None,
        features: Optional[Mapping[str, Any]] = None,
    ) -> "Transaction":
        """Buffer an edge insertion."""
        self._ensure_open()
        self.operations.append(
            _Operation(
                "add_edge",
                {"source": source, "target": target, "label": label, "features": dict(features or {})},
            )
        )
        return self

    def remove_node(self, node_id: NodeId) -> "Transaction":
        """Buffer a node removal (and, implicitly, its incident edges)."""
        self._ensure_open()
        self.operations.append(_Operation("remove_node", {"id": node_id}))
        return self

    def remove_edge(self, source: NodeId, target: NodeId) -> "Transaction":
        """Buffer an edge removal."""
        self._ensure_open()
        self.operations.append(_Operation("remove_edge", {"source": source, "target": target}))
        return self

    def set_node_features(self, node_id: NodeId, features: Mapping[str, Any]) -> "Transaction":
        """Buffer a feature replacement."""
        self._ensure_open()
        self.operations.append(
            _Operation("set_node_features", {"id": node_id, "features": dict(features)})
        )
        return self

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def commit(self) -> int:
        """Apply every buffered operation atomically; returns the operation count."""
        self._ensure_open()
        try:
            self._apply(self)
        except Exception:
            self.state = "failed"
            raise
        self.state = "committed"
        return len(self.operations)

    def rollback(self) -> None:
        """Discard the buffer; the stored graph is untouched."""
        self._ensure_open()
        self.operations.clear()
        self.state = "rolled_back"

    def _ensure_open(self) -> None:
        if self.state != "open":
            raise TransactionError(f"transaction on {self.graph_name!r} is already {self.state}")

    # ------------------------------------------------------------------ #
    # context-manager sugar
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            if self.state == "open":
                self.rollback()
            return False
        if self.state == "open":
            self.commit()
        return False


def validate_operations(graph: PropertyGraph, operations: List[_Operation]) -> None:
    """Dry-run a batch against a scratch copy of ``graph``.

    Raises whatever the first invalid operation would raise, without touching
    the live graph.  The engine validates before writing the batch's ``txn``
    record to the write log, so an invalid batch is never made durable.
    """
    scratch = graph.copy()
    _apply_to(scratch, operations)


def apply_to(graph: PropertyGraph, operations: List[_Operation]) -> None:
    """Apply an already-validated batch to the live graph."""
    _apply_to(graph, operations)


def _apply_to(graph: PropertyGraph, operations: List[_Operation]) -> None:
    for operation in operations:
        payload = operation.payload
        if operation.op == "add_node":
            graph.add_node(payload["id"], kind=payload.get("kind"), features=payload.get("features") or {})
        elif operation.op == "add_edge":
            graph.add_edge(
                payload["source"],
                payload["target"],
                label=payload.get("label"),
                features=payload.get("features") or {},
            )
        elif operation.op == "remove_node":
            graph.remove_node(payload["id"])
        elif operation.op == "remove_edge":
            graph.remove_edge(payload["source"], payload["target"])
        elif operation.op == "set_node_features":
            graph.set_node_features(payload["id"], payload["features"])
        else:  # pragma: no cover - the buffering methods guard this
            raise TransactionError(f"unknown buffered operation {operation.op!r}")
