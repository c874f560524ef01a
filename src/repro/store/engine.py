"""The :class:`GraphStore` facade.

The store engine is what the PLUS substrate and the Figure-10 benchmark talk
to: named graphs with logged mutations, a lazily built feature index and
simple transactions.  Every store runs on SQLite
(:mod:`repro.store.sqlite`): one database per durable root, or a
``:memory:`` database when no directory is given.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Union

from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
    ReadOnlyStoreError,
    StoreError,
)

from repro.graph.model import NodeId, PropertyGraph
from repro.store.index import FeatureIndex
from repro.store.io import StorageIO
from repro.store.sqlite import SQLiteGraphStorage
from repro.store.transactions import Transaction, apply_to, validate_operations


def detect_engine(directory: Optional[Union[str, Path]] = None) -> str:
    """The storage engine behind every store root: always ``"sqlite"``.

    Run records name the engine they measured; a root written by the
    retired JSON file engine is imported on its first open.
    """
    return "sqlite"


def _tenant_dirname(tenant: str) -> str:
    """A filesystem-safe directory name that is injective over tenant names.

    Plain substitution alone would let ``".."`` escape the base directory
    and would map distinct tenants (``"a b"`` / ``"a_b"``) onto one
    directory — breaking the isolation the scoped store promises.  A digest
    of the exact original name is therefore *always* appended: every
    distinct tenant gets a distinct, traversal-free directory, and no crafted
    name can collide with another tenant's directory (a conditional digest
    would let a tenant literally named ``"x-<digest-of-y>"`` claim tenant
    ``y``'s directory).
    """
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in tenant)
    digest = hashlib.sha256(tenant.encode("utf-8")).hexdigest()[:12]
    return f"{safe.strip('.') or 'tenant'}-{digest}"


@dataclass
class StoreStats:
    """Operation counters exposed by the engine (used in reports and tests)."""

    nodes_written: int = 0
    edges_written: int = 0
    nodes_read: int = 0
    transactions_committed: int = 0
    queries_answered: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "nodes_written": self.nodes_written,
            "edges_written": self.edges_written,
            "nodes_read": self.nodes_read,
            "transactions_committed": self.transactions_committed,
            "queries_answered": self.queries_answered,
        }


class GraphStore:
    """Embedded multi-graph store with logging, indexes and timing.

    Example
    -------
    >>> store = GraphStore()                    # in-memory
    >>> _ = store.create_graph("demo")
    >>> store.add_node("demo", "a", features={"role": "person"})
    >>> store.add_node("demo", "b")
    >>> store.add_edge("demo", "a", "b")
    >>> store.successors("demo", "a")
    {'b'}
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        tenant: Optional[str] = None,
        io: Optional[StorageIO] = None,
        retry: Optional[object] = None,
        page_cache_pages: Optional[int] = None,
        page_rows: Optional[int] = None,
        read_only: bool = False,
    ) -> None:
        #: True when this process may only read the root (follower opens).
        self.read_only = read_only
        #: Optional retry policy (anything with ``call(fn)``, e.g.
        #: :class:`~repro.reliability.retry.RetryPolicy`) applied around
        #: durable writes — the open (schema creation, legacy import),
        #: write-log appends, snapshots, checkpoints — so a transient fault
        #: surfaces as one retried operation instead of a failed request.
        #: ``None`` runs every write exactly once.
        self.retry = retry
        self.storage: SQLiteGraphStorage = self._durable(
            lambda: SQLiteGraphStorage(
                directory,
                io=io,
                page_cache_pages=page_cache_pages,
                page_rows=page_rows,
                read_only=read_only,
            )
        )
        self.stats = StoreStats()
        #: Owning tenant; stamped on every catalog descriptor this engine
        #: creates so multi-tenant registries can audit who owns what.
        self.tenant = tenant
        # Feature indexes build on a graph's first ``find_nodes`` and are
        # maintained by the mutators from then on; opening a store builds
        # none.  Adjacency queries read the stored graph's own index.
        self._features: Dict[str, FeatureIndex] = {}

    def _durable(self, operation: Callable[[], object]) -> object:
        """Run one durable write, through the retry policy when configured."""
        if self.retry is None:
            return operation()
        return self.retry.call(operation)

    def _require_writable(self, action: str) -> None:
        if self.read_only:
            raise ReadOnlyStoreError(f"cannot {action}: store opened read-only")

    @classmethod
    def for_tenant(
        cls,
        base_directory: Optional[Union[str, Path]],
        tenant: str,
        **options: Any,
    ) -> "GraphStore":
        """A tenant-scoped store rooted under ``base_directory/<tenant>``.

        Each tenant gets its own database, write log and catalog, so tenants
        can never read (or clobber) each other's graphs.  A ``None`` base
        directory gives the tenant an isolated in-memory store.  This is
        what the :class:`~repro.api.registry.ServiceRegistry` hands to each
        tenant's services.
        """
        if not tenant:
            raise StoreError("a tenant-scoped store needs a non-empty tenant name")
        if base_directory is None:
            return cls(tenant=tenant, **options)
        return cls(Path(base_directory) / _tenant_dirname(tenant), tenant=tenant, **options)

    # ------------------------------------------------------------------ #
    # graph lifecycle
    # ------------------------------------------------------------------ #
    def create_graph(self, name: str, *, kind: str = "graph", description: str = "") -> str:
        """Create an empty named graph and its indexes."""
        self._require_writable("create a graph")
        self._durable(
            lambda: self.storage.create_graph(name, kind=kind, description=description)
        )
        self._stamp_tenant(name)
        self._durable(self.storage.save_catalog)
        self._features.pop(name, None)
        return name

    def put_graph(self, graph: PropertyGraph, *, name: Optional[str] = None) -> str:
        """Store a prebuilt graph wholesale (snapshot write when durable)."""
        self._require_writable("store a graph")
        # Defer the catalog write until after the tenant stamp so one
        # put costs one catalog save, not two.
        stored_name = self._durable(
            lambda: self.storage.put_graph(graph, name=name, save_catalog=False)
        )
        self._stamp_tenant(stored_name)
        self.storage.save_catalog()
        self._features.pop(stored_name, None)
        self.stats.nodes_written += graph.node_count()
        self.stats.edges_written += graph.edge_count()
        return stored_name

    def drop_graph(self, name: str) -> None:
        """Remove a named graph, its indexes and its snapshot."""
        self._require_writable("drop a graph")
        self.storage.drop_graph(name)
        self._features.pop(name, None)

    def graph(self, name: str) -> PropertyGraph:
        """A *copy* of the stored graph (callers cannot corrupt store state)."""
        stored = self.storage.graph(name)
        copy = stored.copy()
        self.stats.nodes_read += copy.node_count()
        return copy

    def graph_names(self) -> List[str]:
        return self.storage.names()

    def has_graph(self, name: str) -> bool:
        return self.storage.has_graph(name)

    def checkpoint(self) -> None:
        """Snapshot every graph and truncate the write log (durable stores only)."""
        self._require_writable("checkpoint the store")
        self._durable(self.storage.checkpoint)

    def health(self) -> Dict[str, Any]:
        """The store's condition: durability, write-log depth, last recovery.

        The payload is what :meth:`repro.api.service.ProtectionService.health`
        embeds under ``"store"`` for the future HTTP frontend.
        """
        report = self.storage.recovery_report
        return {
            "durable": self.storage.durable,
            "directory": str(self.storage.directory) if self.storage.durable else None,
            "graphs": len(self.storage.names()),
            "tenant": self.tenant,
            "wal": {
                "records": len(self.storage.wal),
                "next_seq": self.storage.wal.next_seq,
                "records_at_open": self.storage.wal.recovery_info.records,
            },
            "recovery": report.as_dict(),
            "retry": getattr(self.retry, "stats", lambda: None)(),
        }

    # ------------------------------------------------------------------ #
    # mutations
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        graph_name: str,
        node_id: NodeId,
        *,
        kind: Optional[str] = None,
        features: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Insert one node (write-ahead logged).

        Mutators validate first, make the operation durable in the write log,
        then apply it in memory — the write-ahead discipline: a crash after
        the append replays the operation on reopen, and a crash before it
        never half-applied anything.
        """
        self._require_writable("add a node")
        graph = self.storage.graph(graph_name)
        if graph.has_node(node_id):
            raise DuplicateNodeError(node_id)
        self._durable(
            lambda: self.storage.log(
                "add_node",
                graph_name,
                {"id": node_id, "kind": kind, "features": dict(features or {})},
            )
        )
        graph.add_node(node_id, kind=kind, features=features)
        index = self._features.get(graph_name)
        if index is not None:
            index.index_node(node_id, dict(features or {}))
        self.stats.nodes_written += 1
        self._refresh(graph_name)

    def add_edge(
        self,
        graph_name: str,
        source: NodeId,
        target: NodeId,
        *,
        label: Optional[str] = None,
        features: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Insert one edge (write-ahead logged)."""
        self._require_writable("add an edge")
        graph = self.storage.graph(graph_name)
        if source == target:
            raise ValueError(f"self-loops are not supported (node {source!r})")
        if not graph.has_node(source):
            raise NodeNotFoundError(source)
        if not graph.has_node(target):
            raise NodeNotFoundError(target)
        if graph.has_edge(source, target):
            raise DuplicateEdgeError(source, target)
        self._durable(
            lambda: self.storage.log(
                "add_edge",
                graph_name,
                {"source": source, "target": target, "label": label, "features": dict(features or {})},
            )
        )
        graph.add_edge(source, target, label=label, features=features)
        self.stats.edges_written += 1
        self._refresh(graph_name)

    def remove_node(self, graph_name: str, node_id: NodeId) -> None:
        """Remove one node and its incident edges (write-ahead logged)."""
        self._require_writable("remove a node")
        graph = self.storage.graph(graph_name)
        if not graph.has_node(node_id):
            raise NodeNotFoundError(node_id)
        self._durable(
            lambda: self.storage.log("remove_node", graph_name, {"id": node_id})
        )
        graph.remove_node(node_id)
        index = self._features.get(graph_name)
        if index is not None:
            index.remove_node(node_id)
        self._refresh(graph_name)

    def remove_edge(self, graph_name: str, source: NodeId, target: NodeId) -> None:
        """Remove one edge (write-ahead logged)."""
        self._require_writable("remove an edge")
        graph = self.storage.graph(graph_name)
        if not graph.has_edge(source, target):
            raise EdgeNotFoundError(source, target)
        self._durable(
            lambda: self.storage.log(
                "remove_edge", graph_name, {"source": source, "target": target}
            )
        )
        graph.remove_edge(source, target)
        self._refresh(graph_name)

    def set_node_features(self, graph_name: str, node_id: NodeId, features: Mapping[str, Any]) -> None:
        """Replace one node's features (write-ahead logged)."""
        self._require_writable("set node features")
        graph = self.storage.graph(graph_name)
        if not graph.has_node(node_id):
            raise NodeNotFoundError(node_id)
        self._durable(
            lambda: self.storage.log(
                "set_node_features", graph_name, {"id": node_id, "features": dict(features)}
            )
        )
        graph.set_node_features(node_id, features)
        index = self._features.get(graph_name)
        if index is not None:
            index.index_node(node_id, dict(features))

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #
    def transaction(self, graph_name: str) -> Transaction:
        """Open a buffered transaction against one graph."""
        self._require_writable("open a transaction")
        if not self.storage.has_graph(graph_name):
            raise StoreError(f"graph {graph_name!r} is not in the store")

        def _apply(transaction: Transaction) -> None:
            graph = self.storage.graph(graph_name)
            # Crash-safe commit protocol: validate the whole batch on a
            # scratch copy, make it durable as ONE framed ``txn`` record
            # (a single fsynced append — the atomic commit point), then
            # apply to the live graph.  A crash before the append loses
            # the batch wholesale; after it, replay applies the batch
            # wholesale.  No schedule exposes a partial transaction.
            validate_operations(graph, transaction.operations)
            applied = [
                {"op": operation.op, "payload": dict(operation.payload)}
                for operation in transaction.operations
            ]
            self._durable(
                lambda: self.storage.log("txn", graph_name, {"operations": applied})
            )
            # The batch mirrors the log record's atomicity for every
            # delta subscriber: one composite delta, one version bump,
            # one interval re-encode — not one per operation.
            with graph.batch():
                apply_to(graph, transaction.operations)
            self._features.pop(graph_name, None)
            self.stats.transactions_committed += 1
            self.stats.nodes_written += sum(
                1 for entry in applied if entry["op"] == "add_node"
            )
            self.stats.edges_written += sum(
                1 for entry in applied if entry["op"] == "add_edge"
            )
            self._refresh(graph_name)

        return Transaction(graph_name=graph_name, _apply=_apply)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def successors(self, graph_name: str, node_id: NodeId) -> Set[NodeId]:
        """Successors of ``node_id`` in the stored graph (empty for an unknown node)."""
        self.stats.queries_answered += 1
        graph = self.storage.graph(graph_name)
        return graph.successors(node_id) if graph.has_node(node_id) else set()

    def predecessors(self, graph_name: str, node_id: NodeId) -> Set[NodeId]:
        """Predecessors of ``node_id`` in the stored graph (empty for an unknown node)."""
        self.stats.queries_answered += 1
        graph = self.storage.graph(graph_name)
        return graph.predecessors(node_id) if graph.has_node(node_id) else set()

    def find_nodes(self, graph_name: str, attribute: str, value: Any) -> Set[NodeId]:
        """Feature-index lookup: nodes whose ``attribute`` equals ``value``."""
        self.stats.queries_answered += 1
        index = self._features.get(graph_name)
        if index is None:
            index = self._features[graph_name] = FeatureIndex.build(self.storage.graph(graph_name))
        return index.lookup(attribute, value)

    def lineage(
        self, graph_name: str, node_id: NodeId, *, direction: str = "ancestors"
    ) -> Set[NodeId]:
        """Full ancestor or descendant closure of one node in a stored graph.

        Runs as an interval range scan against the persisted encoding (no
        Python traversal, and — for a graph that was never materialized —
        no graph object in memory at all).  The differential suite in
        ``tests/property/test_store_reachability.py`` pins it exactly equal
        to a BFS over the graph.
        """
        if direction not in {"ancestors", "descendants"}:
            raise ValueError(f"direction must be 'ancestors' or 'descendants', got {direction!r}")
        self.stats.queries_answered += 1
        return self.storage.sql_lineage(graph_name, node_id, direction=direction)

    def search_nodes(self, graph_name: str, query: str) -> Set[NodeId]:
        """Text search over node kinds and features.

        Served from the FTS index: full ``MATCH`` syntax when FTS5 is
        compiled in, a case-insensitive substring scan otherwise.
        """
        self.stats.queries_answered += 1
        return self.storage.search_nodes(graph_name, query)

    def list_accounts(self, *, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        """Summaries of every protected account held by this store."""
        return self.storage.list_accounts(tenant=tenant)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _stamp_tenant(self, graph_name: str) -> None:
        """Mutate only; callers persist via ``storage.save_catalog()``."""
        if self.tenant is not None:
            self.storage.catalog.get(graph_name).metadata["tenant"] = self.tenant

    def _refresh(self, graph_name: str) -> None:
        graph = self.storage.graph(graph_name)
        self.storage.catalog.update_counts(
            graph_name, node_count=graph.node_count(), edge_count=graph.edge_count()
        )
