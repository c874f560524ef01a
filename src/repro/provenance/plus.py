"""The PLUS client facade: store + policy + protection, with phase timing.

PLUS ("Privacy, Lineage, Uncertainty and Security") is the prototype the
paper evaluates on.  :class:`PLUSClient` is this library's equivalent: it
records provenance into the embedded :class:`~repro.store.engine.GraphStore`,
manages the release policy, and serves protected lineage to consumers.  Its
:meth:`PLUSClient.timed_protection_run` reproduces the phases reported in
the paper's Figure 10 (DB access, build graph, protect via hide, protect via
surrogate).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.api.requests import ProtectionRequest
from repro.api.service import ProtectionService
from repro.core.hiding import STRATEGY_NAIVE
from repro.core.policy import ReleasePolicy, STRATEGY_HIDE, STRATEGY_SURROGATE
from repro.core.protected_account import ProtectedAccount
from repro.exceptions import ProvenanceError
from repro.graph.model import EdgeKey, NodeId, PropertyGraph
from repro.provenance.model import ProvenanceGraph
from repro.provenance.queries import LineageResult, lineage_over_account
from repro.store.engine import GraphStore


@dataclass(frozen=True)
class ProtectionTimings:
    """Wall-clock milliseconds per phase of one protection run (Figure 10's bars)."""

    db_access_ms: float
    build_graph_ms: float
    protect_hide_ms: float
    protect_surrogate_ms: float

    @property
    def total_ms(self) -> float:
        return self.db_access_ms + self.build_graph_ms + self.protect_hide_ms + self.protect_surrogate_ms

    def as_dict(self) -> Dict[str, float]:
        return {
            "total": round(self.total_ms, 3),
            "db_access": round(self.db_access_ms, 3),
            "build_graph": round(self.build_graph_ms, 3),
            "protect_via_hide": round(self.protect_hide_ms, 3),
            "protect_via_surrogate": round(self.protect_surrogate_ms, 3),
        }


class PLUSClient:
    """Record provenance, manage release policies and serve protected lineage."""

    def __init__(
        self,
        *,
        store: Optional[GraphStore] = None,
        policy: Optional[ReleasePolicy] = None,
        graph_name: str = "provenance",
    ) -> None:
        self.store = store if store is not None else GraphStore()
        self.policy = policy if policy is not None else ReleasePolicy()
        self.graph_name = graph_name
        if not self.store.has_graph(graph_name):
            self.store.create_graph(graph_name, kind="provenance")

    # ------------------------------------------------------------------ #
    # recording provenance
    # ------------------------------------------------------------------ #
    def record_data(
        self,
        node_id: NodeId,
        *,
        features: Optional[Dict[str, object]] = None,
        lowest: Optional[object] = None,
    ) -> NodeId:
        """Record a data artifact (optionally with its lowest privilege)."""
        self.store.add_node(self.graph_name, node_id, kind="data", features=features)
        if lowest is not None:
            self.policy.set_lowest(node_id, lowest)
        return node_id

    def record_process(
        self,
        node_id: NodeId,
        *,
        inputs: Sequence[NodeId] = (),
        outputs: Sequence[NodeId] = (),
        features: Optional[Dict[str, object]] = None,
        lowest: Optional[object] = None,
    ) -> NodeId:
        """Record a process invocation with its inputs and outputs."""
        self.store.add_node(self.graph_name, node_id, kind="process", features=features)
        if lowest is not None:
            self.policy.set_lowest(node_id, lowest)
        for source in inputs:
            self.store.add_edge(self.graph_name, source, node_id, label="input_to")
        for artifact in outputs:
            self.store.add_edge(self.graph_name, node_id, artifact, label="generated")
        return node_id

    def import_provenance(self, provenance: ProvenanceGraph) -> None:
        """Bulk-load an already-built provenance graph into the store."""
        provenance.validate()
        self.store.put_graph(provenance.graph, name=self.graph_name)

    def import_graph(self, graph: PropertyGraph) -> None:
        """Bulk-load an arbitrary property graph (used by the benchmarks)."""
        self.store.put_graph(graph, name=self.graph_name)

    # ------------------------------------------------------------------ #
    # serving protected views
    # ------------------------------------------------------------------ #
    def current_graph(self) -> PropertyGraph:
        """A copy of the stored provenance graph."""
        return self.store.graph(self.graph_name)

    def service(self, graph: Optional[PropertyGraph] = None) -> ProtectionService:
        """A :class:`~repro.api.service.ProtectionService` over the stored graph.

        Each call binds a fresh copy of the stored graph (store reads always
        copy), so the service reflects the provenance recorded so far.
        """
        return ProtectionService(
            graph if graph is not None else self.current_graph(),
            self.policy,
            store=self.store,
        )

    def protected_account(self, privilege: object, *, naive: bool = False) -> ProtectedAccount:
        """The account served to consumers in class ``privilege``."""
        request = ProtectionRequest(
            privileges=(privilege,),
            strategy=STRATEGY_NAIVE if naive else STRATEGY_SURROGATE,
            score=False,
        )
        return self.service().protect(request).account

    def lineage_for(
        self,
        privilege: object,
        start: NodeId,
        *,
        direction: str = "upstream",
        naive: bool = False,
    ) -> LineageResult:
        """A lineage query answered through the released account only."""
        account = self.protected_account(privilege, naive=naive)
        return lineage_over_account(account, start, direction=direction)

    # ------------------------------------------------------------------ #
    # the Figure-10 measurement
    # ------------------------------------------------------------------ #
    def timed_protection_run(
        self,
        privilege: object,
        *,
        protected_edges: Optional[Iterable[EdgeKey]] = None,
    ) -> ProtectionTimings:
        """Measure the cost of serving a protected graph, phase by phase.

        ``db_access`` reads the stored graph back out of the store;
        ``build_graph`` rebuilds an in-memory property graph from the raw
        node/edge records (what PLUS does when materialising a lineage
        result); the two protection phases transform that graph via hiding
        and via surrogates respectively.
        """
        start = time.perf_counter()
        stored = self.store.graph(self.graph_name)
        records = [
            {"id": node.node_id, "kind": node.kind, "features": dict(node.features)}
            for node in stored.nodes()
        ]
        edge_records = [
            {"source": edge.source, "target": edge.target, "label": edge.label}
            for edge in stored.edges()
        ]
        db_access_ms = (time.perf_counter() - start) * 1000.0

        start = time.perf_counter()
        rebuilt = PropertyGraph.from_rows(
            ((record["id"], record["kind"], record["features"]) for record in records),
            (
                (record["source"], record["target"], record["label"], None)
                for record in edge_records
            ),
            name=stored.name,
        )
        build_graph_ms = (time.perf_counter() - start) * 1000.0

        edges = tuple(protected_edges) if protected_edges is not None else ()
        service = self.service(rebuilt)
        start = time.perf_counter()
        if edges:
            service.protect(
                ProtectionRequest(
                    privileges=(privilege,), strategy=STRATEGY_HIDE, protect_edges=edges, score=False
                )
            )
        else:
            service.protect(
                ProtectionRequest(privileges=(privilege,), strategy=STRATEGY_NAIVE, score=False)
            )
        protect_hide_ms = (time.perf_counter() - start) * 1000.0

        start = time.perf_counter()
        service.protect(
            ProtectionRequest(
                privileges=(privilege,),
                strategy=STRATEGY_SURROGATE,
                protect_edges=edges,
                score=False,
            )
        )
        protect_surrogate_ms = (time.perf_counter() - start) * 1000.0

        return ProtectionTimings(
            db_access_ms=db_access_ms,
            build_graph_ms=build_graph_ms,
            protect_hide_ms=protect_hide_ms,
            protect_surrogate_ms=protect_surrogate_ms,
        )

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """A compact status report (graph size, policy summary, store stats)."""
        graph = self.current_graph()
        return {
            "graph": self.graph_name,
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "policy": self.policy.describe(graph, self.policy.lattice.public),
            "store": self.store.stats.as_dict(),
        }
