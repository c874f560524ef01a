"""Whole-graph algorithms: DAG checks, topological order and networkx interop.

Provenance graphs are DAGs ("annotated causality graph, which is a directed
acyclic graph" — paper footnote 1), so the provenance substrate validates
acyclicity with :func:`is_acyclic`.  ``networkx`` is optional and only used
for cross-checking and export; the library never requires it at runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.exceptions import GraphError
from repro.graph.model import NodeId, PropertyGraph


def is_acyclic(graph: PropertyGraph) -> bool:
    """True when the directed graph contains no cycle."""
    return topological_sort(graph, strict=False) is not None


def topological_sort(graph: PropertyGraph, *, strict: bool = True) -> Optional[List[NodeId]]:
    """Kahn's algorithm.

    Returns a topological order of the node ids.  On a cyclic graph, raises
    :class:`GraphError` when ``strict`` (the default) or returns ``None``
    otherwise.
    """
    in_degree: Dict[NodeId, int] = {node_id: graph.in_degree(node_id) for node_id in graph.node_ids()}
    ready = [node_id for node_id, degree in in_degree.items() if degree == 0]
    order: List[NodeId] = []
    while ready:
        current = ready.pop()
        order.append(current)
        for successor in graph.successors(current):
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                ready.append(successor)
    if len(order) != graph.node_count():
        if strict:
            raise GraphError("graph contains a cycle; topological sort is undefined")
        return None
    return order


def find_cycle(graph: PropertyGraph) -> Optional[List[NodeId]]:
    """Return one directed cycle as a node list (first == last), or ``None``."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[NodeId, int] = {node_id: WHITE for node_id in graph.node_ids()}
    parent: Dict[NodeId, Optional[NodeId]] = {}

    for root in graph.node_ids():
        if color[root] != WHITE:
            continue
        stack: List[tuple] = [(root, iter(sorted(graph.successors(root), key=repr)))]
        color[root] = GRAY
        parent[root] = None
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                if color[successor] == WHITE:
                    color[successor] = GRAY
                    parent[successor] = node
                    stack.append((successor, iter(sorted(graph.successors(successor), key=repr))))
                    advanced = True
                    break
                if color[successor] == GRAY:
                    # Found a back edge node -> successor: rebuild the cycle.
                    cycle = [node]
                    while cycle[-1] != successor:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    cycle.append(cycle[0])
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def density(graph: PropertyGraph) -> float:
    """Directed density: edges / (n * (n - 1)).  Zero for graphs with < 2 nodes."""
    n = graph.node_count()
    if n < 2:
        return 0.0
    return graph.edge_count() / (n * (n - 1))


def roots(graph: PropertyGraph) -> Set[NodeId]:
    """Nodes with no incoming edges."""
    return {node_id for node_id in graph.node_ids() if graph.in_degree(node_id) == 0}


def leaves(graph: PropertyGraph) -> Set[NodeId]:
    """Nodes with no outgoing edges."""
    return {node_id for node_id in graph.node_ids() if graph.out_degree(node_id) == 0}


def to_networkx(graph: PropertyGraph):
    """Export to a ``networkx.DiGraph`` (requires networkx to be installed)."""
    try:
        import networkx as nx
    except ImportError as exc:  # pragma: no cover - exercised only without networkx
        raise GraphError("networkx is not installed; install repro[networkx]") from exc
    digraph = nx.DiGraph(name=graph.name or "")
    for node in graph.nodes():
        digraph.add_node(node.node_id, kind=node.kind, **dict(node.features))
    for edge in graph.edges():
        digraph.add_edge(edge.source, edge.target, label=edge.label, **dict(edge.features))
    return digraph


def from_networkx(digraph, *, name: Optional[str] = None) -> PropertyGraph:
    """Import from a ``networkx.DiGraph`` (node/edge attributes become features)."""

    def node_rows():
        for node_id, data in digraph.nodes(data=True):
            attributes = dict(data)
            yield node_id, attributes.pop("kind", None), attributes

    def edge_rows():
        for source, target, data in digraph.edges(data=True):
            attributes = dict(data)
            yield source, target, attributes.pop("label", None), attributes

    return PropertyGraph.from_rows(node_rows(), edge_rows(), name=name)
