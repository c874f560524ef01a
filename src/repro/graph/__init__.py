"""Property-graph substrate used by every other subsystem.

The paper models a graph as a set of nodes carrying *features*
(attribute-value pairs) connected by directed edges (Section 2).  This
package provides that model plus the traversal, path and statistics helpers
the protection algorithms and metrics need.

Public surface:

* :class:`repro.graph.model.PropertyGraph` — the graph container.
* :class:`repro.graph.model.Node` / :class:`repro.graph.model.Edge` —
  value objects returned by the container.
* :mod:`repro.graph.traversal` — reachability, connected components,
  connected pairs.
* :mod:`repro.graph.paths` — shortest paths and constrained path search.
* :mod:`repro.graph.builders` — fluent construction helpers.
* :mod:`repro.graph.serialization` — dict/JSON round-tripping.
* :mod:`repro.graph.algorithms` — DAG checks, topological sort, networkx
  interop.
* :mod:`repro.graph.statistics` — degree/connectivity summaries.
* :mod:`repro.graph.deltas` — typed mutation events (:class:`GraphDelta`),
  the :class:`DeltaBus` fan-out and the view-maintenance counters behind
  incremental view maintenance.
"""

from repro.graph.deltas import (
    DeltaBus,
    DeltaKind,
    GraphDelta,
    view_maintenance_stats,
)
from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.builders import GraphBuilder, graph_from_edges
from repro.graph.traversal import (
    ancestors,
    connected_pairs,
    descendants,
    is_weakly_connected,
    weakly_connected_components,
    weakly_reachable,
)
from repro.graph.paths import has_path, shortest_path, shortest_path_length
from repro.graph.serialization import (
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    load_graph,
    save_graph,
)

__all__ = [
    "PropertyGraph",
    "Node",
    "Edge",
    "GraphDelta",
    "DeltaKind",
    "DeltaBus",
    "view_maintenance_stats",
    "GraphBuilder",
    "graph_from_edges",
    "ancestors",
    "descendants",
    "weakly_reachable",
    "weakly_connected_components",
    "is_weakly_connected",
    "connected_pairs",
    "has_path",
    "shortest_path",
    "shortest_path_length",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
    "save_graph",
    "load_graph",
]
