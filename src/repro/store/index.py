"""The secondary feature index over a stored graph.

:class:`FeatureIndex` maps (attribute, value) → node ids, supporting the
feature-lookup queries used by the examples ("find every node whose
``role`` is ``person``").  The store engine builds it from the graph on a
graph's first lookup and maintains it incrementally from then on.
Adjacency needs no index of its own: the stored
:class:`~repro.graph.model.PropertyGraph` already keeps both directions.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Set, Tuple

from repro.graph.model import NodeId, PropertyGraph


class FeatureIndex:
    """(attribute, value) → node ids inverted index."""

    def __init__(self) -> None:
        self._index: Dict[Tuple[str, Any], Set[NodeId]] = defaultdict(set)
        self._node_features: Dict[NodeId, Dict[str, Any]] = {}

    @classmethod
    def build(cls, graph: PropertyGraph) -> "FeatureIndex":
        """Build the index from scratch for an existing graph."""
        index = cls()
        for node in graph.nodes():
            index.index_node(node.node_id, node.features)
        return index

    def index_node(self, node_id: NodeId, features: Dict[str, Any]) -> None:
        """(Re-)index one node's features."""
        self.remove_node(node_id)
        self._node_features[node_id] = dict(features)
        for name, value in features.items():
            if _indexable(value):
                self._index[(name, value)].add(node_id)

    def remove_node(self, node_id: NodeId) -> None:
        previous = self._node_features.pop(node_id, None)
        if not previous:
            return
        for name, value in previous.items():
            if _indexable(value):
                self._index.get((name, value), set()).discard(node_id)

    def lookup(self, name: str, value: Any) -> Set[NodeId]:
        """Node ids whose feature ``name`` equals ``value``."""
        return set(self._index.get((name, value), set()))

    def lookup_any(self, name: str, values: Iterable[Any]) -> Set[NodeId]:
        """Node ids whose feature ``name`` equals any of ``values``."""
        found: Set[NodeId] = set()
        for value in values:
            found |= self.lookup(name, value)
        return found

    def attributes(self) -> List[str]:
        """Every indexed attribute name."""
        return sorted({name for name, _ in self._index})


def _indexable(value: Any) -> bool:
    """Only hashable scalar-ish values participate in the inverted index."""
    try:
        hash(value)
    except TypeError:
        return False
    return True
