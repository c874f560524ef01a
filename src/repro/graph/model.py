"""The property-graph container used throughout the library.

A :class:`PropertyGraph` is a simple directed graph (at most one edge per
ordered node pair, matching the paper's model in Section 2) whose nodes and
edges carry *features* — attribute-value pairs.  Bi-directional
relationships are modelled as two directed edges, exactly as the paper
prescribes.

Design notes
------------
* Node ids are arbitrary hashable values (strings in all of the paper's
  examples).
* Adjacency is indexed in both directions so that predecessor and successor
  queries — the backbone of provenance path traversal — are O(out-degree) /
  O(in-degree).  The indexes are insertion-ordered dicts, so every iteration
  order is deterministic without per-call sorting.
* Mutating operations keep the indexes consistent; the container never hands
  out internal dicts (nodes and edges are returned as lightweight value
  objects).  Hot traversal loops can use the ``iter_*`` adjacency methods,
  which iterate the internal indexes without copying — callers must not
  mutate the graph while consuming them.
* Every logical mutation bumps :attr:`PropertyGraph.version` exactly once —
  :meth:`remove_node` counts as one mutation however many incident edges it
  drops, and a :meth:`batch` block commits as one — which caching layers
  (e.g. the compiled marking views in :mod:`repro.core.markings`) use to
  detect staleness without hashing the graph.
* Every mutation additionally describes itself as a typed
  :class:`~repro.graph.deltas.GraphDelta` delivered to subscribers and (when
  enabled) a bounded delta log, so compiled views and caches can maintain
  themselves incrementally instead of recompiling per version bump.  Event
  construction is skipped entirely while nobody is listening.
* A graph rebuilt from rows goes through one path,
  :meth:`PropertyGraph.from_rows`: decoding
  (:func:`~repro.graph.serialization.graph_from_dict`, paged SQLite
  loads), ``networkx`` import, the PLUS Build Graph phase,
  :meth:`~PropertyGraph.subgraph` and :meth:`~PropertyGraph.reverse` all
  hand it rows.  (Generators that grow a graph edge by edge, such as
  account generation, use the mutators.)  It makes the checks
  :meth:`~PropertyGraph.add_node` / :meth:`~PropertyGraph.add_edge` make,
  raises the same exception types, and ends at the same :attr:`version`,
  but fills the containers directly: a fresh graph has no observers, so
  there is no delta to build and no per-element method call to pay.
  :meth:`~PropertyGraph.copy` skips even the checks — its source is already
  valid — and copies the adjacency dicts wholesale.
* ``Node`` and ``Edge`` are frozen, slotted dataclasses, but every
  construction path builds them with :func:`_node` / :func:`_edge`, which
  set each field through ``object.__setattr__`` — what the dataclass
  ``__init__`` does, minus its keyword handling — or, for many edges held
  as columns, with :func:`_edges_from_columns`, which does the same in
  C-level ``map`` passes.  Slots keep an ``Edge`` at 136 bytes under
  ``tracemalloc`` on CPython 3.11 (176 with inline attributes, about 310
  once ``__dict__`` is materialized, which is why no path fills
  ``instance.__dict__``), and a restart holds every edge of every loaded
  graph.
"""

from __future__ import annotations

import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
)
from repro.graph.deltas import DeltaKind, GraphDelta
from repro.graph.features import normalize_features

#: Default bound on the per-graph delta log (see
#: :meth:`PropertyGraph.enable_delta_log`).  256 single-edge edits is far
#: more than any interactive editing burst between two view reads; a log
#: that overflows simply makes stale views recompile once.
DELTA_LOG_LIMIT = 256

NodeId = Hashable
EdgeKey = Tuple[NodeId, NodeId]

#: Shared empty adjacency index returned by the zero-copy iterators for
#: edge-less nodes, so the no-edge case allocates nothing either.
_EMPTY_ADJACENCY: Dict[NodeId, None] = {}


@dataclass(frozen=True, slots=True)
class Node:
    """A node value object: an id, a ``kind`` tag and its features.

    ``kind`` is free-form ("person", "data", "process", ...); the provenance
    substrate uses it to distinguish data from process nodes, the social
    examples use it for entity types.  It never affects protection logic.
    """

    node_id: NodeId
    kind: Optional[str] = None
    features: Mapping[str, Any] = field(default_factory=dict)

    def feature(self, name: str, default: Any = None) -> Any:
        """Return one feature value (or ``default``)."""
        return self.features.get(name, default)

    def with_features(self, features: Mapping[str, Any]) -> "Node":
        """Return a copy of this node with ``features`` replacing the old ones."""
        return _node(self.node_id, self.kind, dict(features))


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed edge value object with an optional ``label`` and features."""

    source: NodeId
    target: NodeId
    label: Optional[str] = None
    features: Mapping[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> EdgeKey:
        """The ``(source, target)`` pair identifying this edge."""
        return (self.source, self.target)

    def reversed(self) -> "Edge":
        """Return the same edge pointing the other way (used for bi-directional links)."""
        return _edge(self.target, self.source, self.label, dict(self.features))


_new_instance = object.__new__
_set_field = object.__setattr__


def _node(node_id: NodeId, kind: Optional[str], features: Mapping[str, Any]) -> Node:
    """A :class:`Node` equal to ``Node(node_id, kind, features)``, built without ``__init__``."""
    node = _new_instance(Node)
    _set_field(node, "node_id", node_id)
    _set_field(node, "kind", kind)
    _set_field(node, "features", features)
    return node


def _edge(source: NodeId, target: NodeId, label: Optional[str], features: Mapping[str, Any]) -> Edge:
    """An :class:`Edge` equal to ``Edge(source, target, label, features)``, built without ``__init__``."""
    edge = _new_instance(Edge)
    _set_field(edge, "source", source)
    _set_field(edge, "target", target)
    _set_field(edge, "label", label)
    _set_field(edge, "features", features)
    return edge


def _edges_from_columns(
    sources: List[NodeId],
    targets: List[NodeId],
    labels: List[Optional[str]],
    features: List[Mapping[str, Any]],
) -> List[Edge]:
    """One :func:`_edge` per row of four equal-length columns, every loop in C.

    The edges are allocated in one ``map``, then each field is set on all
    of them in one ``map`` that ``deque(..., maxlen=0)`` drains without
    storing the results: about a third cheaper per edge than a
    Python-level call per row.
    """
    count = len(sources)
    if not len(targets) == len(labels) == len(features) == count:
        raise ValueError("edge columns differ in length")
    edges = list(map(_new_instance, repeat(Edge, count)))
    for name, values in (
        ("source", sources),
        ("target", targets),
        ("label", labels),
        ("features", features),
    ):
        deque(map(_set_field, edges, repeat(name), values), maxlen=0)
    return edges


class PropertyGraph:
    """A mutable directed property graph.

    Example
    -------
    >>> g = PropertyGraph(name="demo")
    >>> g.add_node("a", kind="person", features={"name": "Alice"})
    Node(node_id='a', kind='person', features={'name': 'Alice'})
    >>> g.add_node("b")
    Node(node_id='b', kind=None, features={})
    >>> g.add_edge("a", "b", label="knows")
    Edge(source='a', target='b', label='knows', features={})
    >>> sorted(g.successors("a"))
    ['b']
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name
        self._nodes: Dict[NodeId, Node] = {}
        self._edges: Dict[EdgeKey, Edge] = {}
        # Adjacency as insertion-ordered dicts (values unused): membership is
        # O(1) like a set, iteration order is edge-insertion order.
        self._succ: Dict[NodeId, Dict[NodeId, None]] = {}
        self._pred: Dict[NodeId, Dict[NodeId, None]] = {}
        #: Monotonically increasing mutation counter for cache invalidation.
        self._version = 0
        # Delta machinery, all lazily allocated: observers (subscription
        # token -> listener or weak method), the bounded delta log, and the
        # in-flight batch sub-delta list.  ``None`` everywhere means "nobody
        # is listening" and mutators skip event construction.
        self._observers: Optional[Dict[int, object]] = None
        self._next_token = 0
        self._delta_log: Optional[List[GraphDelta]] = None
        self._delta_log_limit = 0
        self._batch: Optional[List[GraphDelta]] = None
        self._batch_dirty = False
        self._batch_tainted = False

    @property
    def version(self) -> int:
        """Mutation counter: changes whenever nodes or edges are added/removed."""
        return self._version

    @property
    def in_batch(self) -> bool:
        """True while a :meth:`batch` block is open (version bump pending)."""
        return self._batch is not None

    # ------------------------------------------------------------------ #
    # delta emission
    # ------------------------------------------------------------------ #
    def enable_delta_log(self, limit: int = DELTA_LOG_LIMIT) -> None:
        """Start recording mutations into a bounded delta log.

        The log is what lets stale compiled views *catch up*: a view built
        at version ``v`` asks :meth:`deltas_since` for the chain of events
        from ``v`` to the present and patches itself in O(affected) instead
        of recompiling.  Idempotent; a smaller ``limit`` trims the existing
        log.
        """
        if limit < 1:
            raise ValueError(f"delta log limit must be positive, got {limit}")
        if self._delta_log is None:
            self._delta_log = []
        self._delta_log_limit = limit
        del self._delta_log[:-limit]

    @property
    def delta_log_enabled(self) -> bool:
        """True once :meth:`enable_delta_log` (or a bus attach) has run."""
        return self._delta_log is not None

    def subscribe(self, listener: object) -> int:
        """Register a mutation listener called as ``listener(graph, delta)``.

        Bound methods are held weakly (the owning object — typically a
        :class:`~repro.graph.deltas.DeltaBus` — can be garbage-collected
        without unsubscribing first); plain functions are held strongly.
        Entries whose owner is gone are dropped here as well as on the next
        mutation, so a graph that many short-lived owners attach to without
        being mutated keeps only its live listeners.
        Returns a token for :meth:`unsubscribe`.
        """
        if self._observers is None:
            self._observers = {}
        else:
            for dead in [
                token
                for token, stored in self._observers.items()
                if isinstance(stored, weakref.WeakMethod) and stored() is None
            ]:
                del self._observers[dead]
        token = self._next_token
        self._next_token += 1
        try:
            stored: object = weakref.WeakMethod(listener)  # type: ignore[arg-type]
        except TypeError:
            stored = listener
        self._observers[token] = stored
        return token

    def unsubscribe(self, token: int) -> None:
        """Drop one listener (unknown tokens are ignored)."""
        if self._observers is not None:
            self._observers.pop(token, None)

    def deltas_since(self, version: int) -> Optional[List[GraphDelta]]:
        """The contiguous delta chain from ``version`` to the present.

        Returns ``[]`` when ``version`` is current, the ordered chain when
        the log still reaches back that far, and ``None`` when it cannot be
        reconstructed (logging disabled, the log overflowed, or ``version``
        never existed) — in which case the caller must fall back to a full
        recompile.
        """
        if version == self._version:
            return []
        log = self._delta_log
        if log is None or version > self._version:
            return None
        # Every logged delta advances the version by exactly one and a
        # tainted batch clears the log, so the chain is the log's last
        # ``self._version - version`` entries.  A negative start means the
        # log no longer reaches back that far (it must not wrap around).
        index = len(log) - (self._version - version)
        if index < 0:
            return None
        chain = log[index:]
        # Defensive contiguity check, starting with
        # ``log[index].pre_version == version``: a hole (e.g. a batch whose
        # composite could not be recorded) must never be bridged.
        expected = version
        for entry in chain:
            if entry.pre_version != expected:
                return None
            expected = entry.post_version
        if expected != self._version:
            return None
        return chain

    def _commit(self, kind: DeltaKind, **payload: object) -> None:
        """Record one mutation: version bump + delta emission (or batch defer)."""
        if self._batch is not None:
            self._batch_dirty = True
            if self._delta_log is not None or self._observers:
                self._batch.append(
                    GraphDelta(
                        kind=kind,
                        pre_version=self._version,
                        post_version=self._version,
                        **payload,  # type: ignore[arg-type]
                    )
                )
            else:
                # Nobody was listening when this mutation happened.  If a
                # listener (or the log) appears before the batch commits,
                # the composite would be missing this sub-delta — publishing
                # it would let stale views "catch up" incompletely and be
                # served as current.  Taint the batch instead: the version
                # still bumps, nothing is published, and deltas_since()
                # reports an unbridgeable gap, forcing the sound recompile.
                self._batch_tainted = True
            return
        pre = self._version
        self._version = pre + 1
        if self._delta_log is not None or self._observers:
            self._publish(
                GraphDelta(kind=kind, pre_version=pre, post_version=pre + 1, **payload)  # type: ignore[arg-type]
            )

    def _publish(self, delta: GraphDelta) -> None:
        """Append one committed delta to the log and notify subscribers."""
        log = self._delta_log
        if log is not None:
            log.append(delta)
            if len(log) > self._delta_log_limit:
                del log[: len(log) - self._delta_log_limit]
        if self._observers:
            for token, stored in list(self._observers.items()):
                listener = stored() if isinstance(stored, weakref.WeakMethod) else stored
                if listener is None:
                    self._observers.pop(token, None)
                    continue
                listener(self, delta)

    @contextmanager
    def batch(self) -> Iterator["PropertyGraph"]:
        """Coalesce several mutations into one version bump and one delta.

        Within the block every mutator applies its structural change
        immediately but defers the version bump; on exit the graph commits
        **one** version bump and publishes **one** composite
        :class:`~repro.graph.deltas.GraphDelta` (kind ``BATCH``) carrying
        the sub-deltas — so symmetric inserts like
        :meth:`add_bidirectional_edge` cause a single invalidation instead
        of two.  Nested ``batch()`` blocks join the outermost one.

        Two caveats, both consequences of the single deferred bump: derived
        state (compiled views, caches) must not be *read* from inside the
        block — :attr:`version` only changes at exit — and there is no
        rollback: if the block raises, mutations already applied stay
        applied and the commit still runs, so caches cannot go stale.
        """
        if self._batch is not None:
            yield self
            return
        self._batch = []
        self._batch_dirty = False
        self._batch_tainted = False
        try:
            yield self
        finally:
            subs = tuple(self._batch)
            dirty = self._batch_dirty
            tainted = self._batch_tainted
            self._batch = None
            self._batch_dirty = False
            self._batch_tainted = False
            if dirty:
                pre = self._version
                self._version = pre + 1
                if tainted:
                    # The composite is incomplete; clear the log so no
                    # earlier entry can bridge across the hole either.
                    if self._delta_log is not None:
                        self._delta_log.clear()
                elif self._delta_log is not None or self._observers:
                    self._publish(
                        GraphDelta(
                            kind=DeltaKind.BATCH,
                            pre_version=pre,
                            post_version=pre + 1,
                            deltas=subs,
                        )
                    )

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"<PropertyGraph{label} nodes={self.node_count()} edges={self.edge_count()}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # ------------------------------------------------------------------ #
    # node operations
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        node_id: NodeId,
        *,
        kind: Optional[str] = None,
        features: Optional[Mapping[str, Any]] = None,
        replace: bool = False,
    ) -> Node:
        """Add a node and return it.

        Adding an existing id raises :class:`DuplicateNodeError` unless
        ``replace=True``, in which case the node's kind/features are replaced
        while its incident edges are preserved.
        """
        existing = self._nodes.get(node_id)
        if existing is not None and not replace:
            raise DuplicateNodeError(node_id)
        node = _node(node_id, kind, normalize_features(features))
        self._nodes[node_id] = node
        self._succ.setdefault(node_id, {})
        self._pred.setdefault(node_id, {})
        if existing is not None:
            self._commit(DeltaKind.REPLACE_NODE, node=node, old_node=existing)
        else:
            self._commit(DeltaKind.ADD_NODE, node=node)
        return node

    def ensure_node(self, node_id: NodeId, **kwargs: Any) -> Node:
        """Return the existing node or add it if missing (never raises on duplicates)."""
        if node_id in self._nodes:
            return self._nodes[node_id]
        return self.add_node(node_id, **kwargs)

    def node(self, node_id: NodeId) -> Node:
        """Return the :class:`Node` for ``node_id`` (raises :class:`NodeNotFoundError`)."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def has_node(self, node_id: NodeId) -> bool:
        """True when ``node_id`` is in the graph."""
        return node_id in self._nodes

    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._nodes.values())

    def node_ids(self) -> List[NodeId]:
        """All node ids, in insertion order."""
        return list(self._nodes.keys())

    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    def remove_node(self, node_id: NodeId) -> Node:
        """Remove a node and every incident edge; return the removed node.

        One logical mutation: a single version bump and a single
        ``REMOVE_NODE`` delta carrying every dropped incident edge.
        """
        node = self.node(node_id)
        removed: List[Edge] = []
        for successor in list(self._succ.get(node_id, ())):
            removed.append(self._pop_edge(node_id, successor))
        for predecessor in list(self._pred.get(node_id, ())):
            removed.append(self._pop_edge(predecessor, node_id))
        self._succ.pop(node_id, None)
        self._pred.pop(node_id, None)
        del self._nodes[node_id]
        self._commit(DeltaKind.REMOVE_NODE, old_node=node, removed_edges=tuple(removed))
        return node

    def set_node_features(self, node_id: NodeId, features: Mapping[str, Any]) -> Node:
        """Replace a node's features, keeping its edges; return the new node object."""
        node = self.node(node_id)
        updated = node.with_features(features)
        self._nodes[node_id] = updated
        self._commit(DeltaKind.SET_NODE_FEATURES, node=updated, old_node=node)
        return updated

    # ------------------------------------------------------------------ #
    # edge operations
    # ------------------------------------------------------------------ #
    def add_edge(
        self,
        source: NodeId,
        target: NodeId,
        *,
        label: Optional[str] = None,
        features: Optional[Mapping[str, Any]] = None,
        create_nodes: bool = False,
        replace: bool = False,
    ) -> Edge:
        """Add a directed edge ``source -> target`` and return it.

        With ``create_nodes=True`` missing endpoints are created on the fly
        (handy in builders and workload generators); otherwise missing
        endpoints raise :class:`NodeNotFoundError`.
        """
        if source == target:
            raise ValueError(f"self-loops are not supported (node {source!r})")
        if create_nodes:
            self.ensure_node(source)
            self.ensure_node(target)
        else:
            if source not in self._nodes:
                raise NodeNotFoundError(source)
            if target not in self._nodes:
                raise NodeNotFoundError(target)
        key = (source, target)
        existing = self._edges.get(key)
        if existing is not None and not replace:
            raise DuplicateEdgeError(source, target)
        edge = _edge(source, target, label, normalize_features(features))
        self._edges[key] = edge
        self._succ[source][target] = None
        self._pred[target][source] = None
        if existing is not None:
            self._commit(DeltaKind.REPLACE_EDGE, edge=edge, old_edge=existing)
        else:
            self._commit(DeltaKind.ADD_EDGE, edge=edge)
        return edge

    def add_bidirectional_edge(
        self,
        left: NodeId,
        right: NodeId,
        *,
        label: Optional[str] = None,
        features: Optional[Mapping[str, Any]] = None,
        create_nodes: bool = False,
    ) -> Tuple[Edge, Edge]:
        """Add both directions of an undirected relationship (paper, Section 2).

        The two inserts commit as one :meth:`batch`: a single version bump
        and a single composite delta, so caches invalidate (or patch) once
        per symmetric insert instead of twice.
        """
        with self.batch():
            forward = self.add_edge(left, right, label=label, features=features, create_nodes=create_nodes)
            backward = self.add_edge(right, left, label=label, features=features, create_nodes=create_nodes)
        return forward, backward

    def edge(self, source: NodeId, target: NodeId) -> Edge:
        """Return the edge ``source -> target`` (raises :class:`EdgeNotFoundError`)."""
        try:
            return self._edges[(source, target)]
        except KeyError:
            raise EdgeNotFoundError(source, target) from None

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """True when the directed edge ``source -> target`` exists."""
        return (source, target) in self._edges

    def has_link(self, left: NodeId, right: NodeId) -> bool:
        """True when an edge exists in either direction between the two nodes."""
        return self.has_edge(left, right) or self.has_edge(right, left)

    def edges(self) -> List[Edge]:
        """All edges, in insertion order."""
        return list(self._edges.values())

    def edge_keys(self) -> List[EdgeKey]:
        """All ``(source, target)`` pairs, in insertion order."""
        return list(self._edges.keys())

    def edge_count(self) -> int:
        """Number of directed edges."""
        return len(self._edges)

    def remove_edge(self, source: NodeId, target: NodeId) -> Edge:
        """Remove the edge ``source -> target`` and return it."""
        if (source, target) not in self._edges:
            raise EdgeNotFoundError(source, target)
        return self._drop_edge(source, target)

    def _drop_edge(self, source: NodeId, target: NodeId) -> Edge:
        edge = self._pop_edge(source, target)
        self._commit(DeltaKind.REMOVE_EDGE, old_edge=edge)
        return edge

    def _pop_edge(self, source: NodeId, target: NodeId) -> Edge:
        """Structure-only edge removal (no version bump, no delta)."""
        edge = self._edges.pop((source, target))
        self._succ[source].pop(target, None)
        self._pred[target].pop(source, None)
        return edge

    # ------------------------------------------------------------------ #
    # adjacency queries
    # ------------------------------------------------------------------ #
    def successors(self, node_id: NodeId) -> Set[NodeId]:
        """Targets of out-edges of ``node_id`` (a fresh, mutation-safe set)."""
        self.node(node_id)
        return set(self._succ.get(node_id, ()))

    def predecessors(self, node_id: NodeId) -> Set[NodeId]:
        """Sources of in-edges of ``node_id`` (a fresh, mutation-safe set)."""
        self.node(node_id)
        return set(self._pred.get(node_id, ()))

    def neighbors(self, node_id: NodeId) -> Set[NodeId]:
        """Union of predecessors and successors (ignoring direction)."""
        self.node(node_id)
        return set(self._succ.get(node_id, ())) | set(self._pred.get(node_id, ()))

    def iter_successors(self, node_id: NodeId) -> Iterable[NodeId]:
        """Zero-copy view of out-neighbours, in edge-insertion order.

        Unlike :meth:`successors` no set is allocated; the returned view
        reads the internal index directly, so the graph must not be mutated
        while it is being consumed.  This is the traversal-hot-path API.
        """
        self.node(node_id)
        return self._succ.get(node_id, _EMPTY_ADJACENCY).keys()

    def iter_predecessors(self, node_id: NodeId) -> Iterable[NodeId]:
        """Zero-copy view of in-neighbours, in edge-insertion order."""
        self.node(node_id)
        return self._pred.get(node_id, _EMPTY_ADJACENCY).keys()

    def iter_neighbors(self, node_id: NodeId) -> Iterator[NodeId]:
        """Distinct neighbours ignoring direction, successors first, no copies."""
        self.node(node_id)
        succ = self._succ.get(node_id, _EMPTY_ADJACENCY)
        yield from succ
        for predecessor in self._pred.get(node_id, _EMPTY_ADJACENCY):
            if predecessor not in succ:
                yield predecessor

    def out_edges(self, node_id: NodeId) -> List[Edge]:
        """Edges leaving ``node_id``, in edge-insertion order."""
        self.node(node_id)
        return [self._edges[(node_id, target)] for target in self._succ.get(node_id, ())]

    def in_edges(self, node_id: NodeId) -> List[Edge]:
        """Edges entering ``node_id``, in edge-insertion order."""
        self.node(node_id)
        return [self._edges[(source, node_id)] for source in self._pred.get(node_id, ())]

    def incident_edges(self, node_id: NodeId) -> List[Edge]:
        """All edges touching ``node_id`` (in either direction)."""
        return self.out_edges(node_id) + self.in_edges(node_id)

    def out_degree(self, node_id: NodeId) -> int:
        """Number of out-edges."""
        self.node(node_id)
        return len(self._succ.get(node_id, ()))

    def in_degree(self, node_id: NodeId) -> int:
        """Number of in-edges."""
        self.node(node_id)
        return len(self._pred.get(node_id, ()))

    def degree(self, node_id: NodeId) -> int:
        """Total degree (in + out).  A node linked both ways to the same peer counts twice."""
        return self.in_degree(node_id) + self.out_degree(node_id)

    def neighbor_count(self, node_id: NodeId) -> int:
        """Number of *distinct* neighbouring nodes, ignoring direction.

        This is the "connected nodes" count the paper's advanced-adversary
        focus probability is defined over (Figure 5: "0-1 connected nodes").
        """
        return len(self.neighbors(node_id))

    def same_neighborhood(self, other: "PropertyGraph", node_id: NodeId) -> bool:
        """True when ``node_id`` has identical in/out neighbour sets in both graphs.

        Used by derived-view maintenance (e.g.
        :meth:`repro.core.opacity.CompiledOpacityView.derive_for`) to find
        the nodes whose structural weights can differ between two related
        graphs without walking either edge list twice.
        """
        return (
            self._succ.get(node_id, _EMPTY_ADJACENCY).keys()
            == other._succ.get(node_id, _EMPTY_ADJACENCY).keys()
            and self._pred.get(node_id, _EMPTY_ADJACENCY).keys()
            == other._pred.get(node_id, _EMPTY_ADJACENCY).keys()
        )

    def isolated_nodes(self) -> List[NodeId]:
        """Ids of nodes with no incident edges."""
        return [node_id for node_id in self._nodes if not self._succ[node_id] and not self._pred[node_id]]

    # ------------------------------------------------------------------ #
    # whole-graph operations
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        nodes: Iterable[Tuple[NodeId, Optional[str], Optional[Mapping[str, Any]]]],
        edges: Iterable[Tuple[NodeId, NodeId, Optional[str], Optional[Mapping[str, Any]]]],
        *,
        name: Optional[str] = None,
    ) -> "PropertyGraph":
        """Build a graph from ``(id, kind, features)`` and ``(source, target, label, features)`` rows.

        The result equals — node order, edge order, every adjacency order
        and :attr:`version` included — a graph built by calling
        :meth:`add_node` per node row and then :meth:`add_edge` per edge
        row, and a malformed row raises what that call would raise
        (:class:`DuplicateNodeError`, :class:`DuplicateEdgeError`,
        :class:`NodeNotFoundError`, ``ValueError`` for a self-loop,
        ``TypeError`` for non-mapping features or an unhashable id).  Rows
        are consumed lazily, nodes first, so a paged source stays paged.
        """
        graph = cls(name=name)
        node_map, edge_map, succ, pred = graph._nodes, graph._edges, graph._succ, graph._pred
        for node_id, kind, features in nodes:
            if node_id in node_map:
                raise DuplicateNodeError(node_id)
            node_map[node_id] = _node(node_id, kind, normalize_features(features))
            succ[node_id] = {}
            pred[node_id] = {}
        for source, target, label, features in edges:
            if source == target:
                raise ValueError(f"self-loops are not supported (node {source!r})")
            if source not in node_map:
                raise NodeNotFoundError(source)
            if target not in node_map:
                raise NodeNotFoundError(target)
            key = (source, target)
            if key in edge_map:
                raise DuplicateEdgeError(source, target)
            edge_map[key] = _edge(source, target, label, normalize_features(features))
            succ[source][target] = None
            pred[target][source] = None
        graph._version = len(node_map) + len(edge_map)
        return graph

    def copy(self, name: Optional[str] = None) -> "PropertyGraph":
        """Deep-enough copy: new container, new feature dicts.

        Equal to rebuilding the graph through :meth:`from_rows` (same
        orders, same :attr:`version`), but the adjacency dicts — whose
        orders already follow edge order — are copied wholesale.
        """
        clone = PropertyGraph(name=name if name is not None else self.name)
        clone._nodes = {
            node_id: _node(node_id, node.kind, dict(node.features))
            for node_id, node in self._nodes.items()
        }
        clone._edges = {
            key: _edge(edge.source, edge.target, edge.label, dict(edge.features))
            for key, edge in self._edges.items()
        }
        clone._succ = {node_id: adjacency.copy() for node_id, adjacency in self._succ.items()}
        clone._pred = {node_id: adjacency.copy() for node_id, adjacency in self._pred.items()}
        clone._version = len(clone._nodes) + len(clone._edges)
        return clone

    def subgraph(self, node_ids: Iterable[NodeId], name: Optional[str] = None) -> "PropertyGraph":
        """The induced subgraph over ``node_ids`` (unknown ids are ignored)."""
        keep = set(node_ids)
        return PropertyGraph.from_rows(
            (
                (node_id, node.kind, node.features)
                for node_id, node in self._nodes.items()
                if node_id in keep
            ),
            (
                (source, target, edge.label, edge.features)
                for (source, target), edge in self._edges.items()
                if source in keep and target in keep
            ),
            name=name,
        )

    def reverse(self, name: Optional[str] = None) -> "PropertyGraph":
        """A copy of the graph with every edge reversed."""
        return PropertyGraph.from_rows(
            ((node_id, node.kind, node.features) for node_id, node in self._nodes.items()),
            ((edge.target, edge.source, edge.label, edge.features) for edge in self._edges.values()),
            name=name if name is not None else self.name,
        )
