"""HW-permitted paths (Definition 8) and the visible-set walks of Algorithm 2.

A path ``n1 -> ... -> n2`` in the original graph is *HW-permitted* for a
consumer class ``p`` when:

1. no node-edge incidence anywhere on the path is marked ``HIDE`` for ``p``,
   and the incidence of ``n1`` on the path's first edge and the incidence of
   ``n2`` on the path's last edge are both marked ``VISIBLE``; and
2. if the direct edge ``(n1, n2)`` exists in the original graph, each of its
   incidences is marked ``VISIBLE`` — i.e. a sensitive direct relationship
   may never be re-asserted through a longer route.

Surrogate edges summarise HW-permitted paths.  The *visible-set* walk
(Algorithm 2) is the efficient way the generation algorithm discovers the
anchors of those summaries: starting from a surrogate-routed incidence it
travels through further surrogate-routed incidences and stops at the first
nodes whose incidence is ``VISIBLE``.

Performance
-----------
Every function here accepts ``markings`` as either a live
:class:`~repro.core.markings.MarkingPolicy` (the reference semantics, each
incidence resolved per call) or a
:class:`~repro.core.markings.CompiledMarkingView` (O(1) table lookups).  By
default a policy is compiled on entry — one O(V+E) pass amortised across
every walk under the same (graph, privilege) — pass ``compiled=False`` to
force the uncompiled reference path (the equivalence test suite does).

:class:`VisibleWalkCache` additionally memoises whole visible-set walks
keyed by (start, direction), so the per-edge anchor discovery and
blocked-pair re-anchoring inside :func:`surrogate_edge_candidates` share
BFS work across all edges instead of re-walking per edge.  The
Definition-9.3 repair pass of the generation algorithm shares the compiled
marking *view* (its BFS is permitted-reachability, not a visible-set walk).
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.core.markings import CompiledMarkingView, EdgeState, Marking, MarkingPolicy
from repro.graph.deltas import GraphDelta, record_maintenance
from repro.graph.model import EdgeKey, NodeId, PropertyGraph

#: One evicted memoised walk: (``"forward"``/``"backward"``, start node).
EvictedWalk = Tuple[str, NodeId]

#: Memoised walks of one direction: start -> (collected, visited region).
_WalkTable = Dict[NodeId, Tuple[FrozenSet[NodeId], FrozenSet[NodeId]]]

#: Either marking source accepted by the traversal functions.
MarkingSource = Union[MarkingPolicy, CompiledMarkingView]


def _resolve_markings(
    graph: PropertyGraph,
    markings: MarkingSource,
    privilege: object,
    compiled: bool = True,
) -> MarkingSource:
    """Compile a policy into a per-privilege view (unless opted out)."""
    if compiled and isinstance(markings, MarkingPolicy):
        return markings.compile(graph, privilege)
    return markings


def edge_usable(markings: MarkingSource, edge: EdgeKey, privilege: object) -> bool:
    """True when the edge has no ``HIDE`` incidence for ``privilege``."""
    return markings.edge_state(edge, privilege) is not EdgeState.HIDDEN


def direct_edge_allows_path(
    graph: PropertyGraph, markings: MarkingSource, privilege: object, source: NodeId, target: NodeId
) -> bool:
    """Definition 8, clause 2: a sensitive direct edge forbids any permitted path.

    Returns True when either no direct edge ``source -> target`` exists, or
    it exists and both of its incidences are ``VISIBLE``.
    """
    if not graph.has_edge(source, target):
        return True
    return markings.edge_state((source, target), privilege) is EdgeState.VISIBLE


def hw_permitted_path_exists(
    graph: PropertyGraph,
    markings: MarkingSource,
    privilege: object,
    source: NodeId,
    target: NodeId,
) -> bool:
    """True when an HW-permitted path from ``source`` to ``target`` exists."""
    return shortest_hw_permitted_path_length(graph, markings, privilege, source, target) is not None


def shortest_hw_permitted_path_length(
    graph: PropertyGraph,
    markings: MarkingSource,
    privilege: object,
    source: NodeId,
    target: NodeId,
    *,
    compiled: bool = True,
) -> Optional[int]:
    """Length of the shortest HW-permitted path, or ``None`` when none exists."""
    if source == target:
        return None
    markings = _resolve_markings(graph, markings, privilege, compiled)
    if not direct_edge_allows_path(graph, markings, privilege, source, target):
        return None
    # BFS over non-hidden edges.  The first step must leave `source` through
    # an edge whose source-incidence is VISIBLE; arrival at `target` counts
    # only through an edge whose target-incidence is VISIBLE.
    distances: Dict[NodeId, int] = {}
    frontier: deque = deque()
    for successor in graph.iter_successors(source):
        edge = (source, successor)
        if not edge_usable(markings, edge, privilege):
            continue
        if markings.marking(source, edge, privilege) is not Marking.VISIBLE:
            continue
        if successor == target:
            if markings.marking(target, edge, privilege) is Marking.VISIBLE:
                return 1
            continue
        if successor not in distances:
            distances[successor] = 1
            frontier.append(successor)
    best: Optional[int] = None
    while frontier:
        current = frontier.popleft()
        current_distance = distances[current]
        if best is not None and current_distance + 1 >= best:
            continue
        for successor in graph.iter_successors(current):
            edge = (current, successor)
            if not edge_usable(markings, edge, privilege):
                continue
            if successor == target:
                if markings.marking(target, edge, privilege) is Marking.VISIBLE:
                    candidate = current_distance + 1
                    if best is None or candidate < best:
                        best = candidate
                continue
            if successor == source:
                continue
            if successor not in distances:
                distances[successor] = current_distance + 1
                frontier.append(successor)
    return best


def hw_permitted_targets(
    graph: PropertyGraph,
    markings: MarkingSource,
    privilege: object,
    source: NodeId,
    *,
    compiled: bool = True,
) -> Set[NodeId]:
    """Every node reachable from ``source`` along an HW-permitted path.

    Single-source form of Definition 8: one BFS over non-hidden edges whose
    first step leaves ``source`` through a VISIBLE source-incidence; a node
    counts as a permitted target when it is ever entered through an edge
    whose target-incidence is VISIBLE, and the direct-edge clause is applied
    per target.  Used by validation and by the optional maximal-connectivity
    repair pass of the generation algorithm.  Runs over the compiled
    edge-state table, so each step is O(1).
    """
    markings = _resolve_markings(graph, markings, privilege, compiled)
    reached_any: Set[NodeId] = set()
    targets: Set[NodeId] = set()
    frontier: deque = deque()
    for successor in graph.iter_successors(source):
        edge = (source, successor)
        if not edge_usable(markings, edge, privilege):
            continue
        if markings.marking(source, edge, privilege) is not Marking.VISIBLE:
            continue
        if markings.marking(successor, edge, privilege) is Marking.VISIBLE:
            targets.add(successor)
        if successor not in reached_any:
            reached_any.add(successor)
            frontier.append(successor)
    while frontier:
        current = frontier.popleft()
        for successor in graph.iter_successors(current):
            edge = (current, successor)
            if not edge_usable(markings, edge, privilege):
                continue
            if markings.marking(successor, edge, privilege) is Marking.VISIBLE:
                targets.add(successor)
            if successor not in reached_any and successor != source:
                reached_any.add(successor)
                frontier.append(successor)
    targets.discard(source)
    return {
        target
        for target in targets
        if direct_edge_allows_path(graph, markings, privilege, source, target)
    }


def hw_permitted_pairs(
    graph: PropertyGraph,
    markings: MarkingSource,
    privilege: object,
    nodes: Optional[Set[NodeId]] = None,
    *,
    compiled: bool = True,
) -> Set[Tuple[NodeId, NodeId]]:
    """Every ordered pair of (given) nodes joined by an HW-permitted path.

    Used by validation (maximal connectivity, Definition 9.3) rather than by
    generation, which uses the cheaper visible-set walks below.
    """
    markings = _resolve_markings(graph, markings, privilege, compiled)
    candidates = set(nodes) if nodes is not None else set(graph.node_ids())
    pairs: Set[Tuple[NodeId, NodeId]] = set()
    for source in candidates:
        for target in hw_permitted_targets(
            graph, markings, privilege, source, compiled=compiled
        ):
            if target in candidates and target != source:
                pairs.add((source, target))
    return pairs


# --------------------------------------------------------------------------- #
# Algorithm 2: visible-set walks
# --------------------------------------------------------------------------- #
def forward_visible_set(
    graph: PropertyGraph,
    markings: MarkingSource,
    privilege: object,
    start: NodeId,
    *,
    anchors: Optional[Set[NodeId]] = None,
    compiled: bool = True,
) -> Set[NodeId]:
    """Nodes reachable forwards from ``start`` stopping at VISIBLE incidences.

    Walk out-edges whose state is not ``HIDDEN``.  When the far endpoint's
    incidence on the traversed edge is ``VISIBLE`` the endpoint is collected
    and the walk stops there; otherwise the walk continues through it.

    When ``anchors`` is given, only nodes in that set may be collected; a
    node with a VISIBLE incidence that is not an anchor (e.g. a node that
    will not appear in the protected account) is walked *through* instead,
    so that connectivity between representable nodes is never lost.
    """
    markings = _resolve_markings(graph, markings, privilege, compiled)
    return _visible_walk(graph, markings, privilege, start, forward=True, anchors=anchors)[0]


def backward_visible_set(
    graph: PropertyGraph,
    markings: MarkingSource,
    privilege: object,
    start: NodeId,
    *,
    anchors: Optional[Set[NodeId]] = None,
    compiled: bool = True,
) -> Set[NodeId]:
    """Mirror image of :func:`forward_visible_set` over in-edges."""
    markings = _resolve_markings(graph, markings, privilege, compiled)
    return _visible_walk(graph, markings, privilege, start, forward=False, anchors=anchors)[0]


def _visible_walk(
    graph: PropertyGraph,
    markings: MarkingSource,
    privilege: object,
    start: NodeId,
    *,
    forward: bool,
    anchors: Optional[Set[NodeId]] = None,
) -> Tuple[Set[NodeId], Set[NodeId]]:
    """One visible-set walk; returns ``(collected, visited)``.

    ``visited`` is the walk's *traversal region* — the start plus every node
    the walk passed through (collected stop-nodes are not traversed, so they
    are not in it).  The region is exactly the set of nodes whose incident
    edges the walk examined, which is what delta-scoped cache eviction keys
    on: an edge change can only alter walks whose region contains the
    changed edge's near endpoint.
    """
    collected: Set[NodeId] = set()
    visited: Set[NodeId] = {start}
    frontier: deque = deque([start])
    while frontier:
        current = frontier.popleft()
        neighbors = (
            graph.iter_successors(current) if forward else graph.iter_predecessors(current)
        )
        for neighbor in neighbors:
            edge: EdgeKey = (current, neighbor) if forward else (neighbor, current)
            if not edge_usable(markings, edge, privilege):
                continue
            incidence_visible = markings.marking(neighbor, edge, privilege) is Marking.VISIBLE
            collectable = incidence_visible and (anchors is None or neighbor in anchors)
            if collectable:
                collected.add(neighbor)
                continue
            if neighbor not in visited:
                visited.add(neighbor)
                frontier.append(neighbor)
    collected.discard(start)
    return collected, visited


class VisibleWalkCache:
    """Memoised visible-set walks for one (graph, markings, privilege, anchors).

    The surrogate-edge candidate scan asks for the backward walk of every
    protected edge's source and the forward walk of every protected edge's
    target; chains of surrogate-routed edges make those walks land on the
    same start nodes over and over.  Caching by (start, direction) turns the
    per-edge walks into at most one BFS per distinct node, shared between
    the candidate scan and its blocked-pair re-anchoring worklist (and any
    other caller passed the same cache via the ``walks`` parameter).

    The cached sets are frozen so sharing across callers is safe.  The graph
    is held through a weak reference (like
    :class:`~repro.core.markings.CompiledMarkingView`) so long-lived walk
    registries never keep swept-over batch graphs alive; callers always hold
    the graph while walking, and owners verify ``walks.graph is graph``
    before trusting a shared cache, which a dead reference fails naturally.

    Delta maintenance: each memoised walk remembers its *traversal region*
    (the visited set of its BFS), so :meth:`apply_delta` can evict exactly
    the walks an edge edit can affect — a forward walk examines the edge
    ``(u, v)`` only when ``u`` is in its region, a backward walk only when
    ``v`` is — instead of clearing the whole cache.  A reverse index per
    direction maps every region node to the starts of the cached walks
    whose region contains it, so eviction visits only the walks it evicts,
    never the whole cache.  The first :meth:`apply_delta` builds the index
    and :meth:`forward`/:meth:`backward` maintain it from then on; a cache
    that is never patched (a one-shot protect) never pays for it.
    Node-structural deltas (and a markings view that was not carried to
    the same version first) fail the patch, telling the owner to rebuild.
    """

    __slots__ = (
        "_graph_ref",
        "markings",
        "privilege",
        "anchors",
        "graph_version",
        "_forward",
        "_backward",
        "_forward_index",
        "_backward_index",
    )

    def __init__(
        self,
        graph: PropertyGraph,
        markings: MarkingSource,
        privilege: object,
        *,
        anchors: Optional[Set[NodeId]] = None,
        compiled: bool = True,
    ) -> None:
        record_maintenance("walk_cache", "built")
        self._graph_ref = weakref.ref(graph)
        self.markings = _resolve_markings(graph, markings, privilege, compiled)
        self.privilege = privilege
        self.anchors = anchors
        #: Graph version the memoised walks describe (advanced by
        #: :meth:`apply_delta`; owners must not trust a cache whose version
        #: they cannot reconcile with the graph's).
        self.graph_version = graph.version
        self._forward: _WalkTable = {}
        self._backward: _WalkTable = {}
        #: region node -> starts of the cached walks whose region holds it;
        #: ``None`` until the first :meth:`apply_delta`.
        self._forward_index: Optional[Dict[NodeId, Set[NodeId]]] = None
        self._backward_index: Optional[Dict[NodeId, Set[NodeId]]] = None

    @property
    def graph(self) -> Optional[PropertyGraph]:
        """The walked graph, or ``None`` once it has been garbage-collected."""
        return self._graph_ref()

    def forward(self, start: NodeId) -> FrozenSet[NodeId]:
        """Memoised :func:`forward_visible_set` from ``start``."""
        cached = self._forward.get(start)
        if cached is None:
            cached = self._memoise(start, forward=True)
        return cached[0]

    def backward(self, start: NodeId) -> FrozenSet[NodeId]:
        """Memoised :func:`backward_visible_set` from ``start``."""
        cached = self._backward.get(start)
        if cached is None:
            cached = self._memoise(start, forward=False)
        return cached[0]

    def _memoise(
        self, start: NodeId, *, forward: bool
    ) -> Tuple[FrozenSet[NodeId], FrozenSet[NodeId]]:
        """Walk from ``start``, cache the walk and index its region (once indexed)."""
        if forward:
            walks, index = self._forward, self._forward_index
        else:
            walks, index = self._backward, self._backward_index
        collected, visited = _visible_walk(
            self.graph,
            self.markings,
            self.privilege,
            start,
            forward=forward,
            anchors=self.anchors,
        )
        cached = (frozenset(collected), frozenset(visited))
        walks[start] = cached
        if index is not None:
            _index_region(index, start, cached[1])
        return cached

    def cached_walk_count(self) -> int:
        """How many memoised walks the cache currently holds."""
        return len(self._forward) + len(self._backward)

    def apply_delta(self, delta: GraphDelta) -> Optional[List[EvictedWalk]]:
        """Evict only the walks ``delta`` can affect, through the region index.

        Costs O(evicted walks × their regions), independent of how many
        walks stay cached (the first call also builds the region index, in
        one pass over the cache).  Returns the evicted ``(direction,
        start)`` walks on success, in no particular order (possibly none —
        a feature edit, or an edge edit outside every cached region, evicts
        nothing), or ``None`` when the cache cannot be patched soundly and
        must be rebuilt: the delta chain does not start at this cache's version,
        the delta adds/removes *nodes* (the anchor set may change), or the
        markings view has not been carried to at least the delta's
        post-version.  (The view being *ahead* — already at the end of a
        multi-delta chain this cache is still replaying — is fine: eviction
        reads only the delta's edge endpoints, and any edge whose markings
        changed is an added/removed edge, which evicts every walk whose
        region could have read it.)
        """
        if delta.pre_version != self.graph_version:
            return None
        if delta.touches_nodes_structurally():
            return None
        if (
            isinstance(self.markings, CompiledMarkingView)
            and self.markings.graph_version < delta.post_version
        ):
            return None
        if self._forward_index is None:
            self._forward_index = _build_region_index(self._forward)
            self._backward_index = _build_region_index(self._backward)
        evicted: List[EvictedWalk] = []
        for _added, edge in delta.edge_changes():
            for start in _evict(self._forward, self._forward_index, edge.source):
                evicted.append(("forward", start))
            for start in _evict(self._backward, self._backward_index, edge.target):
                evicted.append(("backward", start))
        self.graph_version = delta.post_version
        record_maintenance("walk_cache", "delta_applied")
        return evicted


def _index_region(
    index: Dict[NodeId, Set[NodeId]], start: NodeId, region: FrozenSet[NodeId]
) -> None:
    """Record that the walk from ``start`` traversed every node of ``region``."""
    for node_id in region:
        index.setdefault(node_id, set()).add(start)


def _build_region_index(walks: _WalkTable) -> Dict[NodeId, Set[NodeId]]:
    """The region index of every cached walk of one direction."""
    index: Dict[NodeId, Set[NodeId]] = {}
    for start, (_collected, region) in walks.items():
        _index_region(index, start, region)
    return index


def _evict(
    walks: _WalkTable, index: Dict[NodeId, Set[NodeId]], node_id: NodeId
) -> Set[NodeId]:
    """Drop every cached walk whose region holds ``node_id``; returns their starts.

    Each dropped walk is also withdrawn from the index entries of its other
    region nodes, so the index never names a walk the cache no longer holds.
    """
    starts = index.pop(node_id, set())
    for start in starts:
        for other in walks.pop(start)[1]:
            if other != node_id:
                holders = index[other]
                holders.discard(start)
                if not holders:
                    del index[other]
    return starts


def surrogate_edge_candidates(
    graph: PropertyGraph,
    markings: MarkingSource,
    privilege: object,
    *,
    anchors: Optional[Set[NodeId]] = None,
    walks: Optional[VisibleWalkCache] = None,
    compiled: bool = True,
) -> Set[Tuple[NodeId, NodeId]]:
    """All (source, target) original-node pairs that should receive a surrogate edge.

    Implements the surrogate-edge portion of Algorithm 1 using the
    visible-set walks: for every edge that cannot be shown directly but is
    not hidden — its state is ``SURROGATE``, or it is ``VISIBLE`` but one of
    its endpoints has no representation (``anchors``) in the account — anchor
    sources are found backwards from the edge's source (or the source itself
    when its own incidence is ``VISIBLE`` and representable) and anchor
    targets forwards from the edge's target, then every (anchor source,
    anchor target) pair is a candidate — subject to Definition 8's
    direct-edge clause and to not duplicating an already-visible direct
    edge.

    ``walks`` lets the caller share one :class:`VisibleWalkCache` across
    this scan and other passes (the generation algorithm does); when absent
    a private cache is created so the per-edge walks are still deduplicated
    within the scan.
    """
    markings = _resolve_markings(graph, markings, privilege, compiled)
    if walks is None:
        walks = VisibleWalkCache(
            graph, markings, privilege, anchors=anchors, compiled=compiled
        )
    candidates: Set[Tuple[NodeId, NodeId]] = set()
    pending: Set[Tuple[NodeId, NodeId]] = set()
    for edge in graph.edges():
        key = edge.key
        state = markings.edge_state(key, privilege)
        if state is EdgeState.HIDDEN:
            continue
        if state is EdgeState.VISIBLE and (
            anchors is None or (key[0] in anchors and key[1] in anchors)
        ):
            # Shown directly between represented endpoints: nothing to summarise.
            continue
        source_id, target_id = key
        source_is_anchor = anchors is None or source_id in anchors
        target_is_anchor = anchors is None or target_id in anchors
        if markings.marking(source_id, key, privilege) is Marking.VISIBLE and source_is_anchor:
            sources: FrozenSet[NodeId] = frozenset((source_id,))
        else:
            sources = walks.backward(source_id)
        if markings.marking(target_id, key, privilege) is Marking.VISIBLE and target_is_anchor:
            targets: FrozenSet[NodeId] = frozenset((target_id,))
        else:
            targets = walks.forward(target_id)
        for anchor_source in sources:
            for anchor_target in targets:
                pending.add((anchor_source, anchor_target))

    # Resolve the anchor pairs.  A pair whose direct original edge is itself
    # protected may not be asserted (Definition 8, clause 2) — but the
    # connectivity it would have carried must then be re-anchored further out
    # (otherwise maximal connectivity, Definition 9.3, is violated), so the
    # blocked pair is expanded to the next anchors behind its source and
    # beyond its target and those pairs are reconsidered.
    visited: Set[Tuple[NodeId, NodeId]] = set()
    worklist = deque(pending)
    while worklist:
        pair = worklist.popleft()
        if pair in visited:
            continue
        visited.add(pair)
        anchor_source, anchor_target = pair
        if anchor_source == anchor_target:
            continue
        if not direct_edge_allows_path(graph, markings, privilege, anchor_source, anchor_target):
            for farther_source in walks.backward(anchor_source):
                worklist.append((farther_source, anchor_target))
            for farther_target in walks.forward(anchor_target):
                worklist.append((anchor_source, farther_target))
            continue
        if (
            graph.has_edge(anchor_source, anchor_target)
            and markings.edge_state((anchor_source, anchor_target), privilege)
            is EdgeState.VISIBLE
        ):
            # Already shown directly; a surrogate edge would be redundant
            # (the "shorter permitted path" clause of Appendix B).
            continue
        candidates.add(pair)
    return candidates
