"""Interactive edit sessions: mutate → re-protect → re-score, incrementally.

A cold ``protect() + score()`` of an 8k-node graph costs hundreds of
milliseconds; an interactive provenance editor that re-protects after every
edge edit cannot afford to pay that per keystroke.  :class:`EditSession`
(obtained from :meth:`ProtectionService.edit
<repro.api.service.ProtectionService.edit>`) closes that gap by maintaining
*all* derived state through the graph's typed deltas
(:mod:`repro.graph.deltas`):

* the compiled marking view is patched in place
  (:meth:`~repro.core.markings.CompiledMarkingView.apply_delta`);
* the visible-walk cache evicts only walks whose traversal region the edit
  touches (:meth:`~repro.core.permitted.VisibleWalkCache.apply_delta`);
* the protected account itself is patched: the session tracks, per original
  edge, the surrogate-candidate pairs it contributes and the walks/pairs
  each contribution depends on, so an edit recomputes only the dirty slice
  of Algorithm 1's step 3 and applies the resulting edge diff to the
  account graph in place;
* scores are maintained, not recomputed.  The session keeps the ``%P`` map
  in node order and the per-edge opacity map in graph edge order filtered
  to hidden edges — the orders a fresh report builds.  Weakly-connected
  components of both graphs are updated per edge change, and only nodes
  whose component size changed get a new ``%P`` (Path Utility).  Node
  Utility is carried over (edge edits cannot change it).  Only hidden
  edges the commit touched are scored, off the account's compiled
  adversary simulation, itself patched through the service's
  :class:`~repro.graph.deltas.DeltaBus`; when the patch moved the
  adversary's weights, every leave-one-out denominator moved with them and
  every hidden edge is rescored.

So a commit does Python work in proportion to the edit, plus one copy of
each score map for its result.  The result of every
:meth:`EditSession.commit` is byte-identical to a fresh ``protect() +
score()`` of the edited graph — the equivalence suite pins account graphs,
surrogate sets and every ScoreCard float with exact ``==``, and the key
order of both score maps.  Deltas the incremental path cannot handle
soundly (node additions/removals, feature edits that may change surrogate
choices) and policy changes, with or without a pending edit, fall back to a
full rebuild; both paths are counted in ``timings_ms`` (``delta_apply`` /
``recompile_fallback``) and in
:func:`~repro.graph.deltas.view_maintenance_stats` under ``"edit_session"``,
which also counts ``opacity_rescored`` commits.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.api.requests import ProtectionRequest
from repro.api.results import ProtectionResult, ScoreCard
from repro.core.generation import SURROGATE_EDGE_LABEL, build_protected_account
from repro.core.markings import EdgeState, Marking
from repro.core.opacity import (
    DEFAULT_ADVERSARY,
    AttackerModel,
    CompiledOpacityView,
    OpacityReport,
    opacity_report,
)
from repro.core.permitted import VisibleWalkCache, direct_edge_allows_path
from repro.core.privileges import Privilege
from repro.core.protected_account import ProtectedAccount
from repro.core.utility import UtilityReport, utility_report
from repro.exceptions import ProtectionError
from repro.graph.deltas import DeltaKind, GraphDelta, record_maintenance
from repro.graph.model import Edge, EdgeKey, NodeId, PropertyGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.service import ProtectionService

#: An ordered (source original, target original) anchor pair.
Pair = Tuple[NodeId, NodeId]

#: One memoised walk identity: ("forward" | "backward", start node).
WalkKey = Tuple[str, NodeId]

#: Primitive delta kinds the incremental account maintainer supports; any
#: other kind (node structure, feature edits — which can change surrogate
#: choices and anchor sets) routes the commit through the full-rebuild
#: fallback instead.
_SUPPORTED_KINDS = frozenset(
    {DeltaKind.ADD_EDGE, DeltaKind.REMOVE_EDGE, DeltaKind.REPLACE_EDGE}
)


class _ComponentIndex:
    """Incrementally maintained weakly-connected components of one graph.

    ``%P`` only reads component *sizes*, so the index keeps a node → component
    id map plus per-component member sets.  Edge inserts union two
    components (smaller into larger).  Edge removals search from both
    endpoints at once, always expanding the smaller frontier: if the two
    searches meet, the component is intact; if one runs out first, it holds
    exactly the side that split off.  A removal that leaves the component
    intact costs about the two balls it took to meet, and a split costs
    about the split-off side, never a sweep of the whole component.  Counts
    are exactly :func:`repro.graph.traversal.connected_pairs`'s.
    """

    __slots__ = ("graph", "comp_of", "members", "_next_id", "_unreplayed")

    def __init__(self, graph: PropertyGraph) -> None:
        self.graph = graph
        self.comp_of: Dict[NodeId, int] = {}
        self.members: Dict[int, Set[NodeId]] = {}
        self._next_id = 0
        # Removed edges a batch catch-up has not replayed yet, as undirected
        # adjacency lists (see :meth:`apply_changes`).
        self._unreplayed: Dict[NodeId, List[NodeId]] = {}
        for node_id in graph.node_ids():
            if node_id in self.comp_of:
                continue
            comp = self._next_id
            self._next_id += 1
            bucket = {node_id}
            self.comp_of[node_id] = comp
            frontier = deque([node_id])
            while frontier:
                current = frontier.popleft()
                for neighbor in graph.iter_neighbors(current):
                    if neighbor not in bucket:
                        bucket.add(neighbor)
                        self.comp_of[neighbor] = comp
                        frontier.append(neighbor)
            self.members[comp] = bucket

    def connected_count(self, node_id: NodeId) -> int:
        """Number of other nodes weakly connected to ``node_id``."""
        return len(self.members[self.comp_of[node_id]]) - 1

    def add_edge(self, source: NodeId, target: NodeId) -> Set[NodeId]:
        """Union the endpoints' components (smaller side relabelled).

        Returns the nodes whose component size changed: the merged
        component, or nothing when the endpoints were already connected.
        """
        comp_source = self.comp_of[source]
        comp_target = self.comp_of[target]
        if comp_source == comp_target:
            return set()
        if len(self.members[comp_source]) < len(self.members[comp_target]):
            comp_source, comp_target = comp_target, comp_source
        small = self.members.pop(comp_target)
        for node_id in small:
            self.comp_of[node_id] = comp_source
        merged = self.members[comp_source]
        merged |= small
        return set(merged)

    def remove_edge(self, source: NodeId, target: NodeId) -> Set[NodeId]:
        """Split the component if (and only if) the removal disconnects it.

        Must be called *after* the graph mutation.  Returns the nodes whose
        component size changed: both sides of a split, or nothing.
        """
        graph = self.graph
        unreplayed = self._unreplayed
        if (
            graph.has_edge(source, target)
            or graph.has_edge(target, source)
            or target in unreplayed.get(source, ())
        ):
            return set()  # the pair is still directly linked
        near, far = [source], [target]
        near_seen, far_seen = {source}, {target}
        while True:
            if len(near) > len(far):
                near, far = far, near
                near_seen, far_seen = far_seen, near_seen
            layer: List[NodeId] = []
            for current in near:
                for neighbor in chain(
                    graph.iter_neighbors(current), unreplayed.get(current, ())
                ):
                    if neighbor in far_seen:
                        return set()  # still connected without the removed edge
                    if neighbor not in near_seen:
                        near_seen.add(neighbor)
                        layer.append(neighbor)
            if not layer:
                break  # near_seen is a whole component of the edited graph
            near = layer
        old_comp = self.comp_of[source]
        remainder = self.members[old_comp]
        remainder -= near_seen
        new_comp = self._next_id
        self._next_id += 1
        for node_id in near_seen:
            self.comp_of[node_id] = new_comp
        self.members[new_comp] = near_seen
        return near_seen | remainder

    def apply_changes(self, changes: List[Tuple[bool, Edge]]) -> Set[NodeId]:
        """Catch up with a batch of edge changes already applied to the graph.

        Inserts are unioned first.  Removals are then replayed one at a
        time against the edited graph *plus* the removed edges not yet
        replayed, so each replay is a single-edge deletion and its split
        check is exact — even when several removals in one batch cut the
        same component.  Returns the nodes whose component size changed.
        """
        moved: Set[NodeId] = set()
        removed = [edge.key for added, edge in changes if not added]
        for added, edge in changes:
            if added:
                moved |= self.add_edge(edge.source, edge.target)
        unreplayed = self._unreplayed
        for source, target in removed:
            unreplayed.setdefault(source, []).append(target)
            unreplayed.setdefault(target, []).append(source)
        for source, target in removed:
            unreplayed[source].remove(target)
            unreplayed[target].remove(source)
            moved |= self.remove_edge(source, target)
        unreplayed.clear()
        return moved


class EditSession:
    """One consumer class, one live account, many cheap edit → score rounds.

    Create through :meth:`ProtectionService.edit
    <repro.api.service.ProtectionService.edit>`.  Mutate the graph — via the
    session's proxies (:meth:`add_edge`, :meth:`remove_edge`, ...) or
    directly on the graph object — then call :meth:`commit` to obtain a
    :class:`~repro.api.results.ProtectionResult` for the edited graph.  The
    session may also be used as a context manager; leaving the block commits
    any uncommitted edits and closes the session.

    The session owns its account (it is *never* shared with the service's
    account cache — cached results must stay immutable) and keeps it
    byte-identical to what a fresh ``protect()`` of the current graph would
    build.  Only the ``"surrogate"`` strategy with a single privilege is
    supported: that is the paper's standard account shape and the one with
    an O(V + E) rebuild worth avoiding.
    """

    def __init__(
        self,
        service: "ProtectionService",
        privilege: object,
        *,
        adversary: Optional[AttackerModel] = None,
        normalize_focus: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if service.graph is None:
            raise ProtectionError("EditSession needs a service with a bound graph")
        self._service = service
        self._graph: PropertyGraph = service.graph
        self._privilege: Privilege = service.policy.lattice.get(privilege)
        effective = adversary if adversary is not None else service.adversary
        self._adversary: AttackerModel = (
            effective if effective is not None else DEFAULT_ADVERSARY
        )
        self._normalize_focus = normalize_focus
        self._name = name
        self._pending: List[GraphDelta] = []
        self._closed = False
        self._account_bus: Optional[Tuple[PropertyGraph, int]] = None
        self.result: ProtectionResult = None  # type: ignore[assignment]
        self._graph.enable_delta_log()
        self._subscription = self._graph.subscribe(self._on_delta)
        with service._generation_lock:
            self._rebuild(timings={"setup": 0.0})

    # ------------------------------------------------------------------ #
    # public surface
    # ------------------------------------------------------------------ #
    @property
    def account(self) -> ProtectedAccount:
        """The session's live protected account (updated by :meth:`commit`)."""
        return self.result.account

    def add_edge(self, source: NodeId, target: NodeId, **kwargs: object) -> Edge:
        """Proxy for :meth:`PropertyGraph.add_edge` on the session's graph."""
        return self._graph.add_edge(source, target, **kwargs)  # type: ignore[arg-type]

    def remove_edge(self, source: NodeId, target: NodeId) -> Edge:
        """Proxy for :meth:`PropertyGraph.remove_edge`."""
        return self._graph.remove_edge(source, target)

    def add_bidirectional_edge(
        self, left: NodeId, right: NodeId, **kwargs: object
    ) -> Tuple[Edge, Edge]:
        """Proxy for :meth:`PropertyGraph.add_bidirectional_edge` (one delta)."""
        return self._graph.add_bidirectional_edge(left, right, **kwargs)  # type: ignore[arg-type]

    def add_node(self, node_id: NodeId, **kwargs: object):
        """Proxy for :meth:`PropertyGraph.add_node` (commits via fallback)."""
        return self._graph.add_node(node_id, **kwargs)  # type: ignore[arg-type]

    def remove_node(self, node_id: NodeId):
        """Proxy for :meth:`PropertyGraph.remove_node` (commits via fallback)."""
        return self._graph.remove_node(node_id)

    def set_node_features(self, node_id: NodeId, features) -> object:
        """Proxy for :meth:`PropertyGraph.set_node_features` (fallback path)."""
        return self._graph.set_node_features(node_id, features)

    def commit(self) -> ProtectionResult:
        """Re-protect and re-score after the edits since the last commit.

        Edge-level edits take the delta path: every compiled structure is
        patched in O(affected) and the returned result's ``timings_ms``
        carries the cost under ``delta_apply``.  Anything the delta path
        cannot handle soundly rebuilds the session from scratch
        (``recompile_fallback``).  With no pending edits and no policy change
        the previous result is returned unchanged.
        """
        if self._closed:
            raise ProtectionError("this EditSession is closed")
        with self._service._generation_lock:
            deltas = self._pending
            self._pending = []
            if not deltas and self._policy_token() == self._policy_base:
                return self.result
            timings: Dict[str, float] = {}
            start = time.perf_counter()
            changes = None
            if self._can_patch(deltas):
                try:
                    changes = self._apply_incremental(deltas)
                except Exception:
                    # A failed patch must degrade to the (always-sound) full
                    # rebuild, never take the session down: partially
                    # patched index state is irrelevant because _rebuild
                    # reconstructs everything from the live graph.
                    changes = None
                    record_maintenance("edit_session", "patch_error")
            if changes is not None:
                timings["delta_apply"] = (time.perf_counter() - start) * 1000.0
                timings["recompile_fallback"] = 0.0
                record_maintenance("edit_session", "delta_applied")
                scores = self._score(self.result.account, *changes)
            else:
                self._rebuild(timings)
                timings["delta_apply"] = 0.0
                timings["recompile_fallback"] = (time.perf_counter() - start) * 1000.0
                record_maintenance("edit_session", "recompile_fallback")
                scores = self.result.scores
            timings["total"] = (time.perf_counter() - start) * 1000.0
            if scores is not None:
                timings.update(scores.timings_ms)
            self.result = ProtectionResult(
                request=self.result.request,
                account=self.result.account,
                scores=scores,
                timings_ms=timings,
                stored_as=None,
            )
            return self.result

    def close(self) -> None:
        """Stop observing the graph (idempotent; the last result survives)."""
        if self._closed:
            return
        self._closed = True
        self._graph.unsubscribe(self._subscription)
        self._detach_account_bus()

    def __enter__(self) -> "EditSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self._pending:
            self.commit()
        self.close()

    # ------------------------------------------------------------------ #
    # delta intake
    # ------------------------------------------------------------------ #
    def _on_delta(self, graph: PropertyGraph, delta: GraphDelta) -> None:
        self._pending.append(delta)

    def _policy_token(self) -> Tuple[int, int, int, bool]:
        policy = self._service.policy
        return (
            policy.markings.version,
            policy.surrogates.version,
            policy.lattice.version,
            policy.use_null_surrogates,
        )

    def _can_patch(self, deltas: List[GraphDelta]) -> bool:
        if self._policy_token() != self._policy_base:
            return False
        return all(
            primitive.kind in _SUPPORTED_KINDS
            for delta in deltas
            for primitive in delta.flatten()
        )

    # ------------------------------------------------------------------ #
    # full rebuild (setup + fallback)
    # ------------------------------------------------------------------ #
    def _rebuild(self, timings: Dict[str, float]) -> None:
        """(Re)build every piece of session state from the current graph."""
        service = self._service
        graph = self._graph
        policy = service.policy
        privilege = self._privilege
        self._policy_base = self._policy_token()
        self._view = policy.markings.compile(graph, privilege)
        registry = service._walks_registry(graph)
        account = build_protected_account(
            graph, policy, privilege, name=self._name, walks_cache=registry
        )
        walks = registry.get((privilege.name, policy.markings.version, True))
        if (
            walks is None
            or walks.graph is not graph
            or walks.graph_version != graph.version
        ):  # pragma: no cover - defensive; build just validated the entry
            raise ProtectionError("internal: walk registry out of step after build")
        self._walks: VisibleWalkCache = walks
        self._to_account: Dict[NodeId, NodeId] = {
            original: account_node
            for account_node, original in account.correspondence.items()
        }
        self._anchors: Set[NodeId] = set(self._to_account)

        view = self._view
        self._visible: Dict[EdgeKey, Edge] = {
            edge.key: edge
            for edge in graph.edges()
            if view.edge_state_table[edge.key] is EdgeState.VISIBLE
            and edge.source in self._to_account
            and edge.target in self._to_account
        }

        # The incremental index over Algorithm 1's surrogate-edge step.
        self._pending_by_edge: Dict[EdgeKey, FrozenSet[Pair]] = {}
        self._edge_deps: Dict[EdgeKey, Tuple[WalkKey, ...]] = {}
        self._walk_edge_dependents: Dict[WalkKey, Set[EdgeKey]] = {}
        self._pending_counts: Counter = Counter()
        self._resolutions: Dict[
            Pair, Tuple[FrozenSet[Pair], FrozenSet[Pair], FrozenSet[WalkKey]]
        ] = {}
        self._pair_dependents: Dict[Pair, Set[Pair]] = {}
        self._walk_resolution_dependents: Dict[WalkKey, Set[Pair]] = {}
        self._candidate_counts: Counter = Counter()
        for key in graph.edge_keys():
            self._index_edge(key)
        for pair in list(self._pending_counts):
            self._index_pair(pair)
        self._surrogate_pairs: Set[Pair] = {
            pair for pair in self._candidate_counts if pair not in self._visible
        }

        # The index must agree with the account the reference builder just
        # produced — this is the cheap structural self-check that keeps the
        # incremental path honest at runtime, not only in the test suite.
        account_pairs = {
            (account.original_of(a), account.original_of(b))
            for (a, b) in account.surrogate_edges
        }
        if account_pairs != self._surrogate_pairs:  # pragma: no cover - invariant
            raise ProtectionError(
                "internal: incremental candidate index disagrees with the built account"
            )

        # Score state.
        self._orig_comps = _ComponentIndex(graph)
        self._acc_comps = _ComponentIndex(account.graph)
        utility = utility_report(graph, account)
        self._node_utility = utility.node_utility

        self._detach_account_bus()
        account.graph.enable_delta_log()
        # Subscribe only the opacity-view cache to the account graph: it is
        # the one maintainer with state keyed to this graph (the compiled
        # adversary simulation, patched + re-keyed per account-edge diff).
        # The full service bus would also fan account mutations out to
        # AccountCache.on_delta, whose O(entries) scan can never match an
        # account graph.
        self._account_bus = (
            account.graph,
            account.graph.subscribe(service._opacity_views.on_delta),
        )
        opacity, score_timings = self._score_opacity(account, None, None)
        # The maintained score maps: %P in node order and per-edge opacity
        # in graph edge order filtered to hidden edges — the orders a fresh
        # report builds, which its float averages depend on.
        self._percentages: Dict[NodeId, float] = dict(utility.path_percentages)
        self._per_edge: Dict[EdgeKey, float] = dict(opacity.per_edge)
        self._opacity_view: Optional[CompiledOpacityView] = opacity.view
        request = ProtectionRequest(privileges=(privilege,), name=self._name)
        self.result = ProtectionResult(
            request=request,
            account=account,
            scores=ScoreCard(utility=utility, opacity=opacity, timings_ms=score_timings),
            timings_ms=timings,
            stored_as=None,
        )

    def _detach_account_bus(self) -> None:
        if self._account_bus is not None:
            graph, token = self._account_bus
            graph.unsubscribe(token)
            self._account_bus = None

    # ------------------------------------------------------------------ #
    # the incremental path
    # ------------------------------------------------------------------ #
    def _apply_incremental(
        self, deltas: List[GraphDelta]
    ) -> Optional[Tuple[Set[NodeId], Set[EdgeKey]]]:
        """Patch every derived structure through ``deltas``; None → fallback.

        Returns what :meth:`_score` must refresh: the original nodes whose
        ``%P`` may have moved and the hidden edges to (re)score.
        """
        graph = self._graph
        policy = self._service.policy
        view = policy.markings.compile(graph, self._privilege)
        if view is not self._view or view.graph_version != graph.version:
            return None  # the policy's LRU replaced the view: start over
        evicted: List[WalkKey] = []
        for delta in deltas:
            result = self._walks.apply_delta(delta)
            if result is None:
                return None
            evicted.extend(result)

        edited: List[Tuple[bool, Edge]] = [
            change for delta in deltas for change in delta.edge_changes()
        ]
        edited_keys = {edge.key for _added, edge in edited}

        # --- step 3 maintenance: recompute only the dirty slice ---------- #
        dirty_edges = set(edited_keys)
        for walk_key in evicted:
            dependents = self._walk_edge_dependents.get(walk_key)
            if dependents:
                dirty_edges |= dependents
        dead_pairs: Set[Pair] = set()
        new_pairs: Set[Pair] = set()
        for key in dirty_edges:
            dead_pairs.update(self._unindex_edge(key))
        for key in dirty_edges:
            if graph.has_edge(*key):
                new_pairs.update(self._index_edge(key))
        dead_pairs = {pair for pair in dead_pairs if pair not in self._pending_counts}

        dirty_roots: Set[Pair] = set()
        for key in edited_keys:
            dependents = self._pair_dependents.get(key)
            if dependents:
                dirty_roots |= dependents
        for walk_key in evicted:
            dependents = self._walk_resolution_dependents.get(walk_key)
            if dependents:
                dirty_roots |= dependents
        dirty_roots = {
            pair
            for pair in dirty_roots
            if pair in self._resolutions and pair not in dead_pairs
        }

        candidate_changes: Set[Pair] = set()
        for pair in dead_pairs | dirty_roots:
            if pair in self._resolutions:
                candidate_changes.update(self._unindex_pair(pair))
        for pair in dirty_roots | {p for p in new_pairs if p not in self._resolutions}:
            candidate_changes.update(self._index_pair(pair))

        # --- visible-edge reconciliation --------------------------------- #
        to_account = self._to_account
        vis_removed: List[EdgeKey] = []
        vis_added: List[Edge] = []
        vis_replaced: List[Edge] = []
        for key in edited_keys:
            old = self._visible.get(key)
            now = (
                graph.edge(*key)
                if graph.has_edge(*key)
                and view.edge_state_table.get(key) is EdgeState.VISIBLE
                and key[0] in to_account
                and key[1] in to_account
                else None
            )
            if old is not None and now is None:
                del self._visible[key]
                vis_removed.append(key)
            elif old is None and now is not None:
                self._visible[key] = now
                vis_added.append(now)
            elif (
                old is not None
                and now is not None
                and (old.label != now.label or old.features != now.features)
            ):
                self._visible[key] = now
                vis_replaced.append(now)

        # --- surrogate-edge reconciliation ------------------------------- #
        changed_pairs = set(candidate_changes)
        changed_pairs.update(vis_removed)
        changed_pairs.update(edge.key for edge in vis_added)
        surr_add: List[Pair] = []
        surr_remove: List[Pair] = []
        for pair in changed_pairs:
            should = pair in self._candidate_counts and pair not in self._visible
            has = pair in self._surrogate_pairs
            if should and not has:
                self._surrogate_pairs.add(pair)
                surr_add.append(pair)
            elif not should and has:
                self._surrogate_pairs.discard(pair)
                surr_remove.append(pair)

        # --- apply the account-graph diff (removals before additions) ---- #
        # One batch: the whole diff commits as a single composite delta, so
        # the opacity-view cache clones and patches its simulation once per
        # commit instead of once per account edge.
        account = self.result.account
        account_graph = account.graph
        with account_graph.batch():
            account_moved = self._apply_account_diff(
                account, surr_remove, vis_removed, vis_added, vis_replaced, surr_add
            )

        # --- score state ------------------------------------------------ #
        moved = self._orig_comps.apply_changes(edited)
        correspondence = account.correspondence
        moved.update(correspondence[node_id] for node_id in account_moved)
        return moved, self._update_hidden(
            edited_keys.union(surr_add, surr_remove), deltas
        )

    def _update_hidden(
        self, touched: Set[EdgeKey], deltas: List[GraphDelta]
    ) -> Set[EdgeKey]:
        """Bring the hidden-edge map's keys and order up to date.

        ``touched`` holds every original key whose shown/hidden status may
        have changed.  Hidden keys that left the graph or became shown are
        popped.  Keys the commit (re)inserted now close the graph's edge
        order, in the order of their last insert, so hidden ones move to the
        end in that order.  A persisting edge that turned hidden — the one
        case that lands mid-order — rebuilds the order from the graph.
        Returns the touched keys that are hidden now: the edges to rescore,
        each already holding a placeholder at its position.
        """
        graph = self._graph
        visible = self._visible
        surrogate_pairs = self._surrogate_pairs
        per_edge = self._per_edge
        hidden = {
            key
            for key in touched
            if graph.has_edge(*key)
            and key not in visible
            and key not in surrogate_pairs
        }
        for key in touched - hidden:
            per_edge.pop(key, None)
        appended: Dict[EdgeKey, None] = {}
        for delta in deltas:
            for primitive in delta.flatten():
                if primitive.kind is DeltaKind.ADD_EDGE:
                    appended.pop(primitive.edge.key, None)
                    appended[primitive.edge.key] = None
        for key in appended:
            if key in hidden:
                per_edge.pop(key, None)
                per_edge[key] = 1.0
        if any(key not in per_edge for key in hidden):
            self._per_edge = {
                key: per_edge.get(key, 1.0)
                for key in graph.edge_keys()
                if key in per_edge or key in hidden
            }
        return hidden

    def _apply_account_diff(
        self,
        account: ProtectedAccount,
        surr_remove: List[Pair],
        vis_removed: List[EdgeKey],
        vis_added: List[Edge],
        vis_replaced: List[Edge],
        surr_add: List[Pair],
    ) -> Set[NodeId]:
        """Apply one commit's edge diff to the account graph in place.

        Returns the account nodes whose component size changed.
        """
        to_account = self._to_account
        account_graph = account.graph
        acc_comps = self._acc_comps
        moved: Set[NodeId] = set()
        for pair in surr_remove:
            account_key = (to_account[pair[0]], to_account[pair[1]])
            account_graph.remove_edge(*account_key)
            account.surrogate_edges.discard(account_key)
            moved |= acc_comps.remove_edge(*account_key)
        for key in vis_removed:
            account_key = (to_account[key[0]], to_account[key[1]])
            account_graph.remove_edge(*account_key)
            moved |= acc_comps.remove_edge(*account_key)
        for edge in vis_added:
            account_key = (to_account[edge.source], to_account[edge.target])
            account_graph.add_edge(
                account_key[0],
                account_key[1],
                label=edge.label,
                features=dict(edge.features),
            )
            moved |= acc_comps.add_edge(*account_key)
        for edge in vis_replaced:
            account_key = (to_account[edge.source], to_account[edge.target])
            account_graph.add_edge(
                account_key[0],
                account_key[1],
                label=edge.label,
                features=dict(edge.features),
                replace=True,
            )
        for pair in surr_add:
            account_key = (to_account[pair[0]], to_account[pair[1]])
            account_graph.add_edge(
                account_key[0], account_key[1], label=SURROGATE_EDGE_LABEL
            )
            account.surrogate_edges.add(account_key)
            moved |= acc_comps.add_edge(*account_key)
        return moved

    # ------------------------------------------------------------------ #
    # the per-edge / per-pair index
    # ------------------------------------------------------------------ #
    def _pending_for_edge(
        self, key: EdgeKey
    ) -> Tuple[FrozenSet[Pair], Tuple[WalkKey, ...]]:
        """One edge's anchor-pair contributions + the walks they depend on.

        Mirrors the per-edge block of
        :func:`repro.core.permitted.surrogate_edge_candidates` exactly.
        """
        view = self._view
        state = view.edge_state_table.get(key)
        if state is None or state is EdgeState.HIDDEN:
            return frozenset(), ()
        source, target = key
        anchors = self._anchors
        source_is_anchor = source in anchors
        target_is_anchor = target in anchors
        if state is EdgeState.VISIBLE and source_is_anchor and target_is_anchor:
            return frozenset(), ()
        deps: List[WalkKey] = []
        if view.marking(source, key) is Marking.VISIBLE and source_is_anchor:
            sources: Tuple[NodeId, ...] = (source,)
        else:
            sources = tuple(self._walks.backward(source))
            deps.append(("backward", source))
        if view.marking(target, key) is Marking.VISIBLE and target_is_anchor:
            targets: Tuple[NodeId, ...] = (target,)
        else:
            targets = tuple(self._walks.forward(target))
            deps.append(("forward", target))
        pairs = frozenset(
            (anchor_source, anchor_target)
            for anchor_source in sources
            for anchor_target in targets
        )
        return pairs, tuple(deps)

    def _resolve_pair(
        self, root: Pair
    ) -> Tuple[FrozenSet[Pair], FrozenSet[Pair], FrozenSet[WalkKey]]:
        """The candidate closure of one pending pair, with its dependencies.

        Mirrors the worklist of
        :func:`~repro.core.permitted.surrogate_edge_candidates`, run for a
        single root: blocked pairs (sensitive direct edge) expand outwards
        through the walks.  The union of closures over all pending pairs
        equals the global scan's result — per-root ``visited`` memoisation
        only dedupes work, it never changes the union.  ``visited`` doubles
        as the dependency set: every pair the closure *queried* (existence /
        state of its direct edge), so an edit of edge ``(u, v)`` dirties
        exactly the roots whose closure visited ``(u, v)``.
        """
        graph = self._graph
        view = self._view
        walks = self._walks
        privilege = self._privilege
        visited: Set[Pair] = set()
        candidates: Set[Pair] = set()
        walk_deps: Set[WalkKey] = set()
        work: deque = deque([root])
        while work:
            pair = work.popleft()
            if pair in visited:
                continue
            visited.add(pair)
            anchor_source, anchor_target = pair
            if anchor_source == anchor_target:
                continue
            if not direct_edge_allows_path(
                graph, view, privilege, anchor_source, anchor_target
            ):
                walk_deps.add(("backward", anchor_source))
                walk_deps.add(("forward", anchor_target))
                for farther_source in walks.backward(anchor_source):
                    work.append((farther_source, anchor_target))
                for farther_target in walks.forward(anchor_target):
                    work.append((anchor_source, farther_target))
                continue
            if (
                graph.has_edge(anchor_source, anchor_target)
                and view.edge_state((anchor_source, anchor_target))
                is EdgeState.VISIBLE
            ):
                continue
            candidates.add(pair)
        return frozenset(candidates), frozenset(visited), frozenset(walk_deps)

    def _index_edge(self, key: EdgeKey) -> List[Pair]:
        """Index one edge's pending contribution; returns pairs born alive."""
        pairs, deps = self._pending_for_edge(key)
        self._pending_by_edge[key] = pairs
        self._edge_deps[key] = deps
        for dep in deps:
            self._walk_edge_dependents.setdefault(dep, set()).add(key)
        born: List[Pair] = []
        counts = self._pending_counts
        for pair in pairs:
            counts[pair] += 1
            if counts[pair] == 1:
                born.append(pair)
        return born

    def _unindex_edge(self, key: EdgeKey) -> List[Pair]:
        """Withdraw one edge's contribution; returns pairs that lost support."""
        pairs = self._pending_by_edge.pop(key, frozenset())
        for dep in self._edge_deps.pop(key, ()):
            dependents = self._walk_edge_dependents.get(dep)
            if dependents is not None:
                dependents.discard(key)
                if not dependents:
                    del self._walk_edge_dependents[dep]
        dead: List[Pair] = []
        counts = self._pending_counts
        for pair in pairs:
            counts[pair] -= 1
            if not counts[pair]:
                del counts[pair]
                dead.append(pair)
        return dead

    def _index_pair(self, pair: Pair) -> List[Pair]:
        """Resolve one pending pair; returns candidates born alive."""
        resolution = self._resolve_pair(pair)
        self._resolutions[pair] = resolution
        candidates, visited, walk_deps = resolution
        for visited_pair in visited:
            self._pair_dependents.setdefault(visited_pair, set()).add(pair)
        for walk_key in walk_deps:
            self._walk_resolution_dependents.setdefault(walk_key, set()).add(pair)
        born: List[Pair] = []
        counts = self._candidate_counts
        for candidate in candidates:
            counts[candidate] += 1
            if counts[candidate] == 1:
                born.append(candidate)
        return born

    def _unindex_pair(self, pair: Pair) -> List[Pair]:
        """Withdraw one pending pair's closure; returns candidates that died."""
        candidates, visited, walk_deps = self._resolutions.pop(pair)
        for visited_pair in visited:
            dependents = self._pair_dependents.get(visited_pair)
            if dependents is not None:
                dependents.discard(pair)
                if not dependents:
                    del self._pair_dependents[visited_pair]
        for walk_key in walk_deps:
            dependents = self._walk_resolution_dependents.get(walk_key)
            if dependents is not None:
                dependents.discard(pair)
                if not dependents:
                    del self._walk_resolution_dependents[walk_key]
        dead: List[Pair] = []
        counts = self._candidate_counts
        for candidate in candidates:
            counts[candidate] -= 1
            if not counts[candidate]:
                del counts[candidate]
                dead.append(candidate)
        return dead

    # ------------------------------------------------------------------ #
    # scoring off maintained state
    # ------------------------------------------------------------------ #
    def _score(
        self,
        account: ProtectedAccount,
        moved: Set[NodeId],
        dirty: Set[EdgeKey],
    ) -> ScoreCard:
        """The ScoreCard of the maintained account, float-exact vs a fresh one.

        Path Utility: only the nodes whose component size changed, in
        either graph, get their ``%P`` recomputed, with the same integer
        ratios as :func:`~repro.core.utility.path_percentages`; the map
        stays in node order, so its average sums in the same order as a
        fresh report's.  Node Utility cannot change under edge edits and is
        carried over.  Opacity: see :meth:`_score_opacity`.  Each result
        gets its own copy of both maps.
        """
        to_account = self._to_account
        orig_comps = self._orig_comps
        acc_comps = self._acc_comps
        percentages = self._percentages
        for node_id in moved:
            account_node = to_account.get(node_id)
            if account_node is None:
                continue  # unrepresented: %P stays 0
            original_connected = orig_comps.connected_count(node_id)
            percentages[node_id] = (
                acc_comps.connected_count(account_node) / original_connected
                if original_connected
                else 1.0
            )
        path_percentages = dict(percentages)
        node_count = self._graph.node_count()
        utility = UtilityReport(
            path_utility=(
                sum(path_percentages.values()) / node_count if node_count else 1.0
            ),
            node_utility=self._node_utility,
            path_percentages=path_percentages,
        )
        report, timings_ms = self._score_opacity(account, dirty, self._opacity_view)
        self._per_edge.update(report.per_edge)
        self._opacity_view = report.view
        per_edge = dict(self._per_edge)
        opacity = OpacityReport(
            average=sum(per_edge.values()) / len(per_edge) if per_edge else 1.0,
            per_edge=per_edge,
            view=report.view,
        )
        return ScoreCard(utility=utility, opacity=opacity, timings_ms=timings_ms)

    def _score_opacity(
        self,
        account: ProtectedAccount,
        edges: Optional[Iterable[EdgeKey]],
        view: Optional[CompiledOpacityView],
    ) -> Tuple[OpacityReport, Dict[str, float]]:
        """Score ``edges`` (``None``: every hidden edge) off the service's view cache.

        ``view`` is the simulation the carried per-edge values were read
        off.  When the account changed since, the patched simulation is
        fetched and its weight maps compared with ``view``'s: equal maps
        leave every carried value exact, so only ``edges`` are scored;
        different maps move every leave-one-out denominator, so every
        hidden edge is rescored (counted as ``opacity_rescored`` under
        ``"edit_session"``).  The comparison also covers adversaries that
        are not delta-local and ``normalize_focus``.  Returns the report
        plus its ``opacity_compile`` / ``opacity_score`` split in ms.
        """
        timings_ms = {"opacity_compile": 0.0}

        def view_factory() -> CompiledOpacityView:
            start = time.perf_counter()
            current = self._service._opacity_views.get_or_compile(
                account.graph, self._adversary
            )
            timings_ms["opacity_compile"] += (time.perf_counter() - start) * 1000.0
            return current

        start = time.perf_counter()
        if view is not None and not view.is_current_for(account.graph, self._adversary):
            current = view_factory()
            if (
                current.focus_weights != view.focus_weights
                or current.inference_weights != view.inference_weights
            ):
                edges = list(self._per_edge)
                record_maintenance("edit_session", "opacity_rescored")
            view = current
        report = opacity_report(
            self._graph,
            account,
            edges,
            adversary=self._adversary,
            normalize_focus=self._normalize_focus,
            view=view,
            view_factory=view_factory,
        )
        timings_ms["opacity_score"] = (
            (time.perf_counter() - start) * 1000.0 - timings_ms["opacity_compile"]
        )
        return report, timings_ms


# ---------------------------------------------------------------------- #
# the JSON edit-script wire format (shared by the CLI and the HTTP server)
# ---------------------------------------------------------------------- #
#: Edit-script op -> (EditSession method, required JSON fields).  One entry
#: is one mutation: ``{"op": "add_edge", "source": ..., "target": ...}``.
SCRIPT_OPS = {
    "add_edge": ("add_edge", ("source", "target")),
    "remove_edge": ("remove_edge", ("source", "target")),
    "add_bidirectional_edge": ("add_bidirectional_edge", ("source", "target")),
    "add_node": ("add_node", ("node",)),
    "remove_node": ("remove_node", ("node",)),
    "set_node_features": ("set_node_features", ("node", "features")),
}


def apply_script_edit(session: "EditSession", entry: dict) -> None:
    """Apply one edit-script entry to a session (raises ``ValueError`` on a bad entry).

    This is the one decoder for the JSON edit wire format: the CLI ``edit``
    subcommand and the server's ``/v1/sessions`` endpoint both replay
    scripts through it, so an edit that works from a file works over HTTP.
    """
    if not isinstance(entry, dict) or "op" not in entry:
        raise ValueError(f"each edit must be an object with an 'op', got {entry!r}")
    op = entry["op"]
    if op not in SCRIPT_OPS:
        raise ValueError(f"unknown edit op {op!r}; expected one of {sorted(SCRIPT_OPS)}")
    method, required = SCRIPT_OPS[op]
    missing = [name for name in required if name not in entry]
    if missing:
        raise ValueError(f"edit op {op!r} is missing fields {missing}")
    if op in ("add_edge", "add_bidirectional_edge"):
        getattr(session, method)(
            entry["source"],
            entry["target"],
            label=entry.get("label"),
            features=entry.get("features"),
            create_nodes=bool(entry.get("create_nodes", False)),
        )
    elif op == "remove_edge":
        session.remove_edge(entry["source"], entry["target"])
    elif op == "add_node":
        session.add_node(
            entry["node"], kind=entry.get("kind"), features=entry.get("features")
        )
    elif op == "remove_node":
        session.remove_node(entry["node"])
    else:
        session.set_node_features(entry["node"], dict(entry["features"]))
