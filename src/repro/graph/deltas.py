"""Typed graph mutation events and the fan-out bus caches subscribe to.

Every mutator of :class:`~repro.graph.model.PropertyGraph` describes itself
as a :class:`GraphDelta` — *which* node or edge changed, the pre/post values,
and the graph version the change took the graph from and to.  Deltas are the
contract the incremental-maintenance layer is built on:

* compiled views (:class:`~repro.core.markings.CompiledMarkingView`,
  :class:`~repro.core.opacity.CompiledOpacityView`) patch themselves in
  O(affected) via their ``apply_delta`` methods instead of recompiling O(V)
  state on every version bump;
* :class:`~repro.core.permitted.VisibleWalkCache` evicts only the walks
  whose traversal region a delta can intersect;
* serving caches (:class:`~repro.api.cache.AccountCache`,
  :class:`~repro.core.opacity.OpacityViewCache`) subscribe through a shared
  :class:`DeltaBus` and perform delta-scoped eviction / re-keying.

Delta emission is *opt-in* per graph: until someone subscribes or enables
the delta log, mutators skip event construction entirely, so throwaway
graphs (protected-account graphs built once and never edited, workload
generators, ``copy()`` targets) pay nothing.  Call
:meth:`~repro.graph.model.PropertyGraph.enable_delta_log` — or let a
:class:`DeltaBus` attach — to start recording.  Note that a
:class:`~repro.api.service.ProtectionService` attaches every graph it
serves (bound or per-request), so served graphs are tracked from first use
on; that is the price of delta-scoped cache invalidation and it is
deliberate.

Maintenance accounting
----------------------
Every maintainer records which path served it — a delta patch or a full
recompile — in a process-wide counter table read through
:func:`view_maintenance_stats`.  Benchmarks and tests use it to prove the
delta path actually ran (and the differential suite uses it to prove the
fallback ran where it must).
"""

from __future__ import annotations

import enum
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.graph.model import Edge, Node, PropertyGraph


class DeltaKind(enum.Enum):
    """What one :class:`GraphDelta` did to the graph."""

    ADD_NODE = "add_node"
    REPLACE_NODE = "replace_node"
    REMOVE_NODE = "remove_node"
    SET_NODE_FEATURES = "set_node_features"
    ADD_EDGE = "add_edge"
    REPLACE_EDGE = "replace_edge"
    REMOVE_EDGE = "remove_edge"
    BATCH = "batch"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class GraphDelta:
    """One typed mutation event, with pre/post graph versions.

    Attributes
    ----------
    kind:
        The :class:`DeltaKind` of the mutation.
    pre_version / post_version:
        The graph's version counter immediately before and after the
        mutation.  Top-level deltas form a contiguous chain (``post`` of one
        equals ``pre`` of the next), which is what lets a stale view decide
        whether a sequence of deltas can carry it to the present.  Sub-deltas
        inside a :attr:`DeltaKind.BATCH` carry the batch's ``pre_version``
        in both fields — the batch commits as one version bump.
    node / old_node:
        Post- and pre-state :class:`~repro.graph.model.Node` values for
        node-level kinds (``old_node`` is the removed/replaced node).
    edge / old_edge:
        Post- and pre-state :class:`~repro.graph.model.Edge` values for
        edge-level kinds.
    removed_edges:
        For ``REMOVE_NODE``: every incident edge dropped with the node, in
        removal order (out-edges first).
    deltas:
        For ``BATCH``: the coalesced sub-deltas, in application order.
    """

    kind: DeltaKind
    pre_version: int
    post_version: int
    node: Optional["Node"] = None
    old_node: Optional["Node"] = None
    edge: Optional["Edge"] = None
    old_edge: Optional["Edge"] = None
    removed_edges: Tuple["Edge", ...] = ()
    deltas: Tuple["GraphDelta", ...] = field(default=())

    def flatten(self) -> Iterator["GraphDelta"]:
        """This delta's primitive events, recursing through batches."""
        if self.kind is DeltaKind.BATCH:
            for sub in self.deltas:
                yield from sub.flatten()
        else:
            yield self

    def edge_changes(self) -> Iterator[Tuple[bool, "Edge"]]:
        """Every ``(added, edge)`` structural edge change, batches flattened.

        ``REPLACE_EDGE`` yields a removal of the old edge followed by an
        addition of the new one; ``REMOVE_NODE`` yields one removal per
        dropped incident edge.  Node-only deltas yield nothing.
        """
        for delta in self.flatten():
            if delta.kind is DeltaKind.ADD_EDGE:
                yield True, delta.edge
            elif delta.kind is DeltaKind.REMOVE_EDGE:
                yield False, delta.old_edge
            elif delta.kind is DeltaKind.REPLACE_EDGE:
                yield False, delta.old_edge
                yield True, delta.edge
            elif delta.kind is DeltaKind.REMOVE_NODE:
                for edge in delta.removed_edges:
                    yield False, edge

    def touches_nodes_structurally(self) -> bool:
        """True when the delta adds or removes nodes (not just edges/features)."""
        return any(
            delta.kind in (DeltaKind.ADD_NODE, DeltaKind.REMOVE_NODE)
            for delta in self.flatten()
        )


#: Signature of a delta subscriber: ``listener(graph, delta)``.
DeltaListener = Callable[["PropertyGraph", GraphDelta], None]


class DeltaBus:
    """Fans one graph's deltas out to many cache maintainers.

    A bus sits between graphs and the caches that maintain derived state
    over them: the owner (typically a
    :class:`~repro.api.service.ProtectionService`) registers its caches as
    listeners once, then :meth:`attach`\\ es every graph it serves.  Each
    mutation reaches every listener exactly once, as
    ``listener(graph, delta)``.

    Graphs hold their subscription to the bus weakly (see
    :meth:`~repro.graph.model.PropertyGraph.subscribe`), so a bus — and the
    service caches behind it — can be garbage-collected even while
    long-lived graphs it once attached are still alive.
    """

    def __init__(self) -> None:
        self._listeners: Dict[int, DeltaListener] = {}
        self._next_token = 0
        self._lock = threading.Lock()

    def subscribe(self, listener: DeltaListener) -> int:
        """Register a listener; returns a token for :meth:`unsubscribe`."""
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._listeners[token] = listener
            return token

    def unsubscribe(self, token: int) -> None:
        """Drop one listener (unknown tokens are ignored)."""
        with self._lock:
            self._listeners.pop(token, None)

    def dispatch(self, graph: "PropertyGraph", delta: GraphDelta) -> None:
        """Deliver one delta to every listener (the graph calls this)."""
        with self._lock:
            listeners = list(self._listeners.values())
        for listener in listeners:
            listener(graph, delta)

    def attach(self, graph: "PropertyGraph") -> int:
        """Subscribe this bus to ``graph`` (enabling its delta log) and
        return the graph-side subscription token."""
        graph.enable_delta_log()
        return graph.subscribe(self.dispatch)

    def detach(self, graph: "PropertyGraph", token: int) -> None:
        """Undo one :meth:`attach`."""
        graph.unsubscribe(token)

    def __len__(self) -> int:
        with self._lock:
            return len(self._listeners)


# --------------------------------------------------------------------------- #
# maintenance accounting
# --------------------------------------------------------------------------- #
_MAINTENANCE_LOCK = threading.Lock()
_MAINTENANCE: Dict[str, Counter] = {}


def record_maintenance(component: str, event: str, count: int = 1) -> None:
    """Count one maintenance event (``delta_applied``, ``recompiled``, ...)."""
    with _MAINTENANCE_LOCK:
        counter = _MAINTENANCE.get(component)
        if counter is None:
            counter = Counter()
            _MAINTENANCE[component] = counter
        counter[event] += count


def view_maintenance_stats() -> Dict[str, Dict[str, int]]:
    """A snapshot of every maintainer's path counters.

    Keys are maintainer components (``"marking_view"``, ``"opacity_view"``,
    ``"walk_cache"``, ``"account_cache"``, ``"edit_session"``); values map
    event names to counts.  The interesting pair everywhere is
    ``delta_applied`` (the incremental path ran) vs ``recompiled`` /
    ``rebuilt`` (the fallback ran).  Counters are process-wide and
    monotonic; tests snapshot around an operation and compare.
    """
    with _MAINTENANCE_LOCK:
        return {component: dict(counter) for component, counter in _MAINTENANCE.items()}
