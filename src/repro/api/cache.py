"""Account-level result caching for :class:`~repro.api.service.ProtectionService`.

Generating and scoring a protected account is a pure function of the graph's
structure, the policy's markings and the request's options — so identical
requests against an unmodified (graph, policy) pair can be answered without
re-running the pipeline at all.  :class:`AccountCache` memoises whole
``protect()`` outcomes (account + :class:`~repro.api.results.ScoreCard`):

* **Versioned keys, automatic invalidation.**  Every key embeds
  :func:`repro.core.generation.account_cache_token` — the graph's and the
  policy's monotonic mutation counters — plus the identity of both objects.
  A mutation bumps a counter, so stale entries can never be *served*; the
  LRU bound garbage-collects them.  Entry identity is double-checked through
  weak references so a recycled ``id()`` can never alias a dead graph.
* **Per-tenant namespaces.**  Each tenant gets an independent LRU segment
  and independent hit/miss statistics, so one tenant's traffic can neither
  read nor evict another's entries (the isolation the
  :class:`~repro.api.registry.ServiceRegistry` builds on).
* **Thread safety.**  All operations take the cache's lock; lookups and
  stores are safe from concurrent service threads.

Cached results share the generated account object: callers must treat
accounts from ``protect()`` as immutable (which all library code does).
Requests that carry side effects (``persist_as``) or unhashable options are
simply never cached — :meth:`ProtectionRequest.cache_fingerprint
<repro.api.requests.ProtectionRequest.cache_fingerprint>` decides.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Tuple, TYPE_CHECKING

from repro.core.generation import account_cache_token
from repro.core.policy import ReleasePolicy
from repro.graph.deltas import GraphDelta, record_maintenance
from repro.graph.model import PropertyGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.results import ProtectionResult

#: Default number of entries kept per tenant namespace.
DEFAULT_CACHE_CAPACITY = 256

#: Tenant namespace used by services not enrolled with a registry.
DEFAULT_TENANT = "default"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one tenant namespace (or the whole cache)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups answered (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """A JSON-friendly snapshot of the counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "hit_rate": round(self.hit_rate, 4),
        }

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        """The element-wise sum of two stats snapshots (for whole-cache totals)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            entries=self.entries + other.entries,
        )


@dataclass
class _CacheEntry:
    """One memoised result plus the weak identity proof for its key."""

    result: "ProtectionResult"
    graph_ref: "weakref.ref[PropertyGraph]"
    policy_ref: "weakref.ref[ReleasePolicy]"
    #: ``id()`` of the graph at store time — the per-graph eviction index
    #: key (usable even after the weakref dies).
    graph_id: int = 0

    def alive_for(self, graph: PropertyGraph, policy: ReleasePolicy) -> bool:
        """True when the entry was built against exactly these objects.

        Keys embed ``id(graph)`` / ``id(policy)``; ids can be recycled after
        garbage collection, so a hit must also prove object identity.
        """
        return self.graph_ref() is graph and self.policy_ref() is policy


@dataclass
class _TenantNamespace:
    """The LRU segment and counters of one tenant."""

    capacity: int
    entries: "OrderedDict[Hashable, _CacheEntry]" = field(default_factory=OrderedDict)
    stats: CacheStats = field(default_factory=CacheStats)
    #: graph id -> keys of entries built against that graph, so
    #: delta-scoped eviction is O(entries of the edited graph), not
    #: O(all entries of all tenants).
    by_graph: Dict[int, set] = field(default_factory=dict)

    def insert(self, key: Hashable, entry: _CacheEntry) -> None:
        """Add one entry, maintaining the per-graph index."""
        self.entries[key] = entry
        self.by_graph.setdefault(entry.graph_id, set()).add(key)

    def remove(self, key: Hashable) -> Optional[_CacheEntry]:
        """Drop one entry (returns it), maintaining the per-graph index."""
        entry = self.entries.pop(key, None)
        if entry is not None:
            keys = self.by_graph.get(entry.graph_id)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self.by_graph[entry.graph_id]
        return entry

    def pop_oldest(self) -> None:
        """Evict the least recently used entry (index maintained)."""
        key, entry = self.entries.popitem(last=False)
        keys = self.by_graph.get(entry.graph_id)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self.by_graph[entry.graph_id]

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self.entries)
        self.entries.clear()
        self.by_graph.clear()
        return dropped


class AccountCache:
    """A bounded, tenant-namespaced cache of whole ``protect()`` results.

    Parameters
    ----------
    capacity:
        Maximum entries kept **per tenant namespace** (least recently used
        entries are evicted first).  The :class:`~repro.api.registry.ServiceRegistry`
        may override the bound per tenant via its quotas.

    Example
    -------
    >>> cache = AccountCache(capacity=2)
    >>> cache.stats().lookups
    0
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._tenants: Dict[str, _TenantNamespace] = {}

    # ------------------------------------------------------------------ #
    # key construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(
        graph: PropertyGraph,
        policy: ReleasePolicy,
        fingerprint: Hashable,
    ) -> Tuple[Hashable, ...]:
        """The full cache key for one request against one (graph, policy).

        Combines object identity (``id``), the version token from
        :func:`~repro.core.generation.account_cache_token` (which is what
        makes invalidation automatic) and the request's option fingerprint.
        """
        return (id(graph), id(policy), account_cache_token(graph, policy), fingerprint)

    # ------------------------------------------------------------------ #
    # lookup / store
    # ------------------------------------------------------------------ #
    def lookup(
        self,
        tenant: str,
        graph: PropertyGraph,
        policy: ReleasePolicy,
        fingerprint: Hashable,
    ) -> Optional["ProtectionResult"]:
        """The cached result for this request, or ``None`` (counts a miss)."""
        key = self.key_for(graph, policy, fingerprint)
        with self._lock:
            namespace = self._namespace(tenant)
            entry = namespace.entries.get(key)
            if entry is not None and entry.alive_for(graph, policy):
                namespace.entries.move_to_end(key)
                namespace.stats.hits += 1
                return entry.result
            if entry is not None:
                # A recycled id() aliased a dead graph/policy: drop the corpse.
                namespace.remove(key)
            namespace.stats.misses += 1
            return None

    def store(
        self,
        tenant: str,
        graph: PropertyGraph,
        policy: ReleasePolicy,
        fingerprint: Hashable,
        result: "ProtectionResult",
    ) -> None:
        """Memoise one result under its versioned key (LRU-evicting when full)."""
        key = self.key_for(graph, policy, fingerprint)
        entry = _CacheEntry(
            result=result,
            graph_ref=weakref.ref(graph),
            policy_ref=weakref.ref(policy),
            graph_id=id(graph),
        )
        with self._lock:
            namespace = self._namespace(tenant)
            namespace.remove(key)
            while len(namespace.entries) >= namespace.capacity:
                namespace.pop_oldest()
                namespace.stats.evictions += 1
            namespace.insert(key, entry)

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def set_capacity(self, tenant: str, capacity: int) -> None:
        """Override the LRU bound of one tenant namespace (quota hook)."""
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        with self._lock:
            namespace = self._namespace(tenant)
            namespace.capacity = capacity
            while len(namespace.entries) > capacity:
                namespace.pop_oldest()
                namespace.stats.evictions += 1

    def on_delta(self, graph: PropertyGraph, delta: GraphDelta) -> int:
        """Delta-scoped eviction: drop every entry built against ``graph``.

        A protected account is a function of the whole graph, so *any*
        structural delta kills every entry of the edited graph — but the
        versioned keys already guarantee those entries can never be served
        again.  What this subscriber (wired through the service's
        :class:`~repro.graph.deltas.DeltaBus`) adds is promptness: dead
        entries are reclaimed the moment the edit happens instead of
        squatting in the LRU until capacity pressure finds them.  The
        per-graph key index makes each dispatch O(entries of the edited
        graph) — a mutation of a graph with no cached entries costs
        O(tenants) dictionary probes, so high-churn edit loops do not
        serialize other tenants' cache hits behind full scans.  Entries of
        other graphs are untouched.  Returns how many entries were dropped.
        """
        dropped = 0
        graph_id = id(graph)
        with self._lock:
            for namespace in self._tenants.values():
                keys = namespace.by_graph.get(graph_id)
                if not keys:
                    continue
                for key in list(keys):
                    holder = namespace.entries[key].graph_ref()
                    # A recycled id() may alias a *different* live graph's
                    # entries into this bucket; drop only this graph's
                    # entries and dead-ref corpses.
                    if holder is graph or holder is None:
                        namespace.remove(key)
                        dropped += 1
        if dropped:
            record_maintenance("account_cache", "delta_evicted", dropped)
        return dropped

    def invalidate_tenant(self, tenant: str) -> int:
        """Drop every entry of one tenant; returns how many were dropped."""
        with self._lock:
            namespace = self._tenants.get(tenant)
            if namespace is None:
                return 0
            return namespace.clear()

    def drop_tenant(self, tenant: str) -> int:
        """Remove a tenant's namespace entirely — entries, stats and any
        capacity override — so a later re-registration starts fresh.
        Returns how many entries were dropped."""
        with self._lock:
            namespace = self._tenants.pop(tenant, None)
            return len(namespace.entries) if namespace is not None else 0

    def clear(self) -> None:
        """Drop every entry of every tenant (stats are kept)."""
        with self._lock:
            for namespace in self._tenants.values():
                namespace.clear()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self, tenant: Optional[str] = None) -> CacheStats:
        """Counters for one tenant, or the sum across tenants when ``None``."""
        with self._lock:
            if tenant is not None:
                namespace = self._tenants.get(tenant)
                if namespace is None:
                    return CacheStats()
                return CacheStats(
                    hits=namespace.stats.hits,
                    misses=namespace.stats.misses,
                    evictions=namespace.stats.evictions,
                    entries=len(namespace.entries),
                )
            total = CacheStats()
            for name in self._tenants:
                total = total.merged_with(self.stats(name))
            return total

    def tenants(self) -> Tuple[str, ...]:
        """Every tenant namespace that has been touched, in first-use order."""
        with self._lock:
            return tuple(self._tenants)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(ns.entries) for ns in self._tenants.values())

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _namespace(self, tenant: str) -> _TenantNamespace:
        namespace = self._tenants.get(tenant)
        if namespace is None:
            namespace = _TenantNamespace(capacity=self.capacity)
            self._tenants[tenant] = namespace
        return namespace
