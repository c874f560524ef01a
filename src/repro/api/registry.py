"""Multi-tenant serving: the :class:`ServiceRegistry` and per-tenant quotas.

One process serving many tenants needs three guarantees the bare
:class:`~repro.api.service.ProtectionService` does not give on its own:

* **Isolation** — tenants must not read each other's cached results or
  persisted accounts.  The registry gives every tenant its own namespace in
  one shared :class:`~repro.api.cache.AccountCache` and its own
  tenant-scoped :class:`~repro.store.engine.GraphStore` root
  (``base_dir/<tenant>`` on disk, or an isolated in-memory store).
* **Quotas** — a tenant's traffic must not starve the rest.
  :class:`TenantQuota` bounds requests served, graphs persisted and cache
  entries held per tenant; breaching one raises
  :class:`~repro.exceptions.QuotaExceededError`.
* **Thread safety** — registration, lookup and every quota counter take
  locks, and the services the registry hands out serialise account
  generation internally, so one registry can back a thread pool.

Example
-------
>>> from repro.api.registry import ServiceRegistry
>>> registry = ServiceRegistry()
>>> _ = registry.register("acme", max_requests=1000)
>>> registry.tenants()
('acme',)
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.api.cache import DEFAULT_CACHE_CAPACITY, AccountCache
from repro.api.service import ProtectionService
from repro.core.opacity import AttackerModel
from repro.core.policy import ReleasePolicy
from repro.exceptions import QuotaExceededError, TenantError, UnknownTenantError
from repro.graph.model import PropertyGraph
from repro.store.engine import GraphStore


class TenantQuota:
    """Thread-safe usage budget for one tenant.

    ``None`` limits are unlimited.  The request counter is charged by
    :meth:`ProtectionService.protect
    <repro.api.service.ProtectionService.protect>` (cache hits count too:
    the quota bounds *traffic*, not compute); the graph limit is enforced
    atomically around each store write via :meth:`persist_guard`, which
    :meth:`ProtectionService.persist
    <repro.api.service.ProtectionService.persist>` enters automatically.

    Parameters
    ----------
    tenant:
        The tenant this budget belongs to (named in quota errors).
    max_requests:
        Upper bound on ``protect()`` calls served for this tenant.
    max_graphs:
        Upper bound on graphs persisted in the tenant's store.
    max_cache_entries:
        Override of the account cache's per-tenant LRU bound.
    """

    def __init__(
        self,
        tenant: str,
        *,
        max_requests: Optional[int] = None,
        max_graphs: Optional[int] = None,
        max_cache_entries: Optional[int] = None,
    ) -> None:
        self.tenant = tenant
        self.max_requests = max_requests
        self.max_graphs = max_graphs
        self.max_cache_entries = max_cache_entries
        self._requests_served = 0
        self._lock = threading.Lock()

    @property
    def requests_served(self) -> int:
        """How many ``protect()`` calls this tenant has been charged for."""
        with self._lock:
            return self._requests_served

    def charge_request(self) -> None:
        """Count one request; raises once the request budget is exhausted."""
        with self._lock:
            if self.max_requests is not None and self._requests_served >= self.max_requests:
                raise QuotaExceededError(self.tenant, "requests", self.max_requests)
            self._requests_served += 1

    @contextmanager
    def persist_guard(self, store: GraphStore, name: str) -> Iterator[None]:
        """Hold the quota lock across one store write so ``max_graphs`` is
        enforced atomically (no two concurrent persists can both pass the
        check).  Overwriting an already-stored name never counts as a new
        graph."""
        with self._lock:
            if (
                self.max_graphs is not None
                and not store.has_graph(name)
                and len(store.graph_names()) >= self.max_graphs
            ):
                raise QuotaExceededError(self.tenant, "graphs", self.max_graphs)
            yield

    def as_dict(self) -> Dict[str, object]:
        """A JSON-friendly snapshot of limits and usage."""
        return {
            "tenant": self.tenant,
            "max_requests": self.max_requests,
            "max_graphs": self.max_graphs,
            "max_cache_entries": self.max_cache_entries,
            "requests_served": self.requests_served,
        }


@dataclass
class _TenantRecord:
    """Everything the registry tracks for one tenant."""

    name: str
    store: GraphStore
    quota: TenantQuota
    services: int = 0


class ServiceRegistry:
    """Creates and tracks per-tenant :class:`ProtectionService` instances.

    Parameters
    ----------
    base_dir:
        Root directory for tenant stores (``base_dir/<tenant>`` each).
        ``None`` keeps every tenant store in memory.
    cache_capacity:
        Default per-tenant LRU bound of the shared account cache
        (individual tenants may override it via ``max_cache_entries``).
    read_only:
        Open every tenant store read-only (follower processes).  This is
        what relaxes the one-process-per-root assumption: any number of
        read-only registries may share a root with one writer, because a
        ``mode=ro`` SQLite open takes no write locks and refuses every
        mutation up front (:class:`~repro.exceptions.ReadOnlyStoreError`).
    """

    def __init__(
        self,
        base_dir: Optional[Union[str, Path]] = None,
        *,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        read_only: bool = False,
    ) -> None:
        self.base_dir = Path(base_dir) if base_dir is not None else None
        self.read_only = read_only
        self.cache = AccountCache(cache_capacity)
        self._lock = threading.RLock()
        self._tenants: Dict[str, _TenantRecord] = {}

    # ------------------------------------------------------------------ #
    # tenant lifecycle
    # ------------------------------------------------------------------ #
    def register(
        self,
        tenant: str,
        *,
        max_requests: Optional[int] = None,
        max_graphs: Optional[int] = None,
        max_cache_entries: Optional[int] = None,
    ) -> TenantQuota:
        """Enroll a tenant: scoped store, cache namespace, quota budget.

        Returns the tenant's :class:`TenantQuota` (also retrievable later
        via :meth:`quota_for`).  Registering a name twice is an error — a
        tenant's quotas are a policy decision, not something to silently
        overwrite.
        """
        with self._lock:
            if tenant in self._tenants:
                raise TenantError(f"tenant {tenant!r} is already registered")
            # Validate before any side effect, and only touch the shared
            # cache after the store exists: a failed registration must leave
            # neither a record nor a stale cache namespace behind.
            if max_cache_entries is not None and max_cache_entries < 1:
                raise ValueError(
                    f"cache capacity must be positive, got {max_cache_entries}"
                )
            quota = TenantQuota(
                tenant,
                max_requests=max_requests,
                max_graphs=max_graphs,
                max_cache_entries=max_cache_entries,
            )
            record = _TenantRecord(
                name=tenant,
                store=GraphStore.for_tenant(self.base_dir, tenant, read_only=self.read_only),
                quota=quota,
            )
            if max_cache_entries is not None:
                self.cache.set_capacity(tenant, max_cache_entries)
            self._tenants[tenant] = record
            return quota

    def tenants(self) -> Tuple[str, ...]:
        """Every registered tenant name, in registration order."""
        with self._lock:
            return tuple(self._tenants)

    def drop(self, tenant: str) -> None:
        """Unregister a tenant and drop its whole cache namespace.

        The namespace is removed outright (entries, stats and capacity
        override), so re-registering the same name starts from a clean
        slate.  The tenant's store directory (when durable) is left on
        disk: data deletion is an operator action, not a registry side
        effect.
        """
        with self._lock:
            self._record(tenant)
            del self._tenants[tenant]
            self.cache.drop_tenant(tenant)

    # ------------------------------------------------------------------ #
    # per-tenant access
    # ------------------------------------------------------------------ #
    def service(
        self,
        tenant: str,
        graph: Optional[PropertyGraph],
        policy: ReleasePolicy,
        *,
        adversary: Optional[AttackerModel] = None,
    ) -> ProtectionService:
        """A :class:`ProtectionService` wired into this tenant's slice.

        The service shares the registry's account cache (under the tenant's
        namespace), persists into the tenant's scoped store, and charges the
        tenant's quota on every request.  ``graph=None`` gives a multi-graph
        service for cross-graph batch serving.
        """
        with self._lock:
            record = self._record(tenant)
            record.services += 1
        return ProtectionService(
            graph,
            policy,
            store=record.store,
            adversary=adversary,
            cache=self.cache,
            tenant=tenant,
            quota=record.quota,
        )

    def store_for(self, tenant: str) -> GraphStore:
        """The tenant's scoped :class:`~repro.store.engine.GraphStore`."""
        with self._lock:
            return self._record(tenant).store

    def quota_for(self, tenant: str) -> TenantQuota:
        """The tenant's :class:`TenantQuota` budget."""
        with self._lock:
            return self._record(tenant).quota

    def invalidate(self, tenant: str) -> int:
        """Drop one tenant's cached results; returns how many were dropped."""
        with self._lock:
            self._record(tenant)
        return self.cache.invalidate_tenant(tenant)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant serving report: cache counters, quota usage, store size."""
        with self._lock:
            report: Dict[str, Dict[str, object]] = {}
            for name, record in self._tenants.items():
                report[name] = {
                    "cache": self.cache.stats(name).as_dict(),
                    "quota": record.quota.as_dict(),
                    "services": record.services,
                    "stored_graphs": len(record.store.graph_names()),
                    "stored_accounts": len(
                        record.store.storage.catalog.find(kind="protected_account")
                    ),
                }
            return report

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _record(self, tenant: str) -> _TenantRecord:
        record = self._tenants.get(tenant)
        if record is None:
            raise UnknownTenantError(tenant)
        return record
