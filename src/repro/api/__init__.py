"""The unified request/response API: protect → score → enforce, at scale.

:class:`ProtectionService` is the recommended entry point to the library.
It binds one graph and one release policy and turns the paper's whole
workflow into explicit values:

* :class:`ProtectionRequest` — privileges, strategy, edges to protect,
  repair mode, scoring and persistence options (and, in cross-graph
  batches, the target graph);
* :class:`ProtectionResult` — the generated account, a :class:`ScoreCard`
  (Path Utility, Node Utility, opacity), per-phase timings and cache
  hit/miss statistics;
* :meth:`ProtectionService.protect` / :meth:`ProtectionService.protect_many`
  / :meth:`ProtectionService.enforce` / :meth:`ProtectionService.persist`.

Serving heavy traffic is handled by two further pieces:

* :class:`AccountCache` — account-level result caching keyed by the graph's
  and policy's version counters (automatic invalidation, LRU bounds,
  per-tenant namespaces, hit/miss stats);
* :class:`ServiceRegistry` / :class:`TenantQuota` — multi-tenant serving
  with per-tenant store roots, cache namespaces and request/graph quotas.

Interactive editing rides on the delta pipeline
(:mod:`repro.graph.deltas`): :meth:`ProtectionService.edit` opens an
:class:`EditSession` whose mutate → re-protect → re-score loop patches
every compiled structure in O(affected) instead of recompiling — see
``timings_ms["delta_apply"]`` / ``timings_ms["recompile_fallback"]``.

Warm restarts ride on service checkpoints
(:mod:`repro.api.checkpoints`): :meth:`ProtectionService.checkpoint`
freezes the compiled views, the account (as a diff against the original
graph) and the ScoreCard next to the store; a restarted service calls
:meth:`ProtectionService.restore` and resumes from the checkpoint plus
write-log delta catch-up instead of recompiling O(V+E) state — with
:meth:`ProtectionService.health` reporting how the restore (and the rest
of the serving stack) fared.  See ``docs/reliability.md``.
"""

from repro.api.cache import AccountCache, CacheStats, DEFAULT_CACHE_CAPACITY, DEFAULT_TENANT
from repro.api.checkpoints import RestoreReport, restore_service, write_checkpoint
from repro.api.editing import EditSession
from repro.api.requests import ProtectionRequest, REQUEST_STRATEGIES
from repro.api.results import ProtectionResult, ScoreCard
from repro.api.service import ProtectionService
from repro.api.registry import ServiceRegistry, TenantQuota
from repro.api.persistence import (
    account_from_metadata,
    account_metadata_to_dict,
    load_account,
    persist_account,
)

__all__ = [
    "ProtectionService",
    "ProtectionRequest",
    "ProtectionResult",
    "ScoreCard",
    "EditSession",
    "AccountCache",
    "CacheStats",
    "ServiceRegistry",
    "TenantQuota",
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_TENANT",
    "REQUEST_STRATEGIES",
    "persist_account",
    "load_account",
    "account_metadata_to_dict",
    "account_from_metadata",
    "RestoreReport",
    "write_checkpoint",
    "restore_service",
]
