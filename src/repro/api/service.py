"""The :class:`ProtectionService` facade: protect → score → enforce, one API.

The paper's workflow — mark a graph, generate a protected account per
privilege, score its utility and opacity, answer queries through it — used
to be assembled by hand at every call site.  The service binds one graph and
one release policy and exposes the whole workflow behind an explicit
request/response object model:

* :meth:`ProtectionService.protect` — one
  :class:`~repro.api.requests.ProtectionRequest` in, one
  :class:`~repro.api.results.ProtectionResult` (account + ScoreCard +
  timings) out;
* :meth:`ProtectionService.protect_many` — batched generation that shares
  the compiled per-privilege marking views and the visible-set walk caches
  across requests (no recompilation between requests for the same class),
  including batches whose requests target *different graphs*;
* :meth:`ProtectionService.score` — the ScoreCard of any account against
  the bound graph;
* :meth:`ProtectionService.enforce` — a session-scoped
  :class:`~repro.security.enforcement.QueryEnforcer` answering lineage
  queries through the service's accounts;
* :meth:`ProtectionService.persist` / :meth:`ProtectionService.load_account`
  — round-trip accounts through an embedded
  :class:`~repro.store.engine.GraphStore`.

Serving at scale
----------------
Every service owns (or shares) an :class:`~repro.api.cache.AccountCache`:
repeated identical requests against an unmodified (graph, policy) pair are
answered from the cache in microseconds, with hit/miss statistics surfaced
in :attr:`ProtectionResult.timings_ms <repro.api.results.ProtectionResult>`
(``cache_hit`` / ``cache_hits`` / ``cache_misses``).  Invalidation is
automatic — keys embed the graph's and policy's version counters — and the
cache is namespaced per tenant, so a
:class:`~repro.api.registry.ServiceRegistry` can hand one cache to many
tenants without cross-talk.  Account generation is serialised behind an
internal lock, which makes a shared service safe to call from concurrent
threads (cache hits stay lock-free on the service; the cache has its own
short lock).

Example
-------
>>> from repro.api import ProtectionService
>>> from repro.core.policy import ReleasePolicy
>>> from repro.core.privileges import PrivilegeLattice
>>> from repro.graph.builders import GraphBuilder
>>> graph = GraphBuilder("demo").chain(["a", "b", "c"]).build()
>>> service = ProtectionService(graph, ReleasePolicy(PrivilegeLattice()))
>>> result = service.protect(privilege="Public")
>>> result.scores.path_utility
1.0
>>> service.protect(privilege="Public").timings_ms["cache_hit"]
1.0
"""

from __future__ import annotations

import threading
import time
import weakref
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.cache import DEFAULT_TENANT, AccountCache, CacheStats
from repro.api.persistence import load_account as _load_account
from repro.api.persistence import persist_account as _persist_account
from repro.api.requests import ProtectionRequest
from repro.api.results import ProtectionResult, ScoreCard
from repro.core.generation import build_protected_account
from repro.core.hiding import STRATEGY_NAIVE, naive_protected_account
from repro.core.multi import build_multi_privilege_account, merge_accounts
from repro.core.opacity import (
    DEFAULT_ADVERSARY,
    AttackerModel,
    OpacityViewCache,
    opacity_report,
)
from repro.core.policy import ReleasePolicy
from repro.core.privileges import Privilege
from repro.core.protected_account import ProtectedAccount
from repro.core.utility import utility_report
from repro.exceptions import (
    EdgeNotFoundError,
    NodeNotFoundError,
    ProtectionError,
    StoreError,
)
from repro.graph.deltas import DeltaBus, view_maintenance_stats
from repro.graph.model import EdgeKey, NodeId, PropertyGraph
from repro.store.engine import GraphStore

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.api.checkpoints import RestoreReport

#: Anything `protect()` accepts as its request argument.
RequestLike = Union[ProtectionRequest, object]

#: Upper bound on cached visible-walk registries *per graph*; versioned keys
#: mean stale entries are never *wrong*, just dead weight, so the bound only
#: caps memory.
_WALK_CACHE_LIMIT = 32

#: Upper bound on the number of graphs the service keeps walk registries for.
#: Cross-graph batches are grouped by graph, so eviction never causes
#: recompilation within one batch.
_WALK_GRAPH_LIMIT = 16


class ProtectionService:
    """One graph + one policy behind the protect → score → enforce API.

    Parameters
    ----------
    graph:
        The original graph ``G`` the service protects.  ``None`` creates a
        multi-graph service: every request must then carry its own
        ``graph`` (the mode cross-graph batch serving uses).
    policy:
        The provider's :class:`~repro.core.policy.ReleasePolicy`.
    store:
        Optional :class:`~repro.store.engine.GraphStore` accounts are
        persisted to (requests with ``persist_as`` require it).
    adversary:
        Default attacker model for opacity scoring; individual requests may
        override it.  ``None`` selects the paper's advanced adversary.
    cache:
        The :class:`~repro.api.cache.AccountCache` results are memoised in.
        ``None`` (default) gives the service a private cache; a
        :class:`~repro.api.registry.ServiceRegistry` passes one shared,
        tenant-namespaced cache to every service it creates.
    tenant:
        The cache namespace this service reads and writes
        (``"default"`` outside a registry).
    quota:
        Optional per-tenant quota object (anything with a
        ``charge_request()`` method, e.g.
        :class:`~repro.api.registry.TenantQuota`); charged once per
        ``protect()`` call, cache hit or miss.
    retry:
        Optional :class:`~repro.reliability.retry.RetryPolicy` (anything
        with ``call(fn)``) applied around the service's own store
        round-trips — persist, load, checkpoint, restore — so a transient
        I/O fault degrades to a retried operation instead of a failed
        request.  ``None`` runs each operation exactly once.
    """

    def __init__(
        self,
        graph: Optional[PropertyGraph],
        policy: ReleasePolicy,
        *,
        store: Optional[GraphStore] = None,
        adversary: Optional[AttackerModel] = None,
        cache: Optional[AccountCache] = None,
        tenant: str = DEFAULT_TENANT,
        quota: Optional[object] = None,
        retry: Optional[object] = None,
    ) -> None:
        self.graph = graph
        self.policy = policy
        self.store = store
        self.adversary = adversary
        self.cache = cache if cache is not None else AccountCache()
        self.tenant = tenant
        self.quota = quota
        self.retry = retry
        #: The report of the last :meth:`restore` call (surfaced in
        #: :meth:`health`); ``None`` until a restore runs.
        self.last_restore: Optional[object] = None
        #: Optional serving-stats provider (a zero-argument callable set by
        #: the HTTP frontend): per-tenant admission counters, queue depths
        #: and live session counts, surfaced under ``health()["serving"]``
        #: so ``/v1/health`` needs no side channels.
        self.serving: Optional[Callable[[], Dict[str, Any]]] = None
        #: Per-graph visible-walk registries shared across requests
        #: (see :meth:`protect_many`), keyed by graph identity.
        self._walks_caches: Dict[int, Dict[tuple, object]] = {}
        #: Compiled adversary simulations keyed by (account graph, adversary):
        #: repeated :meth:`score` calls over the same account — including
        #: accounts replayed from the account cache — never re-simulate.
        self._opacity_views = OpacityViewCache()
        #: Serialises account generation: the compiled-view cache on the
        #: policy and the walk registries are shared mutable state, so a
        #: service used from many threads generates one account at a time
        #: (cache hits never take this lock).
        self._generation_lock = threading.RLock()
        #: The delta fan-out: every graph the service serves gets attached
        #: (which *enables that graph's delta log for good* — a deliberate
        #: trade: served graphs pay one event object per mutation so graph
        #: edits translate into delta-scoped invalidation — prompt
        #: account-cache eviction, opacity-view patching, compiled-view
        #: catch-up — instead of blanket version checks and recompiles).
        self.delta_bus = DeltaBus()
        self.delta_bus.subscribe(self.cache.on_delta)
        self.delta_bus.subscribe(self._opacity_views.on_delta)
        self._attached_graphs: Dict[int, Tuple["weakref.ref[PropertyGraph]", int]] = {}
        if graph is not None:
            self._attach_graph(graph)

    # ------------------------------------------------------------------ #
    # protect
    # ------------------------------------------------------------------ #
    def protect(
        self,
        request: Optional[RequestLike] = None,
        *,
        privilege: Optional[object] = None,
        privileges: Optional[Sequence[object]] = None,
        **options: object,
    ) -> ProtectionResult:
        """Run one protection request end to end.

        Accepts a full :class:`~repro.api.requests.ProtectionRequest`, a bare
        privilege (``service.protect(privilege="High-2")`` or positionally
        ``service.protect("High-2")``), or keyword options that build a
        request on the fly.  Returns a
        :class:`~repro.api.results.ProtectionResult`.

        Identical requests against an unmodified (graph, policy) pair are
        served from the account cache; ``result.timings_ms["cache_hit"]``
        tells which path answered, and ``cache_hits`` / ``cache_misses``
        carry the tenant's cumulative counters.
        """
        request = self._coerce_request(request, privilege, privileges, options)
        return self._execute(request)

    def _execute(self, request: ProtectionRequest) -> ProtectionResult:
        """Serve one already-coerced request (privileges resolved)."""
        graph = self._effective_graph(request)
        if self.quota is not None:
            self.quota.charge_request()
        adversary = request.adversary if request.adversary is not None else self.adversary
        fingerprint = request.cache_fingerprint(adversary=adversary)

        timings: Dict[str, float] = {}
        if fingerprint is not None and request.use_cache:
            start = time.perf_counter()
            cached = self.cache.lookup(self.tenant, graph, self.policy, fingerprint)
            lookup_ms = (time.perf_counter() - start) * 1000.0
            if cached is not None:
                timings["cache_lookup"] = lookup_ms
                timings["total"] = lookup_ms
                result = ProtectionResult(
                    request=request,
                    account=cached.account,
                    scores=cached.scores,
                    timings_ms=timings,
                    stored_as=None,
                )
                self._stamp_cache_stats(timings, hit=True)
                return result

        start = time.perf_counter()
        account = self._build_account(request, graph)
        timings["generate"] = (time.perf_counter() - start) * 1000.0

        scores: Optional[ScoreCard] = None
        if request.score:
            start = time.perf_counter()
            scores = self.score(
                account,
                graph=graph,
                adversary=request.adversary,
                opacity_edges=request.default_opacity_edges(),
                normalize_focus=request.normalize_focus,
                explicit_scores=request.explicit_scores,
            )
            timings["score"] = (time.perf_counter() - start) * 1000.0

        stored_as: Optional[str] = None
        if request.persist_as is not None:
            start = time.perf_counter()
            stored_as = self.persist(account, name=request.persist_as)
            timings["persist"] = (time.perf_counter() - start) * 1000.0

        timings["total"] = sum(timings.values())
        if scores is not None:
            # Stamped after "total": the opacity_compile/opacity_score split
            # is already inside the "score" phase, so it must never inflate
            # the phase sum.
            timings.update(scores.timings_ms)
        result = ProtectionResult(
            request=request,
            account=account,
            scores=scores,
            timings_ms=timings,
            stored_as=stored_as,
        )
        if fingerprint is not None:
            # Store a copy whose request drops the per-request graph: the
            # entry's weakref identity check covers the graph, and a strong
            # reference here would pin swept-over batch graphs in memory for
            # the entry's whole LRU lifetime.
            memoised = ProtectionResult(
                request=request.with_options(graph=None),
                account=account,
                scores=scores,
                timings_ms={},
                stored_as=None,
            )
            self.cache.store(self.tenant, graph, self.policy, fingerprint, memoised)
            self._stamp_cache_stats(timings, hit=False)
        return result

    def protect_many(self, requests: Iterable[RequestLike]) -> List[ProtectionResult]:
        """Run several requests, sharing compiled state between them.

        Each element may be a full request or a bare privilege, and requests
        may target different graphs (via ``ProtectionRequest(graph=...)``).
        The batch is grouped by target graph before execution, so each
        (graph, policy, privilege) combination compiles its marking view and
        visible-walk cache **exactly once per batch** even when the batch
        spans more graphs than the bounded compiled-view cache holds.
        Results come back in the order the requests were given.

        Compiled marking views are cached on the policy (one per privilege,
        reused until the graph or policy mutates) and visible-set walk
        caches are shared through the service, so asking for the same
        consumer class twice — or for N classes over one graph — never
        recompiles.  The exception is requests with ``protect_edges``: those
        generate on a scoped one-shot policy copy whose compiled state dies
        with the request, so only their issuing convenience is batched.
        """
        coerced: List[ProtectionRequest] = [
            self._coerce_request(request, None, None, {}) for request in requests
        ]
        # Group by target graph (first-appearance order), keeping each
        # request's original position so the result list lines up.
        groups: Dict[int, List[Tuple[int, ProtectionRequest]]] = {}
        for position, request in enumerate(coerced):
            graph = self._effective_graph(request)
            groups.setdefault(id(graph), []).append((position, request))
        results: List[Optional[ProtectionResult]] = [None] * len(coerced)
        for group in groups.values():
            for position, request in group:
                results[position] = self._execute(request)
        return [result for result in results if result is not None]

    def protect_all_classes(self) -> Dict[str, ProtectionResult]:
        """One scored result per declared privilege, keyed by privilege name."""
        results: Dict[str, ProtectionResult] = {}
        for privilege in self.policy.lattice.privileges():
            results[privilege.name] = self.protect(privilege=privilege)
        return results

    # ------------------------------------------------------------------ #
    # score
    # ------------------------------------------------------------------ #
    def score(
        self,
        account: ProtectedAccount,
        *,
        graph: Optional[PropertyGraph] = None,
        adversary: Optional[AttackerModel] = None,
        opacity_edges: Optional[Iterable[EdgeKey]] = None,
        normalize_focus: bool = False,
        explicit_scores: Optional[Mapping[NodeId, float]] = None,
    ) -> ScoreCard:
        """Utility and opacity of ``account`` against the service's graph.

        ``graph`` overrides the service's bound graph (used when scoring an
        account generated from a per-request graph in a cross-graph batch).

        Opacity runs on the compiled engine: when (and only when) a scored
        edge actually needs inference, the adversary simulation is fetched
        from (or compiled into) the service's
        :class:`~repro.core.opacity.OpacityViewCache`, after which every
        edge is O(1).  The returned ScoreCard's ``timings_ms`` records the
        split as ``opacity_compile`` / ``opacity_score``; repeated calls for
        the same account graph and adversary hit the view cache and run
        **zero** additional simulations (``opacity_compile`` is 0.0 when no
        simulation was needed at all).
        """
        graph = graph if graph is not None else self.graph
        if graph is None:
            raise ProtectionError(
                "this service has no bound graph; pass score(..., graph=...)"
            )
        adversary = adversary if adversary is not None else self.adversary
        effective_adversary = adversary if adversary is not None else DEFAULT_ADVERSARY
        compile_ms = 0.0

        # A merged multi-privilege account and its sub-accounts form one
        # derivation family: whichever member compiled its adversary
        # simulation first seeds the others (zero further simulations).
        derive_from = tuple(
            peer.graph for peer in account.derivation_peers if peer is not account
        )

        def view_factory():
            """Fetch/compile the simulation through the view cache, timed."""
            nonlocal compile_ms
            start = time.perf_counter()
            view = self._opacity_views.get_or_compile(
                account.graph, effective_adversary, derive_from=derive_from
            )
            compile_ms += (time.perf_counter() - start) * 1000.0
            return view

        utility = utility_report(graph, account, explicit_scores=explicit_scores)
        start = time.perf_counter()
        opacity = opacity_report(
            graph,
            account,
            opacity_edges,
            adversary=effective_adversary,
            normalize_focus=normalize_focus,
            view_factory=view_factory,
        )
        score_ms = (time.perf_counter() - start) * 1000.0 - compile_ms
        return ScoreCard(
            utility=utility,
            opacity=opacity,
            timings_ms={"opacity_compile": compile_ms, "opacity_score": score_ms},
        )

    # ------------------------------------------------------------------ #
    # edit
    # ------------------------------------------------------------------ #
    def edit(
        self,
        privilege: object,
        *,
        adversary: Optional[AttackerModel] = None,
        normalize_focus: bool = False,
        name: Optional[str] = None,
    ) -> "EditSession":
        """An interactive mutate → re-protect → re-score session.

        Returns an :class:`~repro.api.editing.EditSession` bound to the
        service's graph and one consumer class.  Mutate the graph (through
        the session's proxies or directly), then :meth:`~repro.api.editing.
        EditSession.commit` — the session patches the compiled marking
        view, the visible-walk cache, the protected account and the
        compiled opacity view through the recorded deltas in O(affected)
        and re-scores off the patched state, falling back to a counted full
        rebuild for deltas that cannot be patched soundly.  Timings carry
        the split as ``delta_apply`` / ``recompile_fallback``.
        """
        from repro.api.editing import EditSession

        if self.graph is None:
            raise ProtectionError("a multi-graph service cannot edit; bind a graph")
        return EditSession(
            self,
            privilege,
            adversary=adversary,
            normalize_focus=normalize_focus,
            name=name,
        )

    # ------------------------------------------------------------------ #
    # cache introspection
    # ------------------------------------------------------------------ #
    def cache_stats(self) -> CacheStats:
        """This service's tenant-namespace counters from the account cache."""
        return self.cache.stats(self.tenant)

    def view_maintenance_stats(self) -> Dict[str, Dict[str, int]]:
        """Process-wide incremental-maintenance counters (convenience).

        See :func:`repro.graph.deltas.view_maintenance_stats`: per
        maintainer (marking views, opacity views, walk caches, account
        cache, edit sessions), how often the delta path vs the full
        recompile/rebuild path ran.
        """
        return view_maintenance_stats()

    # ------------------------------------------------------------------ #
    # enforce
    # ------------------------------------------------------------------ #
    def enforce(self, *, controller: Optional[object] = None) -> "QueryEnforcer":
        """A session-scoped query enforcer over this service's accounts.

        The enforcer generates (and caches) each consumer's account through
        the service, so enforcement and ad-hoc protection share compiled
        views.  ``controller`` is an optional
        :class:`~repro.security.authorization.AccessController`.
        """
        from repro.security.enforcement import QueryEnforcer

        if self.graph is None:
            raise ProtectionError("a multi-graph service cannot hand out enforcers; bind a graph")
        return QueryEnforcer(self.graph, self.policy, controller=controller, service=self)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def persist(
        self,
        result_or_account: Union[ProtectionResult, ProtectedAccount],
        *,
        name: Optional[str] = None,
        store: Optional[GraphStore] = None,
    ) -> str:
        """Store an account (or a result's account) in the graph store.

        When the service carries a tenant quota with a graph budget
        (:class:`~repro.api.registry.TenantQuota`), the budget is checked
        before the write.
        """
        store = store if store is not None else self.store
        if store is None:
            raise StoreError(
                "ProtectionService has no store; pass store= to persist() or the constructor"
            )
        account = (
            result_or_account.account
            if isinstance(result_or_account, ProtectionResult)
            else result_or_account
        )
        if name is None:
            name = account.graph.name
        if not name:
            raise StoreError("a persisted account needs a name")
        guard = getattr(self.quota, "persist_guard", None)
        if guard is not None:
            with guard(store, name):
                return self._durable(lambda: _persist_account(store, account, name))
        return self._durable(lambda: _persist_account(store, account, name))

    def load_account(
        self, name: str, *, store: Optional[GraphStore] = None
    ) -> ProtectedAccount:
        """Reload a persisted account; privileges resolve via the service's lattice."""
        store = store if store is not None else self.store
        if store is None:
            raise StoreError(
                "ProtectionService has no store; pass store= to load_account() or the constructor"
            )
        return self._durable(
            lambda: _load_account(store, name, lattice=self.policy.lattice)
        )

    # ------------------------------------------------------------------ #
    # checkpoints (warm restarts)
    # ------------------------------------------------------------------ #
    def checkpoint(
        self,
        result: ProtectionResult,
        *,
        name: str = "service",
        store: Optional[GraphStore] = None,
    ) -> Path:
        """Checkpoint one served result so a restarted service resumes warm.

        Snapshots the store (truncating its write log behind a sequence
        marker), then writes the compiled marking view, the account (as a
        diff against the original graph), the full ScoreCard and the
        compiled adversary simulation next to it.  A future service over
        the recovered graph calls :meth:`restore` to skip the O(V+E)
        recompile.  Requires a durable store.  Returns the checkpoint path.
        """
        from repro.api.checkpoints import write_checkpoint

        return self._durable(
            lambda: write_checkpoint(self, result, store=store, name=name)
        )

    def restore(
        self,
        *,
        name: str = "service",
        store: Optional[GraphStore] = None,
    ) -> "RestoreReport":
        """Resume from the named checkpoint (plus write-log delta catch-up).

        Never raises on a missing or damaged checkpoint: corruption is
        quarantined and the returned
        :class:`~repro.api.checkpoints.RestoreReport` comes back ``cold`` —
        the service simply recompiles on first use, which is graceful
        degradation, not failure.  The report is also kept on
        :attr:`last_restore` and surfaced in :meth:`health`.
        """
        from repro.api.checkpoints import restore_service

        report = restore_service(self, store=store, name=name)
        self.last_restore = report
        return report

    # ------------------------------------------------------------------ #
    # health
    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, Any]:
        """One dict describing the serving stack's condition.

        ``status`` is ``"ok"`` or ``"degraded"`` — degraded means the
        service is serving correctly but something needed intervention:
        recovery quarantined corrupt state, the write log lost a torn tail,
        retries were exhausted, or the last restore fell back to cold.
        ``issues`` lists the reasons; the remaining keys are per-component
        detail (store, caches, delta bus, retry counters).  When the HTTP
        frontend owns this service, ``serving`` carries its live admission
        counters (in-flight requests, queue depth, per-tenant admission
        stats) and edit-session count; it is ``None`` for an in-process
        service.
        """
        issues: List[str] = []
        store_health: Optional[Dict[str, Any]] = None
        if self.store is not None:
            store_health = self.store.health()
            recovery = store_health.get("recovery") or {}
            if recovery.get("quarantined"):
                issues.append(
                    f"store recovery quarantined {recovery['quarantined']} corrupt snapshot(s)"
                )
            if recovery.get("wal_torn_bytes"):
                issues.append(
                    f"write log lost {recovery['wal_torn_bytes']} torn byte(s) on recovery"
                )
            if not recovery.get("clean", True):
                issues.append("store recovery replayed the write log")
        retry_stats = getattr(self.retry, "stats", lambda: None)()
        if retry_stats and (retry_stats.get("exhausted") or retry_stats.get("deadline_hits")):
            issues.append("retries were exhausted for at least one operation")
        restore_report = self.last_restore
        if restore_report is not None and getattr(restore_report, "mode", "cold") == "cold":
            issues.append(f"last restore was cold: {getattr(restore_report, 'reason', '')}")
        return {
            "status": "degraded" if issues else "ok",
            "issues": issues,
            "tenant": self.tenant,
            "graph": (
                {
                    "name": self.graph.name,
                    "nodes": len(self.graph.node_ids()),
                    "edges": len(self.graph.edge_keys()),
                    "version": self.graph.version,
                }
                if self.graph is not None
                else None
            ),
            "cache": self.cache.stats(self.tenant).as_dict(),
            "opacity_views": len(self._opacity_views),
            "delta_bus": {"listeners": len(self.delta_bus)},
            "store": store_health,
            "retry": retry_stats,
            "serving": self.serving() if self.serving is not None else None,
            "last_restore": (
                restore_report.as_dict() if restore_report is not None else None
            ),
        }

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _durable(self, operation: Callable[[], Any]) -> Any:
        """Run one store round-trip, through the retry policy when configured."""
        if self.retry is None:
            return operation()
        return self.retry.call(operation)

    def _attach_graph(self, graph: PropertyGraph) -> None:
        """Attach the delta bus to a graph the service serves (idempotent).

        The graph-side subscription holds the bus weakly, so attaching
        request graphs never extends the service's lifetime beyond its
        owner's.  The token map verifies graph identity through a weakref,
        so a recycled ``id()`` can neither skip an attach nor double one.
        """
        key = id(graph)
        entry = self._attached_graphs.get(key)
        if entry is not None and entry[0]() is graph:
            return
        if len(self._attached_graphs) >= 4 * _WALK_GRAPH_LIMIT:
            self._attached_graphs = {
                existing_key: existing
                for existing_key, existing in self._attached_graphs.items()
                if existing[0]() is not None
            }
        self._attached_graphs[key] = (weakref.ref(graph), self.delta_bus.attach(graph))

    def _effective_graph(self, request: ProtectionRequest) -> PropertyGraph:
        """The graph this request runs against (request override or bound)."""
        graph = request.graph if request.graph is not None else self.graph
        if graph is None:
            raise ProtectionError(
                "this service has no bound graph; requests must carry graph="
            )
        self._attach_graph(graph)
        return graph

    def _stamp_cache_stats(self, timings: Dict[str, float], *, hit: bool) -> None:
        """Surface the tenant's cache counters in a result's timings map.

        Stamped *after* ``timings["total"]`` is computed so the counters
        never inflate the phase sum.
        """
        stats = self.cache.stats(self.tenant)
        timings["cache_hit"] = 1.0 if hit else 0.0
        timings["cache_hits"] = float(stats.hits)
        timings["cache_misses"] = float(stats.misses)

    def _coerce_request(
        self,
        request: Optional[RequestLike],
        privilege: Optional[object],
        privileges: Optional[Sequence[object]],
        options: Mapping[str, object],
    ) -> ProtectionRequest:
        if request is not None and not isinstance(request, ProtectionRequest):
            # A bare privilege (or privilege name) passed positionally.
            if privilege is not None or privileges is not None:
                raise TypeError(
                    "pass either a positional privilege or privilege=/privileges=, not both"
                )
            request = ProtectionRequest(privileges=(request,), **options)  # type: ignore[arg-type]
        elif request is None:
            if privilege is not None and privileges is not None:
                raise TypeError("pass either privilege= or privileges=, not both")
            selected: Tuple[object, ...]
            if privilege is not None:
                selected = (privilege,)
            elif privileges is not None:
                selected = tuple(privileges)
            else:
                raise TypeError("protect() needs a request, privilege= or privileges=")
            request = ProtectionRequest(privileges=selected, **options)  # type: ignore[arg-type]
        elif options or privilege is not None or privileges is not None:
            raise TypeError("pass either a ProtectionRequest or keyword options, not both")
        resolved = tuple(self.policy.lattice.get(item) for item in request.privileges)
        return request.with_options(privileges=resolved)

    def _walks_registry(self, graph: PropertyGraph) -> Dict[tuple, object]:
        """The visible-walk registry for one graph (bounded, oldest evicted).

        Keyed by graph identity; a recycled ``id()`` is harmless because
        :func:`~repro.core.generation.build_protected_account` verifies each
        cached walk's graph identity before trusting it.
        """
        key = id(graph)
        registry = self._walks_caches.get(key)
        if registry is None:
            if len(self._walks_caches) >= _WALK_GRAPH_LIMIT:
                self._walks_caches.pop(next(iter(self._walks_caches)))
            registry = {}
            self._walks_caches[key] = registry
        return registry

    def _build_account(
        self, request: ProtectionRequest, graph: PropertyGraph
    ) -> ProtectedAccount:
        privileges: Tuple[Privilege, ...] = request.privileges  # type: ignore[assignment]
        with self._generation_lock:
            if request.strategy == STRATEGY_NAIVE:
                accounts = [
                    naive_protected_account(graph, self.policy, privilege)
                    for privilege in privileges
                ]
                if len(accounts) == 1:
                    return accounts[0]
                return merge_accounts(graph, accounts, name=request.name)

            policy = self.policy
            walks_cache: Optional[Dict[tuple, object]] = self._walks_registry(graph)
            if request.protect_edges:
                self._check_edges_exist(request.protect_edges, graph)
                policy = self.policy.copy()
                for privilege in privileges:
                    policy.protect_edges(
                        list(request.protect_edges), privilege, strategy=request.strategy
                    )
                # A scoped one-shot policy gets no shared walk cache: its
                # markings die with this request.
                walks_cache = None
            elif len(walks_cache) > _WALK_CACHE_LIMIT:
                walks_cache.clear()

            if len(privileges) > 1:
                return build_multi_privilege_account(
                    graph,
                    policy,
                    privileges,
                    include_surrogate_edges=request.include_surrogate_edges,
                    ensure_maximal_connectivity=request.repair_connectivity,
                    strategy=request.strategy,
                    name=request.name,
                    compiled=request.compiled,
                    walks_cache=walks_cache,
                )
            return build_protected_account(
                graph,
                policy,
                privileges[0],
                include_surrogate_edges=request.include_surrogate_edges,
                ensure_maximal_connectivity=request.repair_connectivity,
                strategy=request.strategy,
                name=request.name,
                compiled=request.compiled,
                walks_cache=walks_cache,
            )

    def _check_edges_exist(
        self, edges: Tuple[EdgeKey, ...], graph: PropertyGraph
    ) -> None:
        """Protecting an edge that is not in the graph is a caller error."""
        for source, target in edges:
            if not graph.has_node(source):
                raise NodeNotFoundError(source)
            if not graph.has_node(target):
                raise NodeNotFoundError(target)
            if not graph.has_edge(source, target):
                raise EdgeNotFoundError(source, target)
