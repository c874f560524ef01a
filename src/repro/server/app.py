"""The async HTTP frontend: listener, dispatch, and the serving lifecycle.

:class:`ProtectionServer` is a stdlib-asyncio HTTP/1.1 server over the
in-process serving stack.  One event loop accepts connections and parses
requests; every unit of real work — account generation, scoring,
enforcement, edit commits — is pushed onto a bounded thread-pool executor,
so the loop never blocks on a compile and slow requests never stall
health checks or admission decisions.

Request lifecycle::

    parse → authenticate (bearer token → tenant) → admit (per-tenant
    bounded lane) → decode (graph/policy payloads deduplicated by content
    digest onto shared objects) → execute on an executor thread → encode

Deduplication is the performance story: equal graph and policy payloads
resolve to the *same* in-memory objects, so the
:class:`~repro.api.cache.AccountCache` — keyed on object identity and
version counters — serves repeated requests without recompiling anything.
A cached replay over HTTP is JSON parsing plus a cache lookup.

Endpoints (see ``docs/serving.md`` for wire formats)::

    GET  /v1/health                      serving health, no auth
    POST /v1/graphs                      register a graph, get a graph_ref
    POST /v1/protect                     one protection request
    POST /v1/protect_many                batch; chunked NDJSON stream
    POST /v1/score                       ScoreCard only
    POST /v1/enforce                     lineage query enforcement
    POST /v1/sessions                    open an edit session
    GET  /v1/sessions                    list this tenant's sessions
    POST /v1/sessions/{sid}/edits        replay edit-script entries
    DELETE /v1/sessions/{sid}            close a session
"""

from __future__ import annotations

import asyncio
import functools
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.api.registry import ServiceRegistry
from repro.api.service import ProtectionService
from repro.core.policy import ReleasePolicy
from repro.exceptions import ReproError, StaleReplicaError
from repro.graph.model import PropertyGraph
from repro.replication.wire import VECTOR_HEADER
from repro.security.enforcement import EnforcementMode, QueryEnforcer
from repro.server.admission import DEFAULT_MAX_INFLIGHT, DEFAULT_MAX_QUEUE, AdmissionController
from repro.server.auth import Principal, TokenAuthenticator
from repro.server.encoding import (
    build_policy,
    decode_consumer,
    decode_graph,
    decode_protection_request,
    graph_digest,
    json_bytes,
    policy_digest,
    query_result_payload,
    result_payload,
    resolve_graph_payload,
    scorecard_payload,
    timings_payload,
)
from repro.server.errors import (
    BadRequestError,
    NotFoundError,
    error_envelope,
    retry_after_for,
    status_for,
)
from repro.server.http import ChunkedStream, HttpRequest, read_request, response_bytes
from repro.server.metrics import LatencyRegistry
from repro.server.replication import FollowerReplication, LeaderReplication
from repro.server.router import Router
from repro.server.sessions import SessionManager

logger = logging.getLogger("repro.server")

#: Per-tenant bounds on deduplicated artifacts held in memory.
GRAPHS_PER_TENANT = 64
SERVICES_PER_TENANT = 8
ENFORCERS_PER_SERVER = 16


@dataclass
class ServerConfig:
    """Everything the operator chooses about one server process."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Executor threads serving requests (cached replays, decode, merge).
    workers: int = 4
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    max_queue: int = DEFAULT_MAX_QUEUE
    max_sessions_per_tenant: int = 16
    #: Root directory for per-tenant durable stores (None = in-memory).
    store_root: Optional[str] = None
    #: Seconds :meth:`ProtectionServer.shutdown` waits for in-flight work.
    drain_timeout: float = 10.0
    #: Lead: stream every published graph's deltas into per-tenant delta
    #: logs (needs a durable ``store_root``).
    replicate: bool = False
    #: Follow: serve reads from the leader's store root (opened read-only),
    #: tailing its delta logs.  The value is the leader's base URL, quoted
    #: back to clients that outrun the staleness budget.
    replica_of: Optional[str] = None
    #: Seconds a follower may block waiting to cover a request's
    #: ``X-Repro-Vector`` before answering 503 (see docs/replication.md).
    staleness_budget: float = 2.0
    #: Follower tail-thread poll delay (``None`` = library default).
    replica_poll_interval: Optional[float] = None


@dataclass
class _Tenant:
    """Server-side per-tenant artifact caches (insertion-ordered LRU)."""

    graphs: Dict[str, PropertyGraph] = field(default_factory=dict)
    graph_payloads: Dict[str, Mapping[str, Any]] = field(default_factory=dict)
    services: Dict[str, Tuple[ReleasePolicy, ProtectionService]] = field(default_factory=dict)


class ProtectionServer:
    """One multi-tenant HTTP serving frontend over a :class:`ServiceRegistry`."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        registry: Optional[ServiceRegistry] = None,
    ) -> None:
        self.config = config if config is not None else ServerConfig()
        if self.config.replicate and self.config.replica_of:
            raise ValueError("a server is a leader or a follower, not both")
        if (self.config.replicate or self.config.replica_of) and registry is None:
            if self.config.store_root is None:
                raise ValueError("replication needs a durable --store-root")
        self.registry = (
            registry
            if registry is not None
            else ServiceRegistry(
                self.config.store_root, read_only=bool(self.config.replica_of)
            )
        )
        self.replication: Optional[Any] = None
        if self.config.replicate:
            self.replication = LeaderReplication(self)
        elif self.config.replica_of:
            self.replication = FollowerReplication(
                self,
                self.config.replica_of,
                staleness_budget=self.config.staleness_budget,
                poll_interval=self.config.replica_poll_interval,
            )
        self.auth = TokenAuthenticator()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight, max_queue=self.config.max_queue
        )
        self.sessions = SessionManager(
            max_sessions_per_tenant=self.config.max_sessions_per_tenant
        )
        self.router = Router()
        self._install_routes()
        self._tenants: Dict[str, _Tenant] = {}
        self._primary_service: Dict[str, ProtectionService] = {}
        self._enforcers: Dict[Tuple[str, str, str], QueryEnforcer] = {}
        self._artifacts_lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self.port: Optional[int] = None
        #: Per-endpoint latency histograms (route pattern → histogram).
        self.latency = LatencyRegistry()

    # ------------------------------------------------------------------ #
    # tenant management
    # ------------------------------------------------------------------ #
    def add_tenant(
        self,
        tenant: str,
        *,
        token: Optional[str] = None,
        max_requests: Optional[int] = None,
        max_graphs: Optional[int] = None,
        max_inflight: Optional[int] = None,
        max_queue: Optional[int] = None,
    ) -> str:
        """Register a tenant (registry + quota + admission lane); returns its token."""
        self.registry.register(tenant, max_requests=max_requests, max_graphs=max_graphs)
        self.admission.configure(tenant, max_inflight=max_inflight, max_queue=max_queue)
        self._tenants[tenant] = _Tenant()
        return self.auth.issue(tenant, token)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listener; returns once the port is accepting."""
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self, *, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Graceful drain: finish in-flight requests, reject new ones with 503."""
        self.admission.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = await self.admission.wait_idle(
            timeout if timeout is not None else self.config.drain_timeout
        )
        closed_sessions = self.sessions.close_all()
        for writer in list(self._connections):
            writer.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.replication is not None:
            self.replication.close()
        return {"drained": drained, "closed_sessions": closed_sessions}

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequestError as exc:
                    writer.write(self._error_response(exc, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive
                done = await self._serve_one(request, writer, keep_alive)
                if not done or not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client vanished
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _serve_one(
        self, request: HttpRequest, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        """Serve one parsed request; False means the connection must close."""
        stream: Optional[ChunkedStream] = None
        label = "unrouted"
        started = time.perf_counter()
        try:
            route, params = self.router.resolve(request.method, request.path)
            label = f"{route.method} /{'/'.join(route.segments)}"
            if not route.auth:
                response = await route.handler(request, params, None)
                writer.write(self._encode_response(response, keep_alive))
                await writer.drain()
                return True
            principal = self.auth.authenticate(request.headers.get("authorization"))
            admission = await self.admission.admit(principal.tenant)
            async with admission:
                if self.replication is not None:
                    # The freshness handshake runs before the handler so a
                    # stale follower never half-serves: wait up to the
                    # budget, or fail the whole request with 503.
                    raw_vector = request.headers.get(VECTOR_HEADER.lower())
                    if raw_vector:
                        await self._run(
                            self.replication.wait_current, principal.tenant, raw_vector
                        )
                if route.stream:
                    stream = ChunkedStream(writer, keep_alive=keep_alive)
                    await route.handler(request, params, principal, stream)
                    await stream.finish()
                    return True
                response = await route.handler(request, params, principal)
            writer.write(
                self._encode_response(
                    response, keep_alive, extra=self._replication_headers(principal.tenant)
                )
            )
            await writer.drain()
            return True
        except Exception as exc:  # noqa: BLE001 - every failure becomes an envelope
            if not isinstance(exc, (ReproError, ValueError, KeyError, TypeError)):
                logger.exception("unhandled error serving %s %s", request.method, request.path)
            if stream is not None and stream.started:
                # The status line is gone; the error becomes the final
                # stream element and the connection closes.
                await stream.send(json_bytes(error_envelope(exc)) + b"\n")
                await stream.finish()
                return False
            writer.write(self._error_response(exc, keep_alive=keep_alive))
            await writer.drain()
            return True
        finally:
            self.latency.record(label, (time.perf_counter() - started) * 1000.0)

    def _encode_response(
        self,
        response: Tuple[int, Any, Optional[Mapping[str, object]]],
        keep_alive: bool,
        *,
        extra: Optional[Mapping[str, object]] = None,
    ) -> bytes:
        status, payload, headers = response
        if extra:
            merged: Dict[str, object] = dict(headers or {})
            merged.update(extra)
            headers = merged
        return response_bytes(
            status, json_bytes(payload) + b"\n", headers=headers, keep_alive=keep_alive
        )

    def _replication_headers(self, tenant: str) -> Optional[Mapping[str, object]]:
        """The role's version-vector response header (or ``None``)."""
        if self.replication is None:
            return None
        try:
            return self.replication.response_headers(tenant)
        except ReproError:  # pragma: no cover - status must never fail a request
            return None

    def _error_response(self, exc: BaseException, *, keep_alive: bool) -> bytes:
        envelope = error_envelope(exc)
        headers: Dict[str, object] = {}
        retry_after = retry_after_for(exc)
        if retry_after is not None:
            headers["Retry-After"] = retry_after
        if status_for(exc) == 401:
            headers["WWW-Authenticate"] = "Bearer"
        if isinstance(exc, StaleReplicaError):
            leader = getattr(self.replication, "leader_url", None)
            if leader:
                # The redirect half of the staleness contract: a client past
                # the budget learns where current reads live.
                headers["X-Repro-Leader"] = leader
        return response_bytes(
            status_for(exc), json_bytes(envelope) + b"\n", headers=headers, keep_alive=keep_alive
        )

    async def _run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run blocking work on the executor pool (never on the loop)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, functools.partial(fn, *args, **kwargs))

    # ------------------------------------------------------------------ #
    # artifact resolution (digest-deduplicated graphs / policies / services)
    # ------------------------------------------------------------------ #
    def _tenant_state(self, tenant: str) -> _Tenant:
        state = self._tenants.get(tenant)
        if state is None:
            state = _Tenant()
            self._tenants[tenant] = state
        return state

    def _register_graph(self, tenant: str, payload: Mapping[str, Any]) -> Tuple[str, PropertyGraph]:
        """Dedupe one inline graph payload into the tenant's graph cache."""
        digest = graph_digest(payload)
        with self._artifacts_lock:
            state = self._tenant_state(tenant)
            graph = state.graphs.get(digest)
            if graph is not None:
                return digest, graph
        graph = decode_graph(payload)
        with self._artifacts_lock:
            state = self._tenant_state(tenant)
            existing = state.graphs.get(digest)
            if existing is not None:
                return digest, existing
            while len(state.graphs) >= GRAPHS_PER_TENANT:
                oldest = next(iter(state.graphs))
                del state.graphs[oldest]
                state.graph_payloads.pop(oldest, None)
            state.graphs[digest] = graph
            state.graph_payloads[digest] = payload
        return digest, graph

    def _resolve_graph(self, tenant: str, body: Mapping[str, Any]) -> Tuple[str, PropertyGraph]:
        """The graph one request runs against (inline, graph_ref or graph_name)."""
        name = body.get("graph_name")
        if name is not None:
            if self.replication is None:
                raise BadRequestError(
                    "'graph_name' needs replication enabled"
                    " (start the server with --replicate or --replica-of)"
                )
            return f"name:{name}", self.replication.named_graph(tenant, str(name), body)
        ref = body.get("graph_ref")
        if ref is not None:
            with self._artifacts_lock:
                graph = self._tenant_state(tenant).graphs.get(str(ref))
            if graph is None:
                raise NotFoundError(
                    f"unknown graph_ref {str(ref)[:16]}...; re-register via POST /v1/graphs"
                )
            return str(ref), graph
        payload = resolve_graph_payload(body)
        if payload is None:
            raise BadRequestError("the request needs 'graph' (inline) or 'graph_ref'")
        return self._register_graph(tenant, payload)

    def _resolve_service(
        self, tenant: str, body: Mapping[str, Any]
    ) -> Tuple[str, ReleasePolicy, ProtectionService]:
        """The tenant's multi-graph service for this request's policy spec."""
        digest = policy_digest(body)
        with self._artifacts_lock:
            state = self._tenant_state(tenant)
            entry = state.services.get(digest)
            if entry is not None:
                return digest, entry[0], entry[1]
        policy = build_policy(body)
        service = self.registry.service(tenant, None, policy)
        self._attach_serving_stats(tenant, service)
        with self._artifacts_lock:
            state = self._tenant_state(tenant)
            existing = state.services.get(digest)
            if existing is not None:
                return digest, existing[0], existing[1]
            while len(state.services) >= SERVICES_PER_TENANT:
                del state.services[next(iter(state.services))]
            state.services[digest] = (policy, service)
            self._primary_service.setdefault(tenant, service)
        return digest, policy, service

    def _attach_serving_stats(self, tenant: str, service: ProtectionService) -> None:
        service.serving = lambda: {
            "admission": self.admission.tenant_snapshot(tenant),
            "sessions": self.sessions.count(tenant),
            "draining": self.admission.draining,
        }

    def _resolve_enforcer(
        self, tenant: str, body: Mapping[str, Any]
    ) -> QueryEnforcer:
        """A cached per-(tenant, policy, graph) :class:`QueryEnforcer`."""
        graph_ref, graph = self._resolve_graph(tenant, body)
        policy_ref = policy_digest(body)
        key = (tenant, policy_ref, graph_ref)
        with self._artifacts_lock:
            enforcer = self._enforcers.get(key)
        if enforcer is not None:
            return enforcer
        policy = build_policy(body)
        service = self.registry.service(tenant, graph, policy)
        self._attach_serving_stats(tenant, service)
        enforcer = QueryEnforcer(graph, policy, service=service)
        with self._artifacts_lock:
            while len(self._enforcers) >= ENFORCERS_PER_SERVER:
                del self._enforcers[next(iter(self._enforcers))]
            self._enforcers[key] = enforcer
        return enforcer

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    def _install_routes(self) -> None:
        add = self.router.add
        add("GET", "/v1/health", self._h_health, auth=False)
        add("GET", "/v1/replication", self._h_replication, auth=False)
        add("POST", "/v1/graphs", self._h_register_graph)
        add("POST", "/v1/protect", self._h_protect)
        add("POST", "/v1/protect_many", self._h_protect_many, stream=True)
        add("POST", "/v1/score", self._h_score)
        add("POST", "/v1/enforce", self._h_enforce)
        add("POST", "/v1/sessions", self._h_session_create)
        add("GET", "/v1/sessions", self._h_session_list)
        add("POST", "/v1/sessions/{session_id}/edits", self._h_session_edits)
        add("DELETE", "/v1/sessions/{session_id}", self._h_session_close)

    async def _h_health(
        self, request: HttpRequest, params: Dict[str, str], principal: Optional[Principal]
    ) -> Tuple[int, Any, None]:
        serving = self.admission.snapshot()
        serving["sessions"] = self.sessions.count()
        serving["connections"] = len(self._connections)
        serving["latency"] = self.latency.snapshot()
        tenants: Dict[str, Any] = {}
        degraded = False
        for tenant in self.registry.tenants():
            service = self._primary_service.get(tenant)
            if service is None:
                tenants[tenant] = None
                continue
            health = await self._run(service.health)
            tenants[tenant] = health
            degraded = degraded or health.get("status") != "ok"
        status = "draining" if self.admission.draining else ("degraded" if degraded else "ok")
        return 200, {"status": status, "serving": serving, "tenants": tenants}, None

    async def _h_replication(
        self, request: HttpRequest, params: Dict[str, str], principal: Optional[Principal]
    ) -> Tuple[int, Any, None]:
        if self.replication is None:
            return 200, {"role": "standalone"}, None
        status = await self._run(self.replication.status)
        return 200, status, None

    async def _h_register_graph(
        self, request: HttpRequest, params: Dict[str, str], principal: Principal
    ) -> Tuple[int, Any, None]:
        body = request.json()
        tenant = principal.authorize(body.get("tenant"))
        payload = resolve_graph_payload(body)
        if payload is None:
            raise BadRequestError("POST /v1/graphs needs an inline 'graph'")
        digest, graph = await self._run(self._register_graph, tenant, payload)
        return (
            201,
            {
                "graph_ref": digest,
                "name": graph.name,
                "nodes": graph.node_count(),
                "edges": graph.edge_count(),
            },
            None,
        )

    async def _h_protect(
        self, request: HttpRequest, params: Dict[str, str], principal: Principal
    ) -> Tuple[int, Any, None]:
        body = request.json()
        tenant = principal.authorize(body.get("tenant"))
        _, graph = self._resolve_graph(tenant, body)
        _, _, service = self._resolve_service(tenant, body)
        protection_request = decode_protection_request(body, graph)
        result = await self._run(service.protect, protection_request)
        return (
            200,
            {
                "tenant": tenant,
                "result": result_payload(result),
                "timings_ms": timings_payload(result.timings_ms),
                "cache_hit": bool(result.timings_ms.get("cache_hit")),
            },
            None,
        )

    async def _h_protect_many(
        self,
        request: HttpRequest,
        params: Dict[str, str],
        principal: Principal,
        stream: ChunkedStream,
    ) -> None:
        body = request.json()
        tenant = principal.authorize(body.get("tenant"))
        entries = body.get("requests")
        if not isinstance(entries, list) or not entries:
            raise BadRequestError("'requests' must be a non-empty list")
        _, _, service = self._resolve_service(tenant, body)
        decoded = []
        for entry in entries:
            if not isinstance(entry, Mapping):
                raise BadRequestError(f"each request must be an object, got {entry!r}")
            merged = dict(body)
            merged.pop("requests", None)
            merged.update(entry)
            _, graph = self._resolve_graph(tenant, merged)
            decoded.append(decode_protection_request(merged, graph))
        await stream.start()
        served = 0
        failed = 0
        for index, protection_request in enumerate(decoded):
            try:
                result = await self._run(service.protect, protection_request)
            except ReproError as exc:
                failed += 1
                line = {"index": index, **error_envelope(exc)}
            else:
                served += 1
                line = {
                    "index": index,
                    "result": result_payload(result),
                    "timings_ms": timings_payload(result.timings_ms),
                    "cache_hit": bool(result.timings_ms.get("cache_hit")),
                }
            await stream.send(json_bytes(line) + b"\n")
        summary = {
            "served": served,
            "failed": failed,
            "cache": service.cache_stats().as_dict(),
        }
        await stream.send(json_bytes(summary) + b"\n")

    async def _h_score(
        self, request: HttpRequest, params: Dict[str, str], principal: Principal
    ) -> Tuple[int, Any, None]:
        body = request.json()
        tenant = principal.authorize(body.get("tenant"))
        _, graph = self._resolve_graph(tenant, body)
        _, _, service = self._resolve_service(tenant, body)
        merged = dict(body)
        merged["score"] = True
        protection_request = decode_protection_request(merged, graph)
        result = await self._run(service.protect, protection_request)
        assert result.scores is not None  # score=True above
        return (
            200,
            {
                "tenant": tenant,
                "scores": scorecard_payload(result.scores),
                "timings_ms": timings_payload(result.timings_ms),
            },
            None,
        )

    async def _h_enforce(
        self, request: HttpRequest, params: Dict[str, str], principal: Principal
    ) -> Tuple[int, Any, None]:
        body = request.json()
        tenant = principal.authorize(body.get("tenant"))
        consumer = decode_consumer(body)
        if "start" not in body:
            raise BadRequestError("'start' (an original node id) is required")
        direction = body.get("direction", "descendants")
        mode_name = str(body.get("mode", "protected")).upper()
        try:
            mode = EnforcementMode[mode_name]
        except KeyError as exc:
            raise BadRequestError(
                f"unknown enforcement mode {mode_name!r}; expected one of "
                f"{[mode.name for mode in EnforcementMode]}"
            ) from exc
        enforcer = self._resolve_enforcer(tenant, body)

        def run_query():
            try:
                return enforcer.reachable(
                    consumer, body["start"], direction=direction, mode=mode
                )
            except ValueError as exc:
                raise BadRequestError(str(exc)) from exc

        result = await self._run(run_query)
        return 200, {"tenant": tenant, "query": query_result_payload(result)}, None

    # ------------------------------------------------------------------ #
    # edit sessions
    # ------------------------------------------------------------------ #
    async def _h_session_create(
        self, request: HttpRequest, params: Dict[str, str], principal: Principal
    ) -> Tuple[int, Any, None]:
        body = request.json()
        tenant = principal.authorize(body.get("tenant"))
        _, shared_graph = self._resolve_graph(tenant, body)
        privilege = body.get("privilege")
        if privilege is None:
            raise BadRequestError("'privilege' is required to open an edit session")

        named = body.get("graph_name") is not None
        if named and self.replication is not None and self.replication.role == "replica":
            raise BadRequestError(
                "replicas are read-only; open edit sessions on the leader at "
                f"{self.replication.leader_url}"
            )

        def open_session():
            if named:
                # A named session edits the *published* graph itself — that
                # is the leader's write path: every committed edit streams
                # through the delta log to the followers.
                graph = shared_graph
            else:
                # The session owns a private copy: edits must never mutate
                # the digest-shared graph other requests are served from.
                graph = shared_graph.copy()
            policy = build_policy(body)
            service = self.registry.service(tenant, graph, policy)
            self._attach_serving_stats(tenant, service)
            return self.sessions.create(
                tenant,
                service,
                privilege,
                normalize_focus=bool(body.get("normalize_focus", False)),
                name=body.get("name"),
            )

        record = await self._run(open_session)
        payload = record.describe()
        payload["result"] = result_payload(record.session.result)
        return 201, payload, None

    async def _h_session_list(
        self, request: HttpRequest, params: Dict[str, str], principal: Principal
    ) -> Tuple[int, Any, None]:
        tenant = principal.authorize(request.query.get("tenant"))
        return 200, {"tenant": tenant, "sessions": self.sessions.list_for(tenant)}, None

    async def _h_session_edits(
        self, request: HttpRequest, params: Dict[str, str], principal: Principal
    ) -> Tuple[int, Any, None]:
        body = request.json()
        tenant = principal.authorize(body.get("tenant"))
        record = self.sessions.get(tenant, params["session_id"])
        rows, summary = await self._run(self.sessions.apply_edits, record, body.get("edits"))
        return 200, {"tenant": tenant, "session": summary, "edits": rows}, None

    async def _h_session_close(
        self, request: HttpRequest, params: Dict[str, str], principal: Principal
    ) -> Tuple[int, Any, None]:
        tenant = principal.authorize(request.query.get("tenant"))
        summary = await self._run(self.sessions.close, tenant, params["session_id"])
        return 200, summary, None


# ---------------------------------------------------------------------- #
# thread-hosted serving (tests, benchmarks, CLI)
# ---------------------------------------------------------------------- #
class ServerHandle:
    """A running server on a background thread, stoppable from any thread."""

    def __init__(
        self,
        server: ProtectionServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
        stop_event: asyncio.Event,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stop_event = stop_event

    @property
    def port(self) -> int:
        """The bound TCP port."""
        assert self.server.port is not None
        return self.server.port

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) clients connect to."""
        return (self.server.config.host, self.port)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain gracefully and join the serving thread (idempotent)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout)


def start_server_thread(
    config: Optional[ServerConfig] = None,
    *,
    tenants: Optional[Mapping[str, Optional[str]]] = None,
    tenant_options: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Tuple[ServerHandle, Dict[str, str]]:
    """Start a :class:`ProtectionServer` on a fresh thread + event loop.

    ``tenants`` maps tenant name → fixed token (or ``None`` to generate).
    ``tenant_options`` adds per-tenant keyword arguments for
    :meth:`ProtectionServer.add_tenant` (quotas, lane bounds).  Returns the
    handle and the issued tokens.  The caller owns shutdown via
    :meth:`ServerHandle.stop`.
    """
    server = ProtectionServer(config)
    tokens: Dict[str, str] = {}
    for tenant, token in dict(tenants or {"default": None}).items():
        options = dict((tenant_options or {}).get(tenant, {}))
        tokens[tenant] = server.add_tenant(tenant, token=token, **options)

    started = threading.Event()
    boot: Dict[str, Any] = {}

    def run() -> None:
        async def main() -> None:
            stop_event = asyncio.Event()
            boot["loop"] = asyncio.get_running_loop()
            boot["stop_event"] = stop_event
            try:
                await server.start()
            finally:
                started.set()
            await stop_event.wait()
            await server.shutdown()

        asyncio.run(main())

    thread = threading.Thread(target=run, name="repro-server", daemon=True)
    thread.start()
    if not started.wait(30.0) or server.port is None:
        raise RuntimeError("server failed to start within 30s")
    handle = ServerHandle(server, boot["loop"], thread, boot["stop_event"])
    return handle, tokens
