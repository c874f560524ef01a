"""Spans around the program's layer boundaries, installed from outside.

A traced run patches each listed boundary where its caller looks the name
up (``repro.api.service.utility_report``, ``MarkingPolicy.compile``, ...)
with a wrapper that records a span: name, start, end, parent span and
operation id.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus its direct children's.  Counts
come from public counters (``view_maintenance_stats()``,
``opacity_simulations_run()``, ``os.fsync`` calls, ``gc.callbacks``) and
from what a boundary returns (cache hit or miss, restore mode, result
size), never from per-element hooks, so tracing stays cheap.

Span names are the layer vocabulary: ``server.*``, ``security.*``,
``api.*``, ``core.*``, ``graph.*``, ``store.*``.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)

# (module, attribute path, span name).  A name listed twice for one span
# (e.g. ``core.delta_apply``) sums the boundaries.
IN_PROCESS_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api.service", "ProtectionService.protect", "api.protect"),
    ("repro.api.service", "ProtectionService.score", "api.score"),
    ("repro.api.service", "build_protected_account", "core.generate"),
    ("repro.api.service", "utility_report", "core.utility"),
    ("repro.api.service", "opacity_report", "core.opacity_score"),
    ("repro.api.service", "ProtectionService.checkpoint", "api.checkpoint_write"),
    ("repro.api.service", "ProtectionService.restore", "api.checkpoint_restore"),
    ("repro.api.cache", "AccountCache.lookup", "api.cache_lookup"),
    ("repro.api.cache", "AccountCache.store", "api.cache_store"),
    ("repro.core.markings", "MarkingPolicy.compile", "core.marking_compile"),
    ("repro.core.permitted", "VisibleWalkCache.forward", "core.walks"),
    ("repro.core.permitted", "VisibleWalkCache.backward", "core.walks"),
    ("repro.core.generation", "surrogate_edge_candidates", "core.candidates"),
    ("repro.core.opacity", "OpacityViewCache.get_or_compile", "core.opacity_compile"),
    ("repro.api.editing", "EditSession.commit", "api.edit_commit"),
    ("repro.api.editing", "EditSession.remove_edge", "graph.mutate"),
    ("repro.api.editing", "EditSession.add_edge", "graph.mutate"),
    ("repro.api.editing", "build_protected_account", "core.generate"),
    ("repro.api.editing", "utility_report", "core.utility"),
    ("repro.api.editing", "opacity_report", "core.opacity_score"),
    ("repro.core.markings", "CompiledMarkingView.apply_delta", "core.delta_apply"),
    ("repro.core.permitted", "VisibleWalkCache.apply_delta", "core.delta_apply"),
    ("repro.core.opacity", "CompiledOpacityView.apply_delta", "core.delta_apply"),
    ("repro.store.engine", "GraphStore.__init__", "store.open"),
    ("repro.store.engine", "GraphStore.graph", "store.graph"),
    ("repro.store.engine", "GraphStore.put_graph", "store.put"),
    ("repro.graph.serialization", "graph_from_json", "graph.decode"),
    ("repro.security.enforcement", "QueryEnforcer.reachable", "security.query"),
)

#: Server-process boundaries (installed by ``serve_boot.py``).  The first
#: two scope spans to requests: ``server.request`` gives each request an
#: operation id, ``server.executor`` carries it into executor threads
#: (``run_in_executor`` does not copy context variables) and records no span.
SERVER_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.server.app", "ProtectionServer._serve_one", "server.request"),
    ("repro.server.app", "ProtectionServer._run", "server.executor"),
) + IN_PROCESS_BOUNDARIES + (
    ("repro.server.http", "HttpRequest.json", "server.parse"),
    ("repro.server.auth", "TokenAuthenticator.authenticate", "server.auth"),
    ("repro.server.admission", "AdmissionController.admit", "server.admission_wait"),
    ("repro.server.app", "graph_digest", "server.digest"),
    ("repro.server.app", "policy_digest", "server.digest"),
    ("repro.server.app", "decode_graph", "server.decode"),
    ("repro.server.app", "build_policy", "server.decode"),
    ("repro.server.app", "decode_protection_request", "server.decode"),
    ("repro.server.app", "decode_consumer", "server.decode"),
    ("repro.server.encoding", "graph_from_dict", "graph.decode"),
    ("repro.server.app", "result_payload", "server.encode"),
    ("repro.server.app", "query_result_payload", "server.encode"),
    ("repro.server.app", "timings_payload", "server.encode"),
    ("repro.server.app", "response_bytes", "server.encode"),
)

#: Boundaries whose return value is also counted.
_RESULT_COUNTERS: Dict[str, Callable[[Any], Dict[str, int]]] = {
    "api.cache_lookup": lambda result: {"cache.hits" if result is not None else "cache.misses": 1},
    "api.checkpoint_restore": lambda report: {
        "restore.total": 1,
        "restore.warm": int(getattr(report, "mode", "") == "warm"),
    },
    "security.query": lambda result: {"security.result_nodes": len(result.nodes)},
}


class Tracer:
    """In-memory spans plus the counters read at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self.phase = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._gc_started: Optional[float] = None
        self._real_fsync = os.fsync
        self._request_ids = itertools.count()

    # -- spans -------------------------------------------------------- #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, *, nested: bool = True) -> int:
        stack = self._stack() if nested else None
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), 0.0, parent, _OP.get(), self.phase]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        if stack is not None:
            stack.append(index)
        return index

    def end(self, index: int, *, nested: bool = True) -> None:
        self.spans[index][2] = time.perf_counter()
        if nested:
            self._stack().pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def set_op(self, op_id: Optional[int]) -> None:
        _OP.set(op_id)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counter = _RESULT_COUNTERS.get(name)
        tracer = self
        if name == "server.request":

            @functools.wraps(fn)
            async def request_wrapper(*args: Any, **kwargs: Any) -> Any:
                _OP.set(next(tracer._request_ids))  # this connection task's context
                index = tracer.begin(name, nested=False)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.end(index, nested=False)

            return request_wrapper

        if name == "server.executor":

            @functools.wraps(fn)
            async def executor_wrapper(server: Any, work: Any, *args: Any, **kwargs: Any) -> Any:
                op_id = _OP.get()

                def scoped() -> Any:
                    _OP.set(op_id)
                    return work(*args, **kwargs)

                return await fn(server, scoped)

            return executor_wrapper

        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on one thread: no parent stack, the span
            # is the awaited time.
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                index = tracer.begin(name, nested=False)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.end(index, nested=False)

            return async_wrapper

        if name == "core.walks":
            # A memoised walk answers without growing the cache: hits are
            # calls that left ``cached_walk_count()`` unchanged.
            @functools.wraps(fn)
            def walk_wrapper(walks: Any, start: Any) -> Any:
                cached = walks.cached_walk_count()
                index = tracer.begin(name)
                try:
                    return fn(walks, start)
                finally:
                    tracer.end(index)
                    tracer.count("walks.calls")
                    tracer.count("walks.hits", int(walks.cached_walk_count() == cached))

            return walk_wrapper

        if name == "api.cache_store":
            # Evictions happen only when a store overflows a namespace.
            @functools.wraps(fn)
            def store_wrapper(cache: Any, *args: Any, **kwargs: Any) -> Any:
                evicted = cache.stats().evictions
                index = tracer.begin(name)
                try:
                    return fn(cache, *args, **kwargs)
                finally:
                    tracer.end(index)
                    tracer.count("cache.evictions", cache.stats().evictions - evicted)

            return store_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if counter is not None:
                for counted, amount in counter(result).items():
                    tracer.count(counted, amount)
            return result

        return wrapper

    # -- installation ------------------------------------------------- #
    def install(self, boundaries: Iterable[Tuple[str, str, str]]) -> None:
        """Patch every boundary and start a new phase of spans."""
        self.phase += 1
        for module_name, path, name in boundaries:
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original))
        tracer = self

        def fsync(fd: int) -> None:
            index = tracer.begin("store.flush")
            try:
                tracer._real_fsync(fd)
            finally:
                tracer.end(index)

        self._patches.append((os, "fsync", os.fsync))
        os.fsync = fsync
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, event: str, info: Dict[str, Any]) -> None:
        if info.get("generation") != 2:
            return
        if event == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.count("gc.gen2")
            self.count("gc.pause_us", int((time.perf_counter() - self._gc_started) * 1e6))
            self._gc_started = None

    def counters(self) -> Dict[str, Any]:
        """A snapshot of the program's public counters and boundary counts."""
        from repro.core.opacity import opacity_simulations_run
        from repro.graph.deltas import view_maintenance_stats

        return {
            "maintenance": view_maintenance_stats(),
            "opacity_simulations": opacity_simulations_run(),
            "boundary": self._counts_snapshot(),
        }

    def _counts_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counts)

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        payload = {"spans": self.spans, "counts": self._counts_snapshot()}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def self_times(spans: List[List[Any]]) -> List[float]:
    """Each span's duration minus its direct children's, in ms."""
    selves = [(end - start) * 1000.0 for _name, start, end, _parent, _op, _phase in spans]
    for _name, start, end, parent, _op, _phase in spans:
        if parent >= 0:
            selves[parent] -= (end - start) * 1000.0
    return selves


def totals_by_name(
    spans: List[List[Any]], keep: Callable[[List[Any]], bool]
) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Self ms and call counts per span name, plus top-level covered ms."""
    selves = self_times(spans)
    self_ms: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    covered = 0.0
    for record, own in zip(spans, selves):
        if not keep(record):
            continue
        name, start, end, parent = record[0], record[1], record[2], record[3]
        self_ms[name] += own
        calls[name] += 1
        if parent < 0:
            covered += (end - start) * 1000.0
    return self_ms, calls, covered


def delta_counts(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Counter growth between two :meth:`Tracer.counters` snapshots."""
    out: Dict[str, float] = {}
    for component, events in after["maintenance"].items():
        for event, value in events.items():
            old = before["maintenance"].get(component, {}).get(event, 0)
            out[f"{component}.{event}"] = value - old
    out["opacity_simulations"] = after["opacity_simulations"] - before["opacity_simulations"]
    for name, value in after["boundary"].items():
        out[name] = value - before["boundary"].get(name, 0)
    return out
