"""restart: a warm restart from the same on-disk bytes, one per operation.

Each operation reopens a 2k-node tenant store (default engine), loads the
graph, restores the service checkpoint and serves the first ``protect``,
which must be a cache hit.  Set-up is the durable write path on a fresh
root: ``put_graph``, a cold protect and ``checkpoint``.  Restores are
warm, not catch-up: a write-log tail would make the first protect
recompile and turn this into a second ``cold_protect``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

from harness import Run, min_samples, peak_rss_mb
from inputs import derive_seeds, protect_graph, protect_policy

NODES = 2_000
SETUPS = 5
TAIL_Q = 0.85
NAME = "bench"
WHY = (
    "warm restart of a 2k-node tenant store from the same bytes: store open, graph load and checkpoint decode, which no other workload runs"
)


def _tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run(bench: Run, tmp) -> Dict[str, Any]:
    from repro.api import ProtectionRequest, ProtectionService
    from repro.graph.serialization import graph_to_dict
    from repro.server.encoding import json_bytes, result_payload
    from repro.store.engine import GraphStore

    (seed,) = derive_seeds(bench.seed, 1, "restart")
    graph = protect_graph(NODES, seed)
    policy, consumer = protect_policy(graph, seed)
    request = ProtectionRequest(privileges=(consumer,))

    def set_up(root) -> Any:
        store = GraphStore(root)
        store.put_graph(graph, name=NAME)
        service = ProtectionService(store.graph(NAME), policy.copy(), store=store)
        result = service.protect(request)
        service.checkpoint(result, name=NAME)
        return result

    root = None
    for index in range(SETUPS):
        root = tmp / f"root{index}"
        leader = bench.timed_setup(index, lambda: set_up(root))
    bench.end_setup()
    expected = json_bytes(result_payload(leader))
    leader = None
    before = _tree_digest(root)

    def op(index: int) -> Any:
        store = GraphStore(root)
        service = ProtectionService(store.graph(NAME), policy.copy(), store=store)
        report = service.restore(name=NAME)
        return report, service.protect(request)

    def check(index: int, outcome: Any) -> Any:
        report, result = outcome
        if report.mode != "warm":
            return f"op {index}: restore mode {report.mode!r} ({report.reason})"
        if result.timings_ms.get("cache_hit") != 1.0:
            return f"op {index}: first protect after restore was not a cache hit"
        if json_bytes(result_payload(result)) != expected:
            return f"op {index}: payload differs from the leader's"
        return None

    bench.measure(op, check, min_ops=min_samples(TAIL_Q))
    if _tree_digest(root) != before:
        bench.fail("a restart changed the store's on-disk bytes")
    stored = sum(path.stat().st_size for path in root.rglob("*") if path.is_file())
    bench.notes["inputs"] = {"nodes": NODES, "edges": 3 * NODES}
    return {
        "tail_q": TAIL_Q,
        "rss_mb": peak_rss_mb(),
        "store.bytes_per_graph_byte": stored / len(json_bytes(graph_to_dict(graph))),
    }
