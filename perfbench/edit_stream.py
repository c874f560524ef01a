"""edit_stream: the write path, an edge edit round trip per operation.

Each operation, in an ``EditSession`` on an 8k-node graph, removes a seeded
random edge and commits, then restores it and commits: graph mutation,
delta maintenance of the marking view, walk cache and opacity simulation,
incremental re-protect and re-score.  A removal commit costs about a third
more than a restore commit, so timing them as separate operations would
put the median on the boundary between two costs; the round trip is one
operation class and keeps every run on the same sequence of graph states.
Set-up is ``service.edit(...)``.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from harness import Run, min_samples, peak_rss_mb
from inputs import derive_seeds, protect_graph, protect_policy

NODES = 8_000
SETUPS = 3
EDGES = 1_000
TAIL_Q = 0.95
WHY = (
    "edge remove+commit, restore+commit on an 8k-node graph: mutation, delta maintenance and incremental re-score, which no other workload runs"
)


def run(bench: Run, tmp) -> Dict[str, Any]:
    from repro.api import ProtectionRequest, ProtectionService
    from repro.core.opacity import opacity_simulations_run
    from repro.graph.deltas import view_maintenance_stats

    (seed,) = derive_seeds(bench.seed, 1, "edit_stream")
    session = service = graph = policy = consumer = None
    for index in range(SETUPS):
        if session is not None:
            session.close()
        session = service = None
        graph = protect_graph(NODES, seed)
        policy, consumer = protect_policy(graph, seed)
        service = ProtectionService(graph, policy)
        session = bench.timed_setup(index, lambda: service.edit(consumer))
    bench.end_setup()

    edges = random.Random(seed).sample(graph.edge_keys(), EDGES)

    def op(index: int) -> Any:
        edge = session.remove_edge(*edges[index % EDGES])
        removed = session.commit()
        session.add_edge(edge.source, edge.target, label=edge.label, features=dict(edge.features))
        return removed, session.commit()

    last: Dict[str, Any] = {}

    def check(index: int, results: Any) -> Any:
        last["result"] = results[1]
        if any(result.timings_ms.get("recompile_fallback", 0.0) != 0.0 for result in results):
            return f"op {index}: a commit fell back to a full rebuild"
        return None

    before = view_maintenance_stats().get("edit_session", {})
    simulations_before = opacity_simulations_run()
    bench.measure(op, check, min_ops=min_samples(TAIL_Q))
    after = view_maintenance_stats().get("edit_session", {})
    for event in ("recompile_fallback", "patch_error"):
        if after.get(event, 0) != before.get(event, 0):
            bench.fail(f"{after.get(event, 0) - before.get(event, 0)} commits took {event}")
    if opacity_simulations_run() != simulations_before:
        bench.fail("the edit stream ran new opacity simulations")

    # Exactness: the maintained account and ScoreCard equal a fresh one.
    result = last.get("result")
    fresh = ProtectionService(graph, policy.copy()).protect(ProtectionRequest(privileges=(consumer,)))
    if result is None:
        bench.fail("no commit succeeded")
    elif not (
        result.account.graph == fresh.account.graph
        and result.account.surrogate_edges == fresh.account.surrogate_edges
        and result.scores.path_utility == fresh.scores.path_utility
        and result.scores.node_utility == fresh.scores.node_utility
        and result.scores.average_opacity == fresh.scores.average_opacity
        and result.scores.opacity.per_edge == fresh.scores.opacity.per_edge
    ):
        bench.fail("the final account or ScoreCard differs from a fresh protect+score")
    session.close()
    bench.notes["inputs"] = {"nodes": NODES, "edges": 3 * NODES, "edge_pool": EDGES}
    return {
        "tail_q": TAIL_Q,
        "rss_mb": peak_rss_mb(),
    }
