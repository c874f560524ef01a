"""cold_protect: protect + score with no compiled state shared between operations.

Every operation is the paper's Surrogate Generation Algorithm plus utility
and opacity scoring through a fresh ``ProtectionService`` over a fresh
``policy.copy()``, so no marking view, walk cache, account or adversary
simulation survives from one operation to the next.  Inputs are eight
seeded 4k-node/12k-edge random digraphs used in turn: one graph's protect
can cost 25% more than another's, so with three graphs the median sat on
the boundary between their costs and moved from run to run.  Set-up is
deserializing them from the JSON that ``repro.cli protect`` reads.
"""

from __future__ import annotations

from typing import Any, Dict, List

from harness import Run, min_samples, peak_rss_mb
from inputs import derive_seeds, protect_graph, protect_policy

NODES = 4_000
GRAPHS = 8
SETUPS = 3
TAIL_Q = 0.80
WHY = (
    "4k-node protect+score on a fresh service and policy copy, so nothing is cached: core compile does the work; cache, store and server do none"
)


def run(bench: Run, tmp) -> Dict[str, Any]:
    from repro.api import ProtectionRequest, ProtectionService
    from repro.core.opacity import opacity_simulations_run
    from repro.graph.deltas import view_maintenance_stats
    from repro.graph import serialization
    from repro.server.encoding import json_bytes, result_payload

    seeds = derive_seeds(bench.seed, GRAPHS, "cold_protect")
    paths = []
    for index, seed in enumerate(seeds):
        path = tmp / f"graph{index}.json"
        serialization.save_graph(protect_graph(NODES, seed), path)
        paths.append(path)

    graphs: List[Any] = []
    for index in range(SETUPS):
        graphs = bench.timed_setup(index, lambda: [serialization.load_graph(path) for path in paths])
    bench.end_setup()
    inputs = [(graph, *protect_policy(graph, seed)) for graph, seed in zip(graphs, seeds)]
    first_payload: Dict[int, bytes] = {}

    def op(index: int) -> Any:
        graph, policy, consumer = inputs[index % GRAPHS]
        service = ProtectionService(graph, policy.copy())
        return service.protect(ProtectionRequest(privileges=(consumer,)))

    def check(index: int, result: Any) -> Any:
        if result.timings_ms.get("cache_hit") != 0.0:
            return f"op {index}: served from a cache"
        payload = json_bytes(result_payload(result))
        expected = first_payload.setdefault(index % GRAPHS, payload)
        if payload != expected:
            return f"op {index}: payload differs from the first one for its graph"
        return None

    compiles_before = view_maintenance_stats().get("marking_view", {}).get("compiled", 0)
    simulations_before = opacity_simulations_run()
    bench.measure(op, check, min_ops=min_samples(TAIL_Q))
    compiles = view_maintenance_stats()["marking_view"]["compiled"] - compiles_before
    simulations = opacity_simulations_run() - simulations_before
    if compiles != bench.attempted:
        bench.fail(f"{compiles} marking compiles for {bench.attempted} operations")
    if simulations != bench.attempted:
        bench.fail(f"{simulations} opacity simulations for {bench.attempted} operations")
    bench.notes["inputs"] = {"nodes": NODES, "edges": 3 * NODES, "graphs": GRAPHS}
    return {
        "tail_q": TAIL_Q,
        "rss_mb": peak_rss_mb(),
    }
