"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_protect --seed 1 --seconds 20 --trace 0

Workloads (one operation class each, see each module's docstring):

* ``cold_protect`` - protect + score with nothing cached (core compile);
* ``serve_read``   - lineage queries and cached protect replays over HTTP
  against a ``repro.cli serve`` subprocess, open loop at a fixed rate;
* ``edit_stream``  - one edge edit plus ``EditSession.commit()``;
* ``restart``      - reopen a tenant store and restore warm.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones
(``setup_s``, ``p50_ms``, ``tail_ms``, ``ops_per_s``, ``peak_rss_mb``),
host-normalized by the probe in ``harness.py``.  With ``--trace 1`` they
are the per-layer breakdown: durations in ms per operation (per set-up for
the layers that only run in set-up), counts per operation, ratios, plus
the tracing overhead and span coverage.  The line before it is the full
run record (raw values, probe, fingerprint, tail quantile and sample
count); traced runs also write their spans under ``.perfbench/``.  A run
whose validity checks fail prints ``"correct": false`` with no metrics and
exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("cold_protect", "serve_read", "edit_stream", "restart")

#: Per-layer metrics of traced runs: name -> unit.
PER_LAYER: Dict[str, str] = {
    "server.parse_ms": "ms",
    "server.auth_ms": "ms",
    "server.admission_wait_ms": "ms",
    "server.digest_ms": "ms",
    "server.decode_ms": "ms",
    "server.encode_ms": "ms",
    "server.unaccounted_ms": "ms",
    "server.rejected": "count",
    "security.query_ms": "ms",
    "security.result_nodes": "count",
    "api.protect_self_ms": "ms",
    "api.score_self_ms": "ms",
    "api.cache_lookup_ms": "ms",
    "api.cache_hit_ratio": "ratio",
    "api.cache_evictions": "count",
    "core.marking_compile_ms": "ms",
    "core.marking_compiles": "count",
    "core.walks_ms": "ms",
    "core.walk_hit_ratio": "ratio",
    "core.candidates_ms": "ms",
    "core.generate_self_ms": "ms",
    "core.utility_ms": "ms",
    "core.opacity_compile_ms": "ms",
    "core.opacity_simulations": "count",
    "core.opacity_score_ms": "ms",
    "api.edit_commit_self_ms": "ms",
    "core.delta_apply_ms": "ms",
    "core.delta_ratio": "ratio",
    "graph.mutate_ms": "ms",
    "store.open_ms": "ms",
    "store.graph_ms": "ms",
    "store.put_ms": "ms",
    "store.flushes": "count",
    "store.flush_ms": "ms",
    "store.bytes_per_graph_byte": "ratio",
    "api.checkpoint_write_ms": "ms",
    "api.checkpoint_restore_ms": "ms",
    "api.restore_warm_ratio": "ratio",
    "graph.decode_ms": "ms",
    "runtime.gc_gen2": "count",
    "runtime.gc_pause_ms": "ms",
    "client.lateness_ms": "ms",
    "host.probe_ms": "ms",
    "trace.untraced_p50_ms": "ms",
    "trace.traced_p50_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}

#: Layers that only run in set-up: reported per set-up, not per operation.
SETUP_LAYERS = {
    "store.put": "store.put_ms",
    "store.flush": "store.flush_ms",
    "api.checkpoint_write": "api.checkpoint_write_ms",
    "graph.decode": "graph.decode_ms",
}

#: Span name -> per-operation self-time metric.
OP_LAYERS = {
    "server.parse": "server.parse_ms",
    "server.auth": "server.auth_ms",
    "server.admission_wait": "server.admission_wait_ms",
    "server.digest": "server.digest_ms",
    "server.decode": "server.decode_ms",
    "server.encode": "server.encode_ms",
    "security.query": "security.query_ms",
    "api.protect": "api.protect_self_ms",
    "api.score": "api.score_self_ms",
    "api.cache_lookup": "api.cache_lookup_ms",
    "core.marking_compile": "core.marking_compile_ms",
    "core.walks": "core.walks_ms",
    "core.candidates": "core.candidates_ms",
    "core.generate": "core.generate_self_ms",
    "core.utility": "core.utility_ms",
    "core.opacity_compile": "core.opacity_compile_ms",
    "core.opacity_score": "core.opacity_score_ms",
    "api.edit_commit": "api.edit_commit_self_ms",
    "core.delta_apply": "core.delta_apply_ms",
    "graph.mutate": "graph.mutate_ms",
    "store.open": "store.open_ms",
    "store.graph": "store.graph_ms",
    "api.checkpoint_restore": "api.checkpoint_restore_ms",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(bench: Any, facts: Dict[str, Any], spans: List[List[Any]], counters: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer values from phase-1 (set-up) and phase-2 (traced ops) spans."""
    from spans import delta_counts, totals_by_name

    values = {name: 0.0 for name in PER_LAYER}
    traced = bench.notes["traced_ms"]
    untraced = bench.notes["untraced_ms"]
    ops = len(traced)
    setups = facts.get("setups_traced", len(bench.setup_s))
    # ``server.request`` encloses a request's other server spans.
    op_self, _op_calls, covered = totals_by_name(
        spans, lambda record: record[5] == 2 and record[0] != "server.request"
    )
    setup_self, setup_calls, _ = totals_by_name(spans, lambda record: record[5] == 1)
    for span, metric in OP_LAYERS.items():
        values[metric] = op_self.get(span, 0.0) / ops
    for span, metric in SETUP_LAYERS.items():
        values[metric] = setup_self.get(span, 0.0) / setups
    values["store.flushes"] = setup_calls.get("store.flush", 0) / setups

    counts = delta_counts(counters["ops_before"], counters["ops_after"])
    values["api.cache_hit_ratio"] = _ratio(
        counts.get("cache.hits", 0), counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    )
    values["api.cache_evictions"] = counts.get("cache.evictions", 0) / ops
    values["core.marking_compiles"] = counts.get("marking_view.compiled", 0) / ops
    values["core.walk_hit_ratio"] = _ratio(counts.get("walks.hits", 0), counts.get("walks.calls", 0))
    values["core.opacity_simulations"] = counts.get("opacity_simulations", 0) / ops
    patched = sum(counts.get(f"{view}.delta_applied", 0) for view in ("marking_view", "walk_cache", "opacity_view"))
    rebuilt = (
        counts.get("marking_view.compiled", 0)
        + counts.get("walk_cache.built", 0)
        + counts.get("opacity_view.compiled", 0)
    )
    values["core.delta_ratio"] = _ratio(patched, patched + rebuilt)
    values["api.restore_warm_ratio"] = _ratio(counts.get("restore.warm", 0), counts.get("restore.total", 0))
    values["security.result_nodes"] = counts.get("security.result_nodes", 0) / ops
    values["runtime.gc_gen2"] = counts.get("gc.gen2", 0) / ops
    values["runtime.gc_pause_ms"] = counts.get("gc.pause_us", 0) / 1000.0 / ops
    values["host.probe_ms"] = bench.probe.median_ms()

    untraced_p50 = statistics.median(untraced)
    traced_p50 = statistics.median(traced)
    values["trace.untraced_p50_ms"] = untraced_p50
    values["trace.traced_p50_ms"] = traced_p50
    values["trace.overhead_ratio"] = traced_p50 / untraced_p50
    # Over HTTP an operation's wall time is the client's round trip.
    wall = facts.get("round_trip_ms", traced)
    values["trace.coverage"] = covered / sum(wall)
    if "round_trip_ms" in facts:
        values["server.unaccounted_ms"] = (sum(wall) - covered) / ops
    for name in ("server.rejected", "client.lateness_ms", "store.bytes_per_graph_byte"):
        if name in facts:
            values[name] = facts[name]
    return values


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from harness import Run, end_to_end, fingerprint
    from spans import IN_PROCESS_BOUNDARIES, Tracer

    workload = importlib.import_module(args.workload)
    tracer = Tracer() if args.trace else None
    bench = Run(args.seed, args.seconds, tracer)
    bench.tracer_boundaries = IN_PROCESS_BOUNDARIES
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    # Everything the program writes (stores, temp files) stays in the checkout.
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    try:
        bench.start_setup()
        facts = workload.run(bench, tmp)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)

    correct = bench.failed == 0 and not bench.failures
    if args.trace:
        spans = facts.pop("spans", None) or tracer.spans
        counters = facts.pop("counters", None) or bench.counters
        values = per_layer(bench, facts, spans, counters)
        metrics = {name: {"value": value, "unit": PER_LAYER[name]} for name, value in values.items()}
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "counters": counters}, handle)
        bench.notes["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = end_to_end(bench, facts)

    record = {
        "workload": args.workload,
        "why": workload.WHY,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(args.seed, bench.probe, _default_engine()),
        "failures": bench.failures,
        **{key: value for key, value in bench.notes.items() if key not in ("untraced_ms", "traced_ms")},
    }
    print(json.dumps(record, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics if correct else {},
            }
        )
    )
    return 0 if correct else 1


def _default_engine() -> str:
    from repro.store.engine import detect_engine

    return detect_engine(None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
