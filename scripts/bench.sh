#!/usr/bin/env bash
# Benchmark + smoke harness for the repo.
#
# Usage:
#   scripts/bench.sh           # full benchmark suite; writes BENCH_scaling.json
#   scripts/bench.sh scaling   # just the scaling benchmark (fastest perf signal)
#   scripts/bench.sh opacity   # just the compiled-opacity case (naive vs compiled
#                              # vs cached replay; refreshes BENCH_scaling.json)
#   scripts/bench.sh edits     # just the incremental edit-loop case (delta path vs
#                              # full recompile; refreshes BENCH_scaling.json)
#   scripts/bench.sh recovery  # just the crash-recovery case (warm restore from a
#                              # checkpoint vs cold recompute; refreshes BENCH_scaling.json)
#   scripts/bench.sh store     # just the store case (cold load, indexed reachability vs
#                              # materialize + BFS; refreshes BENCH_scaling.json)
#   scripts/bench.sh replicate # just the leader/follower case (delta-log catch-up
#                              # deltas/sec + read-path parity p50 vs the leader;
#                              # refreshes BENCH_scaling.json)
#   scripts/bench.sh serve     # live-server latency case: boots the HTTP frontend and
#                              # drives it with 8 concurrent clients; writes BENCH_serving.json
#   scripts/bench.sh smoke     # tier-1-equivalent smoke: full test suite, no benchmarks
#
# Set REPRO_BENCH_FULL=1 to run the synthetic experiments at paper scale and
# to benchmark the 8k-node scaling case with full statistics.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

case "${1:-all}" in
  smoke)
    # Tier-1 equivalent: unit, property, integration tests plus benchmark
    # shape checks in test mode (pytest runs benchmarks once, untimed).
    exec python -m pytest -x -q
    ;;
  scaling)
    python -m pytest benchmarks/test_bench_scaling.py --benchmark-only -q
    ;;
  opacity)
    # Plain test mode: the opacity case is wall-clock timed (not
    # pytest-benchmark grouped) and the module teardown rewrites the
    # trajectory file including the opacity section.
    python -m pytest benchmarks/test_bench_scaling.py -q -k opacity
    ;;
  edits)
    # Plain test mode: the edit-loop case is wall-clock timed and the module
    # teardown rewrites the trajectory file including the incremental section.
    python -m pytest benchmarks/test_bench_scaling.py -q -k incremental
    ;;
  recovery)
    # Plain test mode: checkpoint + crash + restore on the 8k-node workload
    # (warm vs catch-up vs cold); the module teardown rewrites the trajectory
    # file including the recovery section.
    python -m pytest benchmarks/test_bench_scaling.py -q -k recovery
    ;;
  store)
    # Plain test mode: the SQLite store on the 8k-node workload — cold store
    # load, and interval-scan reachability against materialize + BFS in
    # alternating rounds (exactness asserted before any ratio is recorded);
    # the module teardown rewrites the trajectory file including the store
    # section.  The ≥5× warm-restart gate runs under `recovery`.
    python -m pytest benchmarks/test_bench_scaling.py -q -k store
    ;;
  replicate)
    # Plain test mode: a leader streams a few hundred edits through the
    # durable delta log, a fresh follower catches up in one poll, and both
    # sides serve the same read — parity is asserted bit-identical before
    # any p50 is recorded; the module teardown rewrites the trajectory file
    # including the replication section.
    python -m pytest benchmarks/test_bench_scaling.py -q -k replication
    ;;
  serve)
    # Plain test mode: boots a ProtectionServer on a background thread and
    # measures cached-replay/cold-compile/streaming latency over real
    # sockets with 8 concurrent keep-alive clients.  Writes its own
    # trajectory file, so it skips the shared BENCH_scaling.json tail.
    python -m pytest benchmarks/test_bench_serving.py -q
    echo
    echo "BENCH_serving.json trajectory point:"
    cat BENCH_serving.json
    exit 0
    ;;
  all)
    python -m pytest benchmarks/ --benchmark-only -q
    ;;
  *)
    echo "usage: scripts/bench.sh [all|scaling|opacity|edits|recovery|store|replicate|serve|smoke]" >&2
    exit 2
    ;;
esac

echo
echo "BENCH_scaling.json trajectory point:"
cat BENCH_scaling.json
