"""Shared configuration for the benchmark harness.

Run with::

    pytest benchmarks/ --benchmark-only

or via the wrapper script (which also prints the emitted trajectory)::

    scripts/bench.sh            # full suite
    scripts/bench.sh scaling    # just the scaling benchmark
    scripts/bench.sh smoke      # tier-1-equivalent smoke run (no benchmarks)

Each figure/table benchmark regenerates one of the paper's tables or figures
and prints the corresponding rows/series (visible with ``-s`` or in the
captured output of a failing shape check).

``test_bench_scaling.py`` is different: it times the *pipeline* —
``build_protected_account`` + ``utility_report`` over the compiled
per-privilege protection views — at 500/2 000/8 000 nodes and writes a
``BENCH_scaling.json`` trajectory point at the repo root, so perf PRs have
comparable before/after numbers.

Environment switches:

``REPRO_BENCH_FULL=1``
    Run the synthetic experiments at the paper's full scale (50 graphs ×
    200 nodes) instead of the reduced quick family, and benchmark the
    8 000-node scaling case with full statistics (quick mode times it once).
"""

from __future__ import annotations

import os

import pytest


def full_scale() -> bool:
    """True when the paper-scale synthetic family was requested."""
    return os.environ.get("REPRO_BENCH_FULL", "0") not in {"0", "", "false", "False"}


@pytest.fixture(scope="session")
def bench_quick() -> bool:
    """Whether benchmarks should use the reduced synthetic family."""
    return not full_scale()
