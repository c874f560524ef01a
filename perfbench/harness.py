"""Shared measurement machinery: host-speed probe, timed loops, run records.

Nothing here imports ``repro``: the probe and the statistics must read the
same on any revision of the program.

Host-drift control
------------------
The benchmark was tuned on a shared 2-core machine whose pure-Python speed
wanders by up to 2x within a minute, and switches between a fast and a slow
state for tens of seconds at a time.  Every run therefore times a fixed
probe, two pure-Python walks over a seeded 5k-node dict-of-lists graph, in
the gap after every operation, set-up and load segment (never while an
operation or request is in flight, so the program's own threads cannot
slow the probe and flatter a result).  Each timed unit is multiplied by
``NOMINAL_PROBE_MS`` over the median probe of the gaps within
``PROBE_WINDOW`` of it; a throughput is divided by the same scale.  Raw
values and every probe sample stay in the run record.  ``serve_read``
also measures only the load segments during which the hypervisor took no
CPU time from the machine (see ``host_cpu_ticks`` and ``serve_read.py``).

Over ten seeded runs of each workload, the IQR over median of ``p50_ms``
was, raw / scaled by the run's median probe / scaled by the window:
``edit_stream`` 0.34 / 0.18 / 0.04, ``cold_protect`` 0.11 / 0.06 / 0.06,
and over eight ``restart`` runs 0.16 / 0.05 / 0.04.  A run-wide scale
cannot follow the host between its states, and a median over operations
from both states sits on the boundary between them.  A 60k-node walk
tracked the program better within one process, but its median moved
between 58 and 99 ms from one process to the next; a walk repeated on warm
caches tracked worse.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import random
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Probe graph: 5 000 nodes, out-degree 3, fixed seed.  The first walk of
#: a gap starts on caches the operation left cold, the second on warm ones.
PROBE_NODES = 5_000
PROBE_DEGREE = 3
PROBE_SEED = 20_110_829
PROBE_WALKS = 2

#: Gaps on each side of a timed unit whose probes scale it (the gap right
#: after the unit counts on the later side).
PROBE_WINDOW = 5

#: The probe median the scaled metrics are expressed against (ms).  Any
#: constant works; this one is near the probe's median on the 2-core host
#: the benchmark was tuned on, so scaled values stay close to raw ones.
NOMINAL_PROBE_MS = 2.5

#: A run never measures past this many seconds after the process started,
#: whatever its minimum operation count (a run must end within 180 s).
HARD_STOP_S = 140.0

PROCESS_START = time.perf_counter()


class Probe:
    """A fixed pure-Python graph walk timed in the gaps between timed units."""

    def __init__(self) -> None:
        rng = random.Random(PROBE_SEED)
        self.adjacency = {
            node: [rng.randrange(PROBE_NODES) for _ in range(PROBE_DEGREE)]
            for node in range(PROBE_NODES)
        }
        self.samples_ms: List[float] = []
        #: ``samples_ms`` index where each gap's samples end.
        self.gap_ends: List[int] = []

    def walk(self) -> int:
        adjacency = self.adjacency
        seen = {0}
        stack = [0]
        while stack:
            for node in adjacency[stack.pop()]:
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        return len(seen)

    def gap(self) -> int:
        """Time one gap's walks (nothing may be in flight); returns its index."""
        for _ in range(PROBE_WALKS):
            start = time.perf_counter()
            self.walk()
            self.samples_ms.append((time.perf_counter() - start) * 1000.0)
        self.gap_ends.append(len(self.samples_ms))
        return len(self.gap_ends) - 1

    def scale(self, gap: int) -> float:
        """Scale for a unit timed just before ``gap``: nominal / local probe."""
        first = max(0, gap - PROBE_WINDOW)
        last = min(len(self.gap_ends) - 1, gap + PROBE_WINDOW - 1)
        start = self.gap_ends[first - 1] if first else 0
        return NOMINAL_PROBE_MS / statistics.median(self.samples_ms[start : self.gap_ends[last]])

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)


def nearest_rank(sorted_values: List[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q`` quantile."""
    return count - math.ceil(q * count)


def min_samples(q: float, tail_samples: int = 10) -> int:
    """The fewest samples that leave ``tail_samples`` beyond quantile ``q``."""
    count = tail_samples
    while beyond(count, q) < tail_samples:
        count += 1
    return count


def host_cpu_ticks() -> Optional[Tuple[int, int]]:
    """(busy, steal) CPU ticks of this machine so far, from ``/proc/stat``.

    ``steal`` is time a hypervisor gave this machine's CPUs to other guests
    while they had work to run.  None where ``/proc/stat`` is unavailable.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if fields[:1] != ["cpu"] or len(fields) < 9:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
    return user + nice + system + irq + softirq, steal


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(seed: int, probe: Probe, store_engine: str) -> Dict[str, Any]:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "store_engine": store_engine,
        "probe_median_ms": probe.median_ms(),
        "probe_nominal_ms": NOMINAL_PROBE_MS,
        "probe_samples": len(probe.samples_ms),
    }


class Run:
    """Samples, counts and failures of one benchmark run."""

    def __init__(self, seed: int, seconds: float, tracer: Optional[Any]) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.probe = Probe()
        self.setup_s: List[float] = []
        self.op_ms: List[float] = []
        #: Probe gap right after each set-up and each operation.
        self.setup_gap: List[int] = []
        self.op_gap: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: Dict[str, Any] = {}
        #: Counter snapshots of traced runs, keyed by phase boundary.
        self.counters: Dict[str, Any] = {}
        self.tracer_boundaries: Any = ()

    def fail(self, message: str) -> None:
        """Record a failed validity check (the run will report incorrect)."""
        if len(self.failures) < 20:
            self.failures.append(message)

    def set_op(self, op_id: Optional[int]) -> None:
        if self.tracer is not None:
            self.tracer.set_op(op_id)

    # -- phases ------------------------------------------------------- #
    def start_setup(self) -> None:
        """Traced runs trace the set-up phase (phase 1 of the spans)."""
        if self.tracer is not None:
            self.tracer.install(self.tracer_boundaries)
            self.counters["setup_before"] = self.tracer.counters()

    def end_setup(self) -> None:
        if self.tracer is not None and "setup_after" not in self.counters:
            self.counters["setup_after"] = self.tracer.counters()
            self.tracer.uninstall()

    def timed_setup(self, index: int, fn: Callable[[], Any]) -> Any:
        """Run one set-up, timed; returns what ``fn`` returns.

        The collector starts clean, as in a fresh process, so a gen-2 pass
        over an earlier set-up's garbage never lands in this one's clock.
        """
        gc.collect()
        self.set_op(-1 - index)
        start = time.perf_counter()
        value = fn()
        self.setup_s.append(time.perf_counter() - start)
        self.set_op(None)
        self.setup_gap.append(self.probe.gap())
        return value

    def measure(
        self,
        op: Callable[[int], Any],
        check: Callable[[int, Any], Optional[str]],
        *,
        min_ops: int,
    ) -> None:
        """The operation phase.

        Untraced runs spend the whole budget on one loop.  Traced runs
        split it: an untraced half, then a traced half (phase 2 of the
        spans); the two medians give the tracing overhead.
        """
        if self.tracer is None:
            self.op_loop(op, check, min_ops=min_ops, seconds=self.seconds)
            return
        half = max(10, min_ops // 2)
        untraced = self.op_loop(op, check, min_ops=half, seconds=self.seconds / 2)
        self.tracer.install(self.tracer_boundaries)
        self.counters["ops_before"] = self.tracer.counters()
        traced = self.op_loop(
            op, check, min_ops=half, seconds=self.seconds / 2, first_op=len(untraced)
        )
        self.counters["ops_after"] = self.tracer.counters()
        self.tracer.uninstall()
        self.notes["untraced_ms"] = untraced
        self.notes["traced_ms"] = traced

    def op_loop(
        self,
        op: Callable[[int], Any],
        check: Callable[[int, Any], Optional[str]],
        *,
        min_ops: int,
        seconds: float,
        first_op: int = 0,
    ) -> List[float]:
        """Run ``op(i)`` until ``seconds`` have passed and ``min_ops`` ran.

        Only the call to ``op`` is timed; the probe runs in the gap after
        it.  ``check`` runs outside the clock and returns an error message
        for a wrong result; an exception or a wrong result counts the
        operation as failed.  Returns this loop's latencies in ms (also
        appended to :attr:`op_ms`).
        """
        latencies: List[float] = []
        deadline = time.perf_counter() + seconds
        index = first_op
        while len(latencies) < min_ops or time.perf_counter() < deadline:
            if time.perf_counter() - PROCESS_START > HARD_STOP_S:
                break
            result = None
            self.set_op(index)
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = op(index)
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed operation is data
                error = f"op {index}: {type(exc).__name__}: {exc}"
            latencies.append((time.perf_counter() - start) * 1000.0)
            self.set_op(None)
            if error is None:
                error = check(index, result)
            if error is not None:
                self.failed += 1
                self.fail(error)
            result = None
            self.op_gap.append(self.probe.gap())
            index += 1
        self.op_ms.extend(latencies)
        return latencies


def end_to_end(run: Run, facts: Dict[str, Any]) -> Dict[str, Any]:
    """The five end-to-end metrics, host-normalized; raw values go to the notes.

    ``facts`` carries the workload's ``tail_q`` and ``rss_mb``.  A workload
    whose latency sample is not :attr:`Run.op_ms` passes ``latencies_ms``
    with the probe gap after each (``latency_gaps``) and its throughput as
    ``segments``: (completed, seconds, gap) per load segment, rated by the
    median segment.  Otherwise throughput is operations over summed
    operation time.
    """
    probe = run.probe
    latencies = facts.get("latencies_ms", run.op_ms)
    gaps = facts.get("latency_gaps", run.op_gap)
    scaled = sorted(value * probe.scale(gap) for value, gap in zip(latencies, gaps))
    ordered = sorted(latencies)
    tail_q = facts["tail_q"]
    if "segments" in facts:
        ops_per_s_raw = statistics.median(done / busy for done, busy, _ in facts["segments"])
        ops_per_s = statistics.median(
            done / (busy * probe.scale(gap)) for done, busy, gap in facts["segments"]
        )
    else:
        ops_per_s_raw = len(run.op_ms) / (sum(run.op_ms) / 1000.0)
        busy_ms = sum(value * probe.scale(gap) for value, gap in zip(run.op_ms, run.op_gap))
        ops_per_s = len(run.op_ms) / (busy_ms / 1000.0)
    values = {
        "setup_s": statistics.median(
            value * probe.scale(gap) for value, gap in zip(run.setup_s, run.setup_gap)
        ),
        "p50_ms": statistics.median(scaled),
        "tail_ms": nearest_rank(scaled, tail_q),
        "ops_per_s": ops_per_s,
        "peak_rss_mb": facts["rss_mb"],
    }
    run.notes["raw"] = {
        "setup_s": statistics.median(run.setup_s),
        "p50_ms": statistics.median(ordered),
        "tail_ms": nearest_rank(ordered, tail_q),
        "ops_per_s": ops_per_s_raw,
        "setup_samples_s": run.setup_s,
        "latency_quantiles_ms": {str(q): nearest_rank(ordered, q) for q in (0.5, 0.9, 0.95, 0.99)},
        "op_ms": run.op_ms,
        "op_gap": run.op_gap,
        "probe_ms": probe.samples_ms,
        "probe_gap_ends": probe.gap_ends,
    }
    run.notes["tail"] = {
        "quantile": tail_q,
        "samples": len(ordered),
        "beyond": beyond(len(ordered), tail_q),
    }
    units = {"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}
