"""Per-endpoint latency histograms with fixed log-scale buckets.

The serving loop records one observation per request into the histogram
of its *route pattern* (``POST /v1/protect``, never the concrete path, so
session ids cannot explode the label space).  Buckets are fixed powers of
two from 0.125 ms to 16.384 s — coarse enough to cost nothing per
observation (a bisect into 18 bounds under a lock), fine enough to tell a
3 ms cached replay from a 300 ms cold compile in ``/v1/health``.

Quantiles are estimated from the bucket upper bounds (the standard
Prometheus-style histogram_quantile read): an estimate is exact to within
one bucket width, which at log-scale means within 2× — plenty to tell
a cache hit from a cold compile in the tail.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List

#: Upper bounds (milliseconds) of the fixed log-scale buckets; observations
#: past the last bound land in the +Inf overflow bucket.
BUCKET_BOUNDS_MS: List[float] = [0.125 * (2 ** i) for i in range(18)]


class LatencyHistogram:
    """One endpoint's observation counts over the fixed bucket bounds."""

    __slots__ = ("_counts", "_overflow", "_count", "_total_ms", "_max_ms")

    def __init__(self) -> None:
        self._counts = [0] * len(BUCKET_BOUNDS_MS)
        self._overflow = 0
        self._count = 0
        self._total_ms = 0.0
        self._max_ms = 0.0

    def record(self, elapsed_ms: float) -> None:
        """Count one observation (caller holds the registry lock)."""
        index = bisect_left(BUCKET_BOUNDS_MS, elapsed_ms)
        if index >= len(BUCKET_BOUNDS_MS):
            self._overflow += 1
        else:
            self._counts[index] += 1
        self._count += 1
        self._total_ms += elapsed_ms
        if elapsed_ms > self._max_ms:
            self._max_ms = elapsed_ms

    def quantile(self, q: float) -> float:
        """The upper bound of the bucket holding the ``q``-quantile observation."""
        if self._count == 0:
            return 0.0
        rank = q * self._count
        seen = 0.0
        for bound, count in zip(BUCKET_BOUNDS_MS, self._counts):
            seen += count
            if seen >= rank:
                return bound
        return self._max_ms

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly view: counts, mean, estimated p50/p95/p99, buckets."""
        mean = self._total_ms / self._count if self._count else 0.0
        buckets = {
            f"le_{bound:g}ms": count
            for bound, count in zip(BUCKET_BOUNDS_MS, self._counts)
            if count
        }
        if self._overflow:
            buckets["le_inf"] = self._overflow
        return {
            "count": self._count,
            "mean_ms": round(mean, 3),
            "p50_ms": self.quantile(0.50),
            "p95_ms": self.quantile(0.95),
            "p99_ms": self.quantile(0.99),
            "max_ms": round(self._max_ms, 3),
            "buckets": buckets,
        }


class LatencyRegistry:
    """Thread-safe label → :class:`LatencyHistogram` map for one server."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._histograms: Dict[str, LatencyHistogram] = {}

    def record(self, label: str, elapsed_ms: float) -> None:
        """Record one observation under ``label`` (a route pattern)."""
        with self._lock:
            histogram = self._histograms.get(label)
            if histogram is None:
                histogram = self._histograms[label] = LatencyHistogram()
            histogram.record(elapsed_ms)

    def snapshot(self) -> Dict[str, Any]:
        """Every endpoint's histogram snapshot, keyed by route pattern."""
        with self._lock:
            return {
                label: histogram.snapshot()
                for label, histogram in sorted(self._histograms.items())
            }


__all__ = ["BUCKET_BOUNDS_MS", "LatencyHistogram", "LatencyRegistry"]
