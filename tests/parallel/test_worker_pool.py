"""WorkerPool lifecycle tests: ordering, crash respawn, timeouts, drain.

The crash tests arm the one-shot chaos hook in
:mod:`repro.parallel.tasks` — the first task to run after the hook is
armed hard-exits its worker — and then assert that the pool respawns,
replays the lost tasks and finishes the batch with zero corruption.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import (
    PoolBrokenError,
    PoolTimeoutError,
    WorkerCrashError,
    WorkerPool,
)
from repro.parallel import pool as pool_module
from repro.parallel.tasks import CHAOS_ENV, echo


def test_map_preserves_payload_order():
    payloads = [{"i": index} for index in range(12)]
    with WorkerPool(2) as pool:
        results = pool.map(echo, payloads)
    assert results == payloads


def test_run_round_trips_one_payload():
    with WorkerPool(1) as pool:
        assert pool.run(echo, {"ping": True}) == {"ping": True}
        stats = pool.stats()
    assert stats["submitted"] == 1
    assert stats["completed"] == 1
    assert stats["respawns"] == 0


def test_crash_mid_batch_respawns_and_completes(tmp_path, monkeypatch):
    sentinel = tmp_path / "chaos"
    monkeypatch.setenv(CHAOS_ENV, str(sentinel))
    payloads = [{"i": index} for index in range(8)]
    with WorkerPool(2, max_respawns=2) as pool:
        results = pool.map(echo, payloads)
        stats = pool.stats()
    # Zero corruption: every payload came back exactly once, in order.
    assert results == payloads
    assert sentinel.exists()
    assert stats["respawns"] >= 1
    assert stats["broken"] is False
    assert stats["generation"] >= 1
    assert stats["retry"]["retries"] >= 1


class BreakingExecutor:
    """A stand-in executor that runs tasks inline, with scripted worker deaths.

    ``BREAKS`` holds (executor number, submission number) pairs, both
    counted from 1: that submission finds the executor's worker dead and
    raises ``BrokenProcessPool``, and so does every later submission to the
    same executor, as with the stdlib's.
    """

    BREAKS = set()
    created = []

    def __init__(self, **_kwargs):
        self.number = len(BreakingExecutor.created) + 1
        self.submissions = 0
        self.broken = False
        BreakingExecutor.created.append(self)

    def submit(self, fn, payload):
        self.submissions += 1
        if (self.number, self.submissions) in BreakingExecutor.BREAKS:
            self.broken = True
        if self.broken:
            raise BrokenProcessPool("a worker died while tasks were being submitted")
        future = Future()
        future.set_result(fn(payload))
        return future

    def shutdown(self, wait=True):
        pass


@pytest.fixture
def breaking_executor(monkeypatch):
    """Installs :class:`BreakingExecutor` in the pool with the given deaths."""

    def install(breaks):
        monkeypatch.setattr(BreakingExecutor, "BREAKS", breaks)
        monkeypatch.setattr(BreakingExecutor, "created", [])
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", BreakingExecutor)

    return install


def test_map_replays_tasks_refused_at_submission(breaking_executor):
    # The first executor dies on the batch's second submission: that task
    # and the rest of the batch must still complete, exactly once each.
    breaking_executor({(1, 2)})
    payloads = [{"i": index} for index in range(5)]
    with WorkerPool(2, max_respawns=2) as pool:
        assert pool.map(echo, payloads) == payloads
        stats = pool.stats()
    assert stats["respawns"] == 1
    assert stats["generation"] == 1
    assert stats["broken"] is False
    assert stats["failed"] == 1
    assert stats["completed"] == 5
    assert stats["pending"] == 0
    assert stats["retry"]["retries"] == 1


def test_run_replays_a_refused_first_submit_and_resubmit(breaking_executor):
    # The first submit and its replay both meet a dead worker; the second
    # replay runs on the third executor.
    breaking_executor({(1, 1), (2, 1)})
    with WorkerPool(1, max_respawns=2) as pool:
        assert pool.run(echo, {"ping": True}) == {"ping": True}
        stats = pool.stats()
    assert stats["respawns"] == 2
    assert stats["broken"] is False
    assert stats["completed"] == 1
    assert stats["retry"]["retries"] == 2


def test_refused_submissions_count_against_the_respawn_budget(breaking_executor):
    breaking_executor({(1, 1)})
    pool = WorkerPool(1, max_respawns=0)
    try:
        with pytest.raises(WorkerCrashError):
            pool.run(echo, {"ping": True})
        assert pool.stats()["broken"] is True
        with pytest.raises(PoolBrokenError):
            pool.map(echo, [{"ping": True}])
    finally:
        pool.shutdown(wait=True)


def test_respawn_budget_exhaustion_breaks_the_pool(tmp_path, monkeypatch):
    sentinel = tmp_path / "chaos"
    monkeypatch.setenv(CHAOS_ENV, str(sentinel))
    pool = WorkerPool(1, max_respawns=0)
    try:
        # max_respawns=0 means the retry policy gets a single attempt: the
        # crash surfaces as the transient error itself, unreplayed...
        with pytest.raises(WorkerCrashError):
            pool.run(echo, {"ping": True})
        assert pool.stats()["broken"] is True
        # ...and the pool, past its budget, refuses new work outright.
        with pytest.raises(PoolBrokenError):
            pool.run(echo, {"ping": True})
    finally:
        pool.shutdown(wait=True)


def test_timeout_raises_without_retry():
    with WorkerPool(1, timeout_s=0.2) as pool:
        with pytest.raises(PoolTimeoutError):
            pool.run(time.sleep, 5)
        stats = pool.stats()
    assert stats["timeouts"] == 1
    # Timeouts are terminal, never replayed through the retry policy.
    assert stats["retry"]["retries"] == 0


def test_drain_waits_for_idle():
    with WorkerPool(1) as pool:
        pool.run(echo, {"ping": True})
        assert pool.drain(timeout_s=5.0) is True
        assert pool.depth == 0


def test_shutdown_refuses_new_work():
    pool = WorkerPool(1)
    pool.run(echo, {"ping": True})
    pool.shutdown(wait=True)
    with pytest.raises(PoolBrokenError):
        pool.run(echo, {"ping": True})


def test_stats_shape():
    with WorkerPool(2) as pool:
        pool.run(echo, {})
        stats = pool.stats()
    expected = {
        "workers",
        "mp_context",
        "generation",
        "submitted",
        "completed",
        "failed",
        "pending",
        "respawns",
        "timeouts",
        "broken",
        "retry",
    }
    assert expected <= set(stats)
    assert stats["workers"] == 2
    assert stats["pending"] == 0
