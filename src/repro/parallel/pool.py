"""`WorkerPool`: warm stdlib process workers with crash recovery and drain.

A thin, typed wrapper over :class:`concurrent.futures.ProcessPoolExecutor`
shaped for this codebase's failure model:

* **Warm workers** — every worker runs :func:`repro.parallel.tasks.warm_worker`
  at spawn, so shard tasks never pay the import cost.
* **Crash detection + bounded respawn** — an abruptly dying worker breaks
  the whole stdlib executor (`BrokenProcessPool`, raised by a task's
  result or by a later submission).  The pool converts that into
  :class:`WorkerCrashError` — a :class:`~repro.exceptions.TransientError`
  — swaps in a fresh executor (generation-guarded, so N tasks failing on
  one crash trigger one respawn), and replays the failed task through the
  PR-6 :class:`~repro.reliability.retry.RetryPolicy`.  The respawn budget
  is bounded: past ``max_respawns`` the pool declares itself broken and
  every further submission raises :class:`PoolBrokenError`.
* **Per-task timeouts** — ``timeout_s`` bounds each task's wall clock;
  expiry raises :class:`PoolTimeoutError` (never retried — a task that is
  deterministically slow would just time out again).  The stdlib cannot
  interrupt a *running* task, so a timed-out worker finishes or is
  recycled at shutdown; the caller's thread is unblocked either way.
* **Graceful drain** — :meth:`drain` waits for in-flight tasks to settle
  without accepting the hard stop of ``shutdown(wait=True)`` semantics
  mid-serve; servers call it before :meth:`shutdown` on SIGTERM.

The pool is thread-safe: the server submits from many event-loop executor
threads at once.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import TransientError
from repro.reliability.retry import RetryPolicy

from .tasks import warm_worker


class WorkerCrashError(TransientError):
    """A worker process died mid-task; the task is safe to replay."""


class PoolTimeoutError(RuntimeError):
    """A task exceeded the pool's per-task wall-clock budget."""


class PoolBrokenError(RuntimeError):
    """The pool exhausted its respawn budget and refuses new work."""


def _default_context() -> str:
    """Prefer ``fork`` (cheap, shares the warm parent image) when available."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class WorkerPool:
    """A bounded pool of warm repro worker processes.

    Parameters
    ----------
    workers:
        Worker process count (floored at 1).
    timeout_s:
        Optional per-task wall-clock budget; ``None`` disables timeouts.
    max_respawns:
        How many executor respawns (worker crashes) the pool absorbs over
        its lifetime before declaring itself broken.
    mp_context:
        Start-method name (``"fork"`` / ``"spawn"`` / ``"forkserver"``);
        defaults to ``fork`` where the platform offers it.
    """

    def __init__(
        self,
        workers: int,
        *,
        timeout_s: Optional[float] = None,
        max_respawns: int = 2,
        mp_context: Optional[str] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.max_respawns = max_respawns
        self.context_name = mp_context if mp_context is not None else _default_context()
        self.retry = RetryPolicy(
            max_attempts=max_respawns + 1,
            base_delay_s=0.01,
            retry_on=(WorkerCrashError,),
        )
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._respawns = 0
        self._timeouts = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._pending = 0
        self._broken = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_executor(self) -> Tuple[ProcessPoolExecutor, int]:
        """The live executor plus its generation, creating one lazily."""
        with self._lock:
            if self._closed:
                raise PoolBrokenError("worker pool is shut down")
            if self._broken:
                raise PoolBrokenError(
                    f"worker pool exhausted its respawn budget ({self.max_respawns})"
                )
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context(self.context_name),
                    initializer=warm_worker,
                )
            return self._executor, self._generation

    def _note_crash(self, generation: int) -> None:
        """Swap in a fresh executor after a crash (once per generation)."""
        with self._lock:
            if self._closed or self._generation != generation:
                return
            broken = self._executor
            self._generation += 1
            self._respawns += 1
            self._executor = None
            if self._respawns > self.max_respawns:
                self._broken = True
        if broken is not None:
            broken.shutdown(wait=False)

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Block until no tasks are pending; ``False`` on timeout."""
        with self._idle:
            return self._idle.wait_for(lambda: self._pending == 0, timeout=timeout_s)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and release the worker processes."""
        with self._lock:
            self._closed = True
            executor = self._executor
            self._executor = None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _submit_raw(
        self, fn: Callable[[Any], Any], payload: Any
    ) -> Tuple[Any, int]:
        """Submit one task; returns its future and the executor generation.

        A worker that dies while tasks are still being submitted breaks the
        executor, and ``submit`` itself raises ``BrokenProcessPool``.  That
        is the crash ``future.result`` reports for a task in flight, so it
        is handled the same way: the crash is noted at once (the next
        submission gets a fresh executor) and the task comes back as a
        failed future, which :meth:`_await` counts and replays through the
        retry policy.
        """
        executor, generation = self._ensure_executor()
        with self._lock:
            self._submitted += 1
            self._pending += 1
        try:
            future = executor.submit(fn, payload)
        except BrokenProcessPool as exc:
            self._note_crash(generation)
            future = Future()
            future.set_exception(exc)
        except BaseException:
            with self._idle:
                self._pending -= 1
                self._idle.notify_all()
            raise
        return future, generation

    def _settle(self, failed: bool) -> None:
        with self._idle:
            self._pending -= 1
            if failed:
                self._failed += 1
            else:
                self._completed += 1
            self._idle.notify_all()

    def _await(
        self, fn: Callable[[Any], Any], payload: Any, future: Any, generation: int
    ) -> Any:
        """One retry-wrapped wait on a submitted task, replaying on crash."""
        state: Dict[str, Any] = {"future": future, "generation": generation}

        def attempt() -> Any:
            if state["future"] is None:
                state["future"], state["generation"] = self._submit_raw(fn, payload)
            current = state["future"]
            try:
                result = current.result(timeout=self.timeout_s)
            except BrokenProcessPool as exc:
                self._note_crash(state["generation"])
                state["future"] = None
                self._settle(failed=True)
                raise WorkerCrashError(
                    "worker process died mid-task; replaying on a fresh worker"
                ) from exc
            except FuturesTimeoutError as exc:
                with self._lock:
                    self._timeouts += 1
                current.cancel()
                self._settle(failed=True)
                raise PoolTimeoutError(
                    f"task exceeded the {self.timeout_s}s pool budget"
                ) from exc
            except BaseException:
                self._settle(failed=True)
                raise
            self._settle(failed=False)
            return result

        return self.retry.call(attempt)

    def run(self, fn: Callable[[Any], Any], payload: Any) -> Any:
        """Execute one task, replaying through the retry policy on crash."""
        future, generation = self._submit_raw(fn, payload)
        return self._await(fn, payload, future, generation)

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
        """Execute one task per payload concurrently; results in order.

        All tasks are submitted up front so the executor keeps every worker
        busy; collection then walks the futures in order, replaying any
        task lost to a crash.  One crash fails every in-flight future of
        that executor generation — each is replayed individually against
        the respawned executor, so a batch survives a mid-batch kill with
        zero lost or duplicated results.
        """
        submitted = [self._submit_raw(fn, payload) for payload in payloads]
        return [
            self._await(fn, payload, future, generation)
            for payload, (future, generation) in zip(payloads, submitted)
        ]

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Counters for health endpoints and benchmarks."""
        with self._lock:
            return {
                "workers": self.workers,
                "mp_context": self.context_name,
                "generation": self._generation,
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "pending": self._pending,
                "respawns": self._respawns,
                "timeouts": self._timeouts,
                "broken": self._broken,
                "retry": self.retry.stats(),
            }

    @property
    def depth(self) -> int:
        """Tasks currently queued or running (admission backpressure input)."""
        with self._lock:
            return self._pending


__all__ = [
    "WorkerPool",
    "WorkerCrashError",
    "PoolTimeoutError",
    "PoolBrokenError",
]
