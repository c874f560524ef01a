"""Deterministic fault injection over the storage I/O seam.

:class:`FaultInjector` is a :class:`~repro.store.io.StorageIO` whose
:meth:`~repro.store.io.StorageIO.checkpoint` and
:meth:`~repro.store.io.StorageIO.write_step` hooks actually fire: at a
chosen injection point it raises a transient ``OSError``-shaped failure,
simulates a process crash, or tears a write in half and *then* crashes.
Because every commit the store makes announces itself through the seam (each
SQLite transaction and each atomic file replace), a test can

1. run a workload once under a recording injector (no plan) to enumerate
   every injection point the workload crosses, then
2. re-run it once per ``(point index, mode)`` pair, crash there, reopen the
   store, and assert the recovered state is a consistent prefix.

Crashes are modelled by :class:`SimulatedCrash`, which derives from
``BaseException`` on purpose: production code's ``except Exception`` /
``except OSError`` blocks must not be able to "handle" a power cut.

Injections are matched deterministically — by global step index, or by the
N-th occurrence of a named point — and each trigger fires exactly once, so
a retried operation proceeds normally after a transient fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import TransientError
from repro.store.io import StorageIO


class SimulatedCrash(BaseException):
    """A simulated process death at an injection point.

    Subclasses ``BaseException`` so that no ``except Exception`` handler in
    the code under test can swallow it — exactly like a real crash, the only
    valid response is to reopen the store and recover.
    """


@dataclass
class Injection:
    """One planned fault.

    Matched either by ``at`` (the global 0-based index into the sequence of
    injection-point crossings) or by ``point`` + ``occurrence`` (the N-th
    time that named point is crossed).  ``mode`` is one of:

    ``os_error``
        Raise a :class:`~repro.exceptions.TransientError` (what the I/O
        layer turns ``OSError`` into) — the *retryable* failure shape.
    ``crash``
        Raise :class:`SimulatedCrash` before the step runs.
    ``torn_write``
        Only meaningful at ``write_step`` points: write the first
        ``keep_bytes`` bytes (default: half), flush, then crash — the torn
        frame is on disk, as after a mid-write power cut.  At a
        non-write point this degrades to ``crash``.
    """

    mode: str = "crash"
    at: Optional[int] = None
    point: Optional[str] = None
    occurrence: int = 0
    keep_bytes: Optional[int] = None
    fired: bool = field(default=False, repr=False)


class FaultInjector(StorageIO):
    """A :class:`StorageIO` that fails on cue.

    Parameters
    ----------
    plan:
        The :class:`Injection` objects to fire (each at most once).  An
        empty plan makes this a pure recorder.
    """

    def __init__(self, plan: Optional[List[Injection]] = None) -> None:
        self.plan: List[Injection] = list(plan or [])
        #: Every injection point crossed, in order (the enumeration a
        #: crash-everywhere test iterates over).
        self.trace: List[str] = []
        #: Points at which a fault actually fired.
        self.fired: List[str] = []
        self._occurrences: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def _match(self, point: str) -> Optional[Injection]:
        index = len(self.trace)
        occurrence = self._occurrences.get(point, 0)
        self.trace.append(point)
        self._occurrences[point] = occurrence + 1
        for injection in self.plan:
            if injection.fired:
                continue
            if injection.at is not None:
                if injection.at == index and (
                    injection.point is None or injection.point == point
                ):
                    injection.fired = True
                    return injection
            elif injection.point == point and injection.occurrence == occurrence:
                injection.fired = True
                return injection
        return None

    def _fire(self, injection: Injection, point: str) -> None:
        self.fired.append(point)
        if injection.mode == "os_error":
            raise TransientError(f"injected transient fault at {point}", point=point)
        raise SimulatedCrash(point)

    # ------------------------------------------------------------------ #
    # StorageIO hooks
    # ------------------------------------------------------------------ #
    def checkpoint(self, point: str) -> None:
        """Fire the planned fault, if this crossing matches one."""
        injection = self._match(point)
        if injection is not None:
            self._fire(injection, point)

    def write_step(self, point: str, handle, data: bytes) -> None:
        """Write ``data`` — possibly only a torn prefix of it."""
        injection = self._match(point)
        if injection is None:
            handle.write(data)
            return
        if injection.mode == "torn_write":
            keep = injection.keep_bytes if injection.keep_bytes is not None else len(data) // 2
            handle.write(data[:keep])
            handle.flush()
            self.fired.append(point)
            raise SimulatedCrash(point)
        self._fire(injection, point)
