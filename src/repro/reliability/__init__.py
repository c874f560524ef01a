"""Reliability layer: fault injection, retries, and crash-safe recovery aids.

The package pairs with the storage seam in :mod:`repro.store.io`:

* :class:`~repro.reliability.faults.FaultInjector` drives deterministic
  torn writes, transient errors and simulated crashes through every
  transaction and rename boundary of the store (the crash-recovery suite's
  engine).
* :class:`~repro.reliability.retry.RetryPolicy` gives the service stack
  bounded, backoff-spaced retries around transient store faults.

See ``docs/reliability.md`` for the failure model and the recovery
guarantees these pieces verify.
"""

from repro.reliability.faults import FaultInjector, Injection, SimulatedCrash
from repro.reliability.retry import RetryPolicy

__all__ = [
    "FaultInjector",
    "Injection",
    "RetryPolicy",
    "SimulatedCrash",
]
