"""Crash-everywhere: every transaction boundary, every failure mode.

One fixed workload runs once under a recording injector to enumerate every
injection point it crosses: the ``begin``/``commit``/``after`` points around
each SQLite transaction, plus the staged gap inside a checkpoint.  Then, for
every point: crash there, reopen the store with plain I/O, and assert the
recovered state is a consistent prefix — the completed ops, plus at most the
op that was in flight.  Zero data loss, no torn state, at every boundary the
storage layer has.
"""

from __future__ import annotations

import pytest

from repro.exceptions import TransientError
from repro.reliability import FaultInjector, Injection, RetryPolicy, SimulatedCrash
from repro.store.engine import GraphStore

from tests.reliability.conftest import (
    apply_op,
    expected_states,
    state_snapshot,
)

#: The fixed workload: every mutator, a transaction, and a checkpoint in the
#: middle so truncation boundaries are crossed too.
SCRIPT = [
    ("create_graph", "wf"),
    ("add_node", "wf", "a", "data", {"w": 1}),
    ("add_node", "wf", "b", "process", {}),
    ("add_edge", "wf", "a", "b", "used"),
    ("txn", "wf", [("add_node", "c", "data", {"b": 1}), ("add_edge", "b", "c", "gen")]),
    ("checkpoint",),
    ("add_node", "wf", "d", "data", {}),
    ("add_edge", "wf", "c", "d", "used"),
    ("set_features", "wf", "a", {"w": 9}),
    ("remove_edge", "wf", "a", "b"),
    ("remove_node", "wf", "d"),
]


def run_script(store, script):
    """Apply ops until a crash; returns how many completed."""
    completed = 0
    for op in script:
        apply_op(store, op)
        completed += 1
    return completed


def record_trace(tmp_path):
    recorder = FaultInjector()
    store = GraphStore(tmp_path / "record", io=recorder)
    run_script(store, SCRIPT)
    return recorder.trace


#: Every transaction the store runs: the open's schema creation, write-log
#: appends, catalog saves, snapshot rows and the checkpoint's log truncation.
TRANSACTIONS = ("schema", "append", "catalog", "snapshot", "wal.truncate")


def test_the_workload_crosses_every_kind_of_boundary(tmp_path):
    trace = record_trace(tmp_path)
    crossed = set(trace)
    # Every transaction's three points and the checkpoint's staged gap must
    # all be exercised, or the crash-everywhere sweep below proves less
    # than it claims.
    for transaction in TRANSACTIONS:
        for step in ("begin", "commit", "after"):
            point = f"sqlite.{transaction}.{step}"
            assert point in crossed, f"workload never crossed {point}"
    assert "sqlite.checkpoint.staged" in crossed
    assert all(point.startswith("sqlite.") for point in crossed)
    assert len(trace) > 40


@pytest.mark.parametrize("mode", ["crash", "torn_write"])
def test_crash_at_every_injection_point_loses_no_committed_data(tmp_path, mode):
    trace = record_trace(tmp_path)
    for index in range(len(trace)):
        directory = tmp_path / f"{mode}-{index}"
        injector = FaultInjector([Injection(mode=mode, at=index)])
        completed = 0
        crashed = False
        try:
            store = GraphStore(directory, io=injector)
            completed = run_script(store, SCRIPT)
        except SimulatedCrash:
            crashed = True
        except TransientError:
            pytest.fail(f"point {index} ({trace[index]}): crash mode raised TransientError")
        if not crashed:
            # The injection point was only crossed during recording (e.g.
            # inside a read path the replay run skips); nothing to assert.
            continue
        # How many ops completed: re-derive by walking the script against
        # the injector's surviving in-memory store is unsafe (it crashed),
        # so count via a fresh recording run bounded by the crash index.
        probe = FaultInjector()
        probe_store = GraphStore(tmp_path / f"probe-{mode}-{index}", io=probe)
        completed = 0
        for op in SCRIPT:
            before = len(probe.trace)
            apply_op(probe_store, op)
            after = len(probe.trace)
            if after > index:
                break  # this op crossed the crash point: it was in flight
            completed += 1

        reopened = GraphStore(directory)  # plain I/O: recovery must succeed
        recovered = state_snapshot(reopened)
        legal = expected_states(SCRIPT, completed)
        assert recovered in legal, (
            f"{mode} at point {index} ({trace[index]}): recovered state is not a "
            f"consistent prefix (completed={completed})"
        )


def test_transient_fault_with_retry_completes_the_workload(tmp_path):
    """os_error mode + engine retry: the workload finishes, state is exact.

    One transient fault at every point the workload crosses, one run each.
    The open's ``sqlite.schema.*`` points are included: the store opens
    through its retry policy too, so a fault while creating the schema is
    one retried open rather than a failed constructor.
    """
    baseline = GraphStore()
    for op in SCRIPT:
        if op[0] != "checkpoint":
            apply_op(baseline, op)
    trace = record_trace(tmp_path)
    for index, point in enumerate(trace):
        directory = tmp_path / f"transient-{index}"
        injector = FaultInjector([Injection(mode="os_error", at=index)])
        store = GraphStore(
            directory, io=injector, retry=RetryPolicy(3, sleep=lambda _s: None)
        )
        run_script(store, SCRIPT)  # must not raise: the retry absorbs it
        assert injector.fired == [point], f"point {index} ({point}) never fired"
        assert store.retry.stats()["retries"] == 1
        assert state_snapshot(store) == state_snapshot(baseline)
        # And the state is durable: reopen with plain I/O agrees.
        assert state_snapshot(GraphStore(directory)) == state_snapshot(baseline)


def test_open_time_fault_without_retry_fails_the_open_cleanly(tmp_path):
    """Without a retry policy a schema fault fails the constructor, typed."""
    directory = tmp_path / "open"
    injector = FaultInjector([Injection(mode="os_error", point="sqlite.schema.commit")])
    with pytest.raises(TransientError) as excinfo:
        GraphStore(directory, io=injector)
    assert excinfo.value.point == "sqlite.schema.commit"
    # Nothing half-made is left behind: a plain open succeeds and works.
    store = GraphStore(directory)
    store.create_graph("wf")
    assert GraphStore(directory).has_graph("wf")


def test_transient_fault_without_retry_is_a_clean_typed_failure(tmp_path):
    directory = tmp_path / "no-retry"
    injector = FaultInjector([Injection(mode="os_error", point="sqlite.append.commit", occurrence=1)])
    store = GraphStore(directory, io=injector)
    store.create_graph("wf")
    with pytest.raises(TransientError) as excinfo:
        store.add_node("wf", "a")
        store.add_node("wf", "b")
    assert excinfo.value.point is not None
    # The failed mutator is prefix-consistent: the record either became
    # durable before the fault or it did not, but "b" (never attempted)
    # can never appear and the store must reopen cleanly.
    reopened = GraphStore(directory)
    graph = reopened.storage.graph("wf")
    assert not graph.has_node("b")
