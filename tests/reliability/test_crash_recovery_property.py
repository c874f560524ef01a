"""Property suite: random workloads, a crash at every boundary, full resume.

For each seeded random script: enumerate every injection point the workload
crosses, crash at each one, and check the two recovery properties the issue
pins — (1) the reopened store is a consistent prefix (zero committed-data
loss, zero torn state), and (2) resuming the script from the crash point
converges on exactly the state a fault-free run produces.

The sweep crosses the ``sqlite.<txn>.begin/.commit/.after`` points around
every transaction (schema, append, snapshot, catalog, log truncation) plus
the staged gap inside :meth:`checkpoint`.
"""

from __future__ import annotations

import pytest

from repro.reliability import FaultInjector, Injection, SimulatedCrash
from repro.store.engine import GraphStore

from tests.reliability.conftest import (
    apply_op,
    expected_states,
    op_is_applied,
    random_script,
    state_snapshot,
)

SEEDS = [1, 7, 23]


def baseline_state(script):
    """The end state of a fault-free run (in memory: no durability path)."""
    model = GraphStore()
    for op in script:
        if op[0] != "checkpoint":
            apply_op(model, op)
    return state_snapshot(model)


def record_trace(tmp_path, script, tag):
    """Every injection point one full run of ``script`` crosses, in order."""
    recorder = FaultInjector()
    store = GraphStore(tmp_path / f"record-{tag}", io=recorder)
    for op in script:
        apply_op(store, op)
    return recorder.trace


@pytest.mark.parametrize("seed", SEEDS)
def test_fault_free_run_is_durable(tmp_path, seed):
    script = random_script(seed)
    store = GraphStore(tmp_path / "plain")
    for op in script:
        apply_op(store, op)
    assert state_snapshot(GraphStore(tmp_path / "plain")) == baseline_state(script)


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_anywhere_then_resume_reaches_the_baseline(tmp_path, seed):
    script = random_script(seed)
    final = baseline_state(script)
    trace = record_trace(tmp_path, script, seed)
    assert len(trace) > 20  # the sweep below must actually cover boundaries
    # The named transaction points really are crossed.
    assert any(point.startswith("sqlite.append.") for point in trace)
    assert any(point.startswith("sqlite.wal.truncate.") for point in trace)
    assert "sqlite.checkpoint.staged" in trace

    for index in range(len(trace)):
        directory = tmp_path / f"run-{index}"
        injector = FaultInjector([Injection(mode="crash", at=index)])
        crashed = False
        try:
            store = GraphStore(directory, io=injector)
            for op in script:
                apply_op(store, op)
        except SimulatedCrash:
            crashed = True
        if not crashed:
            continue  # point only crossed during recording, not replay

        # Re-derive how many ops completed before the crash: a fresh
        # recording run crosses the same deterministic point sequence.
        probe = FaultInjector()
        probe_store = GraphStore(tmp_path / f"probe-{index}", io=probe)
        completed = 0
        for op in script:
            apply_op(probe_store, op)
            if len(probe.trace) > index:
                break  # this op was the one in flight
            completed += 1

        # Property 1: recovery lands on a consistent prefix.
        reopened = GraphStore(directory)
        recovered = state_snapshot(reopened)
        assert recovered in expected_states(script, completed), (
            f"seed {seed}, crash at point {index} ({trace[index]}): "
            f"recovered state is not a consistent prefix (completed={completed})"
        )

        # Property 2: resuming converges on the fault-free end state.  The
        # in-flight op replays only if its effect did not become durable;
        # everything after it replays unconditionally.
        if completed < len(script):
            inflight = script[completed]
            if not op_is_applied(reopened, inflight):
                apply_op(reopened, inflight)
            for op in script[completed + 1 :]:
                apply_op(reopened, op)
        assert state_snapshot(reopened) == final, (
            f"seed {seed}, crash at point {index} ({trace[index]}): "
            "resume did not reach the fault-free state"
        )
        # And the resumed state is itself durable.
        assert state_snapshot(GraphStore(directory)) == final


def test_corrupt_database_quarantined(tmp_path):
    """External damage is renamed aside, never fatal."""
    store = GraphStore(tmp_path)
    store.create_graph("g")
    store.add_node("g", "a", features={"v": 1})
    store.checkpoint()
    store.storage.db.close()
    target = tmp_path / "store.sqlite"
    for sidecar in (f"{target.name}-wal", f"{target.name}-shm"):
        path = tmp_path / sidecar
        if path.exists():
            path.unlink()
    target.write_bytes(b"\x00garbage\x00" * 64)
    reopened = GraphStore(tmp_path)
    report = reopened.storage.recovery_report
    assert target.name in report.quarantined
    assert not report.clean
    assert list(tmp_path.glob(f"{target.name}.corrupt*"))  # renamed aside, kept
    # The store keeps serving: new writes land and survive another reopen.
    if not reopened.has_graph("g"):
        reopened.create_graph("g")
        reopened.add_node("g", "a", features={"v": 1})
    reopened.add_node("g", "b")
    reopened.checkpoint()
    final = GraphStore(tmp_path)
    assert final.storage.graph("g").has_node("b")
