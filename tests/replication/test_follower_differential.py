"""The headline differential suite: replayed followers are bit-identical.

For every workload family and a randomized edit script, a follower that
seeds from the checkpoint snapshot and replays the durable delta log must
hold **exactly** the leader's graph — and every compiled view maintained
over the replayed graph must equal a fresh compile at the same sequence
number, with *zero* recompile fallbacks on the supported edit set.  The
same must survive crash/restart of the follower mid-replay, because
replay is idempotent from the last stamp.

This extends ``tests/property/test_delta_maintenance.py``: the same edit
surface, now crossing a process-shaped boundary (durable log + read-only
store) instead of an in-process bus.
"""

from __future__ import annotations

import random

import pytest

from tests.replication.conftest import apply_random_edit, graph_state

from repro.api.service import ProtectionService
from repro.core.markings import CompiledMarkingView
from repro.core.opacity import (
    AdvancedAdversary,
    CompiledOpacityView,
    OpacityViewCache,
    opacity_simulations_run,
)
from repro.core.policy import ReleasePolicy
from repro.core.privileges import PrivilegeLattice
from repro.graph.deltas import DeltaBus, view_maintenance_stats
from repro.replication.log import ReplicationPublisher
from repro.replication.replica import ReplicaService

GRAPH = "main"


@pytest.fixture
def leader(workload, leader_store):
    """(graph, policy, consumer, publisher) with the graph published."""
    graph, policy, consumer = workload()
    service = ProtectionService(None, ReleasePolicy(PrivilegeLattice()), store=leader_store)
    publisher = ReplicationPublisher(service)
    publisher.publish(GRAPH, graph)
    yield graph, policy, consumer, publisher
    publisher.close()
    publisher.log.close()


def make_follower(leader_store):
    return ReplicaService(leader_store.storage.directory)


class TestFollowerDifferential:
    def test_replayed_graph_is_identical_at_every_step(self, leader, leader_store):
        graph, _policy, _consumer, publisher = leader
        follower = make_follower(leader_store)
        try:
            rng = random.Random(4242)
            for step in range(30):
                apply_random_edit(graph, rng, step)
                follower.poll()
                assert follower.applied_vector()[GRAPH] == publisher.log.head_for(GRAPH)
                assert graph_state(follower.graph(GRAPH)) == graph_state(graph), step
        finally:
            follower.close()

    def test_maintained_views_match_fresh_compiles_with_zero_recompiles(
        self, leader, leader_store
    ):
        graph, policy, consumer, _publisher = leader
        follower = make_follower(leader_store)
        try:
            replica_graph = follower.graph(GRAPH)
            replica_graph.enable_delta_log()
            view = policy.markings.compile(replica_graph, consumer)
            compiled_before = view_maintenance_stats()["marking_view"].get("compiled", 0)
            rng = random.Random(77)
            for step in range(25):
                apply_random_edit(graph, rng, step)
                follower.poll()
                maintained = policy.markings.compile(replica_graph, consumer)
                # Identity: the view was patched, never recompiled.
                assert maintained is view, step
                fresh = CompiledMarkingView(
                    replica_graph, policy.markings, policy.lattice.get(consumer)
                )
                assert maintained.node_default == fresh.node_default
                assert maintained.edge_state_table == fresh.edge_state_table
                assert maintained._overrides == fresh._overrides
                assert maintained.graph_version == replica_graph.version
            # Zero recompile fallbacks: the only "compiled" events of the
            # whole script are the 25 fresh reference views built above.
            assert (
                view_maintenance_stats()["marking_view"].get("compiled", 0)
                == compiled_before + 25
            )
        finally:
            follower.close()

    def test_opacity_view_patches_in_place_over_replay(self, leader, leader_store):
        graph, _policy, _consumer, _publisher = leader
        adversary = AdvancedAdversary()
        follower = make_follower(leader_store)
        try:
            replica_graph = follower.graph(GRAPH)
            replica_graph.enable_delta_log()
            view = CompiledOpacityView.compile(replica_graph, adversary)
            last_version = replica_graph.version
            rng = random.Random(31)
            for step in range(20):
                apply_random_edit(graph, rng, step)
                follower.poll()
                for delta in replica_graph.deltas_since(last_version):
                    assert view.apply_delta(delta, adversary), step
                last_version = replica_graph.version
                fresh = CompiledOpacityView.compile(replica_graph, adversary)
                assert view.focus_weights == fresh.focus_weights
                assert view.inference_weights == fresh.inference_weights
                assert view.denominators() == fresh.denominators()
        finally:
            follower.close()

    def test_caches_subscribed_to_the_replica_patch_in_place(self, leader, leader_store):
        graph, _policy, _consumer, _publisher = leader
        adversary = AdvancedAdversary()
        follower = make_follower(leader_store)
        try:
            replica_graph = follower.graph(GRAPH)
            cache = OpacityViewCache()
            bus = DeltaBus()
            bus.subscribe(cache.on_delta)
            token = bus.attach(replica_graph)
            try:
                cache.get_or_compile(replica_graph, adversary)
                simulations = opacity_simulations_run()
                rng = random.Random(5)
                for step in range(8):
                    apply_random_edit(graph, rng, step)
                follower.poll()
                patched = cache.get_or_compile(replica_graph, adversary)
                # Replay drove the cache's own apply_delta path: serving the
                # current view costs zero new simulations.
                assert opacity_simulations_run() == simulations
                fresh = CompiledOpacityView.compile(replica_graph, adversary)
                assert patched.denominators() == fresh.denominators()
                assert patched.total_inference == fresh.total_inference
            finally:
                bus.detach(replica_graph, token)
        finally:
            follower.close()

    def test_crash_and_restart_mid_replay_converges(self, leader, leader_store):
        graph, _policy, _consumer, publisher = leader
        rng = random.Random(90)
        follower = make_follower(leader_store)
        try:
            for step in range(10):
                apply_random_edit(graph, rng, step)
            follower.poll()
        finally:
            follower.close()  # the crash: in-memory replica state is gone

        publisher.checkpoint(GRAPH)  # leader keeps checkpointing regardless
        for step in range(10, 20):
            apply_random_edit(graph, rng, step)

        restarted = make_follower(leader_store)
        try:
            restarted.poll()
            assert graph_state(restarted.graph(GRAPH)) == graph_state(graph)
            assert restarted.applied_vector()[GRAPH] == publisher.log.head_for(GRAPH)
        finally:
            restarted.close()

    def test_partial_poll_then_restart_is_idempotent(self, leader, leader_store):
        graph, _policy, _consumer, publisher = leader
        rng = random.Random(13)
        for step in range(12):
            apply_random_edit(graph, rng, step)
        follower = make_follower(leader_store)
        try:
            follower.poll(max_records=5)  # interrupted mid-stream
            partial = follower.applied_vector()[GRAPH]
            assert 0 < partial < publisher.log.head_for(GRAPH)
        finally:
            follower.close()
        restarted = make_follower(leader_store)
        try:
            # The restart re-seeds at the stamp (0) and replays rows the
            # first follower already applied — idempotence makes it a no-op.
            restarted.poll()
            assert graph_state(restarted.graph(GRAPH)) == graph_state(graph)
        finally:
            restarted.close()

    def test_batched_bursts_replay_as_single_composite_deltas(self, leader, leader_store):
        graph, _policy, _consumer, publisher = leader
        rng = random.Random(55)
        with graph.batch():
            for step in range(6):
                apply_random_edit(graph, rng, step)
        assert publisher.log.head_for(GRAPH) == 1  # one composite row
        follower = make_follower(leader_store)
        try:
            replica_graph = follower.graph(GRAPH)
            replica_graph.enable_delta_log()
            version = replica_graph.version
            follower.poll()
            replayed = replica_graph.deltas_since(version)
            assert len(replayed) == 1  # the follower re-emits one batch too
            assert graph_state(replica_graph) == graph_state(graph)
        finally:
            follower.close()

    def test_wait_for_and_staleness(self, leader, leader_store):
        graph, _policy, _consumer, publisher = leader
        from repro.exceptions import StaleReplicaError

        follower = make_follower(leader_store)
        try:
            graph.add_node("fresh-x", kind="data")
            head = publisher.log.head_for(GRAPH)
            follower.wait_for({GRAPH: head}, budget=5.0)
            assert follower.current_for({GRAPH: head})
            with pytest.raises(StaleReplicaError) as info:
                follower.wait_for({GRAPH: head + 50}, budget=0.05)
            assert info.value.wanted == {GRAPH: head + 50}
            assert info.value.applied[GRAPH] == head
        finally:
            follower.close()
