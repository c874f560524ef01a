"""Compaction never strands a follower — property-tested at every point.

The invariant: for an edit script of K deltas with checkpoints sprinkled
through it, compacting with *any* requested truncation point leaves every
follower able to converge — a follower at-or-past the stamp replays a
contiguous suffix, and a fresh (or lagging) follower reseeds from the
stamped snapshot.  Either way the final graph equals the leader's.
"""

from __future__ import annotations

import random

import pytest

from tests.replication.conftest import apply_random_edit, graph_state

from repro.api.service import ProtectionService
from repro.core.policy import ReleasePolicy
from repro.core.privileges import PrivilegeLattice
from repro.replication.log import ReplicationPublisher
from repro.replication.replica import ReplicaService

GRAPH = "main"
SCRIPT_LEN = 12


@pytest.fixture
def leader(workload, leader_store):
    graph, _policy, _consumer = workload()
    service = ProtectionService(None, ReleasePolicy(PrivilegeLattice()), store=leader_store)
    publisher = ReplicationPublisher(service)
    publisher.publish(GRAPH, graph)
    yield graph, publisher
    publisher.close()
    publisher.log.close()


def run_script(graph, publisher, *, checkpoint_every=4):
    rng = random.Random(2024)
    for step in range(SCRIPT_LEN):
        apply_random_edit(graph, rng, step)
        if (step + 1) % checkpoint_every == 0:
            publisher.checkpoint(GRAPH)


@pytest.mark.parametrize("truncate_at", range(SCRIPT_LEN + 1))
def test_every_truncation_point_leaves_followers_convergent(
    leader, leader_store, truncate_at
):
    graph, publisher = leader
    run_script(graph, publisher)
    head = publisher.log.head_for(GRAPH)
    stamp = publisher.log.stamp_for(GRAPH)
    deleted = publisher.log.compact(GRAPH, below=truncate_at)
    # The clamp: nothing above the stamp is ever deleted.
    assert deleted <= stamp
    surviving = publisher.log.records_since(GRAPH, stamp)
    assert [seq for seq, _ in surviving] == list(range(stamp + 1, head + 1))

    follower = ReplicaService(leader_store.storage.directory)
    try:
        follower.poll()
        assert graph_state(follower.graph(GRAPH)) == graph_state(graph)
        assert follower.applied_vector()[GRAPH] == head
    finally:
        follower.close()


def test_lagging_follower_reseeds_across_compaction(leader, leader_store):
    graph, publisher = leader
    rng = random.Random(7)
    # Phase 1: a follower replays a prefix, then its process "pauses".
    for step in range(4):
        apply_random_edit(graph, rng, step)
    follower = ReplicaService(leader_store.storage.directory)
    try:
        follower.poll()
        paused_at = follower.applied_vector()[GRAPH]
        assert paused_at == publisher.log.head_for(GRAPH)
        # Phase 2: the leader edits on, checkpoints, and compacts past the
        # follower's position while it was asleep.
        for step in range(4, 10):
            apply_random_edit(graph, rng, step)
        publisher.compact(GRAPH)
        assert publisher.log.stamp_for(GRAPH) == publisher.log.head_for(GRAPH)
        assert publisher.log.stamp_for(GRAPH) > paused_at
        # Phase 3: the follower wakes, hits the gap, reseeds, converges.
        reseeds_before = follower.status()["reseeds"]
        follower.poll()
        follower.poll()  # second pass replays any post-reseed tail
        assert follower.status()["reseeds"] == reseeds_before + 1
        assert graph_state(follower.graph(GRAPH)) == graph_state(graph)
    finally:
        follower.close()


def test_compaction_with_no_checkpoint_deletes_nothing(leader, leader_store):
    graph, publisher = leader
    rng = random.Random(3)
    for step in range(5):
        apply_random_edit(graph, rng, step)
    # Only the publish-time stamp (0) exists: nothing may be dropped.
    head = publisher.log.head_for(GRAPH)
    assert head >= 5
    assert publisher.log.compact(GRAPH, below=head) == 0
    assert [seq for seq, _ in publisher.log.records_since(GRAPH, 0)] == list(
        range(1, head + 1)
    )
