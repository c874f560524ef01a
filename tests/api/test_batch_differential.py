"""Serial batch differential suite: ``protect_many`` equals one at a time.

``protect_many`` groups a batch by target graph and runs every request on
the service's one serial path, sharing compiled marking views, walk caches
and the account cache between requests.  Sharing must never change an
answer: for every workload family a batch returns results bit-identical to
protecting each request alone on a fresh service
(:func:`repro.server.encoding.result_payload` plus the full account graph
is the timing-free comparison body), in request order, and leaves the
caches warm enough that replaying the batch is answered entirely from the
account cache — also after an edit to the graph and across a checkpoint
restart.
"""

from __future__ import annotations

import random

import pytest

from repro.api.requests import ProtectionRequest
from repro.api.service import ProtectionService
from repro.core.opacity import NaiveAdversary
from repro.core.policy import STRATEGY_HIDE, STRATEGY_SURROGATE
from repro.graph.serialization import graph_to_dict
from repro.server.encoding import result_payload
from repro.store.engine import GraphStore

from tests.replication.conftest import WORKLOAD_IDS, WORKLOADS, apply_random_edit

BATCH_SIZES = (1, 2, None)


@pytest.fixture(params=WORKLOADS, ids=WORKLOAD_IDS)
def family(request):
    """One deterministic (graph, policy, consumer) builder per workload family."""
    return request.param


def build_requests(graph, policy, consumer):
    """A batch covering every request shape the service distinguishes.

    One single-privilege request per lattice class, both edge-protection
    strategies over a few edges, a merged multi-privilege account where the
    lattice offers two non-public classes, a per-request adversary override
    and a duplicate of the first request.
    """
    lattice = policy.lattice
    privileges = list(lattice.privileges())
    requests = [ProtectionRequest(privileges=(p,)) for p in privileges]
    edges = tuple(graph.edge_keys()[:3])
    for strategy in (STRATEGY_HIDE, STRATEGY_SURROGATE):
        requests.append(
            ProtectionRequest(
                privileges=(consumer,),
                strategy=strategy,
                protect_edges=edges,
                opacity_edges=edges,
            )
        )
    non_public = [p for p in privileges if p is not lattice.public]
    if len(non_public) >= 2:
        requests.append(ProtectionRequest(privileges=tuple(non_public[-2:])))
    requests.append(ProtectionRequest(privileges=(consumer,), adversary=NaiveAdversary()))
    requests.append(ProtectionRequest(privileges=(privileges[0],)))
    return requests


def canonical(results):
    """The bit-identity body: response payload plus the full account graph."""
    return [
        (result_payload(result), graph_to_dict(result.account.graph)) for result in results
    ]


def one_at_a_time(family, size=None, edit_seed=None):
    """Each request of the batch protected alone, on its own fresh service."""
    count = len(build_requests(*family())[:size])
    results = []
    for position in range(count):
        graph, policy, consumer = family()
        if edit_seed is not None:
            edit(graph, edit_seed)
        request = build_requests(graph, policy, consumer)[position]
        results.append(ProtectionService(graph, policy).protect(request))
    return results


def edit(graph, seed, steps=6):
    rng = random.Random(seed)
    for step in range(steps):
        apply_random_edit(graph, rng, step)


@pytest.mark.parametrize("size", BATCH_SIZES, ids=["1", "2", "all"])
def test_batch_matches_one_at_a_time(family, size):
    graph, policy, consumer = family()
    requests = build_requests(graph, policy, consumer)[:size]
    batch = ProtectionService(graph, policy).protect_many(requests)
    assert [result.request for result in batch] == requests
    assert canonical(batch) == canonical(one_at_a_time(family, size))


def test_replay_hits_the_warm_cache(family):
    graph, policy, consumer = family()
    service = ProtectionService(graph, policy)
    requests = build_requests(graph, policy, consumer)
    first = service.protect_many(requests)
    hits_before = service.cache_stats().hits
    replayed = service.protect_many(requests)
    assert canonical(replayed) == canonical(first)
    assert all(result.timings_ms.get("cache_hit") for result in replayed)
    assert service.cache_stats().hits == hits_before + len(requests)


def test_duplicate_request_in_a_batch_is_answered_from_the_cache(family):
    graph, policy, consumer = family()
    requests = build_requests(graph, policy, consumer)
    first, duplicate = requests[0], requests[-1]
    assert duplicate == first and duplicate is not first
    results = ProtectionService(graph, policy).protect_many(requests)
    assert not results[0].timings_ms.get("cache_hit")
    assert results[-1].timings_ms.get("cache_hit")
    assert canonical(results[-1:]) == canonical(results[:1])


def test_cross_graph_batch_lines_up_with_request_order(family):
    graph, policy, consumer = family()
    other = graph.copy()
    edit(other, seed=99)
    requests = build_requests(graph, policy, consumer)[:3]
    # Interleaved, so grouping by graph reorders execution but not results.
    batch = []
    for request in requests:
        batch.append(request)
        batch.append(ProtectionRequest(privileges=request.privileges, graph=other))
    results = ProtectionService(graph, policy).protect_many(batch)
    assert [result.request.graph for result in results] == [None, other] * len(requests)

    expected = []
    for position in range(len(requests)):
        for on_other in (False, True):
            fresh_graph, fresh_policy, fresh_consumer = family()
            request = build_requests(fresh_graph, fresh_policy, fresh_consumer)[position]
            if on_other:
                copy = fresh_graph.copy()
                edit(copy, seed=99)
                request = ProtectionRequest(privileges=request.privileges, graph=copy)
            expected.append(ProtectionService(fresh_graph, fresh_policy).protect(request))
    assert canonical(results) == canonical(expected)


def test_batch_after_an_edit_matches_a_fresh_service(family):
    graph, policy, consumer = family()
    service = ProtectionService(graph, policy)
    service.protect_many(build_requests(graph, policy, consumer))
    edit(graph, seed=5)
    # The edit invalidates what the first batch cached: nothing stale is served.
    patched = service.protect_many(build_requests(graph, policy, consumer))
    assert canonical(patched) == canonical(one_at_a_time(family, edit_seed=5))


def test_replay_after_a_checkpoint_restart_is_exact(family, tmp_path):
    graph, policy, consumer = family()
    store = GraphStore(tmp_path / "store")
    store.put_graph(graph, name="g")
    service = ProtectionService(store.graph("g"), policy, store=store)
    requests = build_requests(service.graph, policy, consumer)
    first = service.protect_many(requests)
    service.checkpoint(first[0], name="svc")

    _graph, policy2, consumer2 = family()
    store2 = GraphStore(tmp_path / "store")
    service2 = ProtectionService(store2.graph("g"), policy2, store=store2)
    report = service2.restore(name="svc")
    assert report.mode == "warm", report.reason
    replayed = service2.protect_many(build_requests(service2.graph, policy2, consumer2))
    assert replayed[0].timings_ms.get("cache_hit")
    assert canonical(replayed) == canonical(first)
