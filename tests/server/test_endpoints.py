"""Endpoint behaviour and byte-identity with the in-process service stack."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.service import ProtectionService
from repro.graph.serialization import graph_from_dict
from repro.security.credentials import Consumer
from repro.security.enforcement import EnforcementMode, QueryEnforcer
from repro.server.encoding import (
    build_policy,
    decode_protection_request,
    json_bytes,
    query_result_payload,
    result_payload,
    scorecard_payload,
)
from tests.server.conftest import (
    POLICY_SPEC,
    ApiClient,
    protect_body,
    small_graph_payload,
)


def _in_process_result(body: dict):
    """The same request served by a fresh in-process ProtectionService."""
    graph = graph_from_dict(dict(body["graph"]))
    policy = build_policy(POLICY_SPEC)
    service = ProtectionService(None, policy)
    request = decode_protection_request(body, graph)
    return service.protect(request)


# ---------------------------------------------------------------------- #
# protect: correctness + byte-identity
# ---------------------------------------------------------------------- #
def test_protect_is_byte_identical_to_in_process(client: ApiClient) -> None:
    body = protect_body()
    expected = json_bytes(result_payload(_in_process_result(body)))
    response = client.post("/v1/protect", body)
    assert response.status == 200
    assert json_bytes(response.body["result"]) == expected
    assert "timings_ms" in response.body  # timings ride outside the result


def test_repeated_protect_hits_the_account_cache(client: ApiClient) -> None:
    body = protect_body(score=True)
    first = client.post("/v1/protect", body)
    second = client.post("/v1/protect", body)
    assert first.status == second.status == 200
    assert second.body["cache_hit"] is True
    # A cached replay answers with the exact same deterministic bytes.
    assert json_bytes(second.body["result"]) == json_bytes(first.body["result"])


def test_concurrent_clients_get_byte_identical_results(client: ApiClient) -> None:
    body = protect_body(score=True, name="concurrent")
    expected = json_bytes(result_payload(_in_process_result(body)))

    def one_call(_index: int) -> bytes:
        response = client.post("/v1/protect", body)
        assert response.status == 200
        return json_bytes(response.body["result"])

    with ThreadPoolExecutor(max_workers=8) as pool:
        observed = list(pool.map(one_call, range(16)))
    assert all(result == expected for result in observed)


# ---------------------------------------------------------------------- #
# graph registration
# ---------------------------------------------------------------------- #
def test_graph_ref_round_trip(client: ApiClient) -> None:
    payload = small_graph_payload(tag="registered")
    created = client.post("/v1/graphs", {"tenant": "acme", "graph": payload})
    assert created.status == 201
    ref = created.body["graph_ref"]
    assert created.body["nodes"] == 5

    body = protect_body()
    del body["graph"]
    body["graph_ref"] = ref
    response = client.post("/v1/protect", body)
    assert response.status == 200

    # The by-ref answer matches the same request served with the graph inline.
    inline = protect_body()
    inline["graph"] = payload
    inline_response = client.post("/v1/protect", inline)
    assert json_bytes(response.body["result"]) == json_bytes(inline_response.body["result"])


def test_unknown_graph_ref_is_404(client: ApiClient) -> None:
    body = protect_body()
    del body["graph"]
    body["graph_ref"] = "0" * 64
    response = client.post("/v1/protect", body)
    assert response.status == 404
    assert response.body["error"]["kind"] == "NotFoundError"


def test_missing_graph_and_ref_is_400(client: ApiClient) -> None:
    body = protect_body()
    del body["graph"]
    response = client.post("/v1/protect", body)
    assert response.status == 400


#: One malformed row per kind, each appended to an otherwise valid graph.
MALFORMED_ROWS = {
    "self-loop-edge": ("edges", {"source": "a", "target": "a"}),
    "node-without-id": ("nodes", {"kind": "data"}),
    "non-object-row": ("nodes", "f"),
    "unhashable-id": ("nodes", {"id": ["f"]}),
    "list-features": ("nodes", {"id": "f", "features": ["x"]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_malformed_graph_row_is_400(client: ApiClient, case: str) -> None:
    payload = small_graph_payload(tag=case)
    table, row = MALFORMED_ROWS[case]
    payload[table].append(row)
    created = client.post("/v1/graphs", {"tenant": "acme", "graph": payload})
    assert created.status == 400
    assert created.body["error"]["kind"] == "GraphError"
    body = protect_body()
    body["graph"] = payload
    response = client.post("/v1/protect", body)
    assert response.status == 400
    assert response.body["error"]["kind"] == "GraphError"


# ---------------------------------------------------------------------- #
# score + enforce
# ---------------------------------------------------------------------- #
def test_score_matches_in_process_scorecard(client: ApiClient) -> None:
    body = protect_body()
    in_process = _in_process_result({**body, "score": True})
    response = client.post("/v1/score", body)
    assert response.status == 200
    assert json_bytes(response.body["scores"]) == json_bytes(
        scorecard_payload(in_process.scores)
    )


def test_enforce_matches_in_process_enforcer(client: ApiClient) -> None:
    body = dict(POLICY_SPEC)
    body.update(
        {
            "tenant": "acme",
            "graph": small_graph_payload(),
            "consumer": {"id": "alice", "credentials": ["tenant:acme"]},
            "start": "a",
            "direction": "descendants",
            "mode": "protected",
        }
    )
    response = client.post("/v1/enforce", body)
    assert response.status == 200

    graph = graph_from_dict(small_graph_payload())
    policy = build_policy(POLICY_SPEC)
    service = ProtectionService(graph, policy)
    enforcer = QueryEnforcer(graph, policy, service=service)
    consumer = Consumer.with_credentials("alice", "tenant:acme")
    expected = query_result_payload(
        enforcer.reachable(consumer, "a", direction="descendants", mode=EnforcementMode.PROTECTED)
    )
    assert json_bytes(response.body["query"]) == json_bytes(expected)


def test_enforce_unknown_mode_is_400(client: ApiClient) -> None:
    body = dict(POLICY_SPEC)
    body.update(
        {
            "tenant": "acme",
            "graph": small_graph_payload(),
            "consumer": {"id": "alice"},
            "start": "a",
            "mode": "sideways",
        }
    )
    response = client.post("/v1/enforce", body)
    assert response.status == 400


# ---------------------------------------------------------------------- #
# protect_many streaming
# ---------------------------------------------------------------------- #
def test_protect_many_streams_one_line_per_result(client: ApiClient) -> None:
    batch = dict(POLICY_SPEC)
    batch.update(
        {
            "tenant": "acme",
            "graph": small_graph_payload(),
            "requests": [
                {"privilege": "Public"},
                {"privilege": "Confidential"},
                {"privilege": "Nope"},  # fails mid-stream, others unaffected
                {"privilege": "Secret"},
            ],
        }
    )
    status, headers, lines = client.stream("/v1/protect_many", batch)
    assert status == 200
    assert headers.get("transfer-encoding") == "chunked"
    assert len(lines) == 5  # four per-entry lines + the summary
    assert [line["index"] for line in lines[:-1]] == [0, 1, 2, 3]
    assert "result" in lines[0] and "result" in lines[3]
    assert lines[2]["error"]["status"] == 400  # the bad privilege
    assert lines[-1] == {"served": 3, "failed": 1, "cache": lines[-1]["cache"]}


def test_protect_many_lines_match_single_protect(client: ApiClient) -> None:
    batch = dict(POLICY_SPEC)
    batch.update(
        {
            "tenant": "acme",
            "graph": small_graph_payload(),
            "requests": [{"privilege": "Public"}, {"privilege": "Secret"}],
        }
    )
    _, _, lines = client.stream("/v1/protect_many", batch)
    for entry, line in zip(batch["requests"], lines[:-1]):
        single = client.post(
            "/v1/protect", protect_body(privilege=entry["privilege"])
        )
        assert json_bytes(line["result"]) == json_bytes(single.body["result"])


def test_protect_many_requires_a_nonempty_list(client: ApiClient) -> None:
    batch = dict(POLICY_SPEC)
    batch.update({"tenant": "acme", "graph": small_graph_payload(), "requests": []})
    status, _headers, lines = client.stream("/v1/protect_many", batch)
    assert status == 400
    assert lines[0]["error"]["kind"] == "BadRequestError"


# ---------------------------------------------------------------------- #
# malformed requests + routing
# ---------------------------------------------------------------------- #
def test_invalid_json_body_is_400(client: ApiClient) -> None:
    response = client.request("POST", "/v1/protect", raw_body=b"{not json")
    assert response.status == 400
    assert response.body["error"]["kind"] == "BadRequestError"


def test_unknown_request_field_is_400(client: ApiClient) -> None:
    response = client.post("/v1/protect", protect_body(frobnicate=True))
    assert response.status == 400
    assert "frobnicate" in response.body["error"]["message"]


def test_missing_privilege_is_400(client: ApiClient) -> None:
    body = protect_body()
    del body["privilege"]
    response = client.post("/v1/protect", body)
    assert response.status == 400


def test_unknown_privilege_maps_to_400(client: ApiClient) -> None:
    response = client.post("/v1/protect", protect_body(privilege="NoSuchTier"))
    assert response.status == 400
    assert "NoSuchTier" in response.body["error"]["message"]


#: Policy specs that cannot be read, each answered 400.
MALFORMED_POLICIES = {
    "lattice-not-an-object": {"lattice": [1, 2]},
    "dominates-not-a-list": {"lattice": {"Confidential": 5}},
    "dominates-a-string": {"lattice": {"Confidential": "Public"}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_POLICIES))
def test_malformed_policy_spec_is_400(client: ApiClient, case: str) -> None:
    response = client.post("/v1/protect", protect_body(**MALFORMED_POLICIES[case]))
    assert response.status == 400
    assert response.body["error"]["kind"] == "BadRequestError"


def test_unknown_route_is_404(client: ApiClient) -> None:
    response = client.post("/v1/frobnicate", {})
    assert response.status == 404
    assert response.body["error"]["kind"] == "NotFoundError"


def test_wrong_method_is_405(client: ApiClient) -> None:
    response = client.get("/v1/protect")
    assert response.status == 405
    assert response.body["error"]["kind"] == "MethodNotAllowedError"


# ---------------------------------------------------------------------- #
# health
# ---------------------------------------------------------------------- #
def test_health_reports_serving_counters(client: ApiClient) -> None:
    client.post("/v1/protect", protect_body())  # ensure some traffic exists
    response = client.get("/v1/health", token=None)
    assert response.status == 200
    serving = response.body["serving"]
    assert serving["admitted"] >= 1
    assert serving["draining"] is False
    assert "sessions" in serving and "connections" in serving
    acme_lane = serving["tenants"]["acme"]
    assert acme_lane["completed"] >= 1
    assert acme_lane["ewma_service_ms"] > 0
    latency = serving["latency"]
    protect = latency["POST /v1/protect"]
    assert protect["count"] >= 1
    assert protect["p50_ms"] > 0
    assert sum(protect["buckets"].values()) == protect["count"]
    # Labels are route *patterns*: no concrete paths, no cardinality blowup.
    assert all(" /v1/" in label or label == "unrouted" for label in latency)
    # The per-tenant service health carries the serving hook's stats too.
    tenant_health = response.body["tenants"]["acme"]
    assert tenant_health["serving"]["admission"]["completed"] >= 1
    assert json.dumps(response.body)  # the whole payload is JSON-serialisable
