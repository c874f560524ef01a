"""Two-process leader/follower HTTP integration.

The leader runs in-thread (:func:`start_server_thread` with
``replicate=True``); the follower is a **real second process** — ``python
-m repro.cli serve --replica-of <leader>`` — sharing the leader's store
root read-only.  The acceptance bar: the follower serves **byte-identical**
``/v1/protect`` and ``/v1/score`` result payloads, including after the
leader commits edits through a named session, with the version-vector
handshake carried in headers (so response *bodies* compare exactly).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.server.conftest import POLICY_SPEC, ApiClient, small_graph_payload

from repro.replication.wire import VECTOR_HEADER, encode_vector
from repro.server.app import ServerConfig, start_server_thread

SRC = str(Path(__file__).resolve().parents[2] / "src")
TOKEN = "token-acme"
GRAPH = "main"


def graph_body(**extra):
    body = {"tenant": "acme", "privilege": "Public", "graph_name": GRAPH}
    body.update(POLICY_SPEC)
    body.update(extra)
    return body


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    """(leader client, follower client, follower leader-URL) — two processes."""
    root = tmp_path_factory.mktemp("replication-http")
    leader_handle, _tokens = start_server_thread(
        ServerConfig(workers=2, port=0, store_root=str(root), replicate=True),
        tenants={"acme": TOKEN},
    )
    leader_url = f"http://127.0.0.1:{leader_handle.port}"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    follower_proc = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro.cli",
            "serve",
            "--replica-of",
            leader_url,
            "--store-root",
            str(root),
            "--port",
            "0",
            "--tenant",
            f"acme={TOKEN}",
            "--json",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        startup = follower_proc.stdout.readline()
        assert startup, follower_proc.stderr.read()
        follower_port = json.loads(startup)["port"]
        leader = ApiClient(leader_handle.port, TOKEN)
        follower = ApiClient(follower_port, TOKEN)
        # Publish the shared graph on the leader before anyone reads.
        published = leader.post("/v1/protect", graph_body(graph=small_graph_payload()))
        assert published.status == 200, published.body
        assert VECTOR_HEADER.lower() in published.headers
        yield leader, follower, leader_url
    finally:
        follower_proc.terminate()
        follower_proc.wait(timeout=30)
        leader_handle.stop()


def leader_vector(leader):
    """The leader's current version vector, read off any response header."""
    response = leader.post("/v1/protect", graph_body())
    assert response.status == 200, response.body
    return response.headers[VECTOR_HEADER.lower()], response


def test_roles_reported_over_http(pair):
    leader, follower, leader_url = pair
    assert leader.get("/v1/replication").body["role"] == "leader"
    status = follower.get("/v1/replication").body
    assert status["role"] == "replica"
    assert status["leader"] == leader_url


def test_protect_and_score_payloads_byte_identical(pair):
    leader, follower, _ = pair
    vector, leader_protect = leader_vector(leader)
    follower_protect = follower.post(
        "/v1/protect", graph_body(), headers={VECTOR_HEADER: vector}
    )
    assert follower_protect.status == 200, follower_protect.body
    assert json.dumps(follower_protect.body["result"]) == json.dumps(
        leader_protect.body["result"]
    )
    # The follower proves currency back: its applied vector covers the ask.
    assert VECTOR_HEADER.lower() in follower_protect.headers

    leader_score = leader.post("/v1/score", graph_body())
    follower_score = follower.post(
        "/v1/score", graph_body(), headers={VECTOR_HEADER: vector}
    )
    assert follower_score.status == 200, follower_score.body
    assert json.dumps(follower_score.body["scores"]) == json.dumps(
        leader_score.body["scores"]
    )


def test_leader_edits_stream_and_follower_stays_identical(pair):
    leader, follower, _ = pair
    _, before = leader_vector(leader)
    created = leader.post("/v1/sessions", graph_body())
    assert created.status == 201, created.body
    session_id = created.body["session"]
    edited = leader.post(
        f"/v1/sessions/{session_id}/edits",
        {
            "tenant": "acme",
            "edits": [
                {"op": "add_node", "node": "streamed", "kind": "data"},
                {"op": "add_edge", "source": "e", "target": "streamed"},
            ],
        },
    )
    assert edited.status == 200, edited.body
    vector, leader_protect = leader_vector(leader)
    follower_protect = follower.post(
        "/v1/protect", graph_body(), headers={VECTOR_HEADER: vector}
    )
    assert follower_protect.status == 200, follower_protect.body
    assert json.dumps(follower_protect.body["result"]) == json.dumps(
        leader_protect.body["result"]
    )
    # The edits really arrived: the post-edit account differs from the
    # pre-edit one (a stale snapshot would still match ``before``).
    assert json.dumps(follower_protect.body["result"]) != json.dumps(
        before.body["result"]
    )


def test_stale_vector_gets_503_with_leader_redirect(pair):
    leader, follower, leader_url = pair
    far_future = encode_vector({GRAPH: 10**9})
    response = follower.post(
        "/v1/protect", graph_body(), headers={VECTOR_HEADER: far_future}
    )
    assert response.status == 503
    assert response.headers.get("retry-after") == "1"
    assert response.headers.get("x-repro-leader") == leader_url


def test_follower_refuses_edit_sessions(pair):
    _leader, follower, leader_url = pair
    response = follower.post("/v1/sessions", graph_body())
    assert response.status == 400
    assert leader_url in response.body["error"]["message"]
