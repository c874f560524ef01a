"""Wire formats: JSON encoding/decoding shared by server, bench and tests.

Two properties matter here:

* **Determinism** — :func:`result_payload` is the *identity-bearing* part
  of a protect response: everything about the result except wall-clock
  timings.  The latency benchmark and the equivalence tests assert that the
  bytes a client receives are identical to
  ``json_bytes(result_payload(service.protect(...)))`` computed in-process,
  so this module is the single definition of "the same answer".
* **Deduplication** — graphs and policies arrive as JSON payloads;
  :func:`graph_digest` / :func:`policy_digest` give them canonical
  content addresses so the server can map equal payloads onto the *same*
  in-memory objects, which is what lets the
  :class:`~repro.api.cache.AccountCache` (keyed on object identity +
  version) answer repeated requests in microseconds.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.api.requests import ProtectionRequest
from repro.api.results import ProtectionResult, ScoreCard
from repro.core.policy import ReleasePolicy
from repro.core.privileges import PrivilegeLattice
from repro.graph.model import PropertyGraph
from repro.graph.serialization import graph_from_dict
from repro.security.credentials import Consumer
from repro.server.errors import BadRequestError


def json_bytes(payload: Any) -> bytes:
    """Compact, key-order-preserving JSON bytes (the server's one encoder)."""
    return json.dumps(payload, separators=(",", ":"), default=str).encode("utf-8")


def canonical_digest(payload: Any) -> str:
    """Content address of a JSON payload (sorted keys, compact separators)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# responses
# ---------------------------------------------------------------------- #
def result_payload(result: ProtectionResult) -> Dict[str, Any]:
    """The deterministic body of one protect response (timings excluded).

    Byte-identical across transport: the same request served in-process,
    from the account cache, or over HTTP produces the same
    ``json_bytes(result_payload(...))``.
    """
    payload: Dict[str, Any] = {
        "account": result.account.summary(),
        "privileges": [
            getattr(privilege, "name", str(privilege))
            for privilege in result.request.privileges
        ],
        "strategy": result.request.strategy,
    }
    if result.scores is not None:
        payload["scores"] = scorecard_payload(result.scores)
    if result.stored_as is not None:
        payload["stored_as"] = result.stored_as
    return payload


def scorecard_payload(scores: ScoreCard) -> Dict[str, Any]:
    """A ScoreCard as its stable dict shape (no timings)."""
    return scores.as_dict()


def timings_payload(timings: Mapping[str, float]) -> Dict[str, float]:
    """Timings rounded for the wire (kept out of the deterministic part)."""
    return {name: round(value, 3) for name, value in timings.items()}


def query_result_payload(result: object) -> Dict[str, Any]:
    """A :class:`~repro.security.enforcement.QueryResult` for the wire."""
    return {
        "consumer": getattr(result, "consumer_id", None),
        "mode": getattr(getattr(result, "mode", None), "name", str(getattr(result, "mode", ""))),
        "start": getattr(result, "start", None),
        "direction": getattr(result, "direction", None),
        "start_missing": bool(getattr(result, "start_missing", False)),
        "nodes": [str(node) for node in getattr(result, "nodes", [])],
        "surrogate_nodes": sorted(
            str(node) for node in getattr(result, "surrogate_nodes", ())
        ),
    }


# ---------------------------------------------------------------------- #
# graph + policy decoding
# ---------------------------------------------------------------------- #
def graph_digest(payload: Mapping[str, Any]) -> str:
    """Content address of one serialised graph payload."""
    if not isinstance(payload, Mapping):
        raise BadRequestError("'graph' must be a serialised graph object")
    return canonical_digest(payload)


def decode_graph(payload: Mapping[str, Any]) -> PropertyGraph:
    """Rebuild a :class:`PropertyGraph` from its wire dict."""
    if not isinstance(payload, Mapping):
        raise BadRequestError("'graph' must be a serialised graph object")
    return graph_from_dict(dict(payload))


def policy_digest(spec: Mapping[str, Any]) -> str:
    """Content address of one policy spec (``lattice`` + ``lowest``)."""
    return canonical_digest(
        {"lattice": spec.get("lattice", {}), "lowest": spec.get("lowest", {})}
    )


def build_policy(spec: Mapping[str, Any]) -> ReleasePolicy:
    """A :class:`ReleasePolicy` from the CLI/server policy spec.

    The spec is the ``serve-batch`` convention: ``lattice`` maps privilege
    name → list of dominated privilege names, ``lowest`` maps node id →
    privilege name.  An empty spec gives the default Public-only policy.
    """
    policy = ReleasePolicy(PrivilegeLattice())
    lattice = spec.get("lattice", {})
    lowest = spec.get("lowest", {})
    if not isinstance(lattice, Mapping) or not isinstance(lowest, Mapping):
        raise BadRequestError("'lattice' and 'lowest' must be objects")
    for name, dominates in lattice.items():
        if not isinstance(dominates, list):
            raise BadRequestError(
                f"'lattice' maps each privilege to a list of the privileges it"
                f" dominates; {name!r} maps to {dominates!r}"
            )
        policy.lattice.add(name, dominates=list(dominates))
    for node_id, privilege in lowest.items():
        policy.set_lowest(node_id, privilege)
    return policy


# ---------------------------------------------------------------------- #
# request decoding
# ---------------------------------------------------------------------- #
#: Request-body fields forwarded verbatim into :class:`ProtectionRequest`.
_REQUEST_FIELDS = (
    "strategy",
    "include_surrogate_edges",
    "repair_connectivity",
    "name",
    "score",
    "normalize_focus",
    "explicit_scores",
    "compiled",
    "persist_as",
    "use_cache",
)

#: Body fields consumed by the HTTP layer before request construction.
_ENVELOPE_FIELDS = (
    "graph",
    "graph_ref",
    "graph_name",
    "lattice",
    "lowest",
    "tenant",
    "requests",
)


def decode_protection_request(
    body: Mapping[str, Any], graph: PropertyGraph
) -> ProtectionRequest:
    """One wire request entry → a :class:`ProtectionRequest` bound to ``graph``."""
    if not isinstance(body, Mapping):
        raise BadRequestError(f"each request must be an object, got {body!r}")
    privileges = body.get("privileges")
    if privileges is None:
        privilege = body.get("privilege")
        if privilege is None:
            raise BadRequestError("each request needs 'privilege' or 'privileges'")
        privileges = [privilege]
    if not isinstance(privileges, (list, tuple)) or not privileges:
        raise BadRequestError("'privileges' must be a non-empty list")

    options: Dict[str, Any] = {}
    for name in _REQUEST_FIELDS:
        if name in body:
            options[name] = body[name]
    for name in ("protect_edges", "opacity_edges"):
        if name in body and body[name] is not None:
            options[name] = _decode_edges(name, body[name])
    unknown = (
        set(body)
        - set(_REQUEST_FIELDS)
        - {"privilege", "privileges", "protect_edges", "opacity_edges"}
        - set(_ENVELOPE_FIELDS)
    )
    if unknown:
        raise BadRequestError(f"unknown request field(s): {sorted(unknown)}")
    try:
        return ProtectionRequest(privileges=tuple(privileges), graph=graph, **options)
    except TypeError as exc:
        raise BadRequestError(f"bad request options: {exc}") from exc


def _decode_edges(name: str, value: Any) -> Tuple[Tuple[Any, Any], ...]:
    try:
        edges = tuple((source, target) for source, target in value)
    except (TypeError, ValueError) as exc:
        raise BadRequestError(
            f"'{name}' must be a list of [source, target] pairs"
        ) from exc
    return edges


def decode_consumer(body: Mapping[str, Any]) -> Consumer:
    """A :class:`Consumer` from its wire dict (enforce endpoint)."""
    spec = body.get("consumer")
    if not isinstance(spec, Mapping) or "id" not in spec:
        raise BadRequestError("'consumer' must be an object with an 'id'")
    credentials = spec.get("credentials", [])
    attributes = spec.get("attributes", {})
    if not isinstance(credentials, (list, tuple)) or not isinstance(attributes, Mapping):
        raise BadRequestError("'consumer.credentials' must be a list, 'attributes' an object")
    return Consumer.with_credentials(
        str(spec["id"]), *[str(item) for item in credentials],
        **{str(k): str(v) for k, v in attributes.items()},
    )


def resolve_graph_payload(body: Mapping[str, Any]) -> Optional[Mapping[str, Any]]:
    """The inline graph payload of a request body, validated (or ``None``)."""
    payload = body.get("graph")
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise BadRequestError("'graph' must be a serialised graph object")
    return payload
