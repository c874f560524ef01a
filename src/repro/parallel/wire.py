"""Codec-packed task wire format for the process-pool execution layer.

Tasks cross the process boundary as plain dicts whose *large* tables —
graph node/edge columns, policy marking tables, result diffs, compiled
views — are packed tab-joined columns from :mod:`repro.codec`, the same
shapes the checkpoint serialiser (:mod:`repro.api.checkpoints`) already
pins bit-identical across a restart.  Small scalar fields (request
options, adversary constants) ride natively.  Nothing here pickles a
graph, a policy or a compiled view object: workers rebuild them from
content, which is what makes a worker's output mergeable into the parent
as if the parent had computed it.

Three layers:

* **graph / policy codecs** — :func:`pack_graph` / :func:`unpack_graph`
  preserve node and edge *insertion order*, so a worker-side rebuild
  iterates identically to the parent's original and account generation
  is deterministic across the boundary.  :func:`pack_policy` carries the
  lattice, ``lowest()`` assignments, explicit incidence markings and the
  surrogate registry — everything a
  :class:`~repro.core.markings.CompiledMarkingView` compile reads.
* **request / adversary codecs** — :func:`pack_request` serialises an
  already-coerced :class:`~repro.api.requests.ProtectionRequest` (minus
  its graph, which ships once per task).  Only the built-in frozen
  adversaries are wire-encodable; :func:`pack_adversary` returns ``None``
  for custom models, which routes those requests inline in the parent.
* **result codec + merge** — :func:`pack_group_result` encodes a worker's
  :class:`~repro.api.results.ProtectionResult` as an account diff against
  the shared base graph plus the checkpoint payload shapes for scores,
  the compiled opacity view and the compiled marking view;
  :func:`merge_group_result` replays that payload into the parent
  service's caches exactly like a warm checkpoint restore, so the parent
  ends warm and subsequent cached replays are bit-identical to serial.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.api.checkpoints import (
    _apply_graph_diff,
    _encode_diff,
    _graph_diff,
    _marking_view_from_dict,
    _marking_view_to_dict,
    _opacity_view_from_dict,
    _opacity_view_to_dict,
    _scores_from_dict,
    _scores_to_dict,
)
from repro.api.persistence import account_from_metadata, account_metadata_to_dict
from repro.api.requests import ProtectionRequest
from repro.api.results import ProtectionResult
from repro.codec import col_str, pack_pair_table, split_str, unpack_pair_table
from repro.core.hiding import STRATEGY_NAIVE
from repro.core.markings import Marking
from repro.core.opacity import (
    DEFAULT_ADVERSARY,
    AdvancedAdversary,
    AttackerModel,
    NaiveAdversary,
)
from repro.core.policy import ReleasePolicy
from repro.core.privileges import PrivilegeLattice
from repro.graph.model import PropertyGraph

#: Enum members by value, for hot decode loops (mirrors the checkpoint codec).
_MARKING_BY_VALUE = {marking.value: marking for marking in Marking}

#: Request fields that ship verbatim (small scalars; tuples pickle exactly).
_REQUEST_SCALAR_FIELDS = (
    "strategy",
    "protect_edges",
    "include_surrogate_edges",
    "repair_connectivity",
    "name",
    "score",
    "opacity_edges",
    "normalize_focus",
    "compiled",
)


# --------------------------------------------------------------------------- #
# graph codec
# --------------------------------------------------------------------------- #
def pack_graph(graph: PropertyGraph) -> Dict[str, Any]:
    """One graph as packed id/kind/edge columns plus raw feature dicts.

    Node and edge order follow the graph's insertion order, so
    :func:`unpack_graph` rebuilds a graph whose iteration order — and
    therefore every downstream compile — matches the original exactly.
    Feature dicts ride as native objects (exact round-trip), since only
    the id/kind/label columns dominate payload size.
    """
    node_ids = graph.node_ids()
    nodes = [graph.node(node_id) for node_id in node_ids]
    id_col = col_str(node_ids)
    kind_col = col_str([node.kind for node in nodes])
    payload: Dict[str, Any] = {"name": graph.name, "nn": len(node_ids)}
    if id_col is not None and kind_col is not None:
        payload["nodes"] = {"i": id_col, "k": kind_col}
    else:
        payload["nodes"] = [[node.node_id, node.kind] for node in nodes]
    payload["node_features"] = [dict(node.features) for node in nodes]

    edge_keys = graph.edge_keys()
    edges = [graph.edge(source, target) for source, target in edge_keys]
    source_col = col_str([edge.source for edge in edges])
    target_col = col_str([edge.target for edge in edges])
    label_col = col_str([edge.label for edge in edges])
    payload["ne"] = len(edges)
    if source_col is not None and target_col is not None and label_col is not None:
        payload["edges"] = {"s": source_col, "t": target_col, "l": label_col}
    else:
        payload["edges"] = [[edge.source, edge.target, edge.label] for edge in edges]
    payload["edge_features"] = [dict(edge.features) for edge in edges]
    return payload


def unpack_graph(payload: Dict[str, Any]) -> PropertyGraph:
    """Rebuild a graph from :func:`pack_graph` output, insertion order intact."""
    node_count = payload["nn"]
    nodes = payload["nodes"]
    if isinstance(nodes, dict):
        ids = split_str(nodes["i"], node_count)
        kinds = split_str(nodes["k"], node_count)
    else:
        ids = [row[0] for row in nodes]
        kinds = [row[1] for row in nodes]

    edge_count = payload["ne"]
    edges = payload["edges"]
    if isinstance(edges, dict):
        sources = split_str(edges["s"], edge_count)
        targets = split_str(edges["t"], edge_count)
        labels = split_str(edges["l"], edge_count)
    else:
        sources = [row[0] for row in edges]
        targets = [row[1] for row in edges]
        labels = [row[2] for row in edges]
    return PropertyGraph.from_rows(
        zip(ids, kinds, payload["node_features"]),
        zip(sources, targets, labels, payload["edge_features"]),
        name=payload["name"],
    )


# --------------------------------------------------------------------------- #
# policy codec
# --------------------------------------------------------------------------- #
def pack_policy(policy: ReleasePolicy) -> Dict[str, Any]:
    """Everything account generation reads from a release policy, packed.

    Covers the lattice (names plus direct dominance edges), the defaults,
    the ``lowest()`` table, every explicit incidence marking (the one
    table that scales with protection density, shipped as five packed
    columns) and the full surrogate registry.
    """
    lattice = policy.lattice
    lattice_rows = [
        [privilege.name, sorted(lattice._direct_dominates[privilege.name])]
        for privilege in lattice.privileges()
    ]
    explicit_rows = [
        (node_id, edge[0], edge[1], privilege_name, marking.value)
        for (node_id, edge, privilege_name), marking in policy.markings.explicit_incidences()
    ]
    columns = [col_str([row[index] for row in explicit_rows]) for index in range(5)]
    explicit: Any
    if all(column is not None for column in columns):
        explicit = {"n": len(explicit_rows), "cols": columns}
    else:
        explicit = explicit_rows
    return {
        "public": lattice.public.name,
        "lattice": lattice_rows,
        "default_lowest": policy.default_lowest.name,
        "default_protected_marking": policy.markings.default_protected_marking.value,
        "use_null_surrogates": policy.use_null_surrogates,
        "lowest": pack_pair_table(
            (node_id, privilege.name)
            for node_id, privilege in policy.lowest_assignments().items()
        ),
        "surrogates": [
            [
                surrogate.original_id,
                surrogate.surrogate_id,
                surrogate.lowest.name,
                surrogate.kind,
                surrogate.info_score,
                dict(surrogate.features),
            ]
            for surrogate in policy.surrogates
        ],
        "explicit": explicit,
    }


def unpack_policy(payload: Dict[str, Any]) -> ReleasePolicy:
    """Rebuild a content-identical release policy from :func:`pack_policy`."""
    lattice = PrivilegeLattice(public_name=payload["public"])
    public_name = payload["public"]
    # Two passes: declare every name first, then the dominance edges, so
    # a row may reference names declared later in insertion order.
    for name, _dominates in payload["lattice"]:
        if name != public_name:
            lattice.add(name)
    for name, dominates in payload["lattice"]:
        if name != public_name and dominates:
            lattice.add(name, dominates=list(dominates))
    policy = ReleasePolicy(
        lattice,
        default_lowest=payload["default_lowest"],
        default_protected_marking=_MARKING_BY_VALUE[
            payload["default_protected_marking"]
        ],
        use_null_surrogates=payload["use_null_surrogates"],
    )
    for node_id, privilege_name in unpack_pair_table(payload["lowest"]):
        policy.set_lowest(node_id, privilege_name)
    for original_id, surrogate_id, lowest_name, kind, info_score, features in payload[
        "surrogates"
    ]:
        policy.surrogates.add(
            original_id,
            lowest_name,
            surrogate_id=surrogate_id,
            features=features,
            kind=kind,
            info_score=info_score,
        )
    explicit = payload["explicit"]
    if isinstance(explicit, dict):
        count = explicit["n"]
        rows = zip(*[split_str(column, count) for column in explicit["cols"]])
    else:
        rows = explicit
    set_marking = policy.markings.set_marking
    for node_id, source, target, privilege_name, value in rows:
        set_marking(node_id, (source, target), privilege_name, _MARKING_BY_VALUE[value])
    return policy


# --------------------------------------------------------------------------- #
# adversary + request codecs
# --------------------------------------------------------------------------- #
def pack_adversary(adversary: Optional[AttackerModel]) -> Optional[Dict[str, Any]]:
    """A wire spec for the built-in adversaries; ``None`` when unshippable.

    ``None`` adversary (service default) encodes explicitly, so the worker
    service reproduces the parent's defaulting.  A custom attacker model
    cannot be rebuilt by value in another process — callers must route
    such requests inline.
    """
    if adversary is None:
        return {"type": "none"}
    if type(adversary) is NaiveAdversary:
        return {"type": "naive"}
    if type(adversary) is AdvancedAdversary:
        return {"type": "advanced", "fields": dataclasses.asdict(adversary)}
    return None


def unpack_adversary(spec: Dict[str, Any]) -> Optional[AttackerModel]:
    """Rebuild the adversary a :func:`pack_adversary` spec names."""
    if spec["type"] == "none":
        return None
    if spec["type"] == "naive":
        return NaiveAdversary()
    return AdvancedAdversary(**spec["fields"])


def pack_request(request: ProtectionRequest) -> Optional[Dict[str, Any]]:
    """An already-coerced request as a wire dict (``None`` when unshippable).

    The graph is deliberately absent (it ships once per task); privileges
    go by name and resolve through the worker's rebuilt lattice.  Requests
    carrying a custom adversary or a ``persist_as`` side effect are not
    shippable — the caller runs those inline.
    """
    if request.persist_as is not None:
        return None
    adversary_spec = None
    if request.adversary is not None:
        adversary_spec = pack_adversary(request.adversary)
        if adversary_spec is None:
            return None
    payload: Dict[str, Any] = {
        field: getattr(request, field) for field in _REQUEST_SCALAR_FIELDS
    }
    payload["privileges"] = [
        getattr(privilege, "name", str(privilege)) for privilege in request.privileges
    ]
    payload["adversary"] = adversary_spec
    payload["explicit_scores"] = (
        dict(request.explicit_scores) if request.explicit_scores is not None else None
    )
    return payload


def unpack_request(payload: Dict[str, Any], lattice: PrivilegeLattice) -> ProtectionRequest:
    """Rebuild a request with privileges resolved through ``lattice``."""
    options = {field: payload[field] for field in _REQUEST_SCALAR_FIELDS}
    if payload["adversary"] is not None:
        options["adversary"] = unpack_adversary(payload["adversary"])
    if payload["explicit_scores"] is not None:
        options["explicit_scores"] = payload["explicit_scores"]
    privileges = tuple(lattice.get(name) for name in payload["privileges"])
    return ProtectionRequest(privileges=privileges, **options)


# --------------------------------------------------------------------------- #
# result codec (worker side)
# --------------------------------------------------------------------------- #
def pack_group_result(
    base_graph: PropertyGraph,
    policy: ReleasePolicy,
    request: ProtectionRequest,
    result: ProtectionResult,
    effective_adversary: Optional[AttackerModel],
) -> Dict[str, Any]:
    """Encode one worker-computed result for the parent-side merge.

    The account graph ships as a structural diff against the shared base
    graph (the checkpoint shape; full packed graph as fallback), the
    scores and the compiled opacity view in their exact-Fraction
    checkpoint payloads, and — for plain single-privilege requests — the
    compiled marking view, so the parent can seed its policy cache and
    later serial requests skip the O(V+E) compile entirely.
    """
    account = result.account
    diff = _graph_diff(base_graph, account.graph)
    encoded_diff = _encode_diff(diff) if diff is not None else None
    if encoded_diff is not None:
        # The parent rebuilds the account by patching its base graph, which
        # replays base insertion order plus appended additions.  Merged
        # multi-privilege accounts can order their nodes differently (the
        # sub-account union drives iteration, not the base), and insertion
        # order is part of the bit-identity contract — verify the patch
        # reproduces it exactly, else ship the full graph.
        rebuilt, _, _ = _apply_graph_diff(base_graph, encoded_diff, account.graph.name)
        if (
            rebuilt.node_ids() != account.graph.node_ids()
            or rebuilt.edge_keys() != account.graph.edge_keys()
        ):
            encoded_diff = None
    payload: Dict[str, Any] = {
        "name": account.graph.name,
        "meta": account_metadata_to_dict(account),
        "diff": encoded_diff,
        "graph": pack_graph(account.graph) if encoded_diff is None else None,
        "scores": None,
        "opacity_view": None,
        "marking_view": None,
        "timings_ms": dict(result.timings_ms),
    }
    if result.scores is not None:
        payload["scores"] = _scores_to_dict(result.scores)
        view = result.scores.opacity.view
        adversary = (
            effective_adversary if effective_adversary is not None else DEFAULT_ADVERSARY
        )
        if view is not None and view.is_current_for(account.graph, adversary):
            payload["opacity_view"] = _opacity_view_to_dict(view)
    if (
        not request.multi_privilege
        and not request.protect_edges
        and request.strategy != STRATEGY_NAIVE
        and request.compiled
    ):
        privilege = request.privileges[0]
        view = policy.markings._compiled.get(
            (id(base_graph), getattr(privilege, "name", str(privilege)))
        )
        if view is not None:
            payload["marking_view"] = _marking_view_to_dict(view)
    return payload


# --------------------------------------------------------------------------- #
# result merge (parent side)
# --------------------------------------------------------------------------- #
def merge_group_result(
    service: "Any",
    graph: PropertyGraph,
    request: ProtectionRequest,
    payload: Dict[str, Any],
    effective_adversary: Optional[AttackerModel],
) -> Tuple[ProtectionResult, Dict[str, float]]:
    """Replay one worker result into the parent service's compiled state.

    Mirrors the warm-restore path of :mod:`repro.api.checkpoints`: rebuild
    the account graph from its diff, seed the opacity-view cache and the
    policy's compiled-marking-view cache, and return a fresh
    :class:`~repro.api.results.ProtectionResult` plus the worker's
    timings.  The caller is responsible for holding the service's
    generation lock (the graph must not mutate between shard and merge)
    and for memoising the result into the account cache.
    """
    if payload["diff"] is not None:
        account_graph, _, _ = _apply_graph_diff(graph, payload["diff"], payload["name"])
    else:
        account_graph = unpack_graph(payload["graph"])
    account = account_from_metadata(
        account_graph, payload["meta"], lattice=service.policy.lattice
    )
    adversary = (
        effective_adversary if effective_adversary is not None else DEFAULT_ADVERSARY
    )
    opacity_view = None
    if payload["opacity_view"] is not None:
        opacity_view = _opacity_view_from_dict(
            payload["opacity_view"], account.graph, effective_adversary
        )
        service._opacity_views.seed(account.graph, adversary, opacity_view)
    scores = None
    if payload["scores"] is not None:
        scores = _scores_from_dict(payload["scores"], opacity_view)
    if payload["marking_view"] is not None:
        privilege = service.policy.lattice.get(payload["marking_view"]["privilege"])
        view = _marking_view_from_dict(
            payload["marking_view"], graph, service.policy, privilege
        )
        markings = service.policy.markings
        if len(view.node_default) == len(graph._nodes) and len(
            view.edge_state_table
        ) == len(graph._edges):
            markings._compiled[(id(graph), privilege.name)] = view
    result = ProtectionResult(
        request=request,
        account=account,
        scores=scores,
        timings_ms=dict(payload["timings_ms"]),
        stored_as=None,
    )
    return result, payload["timings_ms"]


__all__ = [
    "pack_graph",
    "unpack_graph",
    "pack_policy",
    "unpack_policy",
    "pack_adversary",
    "unpack_adversary",
    "pack_request",
    "unpack_request",
    "pack_group_result",
    "merge_group_result",
]
