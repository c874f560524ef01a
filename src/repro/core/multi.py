"""Protected accounts for consumers satisfying several incomparable classes.

Appendix B generates accounts for *singleton* high-water sets and notes that
"when there are multiple privilege-predicates, the same process is used for
each predicate".  This module implements that extension: a consumer whose
credentials satisfy several incomparable privilege-predicates (e.g. both
``High-1`` and ``High-2`` in Figure 1, or both ``Medical Provider`` and
``Emergency Responder`` in Figure 11) is entitled to everything releasable
to *any* of those classes, so their account is the merge of the per-class
maximally informative accounts:

* an original node appears whenever it is visible via any satisfied class;
* otherwise the most informative surrogate offered to any satisfied class is
  used (the paper's "domain-dependent function" for choosing among
  incomparable surrogates defaults to: most dominant ``lowest``, then
  highest ``infoScore``);
* an edge appears whenever it appears in any per-class account, attached to
  the merged representations of its endpoints; it is a surrogate edge only
  if every contributing account shows it as a surrogate edge.

The merge is sound: every edge of the result is an edge of some per-class
account, each of which only asserts connectivity present in the original
graph (Definition 5).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, MutableMapping, Optional, Sequence, Set, Tuple

from repro.core.generation import (
    SURROGATE_EDGE_LABEL,
    WalkCacheKey,
    build_protected_account,
)
from repro.core.permitted import VisibleWalkCache
from repro.core.policy import ReleasePolicy, STRATEGY_SURROGATE
from repro.core.privileges import Privilege
from repro.core.protected_account import ProtectedAccount
from repro.exceptions import ProtectionError
from repro.graph.model import EdgeKey, NodeId, PropertyGraph


def build_multi_privilege_account(
    graph: PropertyGraph,
    policy: ReleasePolicy,
    privileges: Sequence[object],
    *,
    include_surrogate_edges: bool = True,
    ensure_maximal_connectivity: bool = False,
    strategy: str = STRATEGY_SURROGATE,
    name: Optional[str] = None,
    compiled: bool = True,
    walks_cache: Optional[MutableMapping[WalkCacheKey, VisibleWalkCache]] = None,
) -> ProtectedAccount:
    """The merged protected account for a consumer satisfying ``privileges``.

    ``privileges`` may contain comparable classes; only the maximal ones
    matter (a dominated class adds nothing).  With a single (maximal)
    privilege this reduces exactly to
    :func:`~repro.core.generation.build_protected_account`; the generation
    options (surrogate edges, repair, strategy, ``compiled``, walk cache)
    are forwarded to each per-class run of it.
    """
    resolved = [policy.lattice.get(privilege) for privilege in privileges]
    if not resolved:
        raise ProtectionError("at least one privilege-predicate is required")
    maximal = sorted(policy.lattice.maximal(resolved), key=lambda privilege: privilege.name)
    per_class = [
        build_protected_account(
            graph,
            policy,
            privilege,
            include_surrogate_edges=include_surrogate_edges,
            ensure_maximal_connectivity=ensure_maximal_connectivity,
            strategy=strategy,
            compiled=compiled,
            walks_cache=walks_cache,
        )
        for privilege in maximal
    ]
    if len(per_class) == 1:
        return per_class[0]
    return merge_accounts(
        graph,
        per_class,
        name=name
        if name is not None
        else f"{graph.name or 'graph'}@{'+'.join(privilege.name for privilege in maximal)}",
        strategy=strategy,
    )


def merge_accounts(
    original: PropertyGraph,
    accounts: Sequence[ProtectedAccount],
    *,
    name: Optional[str] = None,
    strategy: str = STRATEGY_SURROGATE,
) -> ProtectedAccount:
    """Merge several protected accounts of the same original graph.

    The merge prefers, for each represented original node, the most
    informative representation available in any account (an original node
    beats any surrogate; between surrogates, larger feature sets win, ties
    broken deterministically by id).
    """
    if not accounts:
        raise ProtectionError("merge_accounts needs at least one account")

    # Choose one representation per original node.
    chosen: Dict[NodeId, Tuple[ProtectedAccount, NodeId]] = {}
    for account in accounts:
        for account_node, original_node in account.correspondence.items():
            incumbent = chosen.get(original_node)
            candidate = (account, account_node)
            if incumbent is None or _representation_rank(candidate) > _representation_rank(incumbent):
                chosen[original_node] = candidate

    merged = PropertyGraph(name=name or (original.name or "graph") + "@merged")
    correspondence: Dict[NodeId, NodeId] = {}
    surrogate_nodes: Set[NodeId] = set()
    to_merged: Dict[NodeId, NodeId] = {}
    for original_node, (account, account_node) in sorted(chosen.items(), key=lambda item: repr(item[0])):
        node = account.graph.node(account_node)
        if merged.has_node(node.node_id):
            raise ProtectionError(
                f"surrogate id {node.node_id!r} collides across the merged accounts"
            )
        merged.add_node(node.node_id, kind=node.kind, features=dict(node.features))
        correspondence[node.node_id] = original_node
        to_merged[original_node] = node.node_id
        if account.is_surrogate_node(account_node):
            surrogate_nodes.add(node.node_id)

    # Merge edges, remapping endpoints through the chosen representations.
    surrogate_edges: Set[EdgeKey] = set()
    visible_edges: Set[EdgeKey] = set()
    for account in accounts:
        for edge in account.graph.edges():
            source_original = account.original_of(edge.source)
            target_original = account.original_of(edge.target)
            merged_source = to_merged[source_original]
            merged_target = to_merged[target_original]
            if merged_source == merged_target:
                continue
            key = (merged_source, merged_target)
            if not merged.has_edge(*key):
                merged.add_edge(merged_source, merged_target, label=edge.label, features=dict(edge.features))
            if account.is_surrogate_edge(edge.source, edge.target):
                surrogate_edges.add(key)
            else:
                visible_edges.add(key)
    # An edge shown directly by any contributing account is not a surrogate edge.
    surrogate_edges -= visible_edges
    for key in surrogate_edges:
        # Normalise the label of pure surrogate edges.
        edge = merged.edge(*key)
        if edge.label != SURROGATE_EDGE_LABEL:
            merged.add_edge(key[0], key[1], label=SURROGATE_EDGE_LABEL, replace=True)

    privilege = accounts[0].privilege if len({a.privilege for a in accounts}) == 1 else None
    result = ProtectedAccount(
        graph=merged,
        correspondence=correspondence,
        privilege=privilege,
        surrogate_nodes=surrogate_nodes,
        surrogate_edges=surrogate_edges,
        strategy=strategy,
    )
    # Stamp the whole family (merged + per-class sub-accounts) as derivation
    # peers: scoring any member after any other re-uses the first member's
    # compiled adversary simulation via CompiledOpacityView.derive_for — one
    # O(V) simulation per family instead of one per sub-account.
    family = (result, *accounts)
    for member in family:
        member.derivation_peers = family
    return result


def _representation_rank(candidate: Tuple[ProtectedAccount, NodeId]) -> Tuple[int, int, str]:
    """Order representations: originals first, then richer surrogates, then by id."""
    account, account_node = candidate
    is_original = 0 if account.is_surrogate_node(account_node) else 1
    feature_count = len(account.graph.node(account_node).features)
    # Negative string ordering is not meaningful; use the id only as a final
    # deterministic tie-break (reverse alphabetical keeps max() stable).
    return (is_original, feature_count, str(account_node))
