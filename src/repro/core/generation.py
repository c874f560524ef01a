"""The Surrogate Generation Algorithm (paper Appendix B, Algorithms 1–3).

Given an original graph, a release policy and a target consumer class
(privilege-predicate ``p``), the algorithm produces the maximally
informative protected account for that class:

1. **Nodes** (maximal node visibility + dominant surrogacy): every node
   visible via ``p`` is carried over unchanged; every other node is
   represented by its best visible surrogate (or the ``<null>`` surrogate
   when the policy enables automatic nulls), or omitted when no surrogate is
   available.
2. **Visible edges**: every edge whose two incidences are marked ``VISIBLE``
   and whose endpoints are represented appears between the corresponding
   account nodes.
3. **Surrogate edges** (maximal connectivity): for every edge routed
   ``SURROGATE``, the visible-set walks of Algorithm 2 find the nearest
   representable anchors behind its source and beyond its target, and a
   surrogate edge is added between each anchor pair — unless the pair is
   already linked by a visible edge, or the pair has a sensitive direct
   relationship in the original graph (Definition 8, clause 2).

The protected account this produces satisfies the three properties of
Definition 9, which is what Theorem 1 requires for utility maximality; the
property-based tests in ``tests/property`` check exactly that.
"""

from __future__ import annotations

from typing import Dict, MutableMapping, Optional, Set, Tuple

from repro.core.markings import EdgeState
from repro.core.permitted import VisibleWalkCache, surrogate_edge_candidates
from repro.core.policy import ReleasePolicy, STRATEGY_SURROGATE
from repro.core.privileges import Privilege
from repro.core.protected_account import ProtectedAccount
from repro.core.surrogates import null_surrogate
from repro.exceptions import ProtectionError
from repro.graph.model import EdgeKey, NodeId, PropertyGraph

#: Label attached to computed surrogate edges in the account graph.
SURROGATE_EDGE_LABEL = "surrogate"

#: Key type of the ``walks_cache`` registry accepted by
#: :func:`build_protected_account`: (privilege name, markings-policy version,
#: compiled flag).  The graph's version is deliberately *not* part of the
#: key: a registry hit is revalidated against the live graph — identity,
#: anchors, markings view — and a version gap is closed by replaying the
#: graph's recorded deltas through
#: :meth:`~repro.core.permitted.VisibleWalkCache.apply_delta`, which evicts
#: only the walks the edits can touch.  Only when no delta chain exists (or
#: a delta is unpatchable) is the entry rebuilt.
WalkCacheKey = Tuple[str, int, bool]


def account_cache_token(
    graph: PropertyGraph, policy: ReleasePolicy
) -> Tuple[int, int, int, int, bool]:
    """The version fingerprint any cache of ``build_*`` outputs must key on.

    A protected account is a pure function of the graph's structure and
    every policy ingredient: the markings/``lowest()`` assignments, the
    surrogate registry, the privilege lattice and the null-surrogate flag.
    Each mutable ingredient carries a monotonic mutation counter
    (:attr:`~repro.graph.model.PropertyGraph.version`,
    :attr:`~repro.core.markings.MarkingPolicy.version`,
    :attr:`~repro.core.surrogates.SurrogateRegistry.version`,
    :attr:`~repro.core.privileges.PrivilegeLattice.version`), so a result
    keyed by this token can never be served stale: any mutation bumps a
    counter and the old entry simply stops matching.  This is the hook
    :mod:`repro.api.cache` builds its account-level result cache on; the
    shared visible-walk registries key on the graph/markings pair
    (:data:`WalkCacheKey`), which is sufficient there because walks never
    consult surrogates or the lattice beyond the compiled view.
    """
    return (
        graph.version,
        policy.markings.version,
        policy.surrogates.version,
        policy.lattice.version,
        policy.use_null_surrogates,
    )


def build_protected_account(
    graph: PropertyGraph,
    policy: ReleasePolicy,
    privilege: object,
    *,
    include_surrogate_edges: bool = True,
    ensure_maximal_connectivity: bool = False,
    strategy: str = STRATEGY_SURROGATE,
    name: Optional[str] = None,
    compiled: bool = True,
    walks_cache: Optional[MutableMapping[WalkCacheKey, VisibleWalkCache]] = None,
) -> ProtectedAccount:
    """Run the Surrogate Generation Algorithm for one consumer class.

    This is the canonical implementation behind
    :class:`repro.api.ProtectionService`; application code should go through
    the service rather than call this directly, but the function is stable
    API for the other ``repro.core`` modules.

    Parameters
    ----------
    graph:
        The original graph ``G``.
    policy:
        The provider's release policy (lattice, ``lowest()``, markings,
        surrogates).
    privilege:
        The consumer class ``p``; the account's high-water set is ``{p}``.
    include_surrogate_edges:
        Disable to skip step 3 (used by ablation benchmarks that isolate the
        contribution of surrogate edges).
    ensure_maximal_connectivity:
        The edge-local walks of Appendix B can, under unusual marking
        combinations (summaries that would have to *compose* across two
        differently-anchored segments), miss a pair required by
        Definition 9.3.  Enabling this flag runs an extra closure-repair
        pass that guarantees maximal connectivity at the cost of one
        permitted-reachability BFS per represented node.  The paper's own
        policies never need it; the property-based test suite uses it to
        check Theorem 1 end to end.
    strategy:
        Free-form label recorded on the account (``"surrogate"`` by
        default); it does not change the algorithm — the *markings* decide
        between hiding and surrogating.
    compiled:
        When True (default) the policy's markings are compiled once into a
        per-privilege :class:`~repro.core.markings.CompiledMarkingView` and
        every per-edge question below is an O(1) table lookup.  ``False``
        forces the uncompiled reference path; the equivalence test suite
        uses it to check the two paths produce identical accounts.
    walks_cache:
        Optional registry of :class:`~repro.core.permitted.VisibleWalkCache`
        objects shared across calls **against the same policy object**.
        Keyed by (privilege name, markings-policy version, compiled) — see
        :data:`WalkCacheKey`; a hit is revalidated against the live graph
        and carried across graph edits by replaying recorded deltas, so the
        graph's version is deliberately not part of the key.  The owner
        must not share one registry between different policies.
        :meth:`repro.api.ProtectionService.protect_many` passes one so
        repeated requests for the same consumer class reuse each other's
        visible-set walks.
    """
    privilege = policy.lattice.get(privilege)
    markings = policy.markings
    if compiled:
        markings = policy.markings.compile(graph, privilege)
    account = PropertyGraph(
        name=name if name is not None else _account_name(graph, privilege)
    )
    correspondence: Dict[NodeId, NodeId] = {}
    surrogate_nodes: Set[NodeId] = set()
    to_account: Dict[NodeId, NodeId] = {}

    # ------------------------------------------------------------------ #
    # Step 1 — nodes (Algorithm 1, lines 4-10)
    # ------------------------------------------------------------------ #
    for node in graph.nodes():
        if policy.visible(node.node_id, privilege):
            account.add_node(node.node_id, kind=node.kind, features=dict(node.features))
            correspondence[node.node_id] = node.node_id
            to_account[node.node_id] = node.node_id
            continue
        surrogate = policy.best_surrogate(graph, node.node_id, privilege)
        if surrogate is None and policy.use_null_surrogates:
            surrogate = null_surrogate(node.node_id, policy.lattice.public, kind=node.kind)
        if surrogate is None:
            continue
        surrogate_id = surrogate.surrogate_id
        if account.has_node(surrogate_id):
            raise ProtectionError(
                f"surrogate id {surrogate_id!r} collides with another node in the protected account"
            )
        account.add_node(surrogate_id, kind=surrogate.kind, features=dict(surrogate.features))
        correspondence[surrogate_id] = node.node_id
        surrogate_nodes.add(surrogate_id)
        to_account[node.node_id] = surrogate_id

    anchors = set(to_account)

    # ------------------------------------------------------------------ #
    # Step 2 — visible edges (Algorithm 1, lines 12-14; Algorithm 3)
    # ------------------------------------------------------------------ #
    for edge in graph.edges():
        if markings.edge_state(edge.key, privilege) is not EdgeState.VISIBLE:
            continue
        account_source = to_account.get(edge.source)
        account_target = to_account.get(edge.target)
        if account_source is None or account_target is None:
            continue
        account.add_edge(
            account_source,
            account_target,
            label=edge.label,
            features=dict(edge.features),
        )

    # ------------------------------------------------------------------ #
    # Step 3 — surrogate edges (Algorithm 1, lines 15-29; Algorithm 2)
    # ------------------------------------------------------------------ #
    surrogate_edges: Set[EdgeKey] = set()
    if include_surrogate_edges:
        walks = None
        cache_key: Optional[WalkCacheKey] = None
        if walks_cache is not None and not graph.in_batch:
            cache_key = (privilege.name, policy.markings.version, compiled)
            walks = walks_cache.get(cache_key)
            if walks is not None:
                walks = _revalidate_walks(walks, graph, markings, anchors, compiled)
        if walks is None:
            walks = VisibleWalkCache(
                graph, markings, privilege, anchors=anchors, compiled=compiled
            )
            if walks_cache is not None and cache_key is not None:
                walks_cache[cache_key] = walks
        for original_source, original_target in sorted(
            surrogate_edge_candidates(
                graph, markings, privilege, anchors=anchors, walks=walks, compiled=compiled
            ),
            key=lambda pair: (repr(pair[0]), repr(pair[1])),
        ):
            account_source = to_account.get(original_source)
            account_target = to_account.get(original_target)
            if account_source is None or account_target is None:
                continue
            if account.has_edge(account_source, account_target):
                continue
            account.add_edge(account_source, account_target, label=SURROGATE_EDGE_LABEL)
            surrogate_edges.add((account_source, account_target))

    # ------------------------------------------------------------------ #
    # Optional closure repair (Definition 9.3 under adversarial markings)
    # ------------------------------------------------------------------ #
    if include_surrogate_edges and ensure_maximal_connectivity:
        _repair_maximal_connectivity(
            graph, markings, privilege, account, to_account, surrogate_edges, compiled=compiled
        )

    return ProtectedAccount(
        graph=account,
        correspondence=correspondence,
        privilege=privilege,
        surrogate_nodes=surrogate_nodes,
        surrogate_edges=surrogate_edges,
        strategy=strategy,
    )


def _revalidate_walks(
    walks: VisibleWalkCache,
    graph: PropertyGraph,
    markings: object,
    anchors: Set[NodeId],
    compiled: bool,
) -> Optional[VisibleWalkCache]:
    """Vet (and delta-patch) a registry walk cache before trusting it.

    A hit must describe the same graph object, the same anchor set and —
    on the compiled path — the *same* marking-view object (compile()
    patches views in place, so identity survives graph edits; a view the
    policy's LRU rebuilt fails this and the walks are rebuilt with it).
    A graph-version gap is closed by replaying the recorded delta chain;
    ``None`` means the entry cannot be trusted and must be rebuilt.
    """
    if walks.graph is not graph or walks.anchors != anchors:
        return None
    if compiled and walks.markings is not markings:
        return None
    if walks.graph_version != graph.version:
        deltas = graph.deltas_since(walks.graph_version)
        if deltas is None:
            return None
        for delta in deltas:
            if walks.apply_delta(delta) is None:
                return None
    return walks


def _repair_maximal_connectivity(
    graph: PropertyGraph,
    markings: object,
    privilege: Privilege,
    account: PropertyGraph,
    to_account: Dict[NodeId, NodeId],
    surrogate_edges: Set[EdgeKey],
    *,
    compiled: bool = True,
) -> None:
    """Add the surrogate edges needed to satisfy Definition 9.3 exactly.

    For every represented original ``a``, every represented original ``b``
    joined to it by an HW-permitted path must be reachable from it in the
    account; any missing pair gets a direct surrogate edge (which is sound:
    the permitted path is in particular a path in ``G``).  The caller hands
    over its compiled marking view, so the per-node reachability BFS runs
    on O(1) edge-state lookups.
    """
    from repro.core.permitted import hw_permitted_targets
    from repro.graph.paths import single_source_shortest_lengths

    for original_source, account_source in to_account.items():
        permitted = hw_permitted_targets(
            graph, markings, privilege, original_source, compiled=compiled
        )
        if not permitted:
            continue
        reachable = set(single_source_shortest_lengths(account, account_source))
        for original_target in sorted(permitted, key=repr):
            account_target = to_account.get(original_target)
            if account_target is None or account_target == account_source:
                continue
            if account_target in reachable:
                continue
            if not account.has_edge(account_source, account_target):
                account.add_edge(account_source, account_target, label=SURROGATE_EDGE_LABEL)
                surrogate_edges.add((account_source, account_target))
            # The new edge makes everything reachable from the target reachable too.
            reachable.add(account_target)
            reachable |= set(single_source_shortest_lengths(account, account_target))


def _account_name(graph: PropertyGraph, privilege: Privilege) -> str:
    base = graph.name or "graph"
    return f"{base}@{privilege.name}"
