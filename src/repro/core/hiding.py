"""The "show/hide" baselines the paper compares against.

Two baselines appear in the evaluation:

* the **naive protected account** (Figure 1c): every node not visible to the
  consumer class is dropped along with all of its incident edges — the
  behaviour of standard access control with no surrogates at all;
* **hide-based edge protection**: the same edges that the surrogate strategy
  protects are instead marked ``HIDE``, so they simply disappear and no
  surrogate edge may summarise paths through them.

This module holds the first.  The second is Algorithm 1 run on a policy
whose protected edges are marked ``HIDE``: a
:class:`~repro.api.ProtectionService` request with ``protect_edges`` and
``strategy="hide"``.  Both produce ordinary
:class:`~repro.core.protected_account.ProtectedAccount` objects so the
utility/opacity measures apply uniformly.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.markings import EdgeState
from repro.core.policy import ReleasePolicy
from repro.core.protected_account import ProtectedAccount
from repro.graph.model import NodeId, PropertyGraph

#: Strategy label for the all-or-nothing baseline.
STRATEGY_NAIVE = "naive"


def naive_protected_account(
    graph: PropertyGraph,
    policy: ReleasePolicy,
    privilege: object,
    *,
    respect_edge_markings: bool = True,
    name: Optional[str] = None,
) -> ProtectedAccount:
    """The all-or-nothing account of Figure 1(c).

    Nodes visible via ``privilege`` are kept as-is; everything else —
    including every edge incident to a dropped node — is removed.  No
    surrogate nodes or edges are used.

    With ``respect_edge_markings`` (the default) an edge between two visible
    nodes still disappears when its markings do not combine to ``VISIBLE``;
    passing ``False`` ignores markings entirely (pure node-level access
    control).
    """
    privilege = policy.lattice.get(privilege)
    visible: Set[NodeId] = policy.visible_nodes(graph, privilege)
    account = PropertyGraph(name=name if name is not None else f"{graph.name or 'graph'}@{privilege.name}:naive")
    correspondence: Dict[NodeId, NodeId] = {}
    markings = policy.markings.compile(graph, privilege) if respect_edge_markings else None
    for node in graph.nodes():
        if node.node_id in visible:
            account.add_node(node.node_id, kind=node.kind, features=dict(node.features))
            correspondence[node.node_id] = node.node_id
    for edge in graph.edges():
        if edge.source not in visible or edge.target not in visible:
            continue
        if markings is not None and markings.edge_state(edge.key) is not EdgeState.VISIBLE:
            continue
        account.add_edge(edge.source, edge.target, label=edge.label, features=dict(edge.features))
    return ProtectedAccount(
        graph=account,
        correspondence=correspondence,
        privilege=privilege,
        surrogate_nodes=set(),
        surrogate_edges=set(),
        strategy=STRATEGY_NAIVE,
    )
