"""repro — reproduction of *Surrogate Parenthood: Protected and Informative Graphs*.

This package reimplements, in pure Python, the system described in
Blaustein et al., PVLDB 4(8), 2011:

* a property-graph substrate with per-incidence release markings
  (:mod:`repro.graph`),
* privilege-predicates, dominance lattices and high-water sets
  (:mod:`repro.core.privileges`, :mod:`repro.security`),
* surrogate nodes, surrogate edges and the Surrogate Generation Algorithm
  that builds *protected accounts* (:mod:`repro.core`),
* the paper's Path Utility, Node Utility and Opacity measures
  (:mod:`repro.core.utility`, :mod:`repro.core.opacity`),
* a PLUS-style provenance substrate and an embedded graph store used for the
  performance evaluation (:mod:`repro.provenance`, :mod:`repro.store`),
* the workload generators and experiment drivers that regenerate every table
  and figure of the paper's evaluation (:mod:`repro.workloads`,
  :mod:`repro.experiments`).

The recommended entry point is the unified request/response API in
:mod:`repro.api`: bind a graph and a release policy to a
:class:`ProtectionService`, then protect, score, enforce and persist through
explicit request/result values::

    from repro import ProtectionService, ProtectionRequest

    service = ProtectionService(graph, policy)
    result = service.protect(privilege="Public")      # ProtectionResult
    result.scores.path_utility                        # ScoreCard
    enforcer = service.enforce()                      # QueryEnforcer

For serving at scale, :class:`AccountCache` memoises whole ``protect()``
results (keyed by graph/policy version counters, so invalidation is
automatic) and :class:`ServiceRegistry` runs many tenants over one shared
cache with per-tenant store roots and :class:`TenantQuota` budgets::

    registry = ServiceRegistry(base_dir="/var/lib/repro")
    registry.register("acme", max_requests=100_000)
    service = registry.service("acme", graph, policy)

Interactive editing runs on the typed-delta pipeline: every graph mutation
emits a :class:`GraphDelta`, compiled views patch themselves in O(affected)
(:func:`view_maintenance_stats` counts delta vs recompile paths), and
``service.edit(privilege)`` opens an :class:`EditSession` whose
mutate → commit loop re-protects and re-scores interactively::

    with service.edit("Low-2") as session:
        session.remove_edge("alice", "bob")
        result = session.commit()             # patched, not recompiled
        result.timings_ms["delta_apply"]

Below the service, Algorithm 1 itself is :func:`build_protected_account`
(one consumer class) and :func:`build_multi_privilege_account` (several
incomparable classes); they and the measures (``path_utility``,
``opacity``, ...) are stable API.
"""

from repro.graph.deltas import (
    DeltaBus,
    DeltaKind,
    GraphDelta,
    view_maintenance_stats,
)
from repro.graph.model import Edge, Node, PropertyGraph
from repro.core.privileges import (
    HighWaterSet,
    Privilege,
    PrivilegeLattice,
)
from repro.core.surrogates import NULL_SURROGATE, Surrogate, SurrogateRegistry
from repro.core.markings import EdgeState, Marking, MarkingPolicy
from repro.core.policy import (
    ReleasePolicy,
    STRATEGIES,
    STRATEGY_HIDE,
    STRATEGY_SURROGATE,
)
from repro.core.protected_account import ProtectedAccount
from repro.core.generation import build_protected_account
from repro.core.multi import build_multi_privilege_account, merge_accounts
from repro.core.hiding import naive_protected_account
from repro.core.utility import (
    UtilityReport,
    node_utility,
    path_utility,
    utility_report,
)
from repro.core.opacity import (
    AdvancedAdversary,
    CompiledOpacityView,
    NaiveAdversary,
    OpacityReport,
    average_opacity,
    opacity,
    opacity_many,
    opacity_report,
)
from repro.api import (
    AccountCache,
    CacheStats,
    EditSession,
    ProtectionRequest,
    ProtectionResult,
    ProtectionService,
    ScoreCard,
    ServiceRegistry,
    TenantQuota,
)
from repro.security.enforcement import EnforcementMode, QueryEnforcer, QueryResult

__version__ = "1.2.0"

__all__ = [
    # graph substrate
    "Edge",
    "Node",
    "PropertyGraph",
    # the delta pipeline
    "GraphDelta",
    "DeltaKind",
    "DeltaBus",
    "view_maintenance_stats",
    # privileges and policies
    "Privilege",
    "PrivilegeLattice",
    "HighWaterSet",
    "Surrogate",
    "SurrogateRegistry",
    "NULL_SURROGATE",
    "Marking",
    "EdgeState",
    "MarkingPolicy",
    "ReleasePolicy",
    "STRATEGIES",
    "STRATEGY_HIDE",
    "STRATEGY_SURROGATE",
    # account generation
    "ProtectedAccount",
    "build_protected_account",
    "build_multi_privilege_account",
    "merge_accounts",
    "naive_protected_account",
    # measures
    "path_utility",
    "node_utility",
    "utility_report",
    "UtilityReport",
    "opacity",
    "opacity_many",
    "average_opacity",
    "opacity_report",
    "OpacityReport",
    "NaiveAdversary",
    "AdvancedAdversary",
    "CompiledOpacityView",
    # the unified service API
    "ProtectionService",
    "ProtectionRequest",
    "ProtectionResult",
    "ScoreCard",
    "EditSession",
    # serving at scale
    "AccountCache",
    "CacheStats",
    "ServiceRegistry",
    "TenantQuota",
    # enforcement
    "QueryEnforcer",
    "QueryResult",
    "EnforcementMode",
    "__version__",
]
