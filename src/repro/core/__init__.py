"""Core contribution of the paper: surrogates, protected accounts, metrics.

Modules
-------
``privileges``
    Privilege-predicates, the dominance partial order and high-water sets
    (Definitions 1–3, 6).
``surrogates``
    Surrogate nodes, ``infoScore`` and the surrogate registry (Section 3.1).
``markings``
    Node-edge incidence markings ``Visible`` / ``Hide`` / ``Surrogate``
    (Definition 7) and their combination into edge states.
``policy``
    :class:`~repro.core.policy.ReleasePolicy` — the bundle of lattice,
    ``lowest()`` assignments, markings and surrogates a provider publishes.
``permitted``
    HW-permitted paths (Definition 8) and the visible-set walks of
    Algorithm 2.
``protected_account``
    The :class:`~repro.core.protected_account.ProtectedAccount` result type
    (Definition 5) with its node-correspondence map.
``generation``
    The Surrogate Generation Algorithm (Appendix B, Algorithms 1–3).
``multi``
    Merged accounts for consumers satisfying several incomparable classes.
``hiding``
    The naive all-or-nothing account of Figure 1(c).
``utility``
    Path Utility and Node Utility measures (Section 4.1, Figure 3).
``opacity``
    The opacity measure and attacker models (Section 4.2, Figures 4–5).
``validation``
    Checks for Definition 5 soundness and Definition 9 maximal
    informativeness (Lemmas 1–2, Theorem 1).
"""

from repro.core.privileges import HighWaterSet, Privilege, PrivilegeLattice
from repro.core.surrogates import NULL_SURROGATE, Surrogate, SurrogateRegistry
from repro.core.markings import CompiledMarkingView, EdgeState, Marking, MarkingPolicy
from repro.core.permitted import VisibleWalkCache
from repro.core.policy import ReleasePolicy
from repro.core.protected_account import ProtectedAccount
from repro.core.generation import build_protected_account
from repro.core.multi import build_multi_privilege_account, merge_accounts
from repro.core.hiding import naive_protected_account
from repro.core.utility import node_utility, path_percentage, path_utility, utility_report
from repro.core.opacity import (
    AdvancedAdversary,
    CompiledOpacityView,
    NaiveAdversary,
    OpacityViewCache,
    adversary_fingerprint,
    adversary_supports_deltas,
    average_opacity,
    opacity,
    opacity_many,
    opacity_report,
    opacity_simulations_run,
)
from repro.core.validation import validate_protected_account, validate_maximally_informative

__all__ = [
    "Privilege",
    "PrivilegeLattice",
    "HighWaterSet",
    "Surrogate",
    "SurrogateRegistry",
    "NULL_SURROGATE",
    "Marking",
    "EdgeState",
    "MarkingPolicy",
    "CompiledMarkingView",
    "VisibleWalkCache",
    "ReleasePolicy",
    "ProtectedAccount",
    "build_protected_account",
    "build_multi_privilege_account",
    "merge_accounts",
    "naive_protected_account",
    "path_utility",
    "path_percentage",
    "node_utility",
    "utility_report",
    "opacity",
    "opacity_many",
    "average_opacity",
    "opacity_report",
    "opacity_simulations_run",
    "adversary_supports_deltas",
    "NaiveAdversary",
    "AdvancedAdversary",
    "CompiledOpacityView",
    "OpacityViewCache",
    "adversary_fingerprint",
    "validate_protected_account",
    "validate_maximally_informative",
]
