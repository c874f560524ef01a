"""E3 — Figure 7: surrogating vs hiding on the classic motifs.

For every motif of Figure 6 the designated edge is protected once by hiding
and once by surrogating (all nodes stay public — the paper's motif study
isolates *edge* protection).  The driver reports each strategy's Path
Utility and the opacity of the protected edge, plus the differences
``Surrogate − Hide`` that Figure 7 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.requests import ProtectionRequest
from repro.api.service import ProtectionService
from repro.core.opacity import AdvancedAdversary, AttackerModel
from repro.core.policy import ReleasePolicy, STRATEGY_HIDE, STRATEGY_SURROGATE
from repro.core.privileges import PrivilegeLattice
from repro.experiments.reporting import format_table
from repro.workloads.motifs import Motif, all_motifs


@dataclass
class MotifComparison:
    """Hide vs surrogate measurements for one motif."""

    motif: str
    utility_hide: float
    utility_surrogate: float
    opacity_hide: float
    opacity_surrogate: float

    @property
    def utility_difference(self) -> float:
        return self.utility_surrogate - self.utility_hide

    @property
    def opacity_difference(self) -> float:
        return self.opacity_surrogate - self.opacity_hide

    def as_dict(self) -> Dict[str, object]:
        return {
            "motif": self.motif,
            "utility_hide": round(self.utility_hide, 3),
            "utility_surrogate": round(self.utility_surrogate, 3),
            "utility_diff": round(self.utility_difference, 3),
            "opacity_hide": round(self.opacity_hide, 3),
            "opacity_surrogate": round(self.opacity_surrogate, 3),
            "opacity_diff": round(self.opacity_difference, 3),
        }


@dataclass
class Figure7Result:
    """All motif comparisons (the bars of Figure 7)."""

    comparisons: List[MotifComparison] = field(default_factory=list)

    def by_motif(self) -> Dict[str, MotifComparison]:
        return {comparison.motif: comparison for comparison in self.comparisons}

    def as_rows(self) -> List[Dict[str, object]]:
        return [comparison.as_dict() for comparison in self.comparisons]

    def render(self) -> str:
        return format_table(
            self.as_rows(),
            title="Figure 7 — Surrogate vs Hide on the classic motifs (differences = Surrogate - Hide)",
        )


def _motif_requests(motif: Motif, public: object, *, with_graph: bool) -> List[ProtectionRequest]:
    """The hide and surrogate requests of one motif (in that order).

    ``with_graph`` attaches the motif's graph to each request, which is how
    the cross-graph batch of :func:`run_figure7` targets a multi-graph
    service.
    """
    return [
        ProtectionRequest(
            privileges=(public,),
            strategy=strategy,
            protect_edges=(motif.protected_edge,),
            opacity_edges=(motif.protected_edge,),
            graph=motif.graph if with_graph else None,
        )
        for strategy in (STRATEGY_HIDE, STRATEGY_SURROGATE)
    ]


def _comparison_from_results(motif: Motif, hide, surrogate) -> MotifComparison:
    """Assemble one table row from the two strategies' scored results."""
    return MotifComparison(
        motif=motif.name,
        utility_hide=hide.scores.path_utility,
        utility_surrogate=surrogate.scores.path_utility,
        opacity_hide=hide.scores.opacity.per_edge[motif.protected_edge],
        opacity_surrogate=surrogate.scores.opacity.per_edge[motif.protected_edge],
    )


def compare_motif(
    motif: Motif,
    *,
    adversary: Optional[AttackerModel] = None,
) -> MotifComparison:
    """Protect one motif's designated edge both ways and measure the outcome.

    Both strategies run as one :meth:`ProtectionService.protect_many` batch;
    scoring goes through the service's compiled opacity engine, so each
    account's protected-edge opacity is read off one adversary simulation.
    (Edge-protecting requests each generate on their own scoped policy copy,
    so no compiled *marking* state is shared between the two strategies —
    the batch is a call-site convenience for generation.)
    """
    adversary = adversary if adversary is not None else AdvancedAdversary()
    policy = ReleasePolicy(PrivilegeLattice())
    service = ProtectionService(motif.graph, policy, adversary=adversary)
    hide, surrogate = service.protect_many(
        _motif_requests(motif, policy.lattice.public, with_graph=False)
    )
    return _comparison_from_results(motif, hide, surrogate)


def run_figure7(*, adversary: Optional[AttackerModel] = None) -> Figure7Result:
    """Reproduce Figure 7 over every motif of Figure 6.

    All seven motifs run as **one** cross-graph
    :meth:`~repro.api.service.ProtectionService.protect_many` batch over a
    multi-graph service (each request carries its motif's graph), the same
    serving shape the Figures-8/9 sweep uses; per-motif results are
    identical to :func:`compare_motif` because both paths score through the
    compiled opacity engine.
    """
    adversary = adversary if adversary is not None else AdvancedAdversary()
    policy = ReleasePolicy(PrivilegeLattice())
    service = ProtectionService(None, policy, adversary=adversary)
    motifs = all_motifs()
    requests: List[ProtectionRequest] = []
    for motif in motifs:
        requests.extend(_motif_requests(motif, policy.lattice.public, with_graph=True))
    results = service.protect_many(requests)
    result = Figure7Result()
    for index, motif in enumerate(motifs):
        result.comparisons.append(
            _comparison_from_results(motif, results[2 * index], results[2 * index + 1])
        )
    return result
