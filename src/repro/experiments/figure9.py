"""E5 — Figure 9: Surrogate−Hide differences over the synthetic family.

Figure 9(a) plots the opacity difference and Figure 9(b) the utility
difference, both as functions of how connected the graph is and how much of
it is protected.  The paper's takeaways:

* every difference is positive — surrogating is always at least as good as
  hiding;
* the opacity advantage grows with the fraction of the graph protected;
* the utility advantage shrinks as more of the graph is protected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.opacity import AttackerModel
from repro.experiments.reporting import format_table, mean
from repro.experiments.sweep import (
    SweepRecord,
    group_by_connectivity,
    group_by_protection,
    run_synthetic_sweep,
)
from repro.workloads.synthetic import SyntheticInstance


@dataclass
class Figure9Series:
    """One aggregated series: differences averaged per group key."""

    group_by: str
    points: Dict[float, Dict[str, float]] = field(default_factory=dict)

    def as_rows(self) -> List[Dict[str, object]]:
        rows = []
        for key, values in sorted(self.points.items()):
            row: Dict[str, object] = {self.group_by: key}
            row.update({name: round(value, 4) for name, value in values.items()})
            rows.append(row)
        return rows


@dataclass
class Figure9Result:
    """Raw per-instance records plus the two aggregated series of Figure 9."""

    records: List[SweepRecord] = field(default_factory=list)
    by_protection: Figure9Series = field(default_factory=lambda: Figure9Series("protect_fraction"))
    by_connectivity: Figure9Series = field(default_factory=lambda: Figure9Series("connected_pairs"))

    def as_rows(self) -> List[Dict[str, object]]:
        return [record.as_dict() for record in self.records]

    def render(self) -> str:
        sections = [
            format_table(
                self.by_protection.as_rows(),
                title="Figure 9 — mean Surrogate-Hide differences by protection level",
            ),
            "",
            format_table(
                self.by_connectivity.as_rows(),
                title="Figure 9 — mean Surrogate-Hide differences by connectivity",
            ),
        ]
        return "\n".join(sections)

    def all_differences_nonnegative(self, *, tolerance: float = 1e-9) -> bool:
        """The paper's headline claim: surrogating is never worse than hiding."""
        return all(
            record.opacity_difference >= -tolerance and record.utility_difference >= -tolerance
            for record in self.records
        )


def run_figure9(
    *,
    quick: bool = True,
    seed: int = 2011,
    instances: Optional[Sequence[SyntheticInstance]] = None,
    adversary: Optional[AttackerModel] = None,
) -> Figure9Result:
    """Reproduce Figure 9 over the synthetic family (reduced family when ``quick``)."""
    records = run_synthetic_sweep(instances, quick=quick, seed=seed, adversary=adversary)
    result = Figure9Result(records=list(records))
    for fraction, group in group_by_protection(records).items():
        result.by_protection.points[fraction] = {
            "opacity_diff": mean(record.opacity_difference for record in group),
            "utility_diff": mean(record.utility_difference for record in group),
        }
    for bucket, group in group_by_connectivity(records).items():
        result.by_connectivity.points[bucket] = {
            "opacity_diff": mean(record.opacity_difference for record in group),
            "utility_diff": mean(record.utility_difference for record in group),
        }
    return result
