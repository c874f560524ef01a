"""The synthetic-graph sweep shared by Figures 8 and 9.

For every synthetic instance (a graph plus its sample of protected edges)
both protection strategies are applied and the resulting accounts are scored
for Path Utility and for average opacity over the protected edges.  The
sweep records are then aggregated differently by the Figure-8 and Figure-9
drivers.

Scoring runs on the service's compiled opacity engine: each account's
protected-edge opacities are read off **one** adversary simulation
(:class:`~repro.core.opacity.CompiledOpacityView`, O(V) setup then O(1) per
edge) instead of re-running the adversary per edge, and repeated sweeps over
the same instances replay both the accounts and their simulations from the
shared service's caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.api.requests import ProtectionRequest
from repro.api.service import ProtectionService
from repro.core.opacity import AdvancedAdversary, AttackerModel
from repro.core.policy import ReleasePolicy, STRATEGY_HIDE, STRATEGY_SURROGATE
from repro.core.privileges import PrivilegeLattice
from repro.workloads.synthetic import (
    DEFAULT_CONNECTIVITY_TARGETS,
    DEFAULT_PROTECT_FRACTIONS,
    SyntheticInstance,
    synthetic_family,
)

#: Reduced sweep parameters used when ``quick=True`` (benchmarks, CI).
QUICK_NODE_COUNT = 80
QUICK_CONNECTIVITY_TARGETS = (10, 20, 30)
QUICK_PROTECT_FRACTIONS = (0.1, 0.5, 0.9)


@dataclass(frozen=True)
class SweepRecord:
    """Hide vs surrogate measurements for one synthetic instance."""

    label: str
    nodes: int
    edges: int
    connected_pairs: float
    protect_fraction: float
    protected_edges: int
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
            "label": self.label,
            "connected_pairs": round(self.connected_pairs, 1),
            "protect_fraction": self.protect_fraction,
            "protected_edges": self.protected_edges,
            "utility_hide": round(self.utility_hide, 3),
            "utility_surrogate": round(self.utility_surrogate, 3),
            "utility_diff": round(self.utility_difference, 3),
            "opacity_hide": round(self.opacity_hide, 3),
            "opacity_surrogate": round(self.opacity_surrogate, 3),
            "opacity_diff": round(self.opacity_difference, 3),
        }


def sweep_service(adversary: Optional[AttackerModel] = None) -> ProtectionService:
    """A multi-graph service suitable for sweep batches.

    The service carries no bound graph (each request brings its instance's
    graph) and a fresh empty policy over the default lattice — exactly the
    configuration every sweep instance used to build privately.  Passing one
    such service to several :func:`run_synthetic_sweep` calls makes repeated
    sweeps over the same instances replay from its account cache.
    """
    adversary = adversary if adversary is not None else AdvancedAdversary()
    return ProtectionService(None, ReleasePolicy(PrivilegeLattice()), adversary=adversary)


def instance_requests(
    instance: SyntheticInstance, public: object
) -> List[ProtectionRequest]:
    """The hide and surrogate requests of one instance, targeting its graph."""
    return [
        ProtectionRequest(
            privileges=(public,),
            strategy=strategy,
            protect_edges=tuple(instance.protected_edges),
            opacity_edges=tuple(instance.protected_edges),
            graph=instance.graph,
        )
        for strategy in (STRATEGY_HIDE, STRATEGY_SURROGATE)
    ]


def measure_instance(
    instance: SyntheticInstance,
    *,
    adversary: Optional[AttackerModel] = None,
    service: Optional[ProtectionService] = None,
) -> SweepRecord:
    """Apply both strategies to one instance and score the accounts.

    The hide and surrogate requests protect the same sampled edges and score
    average opacity over exactly those edges.  ``service`` may be a shared
    :func:`sweep_service` (batch drivers pass one so repeated measurements
    hit its account cache); by default a private one is built.  A shared
    service already carries its attacker model, so combining it with
    ``adversary`` is rejected rather than silently ignoring one of them.
    """
    if service is not None and adversary is not None:
        raise ValueError("pass the adversary through the shared service, not both")
    if service is None:
        service = sweep_service(adversary)
    hide, surrogate = service.protect_many(
        instance_requests(instance, service.policy.lattice.public)
    )
    return SweepRecord(
        label=instance.spec.label(),
        nodes=instance.graph.node_count(),
        edges=instance.graph.edge_count(),
        connected_pairs=instance.achieved_connected_pairs,
        protect_fraction=instance.protect_fraction,
        protected_edges=len(instance.protected_edges),
        utility_hide=hide.scores.path_utility,
        utility_surrogate=surrogate.scores.path_utility,
        opacity_hide=hide.scores.average_opacity,
        opacity_surrogate=surrogate.scores.average_opacity,
    )


def run_synthetic_sweep(
    instances: Optional[Iterable[SyntheticInstance]] = None,
    *,
    quick: bool = True,
    seed: int = 2011,
    adversary: Optional[AttackerModel] = None,
    service: Optional[ProtectionService] = None,
) -> List[SweepRecord]:
    """Measure every instance of the synthetic family as one cross-graph batch.

    Without an explicit ``instances`` sequence the family is generated here:
    the reduced ``quick`` family by default, or the paper's full 50-graph /
    200-node family with ``quick=False``.

    The whole sweep is served as a single
    :meth:`~repro.api.service.ProtectionService.protect_many` batch over a
    multi-graph service — each instance's two requests carry the instance's
    graph — so per-graph compiled views are built exactly once per batch.
    Pass a shared ``service`` (see :func:`sweep_service`) to make repeated
    sweeps over the same instances replay from its account cache.
    """
    if instances is None:
        if quick:
            instances = synthetic_family(
                node_count=QUICK_NODE_COUNT,
                connectivity_targets=QUICK_CONNECTIVITY_TARGETS,
                protect_fractions=QUICK_PROTECT_FRACTIONS,
                seed=seed,
            )
        else:
            instances = synthetic_family(
                connectivity_targets=DEFAULT_CONNECTIVITY_TARGETS,
                protect_fractions=DEFAULT_PROTECT_FRACTIONS,
                seed=seed,
            )
    instances = list(instances)
    if service is not None and adversary is not None:
        raise ValueError("pass the adversary through the shared service, not both")
    if service is None:
        service = sweep_service(adversary)
    public = service.policy.lattice.public
    requests: List[ProtectionRequest] = []
    for instance in instances:
        requests.extend(instance_requests(instance, public))
    results = service.protect_many(requests)
    records: List[SweepRecord] = []
    for index, instance in enumerate(instances):
        hide, surrogate = results[2 * index], results[2 * index + 1]
        records.append(
            SweepRecord(
                label=instance.spec.label(),
                nodes=instance.graph.node_count(),
                edges=instance.graph.edge_count(),
                connected_pairs=instance.achieved_connected_pairs,
                protect_fraction=instance.protect_fraction,
                protected_edges=len(instance.protected_edges),
                utility_hide=hide.scores.path_utility,
                utility_surrogate=surrogate.scores.path_utility,
                opacity_hide=hide.scores.average_opacity,
                opacity_surrogate=surrogate.scores.average_opacity,
            )
        )
    return records


def group_by_protection(records: Sequence[SweepRecord]) -> Dict[float, List[SweepRecord]]:
    """Group sweep records by their protection fraction."""
    groups: Dict[float, List[SweepRecord]] = {}
    for record in records:
        groups.setdefault(record.protect_fraction, []).append(record)
    return dict(sorted(groups.items()))


def group_by_connectivity(
    records: Sequence[SweepRecord], *, bucket_size: float = 20.0
) -> Dict[float, List[SweepRecord]]:
    """Group sweep records by buckets of achieved connected pairs."""
    groups: Dict[float, List[SweepRecord]] = {}
    for record in records:
        bucket = bucket_size * round(record.connected_pairs / bucket_size)
        groups.setdefault(bucket, []).append(record)
    return dict(sorted(groups.items()))
