"""Surrogate nodes and the surrogate registry (paper Section 3.1).

A *surrogate* is a less-sensitive stand-in for a node: it omits or coarsens
features of the original and is releasable at a lower (or at least
non-dominating) privilege.  The provider registers surrogates in a
:class:`SurrogateRegistry`; protected-account generation asks the registry
for the best surrogate visible to a given consumer class.

Two constraints from the paper are enforced:

* ``lowest(n')`` must **not** dominate ``lowest(n)`` — a surrogate may not
  demand more privilege than the original (it may be incomparable).
* ``infoScore`` is monotone in privilege: when two surrogates of the same
  node are comparable, the one requiring the more dominant privilege has the
  greater (or equal) ``infoScore``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.exceptions import SurrogateError
from repro.core.privileges import Privilege, PrivilegeLattice
from repro.graph.features import feature_overlap, normalize_features
from repro.graph.model import Node, NodeId

#: Feature marker used on generated null surrogates so they are recognisable.
NULL_SURROGATE = "<null>"


@dataclass(frozen=True)
class Surrogate:
    """One surrogate version of one original node.

    Attributes
    ----------
    original_id:
        Id of the node in ``G`` this surrogate stands in for.
    surrogate_id:
        Id the surrogate node will carry in the protected account (must be
        unique within the account).
    lowest:
        The lowest privilege-predicate through which the surrogate is
        visible (``lowest(n')`` in the paper).
    features:
        The surrogate's (reduced) features.
    kind:
        Optional node kind carried into the protected account.
    info_score:
        Optional provider-assigned ``infoScore`` in ``[0, 1]``.  When absent
        the default completeness heuristic of
        :func:`repro.graph.features.feature_overlap` is used at measurement
        time.
    """

    original_id: NodeId
    surrogate_id: NodeId
    lowest: Privilege
    features: Mapping[str, Any] = field(default_factory=dict)
    kind: Optional[str] = None
    info_score: Optional[float] = None

    def __post_init__(self) -> None:
        if self.info_score is not None and not 0.0 <= self.info_score <= 1.0:
            raise SurrogateError(
                f"infoScore must be in [0, 1], got {self.info_score!r} for surrogate {self.surrogate_id!r}"
            )

    def is_null(self) -> bool:
        """True when this is a featureless (``<null>``) surrogate."""
        return not self.features

    def as_node(self) -> Node:
        """Materialise the surrogate as a graph node for a protected account."""
        return Node(node_id=self.surrogate_id, kind=self.kind, features=dict(self.features))


def null_surrogate(
    original_id: NodeId,
    lowest: Privilege,
    *,
    surrogate_id: Optional[NodeId] = None,
    kind: Optional[str] = None,
) -> Surrogate:
    """Build the default ``<null>`` surrogate for a node (paper Section 3.1).

    The null surrogate carries no features; its ``infoScore`` is 0 unless
    the original node itself has no features.
    """
    return Surrogate(
        original_id=original_id,
        surrogate_id=surrogate_id if surrogate_id is not None else f"{original_id}{NULL_SURROGATE}",
        lowest=lowest,
        features={},
        kind=kind,
        info_score=0.0,
    )


class SurrogateRegistry:
    """Provider-maintained catalogue of surrogates, keyed by original node.

    The registry is deliberately independent of any particular graph object:
    the same registry can protect many accounts of the same data set.
    """

    def __init__(self, lattice: PrivilegeLattice) -> None:
        self.lattice = lattice
        self._by_original: Dict[NodeId, List[Surrogate]] = {}
        #: Mutation counter: registering a surrogate changes which accounts
        #: the generation algorithm produces, so result caches key on this.
        self._version = 0

    @property
    def version(self) -> int:
        """Bumped on every successful registration (cache-invalidation hook)."""
        return self._version

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        surrogate: Surrogate,
        *,
        original_lowest: Optional[Privilege] = None,
    ) -> Surrogate:
        """Register a surrogate.

        When ``original_lowest`` is given, the paper's constraint that the
        surrogate's lowest privilege must not dominate the original's is
        checked immediately; otherwise the check happens when the surrogate
        is used by :class:`~repro.core.policy.ReleasePolicy`.
        """
        surrogate = Surrogate(
            original_id=surrogate.original_id,
            surrogate_id=surrogate.surrogate_id,
            lowest=self.lattice.get(surrogate.lowest),
            features=normalize_features(surrogate.features),
            kind=surrogate.kind,
            info_score=surrogate.info_score,
        )
        if original_lowest is not None:
            self.check_lowest_constraint(surrogate, original_lowest)
        siblings = self._by_original.setdefault(surrogate.original_id, [])
        for existing in siblings:
            if existing.surrogate_id == surrogate.surrogate_id:
                raise SurrogateError(
                    f"surrogate id {surrogate.surrogate_id!r} already registered for node "
                    f"{surrogate.original_id!r}"
                )
        self._check_info_score_monotonicity(surrogate, siblings)
        siblings.append(surrogate)
        self._version += 1
        return surrogate

    def add(
        self,
        original_id: NodeId,
        lowest: object,
        *,
        surrogate_id: Optional[NodeId] = None,
        features: Optional[Mapping[str, Any]] = None,
        kind: Optional[str] = None,
        info_score: Optional[float] = None,
        original_lowest: Optional[Privilege] = None,
    ) -> Surrogate:
        """Convenience wrapper building and registering a :class:`Surrogate`."""
        surrogate = Surrogate(
            original_id=original_id,
            surrogate_id=surrogate_id if surrogate_id is not None else f"{original_id}'",
            lowest=self.lattice.get(lowest),
            features=normalize_features(features),
            kind=kind,
            info_score=info_score,
        )
        return self.register(surrogate, original_lowest=original_lowest)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def surrogates_for(self, original_id: NodeId) -> List[Surrogate]:
        """Every registered surrogate of ``original_id`` (possibly empty)."""
        return list(self._by_original.get(original_id, ()))

    def has_surrogate(self, original_id: NodeId) -> bool:
        """True when at least one surrogate is registered for the node."""
        return bool(self._by_original.get(original_id))

    def originals(self) -> List[NodeId]:
        """Ids of every original node that has at least one surrogate."""
        return list(self._by_original.keys())

    def visible_surrogates(self, original_id: NodeId, privilege: object) -> List[Surrogate]:
        """Surrogates of ``original_id`` visible via ``privilege``.

        A surrogate ``n'`` is visible via ``p`` when ``p`` dominates
        ``lowest(n')`` (Definition 1).
        """
        privilege = self.lattice.get(privilege)
        return [
            surrogate
            for surrogate in self.surrogates_for(original_id)
            if self.lattice.dominates(privilege, surrogate.lowest)
        ]

    def best_surrogate(
        self,
        original_id: NodeId,
        privilege: object,
        *,
        original_features: Optional[Mapping[str, Any]] = None,
    ) -> Optional[Surrogate]:
        """The most informative surrogate visible via ``privilege``, if any.

        Following the paper's *dominant surrogacy* property, the surrogate
        whose ``lowest`` is most dominant (while still dominated by the
        consumer's privilege) is preferred; ties are broken by ``infoScore``
        (explicit or the completeness default) and then by id for
        determinism.
        """
        candidates = self.visible_surrogates(original_id, privilege)
        if not candidates:
            return None
        maximal_lowests = self.lattice.maximal([candidate.lowest for candidate in candidates])
        dominant = [candidate for candidate in candidates if candidate.lowest in maximal_lowests]

        def score(candidate: Surrogate) -> float:
            if candidate.info_score is not None:
                return candidate.info_score
            if original_features is None:
                return 0.0 if candidate.is_null() else 0.5
            return feature_overlap(original_features, candidate.features)

        dominant.sort(key=lambda candidate: (-score(candidate), str(candidate.surrogate_id)))
        return dominant[0]

    # ------------------------------------------------------------------ #
    # constraint checks
    # ------------------------------------------------------------------ #
    def check_lowest_constraint(self, surrogate: Surrogate, original_lowest: object) -> None:
        """Raise when ``lowest(n')`` dominates ``lowest(n)`` (forbidden, Section 3.1)."""
        original_lowest = self.lattice.get(original_lowest)
        if self.lattice.strictly_dominates(surrogate.lowest, original_lowest) or (
            surrogate.lowest == original_lowest
        ):
            raise SurrogateError(
                f"surrogate {surrogate.surrogate_id!r} would require privilege "
                f"{surrogate.lowest.name!r}, which dominates the original's lowest privilege "
                f"{original_lowest.name!r}; surrogates must be releasable more broadly"
            )

    def validate_against(self, node_lowest: Mapping[NodeId, Privilege]) -> None:
        """Check every registered surrogate against a node → lowest mapping."""
        for original_id, surrogates in self._by_original.items():
            if original_id not in node_lowest:
                continue
            for surrogate in surrogates:
                self.check_lowest_constraint(surrogate, node_lowest[original_id])

    def _check_info_score_monotonicity(
        self, incoming: Surrogate, siblings: Iterable[Surrogate]
    ) -> None:
        """Enforce: more restrictive surrogates never have lower explicit infoScores.

        Incremental form: every already-registered sibling passed this check
        against the others when it was registered, so only the ``incoming``
        surrogate needs comparing against its siblings — O(k) per register
        instead of re-scanning all O(k²) pairs.  Runs *before* the incoming
        surrogate is stored, so a rejected surrogate never pollutes the
        registry.
        """
        if incoming.info_score is None:
            return
        for sibling in siblings:
            if sibling.info_score is None:
                continue
            first = second = None
            if (
                self.lattice.strictly_dominates(incoming.lowest, sibling.lowest)
                and incoming.info_score < sibling.info_score
            ):
                first, second = incoming, sibling
            elif (
                self.lattice.strictly_dominates(sibling.lowest, incoming.lowest)
                and sibling.info_score < incoming.info_score
            ):
                first, second = sibling, incoming
            if first is not None:
                raise SurrogateError(
                    f"surrogate {first.surrogate_id!r} (lowest={first.lowest.name}) has "
                    f"infoScore {first.info_score} < {second.info_score} of the less "
                    f"restrictive surrogate {second.surrogate_id!r}; infoScore must be "
                    "monotone in privilege (paper Section 4.1)"
                )

    def __len__(self) -> int:
        return sum(len(surrogates) for surrogates in self._by_original.values())

    def __iter__(self) -> Iterable[Surrogate]:
        for surrogates in self._by_original.values():
            yield from surrogates
