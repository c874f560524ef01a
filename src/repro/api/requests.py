"""The request side of the :class:`~repro.api.service.ProtectionService` API.

A :class:`ProtectionRequest` captures everything one protection run needs —
the consumer classes, the strategy, the edges to protect, the repair mode,
and how the resulting account should be scored and persisted — as one
immutable value, so a call site builds one request and hands it to the
service instead of stitching together generation, ``path_utility`` and
``opacity`` with ad-hoc keyword conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Mapping, Optional, Sequence, Tuple

from repro.core.hiding import STRATEGY_NAIVE
from repro.core.opacity import AttackerModel
from repro.core.policy import STRATEGY_HIDE, STRATEGY_SURROGATE
from repro.exceptions import ProtectionError
from repro.graph.model import EdgeKey, NodeId, PropertyGraph

#: Every strategy a request may name.  ``"naive"`` selects the all-or-nothing
#: baseline of Figure 1(c); ``"hide"`` and ``"surrogate"`` select the two
#: edge-protection strategies of Section 6.
REQUEST_STRATEGIES = (STRATEGY_SURROGATE, STRATEGY_HIDE, STRATEGY_NAIVE)


@dataclass(frozen=True)
class ProtectionRequest:
    """One protect → score → (optionally) persist run, as a value.

    Attributes
    ----------
    privileges:
        The consumer classes the account is generated for.  One privilege
        produces the per-class account of Appendix B; several incomparable
        privileges produce the merged multi-privilege account.
    strategy:
        ``"surrogate"`` (default), ``"hide"`` or ``"naive"``.  With
        ``protect_edges`` the strategy decides how those edges are marked
        before generation; without it, ``"naive"`` selects the baseline
        account and the other two just label the result.
    protect_edges:
        Edges protected (on a scoped copy of the policy) before generation —
        the Section-6 transformation.  Ignored by the ``"naive"`` strategy.
    include_surrogate_edges:
        Disable to skip the surrogate-edge step (ablations).
    repair_connectivity:
        Run the Definition-9.3 closure-repair pass (the
        ``ensure_maximal_connectivity`` flag of
        :func:`~repro.core.generation.build_protected_account`).
    name:
        Optional name for the account graph.
    score:
        When True (default) the service computes a
        :class:`~repro.api.results.ScoreCard` for the result.
    adversary:
        Attacker model for the opacity measure (default: the service's
        adversary, itself defaulting to Figure 5's advanced adversary).
    opacity_edges:
        Which original edges to score opacity over.  Default: every edge the
        account hides when ``protect_edges`` is empty, otherwise the
        protected edges themselves (the convention of the paper's Section 6
        evaluation).
    normalize_focus:
        Use the normalised-focus reading of the opacity formula.
    explicit_scores:
        Provider-assigned ``infoScore`` overrides, keyed by account node id.
    compiled:
        Use the compiled per-privilege marking view (default).  ``False``
        forces the uncompiled reference path; only the equivalence tests do.
    persist_as:
        When set, the service stores the account under this name in its
        configured :class:`~repro.store.engine.GraphStore`.
    graph:
        Optional per-request graph override.  ``None`` (default) targets the
        service's bound graph; a :class:`~repro.graph.model.PropertyGraph`
        makes this request run against that graph instead, which is how
        :meth:`~repro.api.service.ProtectionService.protect_many` serves
        batches spanning multiple graphs.
    use_cache:
        ``False`` skips the account-cache *lookup* for this request (the
        fresh result still refreshes the cache entry).  Callers that must
        observe a genuinely regenerated account — e.g.
        :meth:`QueryEnforcer.invalidate
        <repro.security.enforcement.QueryEnforcer.invalidate>` — use this
        instead of evicting other requests' entries.
    """

    privileges: Tuple[object, ...] = ()
    strategy: str = STRATEGY_SURROGATE
    protect_edges: Tuple[EdgeKey, ...] = ()
    include_surrogate_edges: bool = True
    repair_connectivity: bool = False
    name: Optional[str] = None
    score: bool = True
    adversary: Optional[AttackerModel] = None
    opacity_edges: Optional[Tuple[EdgeKey, ...]] = None
    normalize_focus: bool = False
    explicit_scores: Optional[Mapping[NodeId, float]] = None
    compiled: bool = True
    persist_as: Optional[str] = None
    graph: Optional[PropertyGraph] = None
    use_cache: bool = True

    def __post_init__(self) -> None:
        # Normalise sequence fields so callers may pass lists; keep the
        # dataclass hashable-by-content where its fields allow it.
        object.__setattr__(self, "privileges", _as_tuple(self.privileges))
        object.__setattr__(
            self, "protect_edges", tuple(tuple(edge) for edge in self.protect_edges)
        )
        if self.opacity_edges is not None:
            object.__setattr__(
                self, "opacity_edges", tuple(tuple(edge) for edge in self.opacity_edges)
            )
        if not self.privileges:
            raise ProtectionError("a ProtectionRequest needs at least one privilege")
        if self.strategy not in REQUEST_STRATEGIES:
            raise ProtectionError(
                f"unknown protection strategy {self.strategy!r}; expected one of {REQUEST_STRATEGIES}"
            )

    # ------------------------------------------------------------------ #
    # conveniences
    # ------------------------------------------------------------------ #
    @classmethod
    def for_privilege(cls, privilege: object, **options: object) -> "ProtectionRequest":
        """A request for one consumer class: ``ProtectionRequest.for_privilege("High-2")``."""
        return cls(privileges=(privilege,), **options)  # type: ignore[arg-type]

    def with_options(self, **options: object) -> "ProtectionRequest":
        """A copy of this request with some fields replaced."""
        return replace(self, **options)  # type: ignore[arg-type]

    def default_opacity_edges(self) -> Optional[Tuple[EdgeKey, ...]]:
        """The edge set opacity is scored over when none is given explicitly."""
        if self.opacity_edges is not None:
            return self.opacity_edges
        return self.protect_edges or None

    def cache_fingerprint(
        self, *, adversary: Optional[AttackerModel] = None
    ) -> Optional[Hashable]:
        """A hashable digest of every option that affects this request's result.

        ``None`` marks the request uncacheable: it carries a side effect
        (``persist_as``) or an option that cannot be fingerprinted (an
        unhashable adversary or ``explicit_scores`` payload).  The graph and
        policy are deliberately absent — the
        :class:`~repro.api.cache.AccountCache` keys on their identities and
        version counters separately — and ``adversary`` must be the
        *effective* model (request override or service default), since two
        services sharing one cache may default differently.
        """
        if self.persist_as is not None:
            return None
        explicit: Optional[Hashable] = None
        if self.explicit_scores is not None:
            explicit = tuple(sorted(self.explicit_scores.items(), key=repr))
        fingerprint = (
            tuple(getattr(p, "name", str(p)) for p in self.privileges),
            self.strategy,
            self.protect_edges,
            self.include_surrogate_edges,
            self.repair_connectivity,
            self.name,
            self.score,
            adversary,
            self.opacity_edges,
            self.normalize_focus,
            explicit,
            self.compiled,
        )
        try:
            hash(fingerprint)
        except TypeError:
            return None
        return fingerprint


def _as_tuple(value: object) -> Tuple[object, ...]:
    """Accept one privilege, or any sequence of them, as the privileges field."""
    if isinstance(value, tuple):
        return value
    if isinstance(value, (list, set, frozenset)):
        return tuple(value)
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        return tuple(value)
    return (value,)
