"""The opacity measure, its attacker models and the compiled opacity engine.

Opacity (paper Section 4.2, Figures 4–5) quantifies how hard it is for an
attacker, who sees only the protected account ``G'``, to infer the existence
of an original edge ``e = (n1 -> n2)`` of ``G`` that the account does not
show:

* opacity is **0** when the account shows an edge between the nodes
  corresponding to ``n1`` and ``n2`` (nothing left to infer),
* opacity is **1** when either endpoint has no corresponding node in the
  account (the attacker cannot even name the endpoints),
* otherwise opacity is ``1 - I`` where ``I`` is the attacker's inference
  likelihood, built from two ingredients the paper calls ``FP`` and ``IP``:

  - ``FP(v)`` — how strongly the attacker's attention is drawn to account
    node ``v`` (Figure 5: 0.8 for "loner" nodes with at most one connected
    node, 0.2 otherwise),
  - ``IP(v)`` — how plausible ``v`` looks as the hidden endpoint of a
    missing edge (Figure 5: 0.8 when its degree is at most one, 0.2
    otherwise).

  The published formula in Figure 4 is partially illegible in the available
  scan, so this implementation uses the most direct reading of its
  description: ``I`` adds, for each endpoint of the hidden edge, the
  probability that the attacker focuses on that endpoint (its raw ``FP``)
  times the probability that, having focused there, it names the other
  endpoint (that endpoint's ``IP`` normalised over all candidate far
  endpoints); the sum is clamped to ``[0, 1]``.  The default adversary adds
  a third tier above the paper's Figure-5 constants: completely isolated
  nodes draw even more attention than degree-1 "loners", which is exactly
  the signal the paper says surrogate edges remove ("lowering the suspicion
  of a node without edges").  The resulting measure reproduces every
  qualitative ordering the paper reports (Table 1, Figures 7–9); absolute
  third-decimal values can differ from the paper's because the original
  constants-to-formula wiring is under-specified.  ``normalize_focus=True``
  switches to a normalised-focus reading (the attacker's attention is a
  probability distribution over account nodes);
  :meth:`AdvancedAdversary.figure5` gives the paper's literal two-tier
  constants.

The compiled engine
-------------------
Evaluating the formula naively costs O(V) per edge: the attacker's focus and
inference weight vectors are a function of the *account graph alone*, yet the
per-edge reading rebuilds them — and the O(V) "guess" denominator — for every
hidden edge, making ``opacity_report`` O(E·V).  :class:`CompiledOpacityView`
runs the adversary simulation **once** per (account graph, adversary): it
compiles the focus-weight vector, the inference-weight vector, both totals
and every node's leave-one-out guess denominator in O(V), after which each
edge's opacity is O(1).  :func:`opacity_many` (and the batch-rewritten
:func:`opacity_profile` / :func:`average_opacity` / :func:`opacity_report`)
share one compiled view across all scored edges; :class:`OpacityViewCache`
lets serving layers reuse views across calls so repeated scoring of the same
account never re-simulates the adversary.

The compiled path is *bit-identical* to the paper-literal per-edge reference
(:mod:`repro.core.reference.opacity_reference`): the reference evaluates
every weight total with :func:`math.fsum` (the correctly-rounded float sum,
independent of summation order) and the compiled view computes the same
totals through exact :class:`fractions.Fraction` arithmetic rounded once at
the end — two routes to the same correctly-rounded double.  The differential
property suite (``tests/property/test_opacity_equivalence.py``) pins the two
paths equal with exact float equality on every workload generator.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Protocol, Tuple

from repro.core.protected_account import ProtectedAccount
from repro.graph.deltas import DeltaKind, GraphDelta, record_maintenance
from repro.graph.model import EdgeKey, NodeId, PropertyGraph


class AttackerModel(Protocol):
    """The two ingredients of the opacity formula, per account node."""

    def focus_probability(self, account_graph: PropertyGraph, node_id: NodeId) -> float:
        """Relative weight with which the attacker's attention lands on ``node_id``."""

    def inference_probability(self, account_graph: PropertyGraph, node_id: NodeId) -> float:
        """Relative plausibility of ``node_id`` as the far endpoint of a hidden edge."""


def adversary_supports_deltas(adversary: AttackerModel) -> bool:
    """True when a node's weights depend only on its own neighbourhood.

    Incremental view maintenance (:meth:`CompiledOpacityView.apply_delta`,
    :meth:`CompiledOpacityView.derive_for`) recomputes weights only for the
    nodes an edit structurally touched — which is sound exactly when the
    attacker model is *delta-local*: ``focus_probability(g, n)`` and
    ``inference_probability(g, n)`` may read ``n``'s adjacency but nothing
    else of the graph.  The built-in adversaries declare this with a
    ``LOCAL_WEIGHTS = True`` class attribute; custom models that satisfy the
    contract can opt in the same way, and everything else falls back to a
    full recompile (counted, never silently wrong).
    """
    return bool(getattr(adversary, "LOCAL_WEIGHTS", False))


@dataclass(frozen=True)
class NaiveAdversary:
    """An attacker with no knowledge of typical graph structure.

    The paper's naive attacker does not even notice that a protected account
    has been redacted, so it never infers hidden edges: every hidden edge
    with both endpoints represented has opacity 1 under this model.
    """

    #: Weights are constant, hence trivially delta-local.
    LOCAL_WEIGHTS = True

    def focus_probability(self, account_graph: PropertyGraph, node_id: NodeId) -> float:
        return 0.0

    def inference_probability(self, account_graph: PropertyGraph, node_id: NodeId) -> float:
        return 0.0


@dataclass(frozen=True)
class AdvancedAdversary:
    """The advanced adversary of Figure 5 (with an extra tier for isolated nodes).

    Expecting a well-connected graph, the attacker focuses on "loner" nodes
    (at most ``loner_threshold`` connected nodes) with weight
    ``loner_focus`` and on everything else with weight ``other_focus``;
    symmetric constants drive the edge-endpoint plausibility ``IP``.
    Completely isolated nodes are an even stronger redaction signal than
    degree-1 loners ("there are no disconnected subgraphs" is part of the
    assumed background knowledge), so they get the ``isolated_*`` weights;
    set them equal to the loner weights — or use :meth:`figure5` — to obtain
    the paper's literal two-tier constants.
    """

    #: Weights read only the node's own connected-node count: delta-local.
    LOCAL_WEIGHTS = True

    loner_focus: float = 0.8
    other_focus: float = 0.2
    loner_inference: float = 0.8
    other_inference: float = 0.2
    loner_threshold: int = 1
    isolated_focus: float = 0.9
    isolated_inference: float = 0.9

    @classmethod
    def figure5(cls) -> "AdvancedAdversary":
        """The exact two-tier constants printed in the paper's Figure 5."""
        return cls(isolated_focus=0.8, isolated_inference=0.8)

    def focus_probability(self, account_graph: PropertyGraph, node_id: NodeId) -> float:
        connected = account_graph.neighbor_count(node_id)
        if connected == 0:
            return self.isolated_focus
        if connected <= self.loner_threshold:
            return self.loner_focus
        return self.other_focus

    def inference_probability(self, account_graph: PropertyGraph, node_id: NodeId) -> float:
        connected = account_graph.neighbor_count(node_id)
        if connected == 0:
            return self.isolated_inference
        if connected <= self.loner_threshold:
            return self.loner_inference
        return self.other_inference


#: The default adversary used by the evaluation (Figure 5's constants).
DEFAULT_ADVERSARY = AdvancedAdversary()


def adversary_fingerprint(adversary: AttackerModel) -> Hashable:
    """A hashable identity for an attacker model (view-cache key ingredient).

    The built-in adversaries are frozen dataclasses, so they fingerprint by
    *value*: two equal configurations share compiled views (and the
    :class:`~repro.api.cache.AccountCache` can key entries on the adversary
    alongside :func:`~repro.core.generation.account_cache_token`).
    Unhashable custom models fall back to object identity — still correct,
    just never shared across distinct instances.
    """
    try:
        hash(adversary)
    except TypeError:
        return ("unhashable-adversary", id(adversary))
    return adversary


def _checked_weight(kind: str, node_id: NodeId, weight: float) -> float:
    """Clamp one adversary weight to ``[0, ∞)`` after rejecting non-finite values.

    Both the compiled engine and the paper-literal reference run every raw
    weight through this contract, so a misbehaving custom
    :class:`AttackerModel` fails loudly and identically on both paths
    instead of poisoning totals with ``inf``/``nan``.
    """
    if not math.isfinite(weight):
        raise ValueError(
            f"adversary returned a non-finite {kind} weight {weight!r} for node {node_id!r}"
        )
    return max(0.0, weight)


#: Process-wide count of adversary simulations (view compilations) run so
#: far.  Monotonic; read through :func:`opacity_simulations_run`.  The
#: increment is a read-modify-write, so it takes the lock below — compiles
#: may happen from concurrent service threads.
_SIMULATIONS_COMPILED = 0
_SIMULATIONS_LOCK = threading.Lock()


def opacity_simulations_run() -> int:
    """How many adversary simulations (view compilations) have run in-process.

    The counter is monotonic and increments exactly once per
    :meth:`CompiledOpacityView.compile` call.  Tests snapshot it around
    cached paths (repeated ``score()`` calls, account-cache ``protect()``
    replays) to assert that **zero** additional simulations happened.
    """
    return _SIMULATIONS_COMPILED


@dataclass
class CompiledOpacityView:
    """One adversary simulation over one account graph, compiled for O(1) reads.

    The view captures everything the Figure-4 formula needs that does not
    depend on the particular hidden edge:

    * ``focus_weights`` / ``inference_weights`` — the clamped ``FP`` / ``IP``
      vectors over the account's nodes,
    * ``total_focus`` — the correctly-rounded sum of the focus vector (the
      ``normalize_focus`` denominator),
    * ``total_inference`` — the correctly-rounded sum of the inference
      vector (zero iff every guess has zero mass),
    * ``guess_denominators`` — for every node ``u``, the correctly-rounded
      leave-one-out sum ``Σ_{v ≠ u} IP(v)`` that normalises the attacker's
      guess from ``u``.

    Setup is O(V); :meth:`inference_likelihood` is then O(1) per edge.  The
    leave-one-out denominators are derived from one exact
    :class:`~fractions.Fraction` total (``float(total - w_u)``, deduplicated
    by weight value), which makes them bit-identical to the reference's
    :func:`math.fsum` over the same V−1 weights — both are the correctly
    rounded value of the same exact real sum.  Stale views are detected via
    :meth:`is_current_for` (graph identity + version + adversary
    fingerprint), never silently served.  ``weights_revision`` counts the
    patches that moved some node's ``FP`` or ``IP`` value, so an owner can
    tell whether its per-edge values are still exact without comparing the
    O(V) weight maps.
    """

    graph_version: int
    node_count: int
    focus_weights: Dict[NodeId, float]
    inference_weights: Dict[NodeId, float]
    total_focus: float
    total_inference: float
    guess_denominators: Dict[NodeId, float]
    adversary_key: Hashable
    _graph_ref: "weakref.ref[PropertyGraph]" = field(repr=False)
    # Exact-arithmetic state kept for incremental maintenance: the rational
    # totals the floats are rounded from, and the multiset of inference
    # weight values (whose distinct values parameterise the leave-one-out
    # denominators).  ``_denominators_stale`` defers the O(V) denominator
    # rebuild until the next read after a patch.
    _total_focus_exact: Fraction = field(default=Fraction(0), repr=False, compare=False)
    _total_inference_exact: Fraction = field(default=Fraction(0), repr=False, compare=False)
    _inference_value_counts: Counter = field(default_factory=Counter, repr=False, compare=False)
    _denominators_stale: bool = field(default=False, repr=False, compare=False)
    weights_revision: int = field(default=0, repr=False, compare=False)

    @classmethod
    def compile(
        cls, account_graph: PropertyGraph, adversary: AttackerModel
    ) -> "CompiledOpacityView":
        """Run the adversary simulation once and freeze its vectors (O(V)).

        Raises :class:`ValueError` if the adversary emits a non-finite
        weight (``inf``/``nan``): an attacker model is a relative-weight
        assignment, and a non-finite weight would poison every total (the
        reference path rejects them identically, keeping the differential
        contract intact).
        """
        global _SIMULATIONS_COMPILED
        with _SIMULATIONS_LOCK:
            _SIMULATIONS_COMPILED += 1
        record_maintenance("opacity_view", "compiled")
        node_ids = account_graph.node_ids()
        focus_weights = {
            node_id: _checked_weight(
                "focus", node_id, adversary.focus_probability(account_graph, node_id)
            )
            for node_id in node_ids
        }
        inference_weights = {
            node_id: _checked_weight(
                "inference", node_id, adversary.inference_probability(account_graph, node_id)
            )
            for node_id in node_ids
        }
        # Exact rational totals, rounded once: float(Fraction) is the
        # correctly-rounded double of the exact sum, i.e. exactly what
        # math.fsum over the same weights returns in the reference path.
        # Tiered adversaries emit only a handful of distinct weight values,
        # so the exact arithmetic runs per distinct value, not per node.
        focus_counts = Counter(focus_weights.values())
        inference_counts = Counter(inference_weights.values())
        total_focus_exact = sum(
            (count * Fraction(weight) for weight, count in focus_counts.items()),
            Fraction(0),
        )
        total_inference_exact = sum(
            (count * Fraction(weight) for weight, count in inference_counts.items()),
            Fraction(0),
        )
        # Leave-one-out denominators depend only on the *value* removed, so
        # one exact subtraction per distinct weight covers every node.
        loo_by_value = {
            weight: float(total_inference_exact - Fraction(weight))
            for weight in inference_counts
        }
        return cls(
            graph_version=account_graph.version,
            node_count=len(node_ids),
            focus_weights=focus_weights,
            inference_weights=inference_weights,
            total_focus=float(total_focus_exact),
            total_inference=float(total_inference_exact),
            guess_denominators={
                node_id: loo_by_value[weight]
                for node_id, weight in inference_weights.items()
            },
            adversary_key=adversary_fingerprint(adversary),
            _graph_ref=weakref.ref(account_graph),
            _total_focus_exact=total_focus_exact,
            _total_inference_exact=total_inference_exact,
            _inference_value_counts=Counter(inference_counts),
        )

    # ------------------------------------------------------------------ #
    # incremental maintenance
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta: GraphDelta, adversary: AttackerModel) -> bool:
        """Patch the simulation in place for one delta of its graph.

        O(affected): only nodes the delta structurally touched — added or
        removed nodes and the endpoints of added/removed edges — get their
        ``FP``/``IP`` weights re-evaluated; the exact
        :class:`~fractions.Fraction` totals are updated by exact
        subtraction/addition, so the rounded floats stay *identical* to a
        fresh compile's (exact arithmetic has no order sensitivity).  When
        some weight moved, ``weights_revision`` goes up by one and the
        leave-one-out denominators are marked stale and rebuilt lazily on
        the next read.

        Returns ``False`` — leaving the view untouched — when the patch
        would be unsound: the adversary is not the view's, is not
        delta-local (:func:`adversary_supports_deltas`), the delta does not
        start at the view's version, or the graph is gone/mid-batch.
        Feature-only deltas are free (structural weights cannot change).
        """
        if delta.pre_version != self.graph_version:
            return False
        if self.adversary_key != adversary_fingerprint(adversary):
            return False
        if not adversary_supports_deltas(adversary):
            return False
        graph = self._graph_ref()
        if graph is None or graph.in_batch:
            return False
        affected = set()
        for primitive in delta.flatten():
            kind = primitive.kind
            if kind is DeltaKind.ADD_NODE:
                affected.add(primitive.node.node_id)
            elif kind is DeltaKind.REMOVE_NODE:
                affected.add(primitive.old_node.node_id)
                for edge in primitive.removed_edges:
                    affected.add(edge.source)
                    affected.add(edge.target)
            elif kind is DeltaKind.ADD_EDGE or kind is DeltaKind.REMOVE_EDGE:
                edge = primitive.edge if kind is DeltaKind.ADD_EDGE else primitive.old_edge
                affected.add(edge.source)
                affected.add(edge.target)
            # REPLACE_NODE / REPLACE_EDGE / SET_NODE_FEATURES change no
            # structure: delta-local weights cannot move.
        if affected:
            self._reweigh(graph, adversary, affected)
        self.graph_version = delta.post_version
        record_maintenance("opacity_view", "delta_applied")
        return True

    def patched_copy(
        self, delta: GraphDelta, adversary: AttackerModel
    ) -> Optional["CompiledOpacityView"]:
        """A *new* view with ``delta`` applied; this view is left untouched.

        The copy-on-patch form of :meth:`apply_delta`, for owners whose
        views may be read concurrently (the
        :class:`OpacityViewCache`): readers holding the old object keep a
        consistent — merely stale — snapshot whose :meth:`is_current_for`
        fails, instead of observing a view mutating under them.  Returns
        ``None`` under exactly :meth:`apply_delta`'s fallback conditions.
        """
        if delta.pre_version != self.graph_version:
            return None
        clone = CompiledOpacityView(
            graph_version=self.graph_version,
            node_count=self.node_count,
            focus_weights=dict(self.focus_weights),
            inference_weights=dict(self.inference_weights),
            total_focus=self.total_focus,
            total_inference=self.total_inference,
            # Not copied: the patch (or the first read) rebuilds the
            # leave-one-out table from the exact total anyway.
            guess_denominators={},
            adversary_key=self.adversary_key,
            _graph_ref=self._graph_ref,
            _total_focus_exact=self._total_focus_exact,
            _total_inference_exact=self._total_inference_exact,
            _inference_value_counts=Counter(self._inference_value_counts),
            _denominators_stale=True,
        )
        if not clone.apply_delta(delta, adversary):
            return None
        return clone

    def derive_for(
        self, account_graph: PropertyGraph, adversary: AttackerModel
    ) -> Optional["CompiledOpacityView"]:
        """A view for a *different* graph, derived without a new simulation.

        Sub-accounts of a merged multi-privilege account share most of
        their structure; instead of running one O(V) adversary simulation
        per sub-account, the first compiled view in the family seeds the
        rest: nodes present in only one graph, plus common nodes whose
        neighbourhoods differ, are re-weighed against the target graph and
        the exact totals adjusted — everything else is carried over.  The
        result is bit-identical to a fresh compile (same exact-Fraction
        construction) but does **not** increment
        :func:`opacity_simulations_run`; it records a ``derived`` event in
        :func:`~repro.graph.deltas.view_maintenance_stats` instead.

        Returns ``None`` when derivation is unavailable: non-local or
        mismatched adversary, the source graph is gone, or the target is
        mid-batch.
        """
        if self.adversary_key != adversary_fingerprint(adversary):
            return None
        if not adversary_supports_deltas(adversary):
            return None
        source = self._graph_ref()
        if source is None or source is account_graph or account_graph.in_batch:
            return None
        derived = CompiledOpacityView(
            graph_version=account_graph.version,
            node_count=self.node_count,
            focus_weights=dict(self.focus_weights),
            inference_weights=dict(self.inference_weights),
            total_focus=self.total_focus,
            total_inference=self.total_inference,
            guess_denominators={},
            adversary_key=self.adversary_key,
            _graph_ref=weakref.ref(account_graph),
            _total_focus_exact=self._total_focus_exact,
            _total_inference_exact=self._total_inference_exact,
            _inference_value_counts=Counter(self._inference_value_counts),
            _denominators_stale=True,
        )
        affected = set()
        for node_id in self.focus_weights:
            if not account_graph.has_node(node_id):
                affected.add(node_id)
        for node_id in account_graph.node_ids():
            if node_id not in self.focus_weights or not account_graph.same_neighborhood(
                source, node_id
            ):
                affected.add(node_id)
        derived._reweigh(account_graph, adversary, affected)
        record_maintenance("opacity_view", "derived")
        return derived

    def _reweigh(
        self, graph: PropertyGraph, adversary: AttackerModel, affected: Iterable[NodeId]
    ) -> None:
        """Re-evaluate the weights of ``affected`` nodes against ``graph``.

        Handles appearance and disappearance uniformly: a node whose weights
        moved has its old contribution (if any) subtracted exactly and its
        new one (if it is still in the graph) added exactly.  A node whose
        weights did not move costs one adversary call per weight.  Bumps
        ``weights_revision`` once when any weight moved.
        """
        focus_weights = self.focus_weights
        inference_weights = self.inference_weights
        value_counts = self._inference_value_counts
        total_focus = self._total_focus_exact
        total_inference = self._total_inference_exact
        moved = False
        for node_id in affected:
            old_focus = focus_weights.get(node_id)
            old_inference = inference_weights.get(node_id)
            if graph.has_node(node_id):
                new_focus = _checked_weight(
                    "focus", node_id, adversary.focus_probability(graph, node_id)
                )
                new_inference = _checked_weight(
                    "inference", node_id, adversary.inference_probability(graph, node_id)
                )
                if new_focus == old_focus and new_inference == old_inference:
                    continue
                focus_weights[node_id] = new_focus
                inference_weights[node_id] = new_inference
                total_focus += Fraction(new_focus)
                total_inference += Fraction(new_inference)
                value_counts[new_inference] += 1
            elif old_focus is None:
                continue
            else:
                del focus_weights[node_id]
                del inference_weights[node_id]
            moved = True
            if old_focus is not None:
                total_focus -= Fraction(old_focus)
                total_inference -= Fraction(old_inference)
                value_counts[old_inference] -= 1
                if not value_counts[old_inference]:
                    del value_counts[old_inference]
        if not moved:
            return
        self._total_focus_exact = total_focus
        self._total_inference_exact = total_inference
        self.total_focus = float(total_focus)
        self.total_inference = float(total_inference)
        self.node_count = len(focus_weights)
        self._denominators_stale = True
        self.weights_revision += 1

    def _leave_one_out_by_value(self) -> Dict[float, float]:
        """The leave-one-out denominator per distinct inference weight value."""
        total = self._total_inference_exact
        return {
            weight: float(total - Fraction(weight))
            for weight in self._inference_value_counts
        }

    def _refresh_denominators(self) -> None:
        """Rebuild the leave-one-out denominators from the exact total."""
        loo_by_value = self._leave_one_out_by_value()
        self.guess_denominators = {
            node_id: loo_by_value[weight]
            for node_id, weight in self.inference_weights.items()
        }
        self._denominators_stale = False

    def denominators(self) -> Dict[NodeId, float]:
        """The per-node leave-one-out guess denominators (refreshed if stale)."""
        if self._denominators_stale:
            self._refresh_denominators()
        return self.guess_denominators

    def is_current_for(
        self, account_graph: PropertyGraph, adversary: AttackerModel
    ) -> bool:
        """True when this view was compiled against exactly this simulation.

        Checks graph *identity* (weakref — a recycled ``id()`` can never
        alias a dead graph), the graph's mutation counter and the
        adversary's fingerprint.
        """
        return (
            self._graph_ref() is account_graph
            and self.graph_version == account_graph.version
            and self.adversary_key == adversary_fingerprint(adversary)
        )

    # ------------------------------------------------------------------ #
    # the Figure-4 formula, O(1) per edge
    # ------------------------------------------------------------------ #
    def inference_likelihood(
        self,
        account_source: NodeId,
        account_target: NodeId,
        *,
        normalize_focus: bool = False,
    ) -> float:
        """``I`` — probability the attacker names the hidden edge from either endpoint.

        The one-pair case of :meth:`inference_likelihoods`, so single-edge
        reads and batch scoring share one arithmetic.
        """
        return self.inference_likelihoods(
            [(account_source, account_target)], normalize_focus=normalize_focus
        )[0]

    def inference_likelihoods(
        self,
        pairs: List[Tuple[NodeId, NodeId]],
        *,
        normalize_focus: bool = False,
    ) -> List[float]:
        """``I`` for many ``(account source, account target)`` pairs, O(1) each.

        ``I = FP(s)·guess(s → t) + FP(t)·guess(t → s)``, clamped to
        ``[0, 1]``, where ``guess(u → v) = IP(v) / Σ_{w ≠ u} IP(w)`` (zero
        when that denominator is).  The denominator depends only on
        ``IP(u)``'s value, so it is read off one small per-value table
        instead of the per-node ``guess_denominators`` — a patched view
        never has to rebuild that O(V) table just to be read.  Each
        degenerate input has an explicit branch (pinned by dedicated unit
        tests in ``tests/core/test_opacity.py``) rather than relying on the
        arithmetic falling through to zero.
        """
        if self.node_count < 2:
            # A single-node account graph offers no far endpoint to name.
            return [0.0] * len(pairs)
        if self.total_inference == 0.0:
            # All-zero inference weights: every guess has zero mass.
            return [0.0] * len(pairs)
        total_focus = self.total_focus
        if normalize_focus and total_focus <= 0.0:
            # Normalised focus over zero total attention is no attention.
            return [0.0] * len(pairs)
        focus = self.focus_weights
        inference = self.inference_weights
        leave_one_out = self._leave_one_out_by_value()
        likelihoods: List[float] = []
        for source, target in pairs:
            source_focus = focus[source]
            target_focus = focus[target]
            if normalize_focus:
                source_focus /= total_focus
                target_focus /= total_focus
            source_inference = inference[source]
            target_inference = inference[target]
            source_denominator = leave_one_out[source_inference]
            target_denominator = leave_one_out[target_inference]
            likelihood = source_focus * (
                target_inference / source_denominator if source_denominator > 0 else 0.0
            ) + target_focus * (
                source_inference / target_denominator if target_denominator > 0 else 0.0
            )
            likelihoods.append(max(0.0, min(1.0, likelihood)))
        return likelihoods

    def _guess(self, from_node: NodeId, to_node: NodeId) -> float:
        """P(attacker focused on ``from_node`` names ``to_node`` as the other endpoint)."""
        denominator = self._leave_one_out_by_value()[self.inference_weights[from_node]]
        if denominator <= 0:
            return 0.0
        return self.inference_weights[to_node] / denominator


class OpacityViewCache:
    """A bounded LRU of compiled opacity views, keyed by (graph, adversary).

    Serving layers (:meth:`ProtectionService.score
    <repro.api.service.ProtectionService.score>`, checkpoint restore and
    followers) keep one of these so repeated scoring of the same account
    graph — including accounts replayed from the
    :class:`~repro.api.cache.AccountCache` — reuses the compiled simulation
    instead of re-running it.  It holds *shared* views, handed to any
    caller, which is why :meth:`on_delta` patches by copy.  A view with a
    single owner does not belong here: an
    :class:`~repro.api.editing.EditSession` compiles its account's
    simulation itself and patches it in place.  Keys embed the graph's
    ``id()`` and version plus the adversary fingerprint; hits additionally
    prove graph identity through the view's weakref, so a recycled ``id()``
    can never alias a dead graph.  All map operations take the cache's lock, so
    a shared :class:`~repro.api.service.ProtectionService` may score from
    concurrent threads (the O(V) compile itself runs outside the lock; two
    racing threads may both simulate, but neither can corrupt the LRU).
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"view cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, CompiledOpacityView]" = OrderedDict()

    def get_or_compile(
        self,
        account_graph: PropertyGraph,
        adversary: AttackerModel,
        derive_from: Tuple[PropertyGraph, ...] = (),
    ) -> CompiledOpacityView:
        """The cached view for this simulation, compiling (and storing) on miss.

        ``derive_from`` names related graphs (e.g. the sub-accounts and
        merged account of one multi-privilege family) whose cached views may
        seed this one through :meth:`CompiledOpacityView.derive_for` — a
        derivation is exact and runs **zero** new adversary simulations.
        """
        key = (
            id(account_graph),
            account_graph.version,
            adversary_fingerprint(adversary),
        )
        with self._lock:
            view = self._entries.get(key)
            if view is not None and view.is_current_for(account_graph, adversary):
                self._entries.move_to_end(key)
                return view
            if view is not None:
                del self._entries[key]
            seeds = [
                seed_view
                for seed in derive_from
                if seed is not account_graph
                for seed_view in (
                    self._entries.get(
                        (id(seed), seed.version, adversary_fingerprint(adversary))
                    ),
                )
                if seed_view is not None and seed_view.is_current_for(seed, adversary)
            ]
        view = None
        for seed_view in seeds:
            view = seed_view.derive_for(account_graph, adversary)
            if view is not None:
                break
        if view is None:
            view = CompiledOpacityView.compile(account_graph, adversary)
        with self._lock:
            self._entries.pop(key, None)
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
            self._entries[key] = view
        return view

    def peek(
        self,
        account_graph: PropertyGraph,
        adversary: AttackerModel,
    ) -> Optional[CompiledOpacityView]:
        """The cached current view, or ``None`` — no LRU touch, no compile.

        Parallel warm-up (:meth:`ProtectionService.warm_opacity_views
        <repro.api.service.ProtectionService.warm_opacity_views>`) peeks
        before fanning simulations out to worker processes, so already
        warm graphs are never re-shipped.
        """
        key = (
            id(account_graph),
            account_graph.version,
            adversary_fingerprint(adversary),
        )
        with self._lock:
            view = self._entries.get(key)
            if view is not None and view.is_current_for(account_graph, adversary):
                return view
            return None

    def seed(
        self,
        account_graph: PropertyGraph,
        adversary: AttackerModel,
        view: CompiledOpacityView,
    ) -> None:
        """Insert an externally rebuilt view (warm-restart checkpoint restore).

        The view must already be current for ``(account_graph, adversary)``;
        stale or mismatched seeds are ignored rather than poisoning the
        cache — :meth:`get_or_compile` would reject them on lookup anyway.
        """
        if not view.is_current_for(account_graph, adversary):
            return
        key = (
            id(account_graph),
            account_graph.version,
            adversary_fingerprint(adversary),
        )
        with self._lock:
            self._entries.pop(key, None)
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
            self._entries[key] = view

    def on_delta(self, graph: PropertyGraph, delta: "GraphDelta") -> None:
        """Delta-scoped maintenance: patch this graph's views, drop corpses.

        Called through the service's :class:`~repro.graph.deltas.DeltaBus`.
        Views of ``graph`` sitting exactly at the delta's pre-version are
        replaced by a patched *copy* (when their adversary is recoverable
        and delta-local) keyed under the new version, so the next
        ``score()`` still hits; anything else of this graph is stale by
        definition and evicted immediately instead of lingering until LRU
        pressure finds it.  Copy-on-patch keeps views immutable once handed
        out: a concurrent reader holding the old object sees a consistent
        stale snapshot (which :meth:`~CompiledOpacityView.is_current_for`
        rejects), never a view mutating underneath it.
        """
        with self._lock:
            candidates = []
            for key in list(self._entries):
                view = self._entries[key]
                if view._graph_ref() is not graph:
                    continue
                del self._entries[key]
                if view.graph_version == delta.pre_version and hasattr(
                    view.adversary_key, "focus_probability"
                ):
                    candidates.append(view)
        # Patch outside the lock: the copy is O(V) and runs adversary
        # callbacks (user code); concurrent score() traffic must not queue
        # behind it, and a callback that re-enters the cache must not
        # deadlock.
        for view in candidates:
            patched = view.patched_copy(delta, view.adversary_key)
            if patched is not None:
                with self._lock:
                    while len(self._entries) >= self.capacity:
                        self._entries.popitem(last=False)
                    self._entries[
                        (id(graph), patched.graph_version, patched.adversary_key)
                    ] = patched

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def opacity(
    original: PropertyGraph,
    account: ProtectedAccount,
    edge: EdgeKey,
    *,
    adversary: Optional[AttackerModel] = None,
    normalize_focus: bool = False,
    view: Optional[CompiledOpacityView] = None,
) -> float:
    """Opacity of one original edge with respect to a protected account (Figure 4).

    Pass ``view`` (a current :class:`CompiledOpacityView`) to skip the O(V)
    setup; callers scoring many edges should prefer :func:`opacity_many`,
    which compiles at most one view for the whole batch.  This is exactly
    the one-edge case of that batch core, so the two can never diverge.
    """
    values, _ = _batch_opacity(
        original, account, [edge], adversary, normalize_focus, view
    )
    return values[tuple(edge)]


def hidden_edges(original: PropertyGraph, account: ProtectedAccount) -> List[EdgeKey]:
    """Original edges that the account does not show between corresponding nodes."""
    return [
        edge.key
        for edge in original.edges()
        if not account.contains_original_edge(edge.source, edge.target)
    ]


def _batch_opacity(
    original: PropertyGraph,
    account: ProtectedAccount,
    edges: Iterable[EdgeKey],
    adversary: Optional[AttackerModel],
    normalize_focus: bool,
    view: Optional[CompiledOpacityView],
    view_factory: Optional[Callable[[], CompiledOpacityView]] = None,
) -> Tuple[Dict[EdgeKey, float], Optional[CompiledOpacityView]]:
    """Shared batch core: per-edge opacity plus the view that scored it.

    One pass classifies every edge off a single fetch of the account's
    reverse correspondence: shown edges score 0, edges with an endpoint the
    account cannot name score 1, and the rest go to one
    :meth:`CompiledOpacityView.inference_likelihoods` call.  Values keep
    the order of ``edges``.  The view is compiled lazily — an account that
    shows (or cannot name) every scored edge never pays for a simulation —
    and validated once per batch.  ``view_factory`` (when given) supplies
    the view at that point of need instead of a direct compile; serving
    layers pass their :class:`OpacityViewCache` through it.  A stale view
    from either source is recompiled, never trusted.
    """
    adversary = adversary if adversary is not None else DEFAULT_ADVERSARY
    account_node_of = account._reverse().get
    shown = account.graph.has_edge
    values: Dict[EdgeKey, float] = {}
    inferred_keys: List[EdgeKey] = []
    inferred_pairs: List[Tuple[NodeId, NodeId]] = []
    for source, target in edges:
        key = (source, target)
        account_source = account_node_of(source)
        account_target = account_node_of(target)
        if account_source is None or account_target is None:
            values[key] = 1.0
        elif shown(account_source, account_target):
            values[key] = 0.0
        else:
            values[key] = 1.0  # placeholder, keeps the key's position
            inferred_keys.append(key)
            inferred_pairs.append((account_source, account_target))
    if inferred_pairs:
        if view is None or not view.is_current_for(account.graph, adversary):
            if view_factory is not None:
                view = view_factory()
            if view is None or not view.is_current_for(account.graph, adversary):
                view = CompiledOpacityView.compile(account.graph, adversary)
        likelihoods = view.inference_likelihoods(
            inferred_pairs, normalize_focus=normalize_focus
        )
        for key, inference in zip(inferred_keys, likelihoods):
            values[key] = max(0.0, min(1.0, 1.0 - inference))
    return values, view


def opacity_many(
    original: PropertyGraph,
    account: ProtectedAccount,
    edges: Iterable[EdgeKey],
    *,
    adversary: Optional[AttackerModel] = None,
    normalize_focus: bool = False,
    view: Optional[CompiledOpacityView] = None,
) -> Dict[EdgeKey, float]:
    """Per-edge opacity for many edges off **one** adversary simulation.

    O(V + k) for k edges — the batch entry point every aggregate
    (:func:`opacity_profile`, :func:`average_opacity`,
    :func:`opacity_report`) and the serving stack build on.  ``view``
    optionally supplies an already-compiled simulation (it is revalidated,
    and recompiled if stale).
    """
    values, _ = _batch_opacity(original, account, edges, adversary, normalize_focus, view)
    return values


def opacity_profile(
    original: PropertyGraph,
    account: ProtectedAccount,
    edges: Optional[Iterable[EdgeKey]] = None,
    *,
    adversary: Optional[AttackerModel] = None,
    normalize_focus: bool = False,
    view: Optional[CompiledOpacityView] = None,
) -> Dict[EdgeKey, float]:
    """Per-edge opacity for a set of original edges (default: every hidden edge)."""
    if edges is None:
        edges = hidden_edges(original, account)
    return opacity_many(
        original,
        account,
        edges,
        adversary=adversary,
        normalize_focus=normalize_focus,
        view=view,
    )


def average_opacity(
    original: PropertyGraph,
    account: ProtectedAccount,
    edges: Optional[Iterable[EdgeKey]] = None,
    *,
    adversary: Optional[AttackerModel] = None,
    normalize_focus: bool = False,
    view: Optional[CompiledOpacityView] = None,
) -> float:
    """Average opacity over a set of original edges.

    The default edge set is every original edge the account hides; Section
    4.2 notes this average is how an administrator evaluates whole-account
    trade-offs.  Returns 1.0 when there is nothing hidden (nothing can be
    inferred).
    """
    profile = opacity_profile(
        original,
        account,
        edges,
        adversary=adversary,
        normalize_focus=normalize_focus,
        view=view,
    )
    if not profile:
        return 1.0
    return sum(profile.values()) / len(profile)


@dataclass(frozen=True)
class OpacityReport:
    """Average and per-edge opacity for one account (used by experiment drivers).

    ``view`` carries the compiled adversary simulation that scored the
    report (when one was needed), so cached results — e.g.
    :class:`~repro.api.cache.AccountCache` entries, whose ScoreCards embed
    their reports — keep the simulation alive for replay without re-running
    it.  It is excluded from comparison and from :meth:`as_dict`.
    """

    average: float
    per_edge: Dict[EdgeKey, float]
    view: Optional[CompiledOpacityView] = field(default=None, compare=False, repr=False)

    def minimum(self) -> float:
        """The least-protected hidden edge's opacity (1.0 when nothing is hidden)."""
        return min(self.per_edge.values(), default=1.0)

    def as_dict(self) -> Dict[str, object]:
        """The two headline numbers (the shape reports and ``--json`` use)."""
        return {"average_opacity": round(self.average, 6), "min_opacity": round(self.minimum(), 6)}


def opacity_report(
    original: PropertyGraph,
    account: ProtectedAccount,
    edges: Optional[Iterable[EdgeKey]] = None,
    *,
    adversary: Optional[AttackerModel] = None,
    normalize_focus: bool = False,
    view: Optional[CompiledOpacityView] = None,
    view_factory: Optional[Callable[[], CompiledOpacityView]] = None,
) -> OpacityReport:
    """Build an :class:`OpacityReport` for a set of edges (default: all hidden).

    One compiled view scores every edge; the view used (if any) rides along
    on the report so callers can reuse it for later batches.  The view is
    obtained lazily — from ``view``, else ``view_factory`` (how
    :meth:`ProtectionService.score
    <repro.api.service.ProtectionService.score>` threads its
    :class:`OpacityViewCache` in), else a direct compile — and only when
    some scored edge actually needs inference.
    """
    if edges is None:
        edges = hidden_edges(original, account)
    profile, used_view = _batch_opacity(
        original, account, edges, adversary, normalize_focus, view, view_factory
    )
    average = sum(profile.values()) / len(profile) if profile else 1.0
    return OpacityReport(average=average, per_edge=profile, view=used_view)
