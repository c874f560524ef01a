"""Unit tests for the opacity measure and attacker models (Figures 4-5)."""

from dataclasses import dataclass

import pytest

from repro.core.generation import build_protected_account
from repro.core.hiding import naive_protected_account
from repro.core.opacity import (
    AdvancedAdversary,
    CompiledOpacityView,
    NaiveAdversary,
    OpacityViewCache,
    average_opacity,
    hidden_edges,
    opacity,
    opacity_many,
    opacity_profile,
    opacity_report,
    opacity_simulations_run,
)
from repro.core.reference import inference_likelihood_reference, opacity_reference
from repro.core.policy import ReleasePolicy
from repro.graph.builders import graph_from_edges
from repro.graph.model import PropertyGraph
from repro.workloads.social import SENSITIVE_EDGE, figure2_variant


def _account_for(variant):
    example = figure2_variant(variant)
    return example, build_protected_account(example.graph, example.policy, example.high2)


class TestOpacityBaseCases:
    def test_edge_present_in_account_has_zero_opacity(self):
        example, account = _account_for("a")
        assert opacity(example.graph, account, SENSITIVE_EDGE) == 0.0

    def test_missing_endpoint_gives_full_opacity(self):
        example, account = _account_for("b")
        assert opacity(example.graph, account, SENSITIVE_EDGE) == 1.0

    def test_partial_opacity_when_both_endpoints_present(self):
        example, account = _account_for("c")
        value = opacity(example.graph, account, SENSITIVE_EDGE)
        assert 0.0 < value < 1.0

    def test_values_always_in_unit_interval(self, chain_graph, basic_policy):
        account = build_protected_account(chain_graph, basic_policy, "Public")
        for edge in chain_graph.edge_keys():
            assert 0.0 <= opacity(chain_graph, account, edge) <= 1.0


class TestTable1Ordering:
    def test_paper_ordering_of_figure2_accounts(self):
        values = {}
        for variant in ("a", "b", "c", "d"):
            example, account = _account_for(variant)
            values[variant] = opacity(example.graph, account, SENSITIVE_EDGE)
        assert values["a"] == 0.0
        assert values["b"] == 1.0
        assert values["a"] < values["c"] < values["d"] < values["b"]

    def test_ordering_holds_with_paper_figure5_constants(self):
        adversary = AdvancedAdversary.figure5()
        values = {}
        for variant in ("a", "b", "c", "d"):
            example, account = _account_for(variant)
            values[variant] = opacity(example.graph, account, SENSITIVE_EDGE, adversary=adversary)
        assert values["a"] < values["c"] < values["d"] < values["b"]

    def test_ordering_holds_with_normalised_focus(self):
        values = {}
        for variant in ("a", "b", "c", "d"):
            example, account = _account_for(variant)
            values[variant] = opacity(
                example.graph, account, SENSITIVE_EDGE, normalize_focus=True
            )
        assert values["a"] < values["c"] < values["d"] < values["b"]


class TestAdversaries:
    def test_naive_adversary_never_infers(self):
        example, account = _account_for("c")
        assert opacity(example.graph, account, SENSITIVE_EDGE, adversary=NaiveAdversary()) == 1.0

    def test_advanced_adversary_focuses_on_loners(self):
        graph = graph_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("c", "e")])
        adversary = AdvancedAdversary()
        assert adversary.focus_probability(graph, "a") == adversary.loner_focus
        assert adversary.focus_probability(graph, "c") == adversary.other_focus
        graph.add_node("isolated")
        assert adversary.focus_probability(graph, "isolated") == adversary.isolated_focus

    def test_figure5_constants_are_two_tier(self):
        adversary = AdvancedAdversary.figure5()
        graph = graph_from_edges([("a", "b")], nodes=["isolated"])
        assert adversary.focus_probability(graph, "isolated") == adversary.loner_focus

    def test_adding_a_surrogate_edge_raises_opacity_of_isolated_endpoint(self, chain_graph, basic_policy):
        from repro.api import ProtectionService

        service = ProtectionService(chain_graph, basic_policy)
        accounts = {
            strategy: service.protect(
                privilege="Public", protect_edges=[("a", "b")], strategy=strategy, score=False
            ).account
            for strategy in ("hide", "surrogate")
        }
        hide_value = opacity(chain_graph, accounts["hide"], ("a", "b"))
        surrogate_value = opacity(chain_graph, accounts["surrogate"], ("a", "b"))
        assert surrogate_value >= hide_value


class TestAggregates:
    def test_hidden_edges_enumeration(self, figure1):
        account = naive_protected_account(figure1.graph, figure1.policy, figure1.high2)
        hidden = set(hidden_edges(figure1.graph, account))
        assert ("c", "f") in hidden and ("f", "g") in hidden
        assert ("b", "c") not in hidden

    def test_opacity_profile_defaults_to_hidden_edges(self, figure1):
        account = naive_protected_account(figure1.graph, figure1.policy, figure1.high2)
        profile = opacity_profile(figure1.graph, account)
        assert set(profile) == set(hidden_edges(figure1.graph, account))
        assert all(0.0 <= value <= 1.0 for value in profile.values())

    def test_average_opacity_over_specific_edges(self, figure1):
        account = naive_protected_account(figure1.graph, figure1.policy, figure1.high2)
        value = average_opacity(figure1.graph, account, [("c", "f"), ("f", "g")])
        assert value == 1.0  # f is unrepresented in the naive account

    def test_average_opacity_when_nothing_hidden(self, chain_graph, basic_policy):
        account = build_protected_account(chain_graph, basic_policy, "Public")
        assert average_opacity(chain_graph, account) == 1.0

    def test_opacity_report(self, figure1):
        account = naive_protected_account(figure1.graph, figure1.policy, figure1.high2)
        report = opacity_report(figure1.graph, account)
        assert report.average == pytest.approx(
            sum(report.per_edge.values()) / len(report.per_edge)
        )
        assert 0.0 <= report.minimum() <= 1.0
        assert "average_opacity" in report.as_dict()


@dataclass(frozen=True)
class _ConstantAdversary:
    """Fixed focus/inference weights for every node (edge-case fixtures)."""

    focus: float
    inference: float

    def focus_probability(self, account_graph, node_id):
        return self.focus

    def inference_probability(self, account_graph, node_id):
        return self.inference


@dataclass(frozen=True)
class _SingleHolderAdversary:
    """All inference mass on one designated node (degenerate denominators)."""

    holder: str

    def focus_probability(self, account_graph, node_id):
        return 0.5

    def inference_probability(self, account_graph, node_id):
        return 1.0 if node_id == self.holder else 0.0


class TestEdgeCaseBranches:
    """The explicit degenerate-input branches of the inference likelihood.

    Each edge case named by the compiled engine (and mirrored in the
    paper-literal reference) used to be an implicit arithmetic fallthrough;
    these tests pin the branch *and* the compiled == reference agreement on
    exactly these inputs.
    """

    def _likelihoods(self, account_graph, source, target, adversary, *, normalize_focus=False):
        """(compiled, reference) likelihood pair for one endpoint pairing."""
        view = CompiledOpacityView.compile(account_graph, adversary)
        compiled = view.inference_likelihood(source, target, normalize_focus=normalize_focus)
        reference = inference_likelihood_reference(
            account_graph, source, target, adversary, normalize_focus=normalize_focus
        )
        return compiled, reference

    def test_single_node_account_graph_infers_nothing(self):
        account_graph = PropertyGraph(name="lonely")
        account_graph.add_node("only")
        for normalize_focus in (False, True):
            compiled, reference = self._likelihoods(
                account_graph, "only", "only", AdvancedAdversary(), normalize_focus=normalize_focus
            )
            assert compiled == 0.0
            assert reference == 0.0

    def test_empty_account_graph_infers_nothing(self):
        account_graph = PropertyGraph(name="void")
        view = CompiledOpacityView.compile(account_graph, AdvancedAdversary())
        assert view.node_count == 0
        assert view.inference_likelihood("ghost-a", "ghost-b") == 0.0

    def test_all_zero_inference_weights_give_zero_likelihood(self):
        account_graph = graph_from_edges([("a", "b"), ("b", "c")])
        adversary = _ConstantAdversary(focus=0.7, inference=0.0)
        for normalize_focus in (False, True):
            compiled, reference = self._likelihoods(
                account_graph, "a", "c", adversary, normalize_focus=normalize_focus
            )
            assert compiled == 0.0
            assert reference == 0.0
        view = CompiledOpacityView.compile(account_graph, adversary)
        assert view.total_inference == 0.0
        assert all(value == 0.0 for value in view.guess_denominators.values())

    def test_naive_adversary_is_the_all_zero_case_end_to_end(self):
        example = figure2_variant("c")
        account = build_protected_account(example.graph, example.policy, example.high2)
        value = opacity(example.graph, account, SENSITIVE_EDGE, adversary=NaiveAdversary())
        assert value == 1.0
        assert value == opacity_reference(
            example.graph, account, SENSITIVE_EDGE, adversary=NaiveAdversary()
        )

    def test_normalized_focus_with_zero_focus_total(self):
        account_graph = graph_from_edges([("a", "b"), ("b", "c")])
        adversary = _ConstantAdversary(focus=0.0, inference=0.4)
        compiled, reference = self._likelihoods(
            account_graph, "a", "c", adversary, normalize_focus=True
        )
        assert compiled == 0.0
        assert reference == 0.0
        # The raw-focus reading degenerates identically (all weights zero).
        compiled_raw, reference_raw = self._likelihoods(
            account_graph, "a", "c", adversary, normalize_focus=False
        )
        assert compiled_raw == 0.0
        assert reference_raw == 0.0

    def test_non_finite_weights_are_rejected_identically_on_both_paths(self):
        account_graph = graph_from_edges([("a", "b"), ("b", "c")])
        adversary = _ConstantAdversary(focus=float("inf"), inference=0.4)
        with pytest.raises(ValueError, match="non-finite focus weight"):
            CompiledOpacityView.compile(account_graph, adversary)
        with pytest.raises(ValueError, match="non-finite focus weight"):
            inference_likelihood_reference(
                account_graph, "a", "c", adversary, normalize_focus=False
            )
        nan_adversary = _ConstantAdversary(focus=0.4, inference=float("nan"))
        with pytest.raises(ValueError, match="non-finite inference weight"):
            CompiledOpacityView.compile(account_graph, nan_adversary)
        with pytest.raises(ValueError, match="non-finite inference weight"):
            inference_likelihood_reference(
                account_graph, "a", "c", nan_adversary, normalize_focus=False
            )

    def test_negative_weights_are_clamped_to_zero(self):
        account_graph = graph_from_edges([("a", "b"), ("b", "c")])
        adversary = _ConstantAdversary(focus=-0.5, inference=-1.0)
        view = CompiledOpacityView.compile(account_graph, adversary)
        assert all(value == 0.0 for value in view.focus_weights.values())
        assert all(value == 0.0 for value in view.inference_weights.values())
        compiled, reference = self._likelihoods(account_graph, "a", "c", adversary)
        assert compiled == 0.0 == reference

    def test_single_inference_holder_zeroes_its_own_guess_only(self):
        account_graph = graph_from_edges([("a", "b"), ("b", "c")])
        adversary = _SingleHolderAdversary(holder="a")
        view = CompiledOpacityView.compile(account_graph, adversary)
        # Guessing *from* the holder leaves no mass for the far endpoint ...
        assert view.guess_denominators["a"] == 0.0
        assert view._guess("a", "c") == 0.0
        # ... while guessing from anywhere else finds the holder with certainty.
        assert view.guess_denominators["c"] == 1.0
        assert view._guess("c", "a") == 1.0
        compiled, reference = self._likelihoods(account_graph, "a", "c", adversary)
        assert compiled == reference
        assert 0.0 < compiled <= 1.0


class TestCompiledEngine:
    """Behavioural contract of the compiled view, batch path and view cache."""

    def test_compile_counter_counts_simulations(self):
        account_graph = graph_from_edges([("a", "b")])
        before = opacity_simulations_run()
        CompiledOpacityView.compile(account_graph, AdvancedAdversary())
        CompiledOpacityView.compile(account_graph, AdvancedAdversary())
        assert opacity_simulations_run() == before + 2

    def test_view_cache_reuses_until_graph_version_changes(self):
        account_graph = graph_from_edges([("a", "b"), ("b", "c")])
        cache = OpacityViewCache()
        before = opacity_simulations_run()
        first = cache.get_or_compile(account_graph, AdvancedAdversary())
        again = cache.get_or_compile(account_graph, AdvancedAdversary())
        assert again is first
        assert opacity_simulations_run() == before + 1
        account_graph.add_node("fresh")
        replaced = cache.get_or_compile(account_graph, AdvancedAdversary())
        assert replaced is not first
        assert opacity_simulations_run() == before + 2

    def test_view_cache_distinguishes_adversaries_by_value(self):
        account_graph = graph_from_edges([("a", "b")])
        cache = OpacityViewCache()
        advanced = cache.get_or_compile(account_graph, AdvancedAdversary())
        same_config = cache.get_or_compile(account_graph, AdvancedAdversary())
        figure5 = cache.get_or_compile(account_graph, AdvancedAdversary.figure5())
        assert same_config is advanced
        assert figure5 is not advanced

    def test_batch_compiles_at_most_one_view(self, figure1):
        account = naive_protected_account(figure1.graph, figure1.policy, figure1.high2)
        edges = list(figure1.graph.edge_keys())
        before = opacity_simulations_run()
        values = opacity_many(figure1.graph, account, edges)
        assert opacity_simulations_run() <= before + 1
        assert set(values) == set(edges)

    def test_batch_without_inferable_edges_never_simulates(self, chain_graph, basic_policy):
        account = build_protected_account(chain_graph, basic_policy, "Public")
        shown = [
            edge
            for edge in chain_graph.edge_keys()
            if account.contains_original_edge(*edge)
        ]
        before = opacity_simulations_run()
        values = opacity_many(chain_graph, account, shown)
        assert opacity_simulations_run() == before  # all edges shown: no simulation
        assert all(value == 0.0 for value in values.values())

    def test_view_cache_is_safe_under_threaded_eviction_churn(self):
        """More live graphs than capacity + concurrent callers: no KeyError,
        no stale view — the races the service's thread-safety note promises
        away."""
        import threading

        cache = OpacityViewCache(capacity=2)
        graphs = [graph_from_edges([("a", "b"), ("b", "c")]) for _ in range(6)]
        errors = []

        def worker():
            try:
                for _ in range(40):
                    for graph in graphs:
                        view = cache.get_or_compile(graph, AdvancedAdversary())
                        assert view.is_current_for(graph, AdvancedAdversary())
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= 2

    def test_stale_view_is_recompiled_not_trusted(self, figure1):
        account = naive_protected_account(figure1.graph, figure1.policy, figure1.high2)
        view = CompiledOpacityView.compile(account.graph, AdvancedAdversary())
        account.graph.add_node("late-arrival")
        assert not view.is_current_for(account.graph, AdvancedAdversary())
        hidden = hidden_edges(figure1.graph, account)
        values = opacity_many(figure1.graph, account, hidden, view=view)
        fresh = opacity_many(figure1.graph, account, hidden)
        assert values == fresh
