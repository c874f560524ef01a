"""Unit tests for the Path Utility and Node Utility measures (Figure 3)."""

import pytest

from repro.core.generation import build_protected_account
from repro.core.hiding import naive_protected_account
from repro.core.protected_account import ProtectedAccount
from repro.core.utility import (
    info_score,
    node_utility,
    path_percentage,
    path_percentages,
    path_utility,
    utility_report,
)
from repro.graph.builders import graph_from_edges
from repro.graph.model import PropertyGraph
from repro.workloads.social import figure1_example, figure2_variant


@pytest.fixture
def naive_figure1_account(figure1):
    return naive_protected_account(figure1.graph, figure1.policy, figure1.high2)


class TestPathPercentage:
    def test_paper_worked_example_percentages(self, figure1, naive_figure1_account):
        # %P(b') = 1/10 and %P(h') = 3/10, exactly as printed in the paper.
        assert path_percentage(figure1.graph, naive_figure1_account, "b") == pytest.approx(0.1)
        assert path_percentage(figure1.graph, naive_figure1_account, "h") == pytest.approx(0.3)

    def test_unrepresented_node_contributes_zero(self, figure1, naive_figure1_account):
        assert path_percentage(figure1.graph, naive_figure1_account, "f") == 0.0

    def test_isolated_original_node_scores_one_if_kept(self, basic_policy):
        graph = graph_from_edges([("a", "b")], nodes=["isolated"])
        account = build_protected_account(graph, basic_policy, "Public")
        assert path_percentage(graph, account, "isolated") == 1.0

    def test_percentages_cover_all_original_nodes(self, figure1, naive_figure1_account):
        percentages = path_percentages(figure1.graph, naive_figure1_account)
        assert set(percentages) == set(figure1.graph.node_ids())


class TestPathUtility:
    def test_naive_account_matches_paper_value(self, figure1, naive_figure1_account):
        assert path_utility(figure1.graph, naive_figure1_account) == pytest.approx(14 / 110)

    @pytest.mark.parametrize(
        "variant, expected",
        [("a", 42 / 110), ("b", 30 / 110), ("c", 14 / 110), ("d", 30 / 110)],
    )
    def test_figure2_accounts_match_paper_values(self, variant, expected):
        example = figure2_variant(variant)
        account = build_protected_account(example.graph, example.policy, example.high2)
        assert path_utility(example.graph, account) == pytest.approx(expected, abs=1e-9)

    def test_identity_account_has_utility_one(self, figure1):
        account = build_protected_account(figure1.graph, figure1.policy, "High-1")
        assert path_utility(figure1.graph, account) == pytest.approx(1.0)

    def test_empty_original_graph(self):
        empty = PropertyGraph()
        account = ProtectedAccount(graph=PropertyGraph(), correspondence={})
        assert path_utility(empty, account) == 1.0


class TestNodeUtility:
    def test_all_or_nothing_account_scores_fraction_of_nodes(self, figure1, naive_figure1_account):
        assert node_utility(figure1.graph, naive_figure1_account) == pytest.approx(6 / 11)

    def test_surrogates_score_by_feature_overlap(self, chain_graph, basic_policy):
        chain_graph.set_node_features("c", {"name": "C", "secret": "x"})
        basic_policy.set_lowest("c", "Secret")
        basic_policy.add_surrogate("c", "Public", surrogate_id="c_prime", features={"name": "C"})
        account = build_protected_account(chain_graph, basic_policy, "Public")
        # 3 originals at 1.0 plus one surrogate at 0.5, over 4 original nodes.
        assert node_utility(chain_graph, account) == pytest.approx((3 + 0.5) / 4)

    def test_explicit_scores_override_heuristic(self, chain_graph, basic_policy):
        chain_graph.set_node_features("c", {"name": "C", "secret": "x"})
        basic_policy.set_lowest("c", "Secret")
        basic_policy.add_surrogate("c", "Public", surrogate_id="c_prime", features={})
        account = build_protected_account(chain_graph, basic_policy, "Public")
        default_value = node_utility(chain_graph, account)
        boosted = node_utility(chain_graph, account, explicit_scores={"c_prime": 1.0})
        assert boosted > default_value
        assert boosted == pytest.approx(1.0)

    def test_info_score_of_original_node_is_one(self, figure1, naive_figure1_account):
        assert info_score(figure1.graph, naive_figure1_account, "b") == 1.0

    def test_explicit_scores_are_clamped(self, chain_graph, basic_policy):
        account = build_protected_account(chain_graph, basic_policy, "Public")
        assert info_score(chain_graph, account, "a", explicit_scores={"a": 7.0}) == 1.0
        assert info_score(chain_graph, account, "a", explicit_scores={"a": -2.0}) == 0.0


class TestUtilityReport:
    def test_report_combines_both_measures(self, figure1, naive_figure1_account):
        report = utility_report(figure1.graph, naive_figure1_account)
        assert report.path_utility == pytest.approx(14 / 110)
        assert report.node_utility == pytest.approx(6 / 11)
        assert report.as_dict()["path_utility"] == pytest.approx(0.127273, abs=1e-6)
        assert set(report.path_percentages) == set(figure1.graph.node_ids())
