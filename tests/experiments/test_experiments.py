"""Tests for the experiment drivers: every table/figure driver reproduces the
paper's qualitative claims on the reduced (quick) workloads."""

import pytest

from repro.api.requests import ProtectionRequest
from repro.api.service import ProtectionService
from repro.core.opacity import AdvancedAdversary
from repro.core.reference.opacity_reference import opacity_reference
from repro.experiments.figure7 import compare_motif, run_figure7
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.figure10 import run_figure10
from repro.experiments.reporting import format_markdown_table, format_table, mean
from repro.experiments.sweep import (
    group_by_connectivity,
    group_by_protection,
    measure_instance,
    run_synthetic_sweep,
)
from repro.experiments.table1 import PAPER_PATH_UTILITY, run_table1
from repro.workloads.motifs import motif
from repro.workloads.social import SENSITIVE_EDGE, figure2_variant
from repro.workloads.synthetic import small_family_for_tests


@pytest.fixture(scope="module")
def sweep_records():
    """One shared reduced sweep for the Figure 8/9 tests (kept small for speed)."""
    return run_synthetic_sweep(small_family_for_tests())


@pytest.fixture(scope="module")
def table1_result():
    return run_table1()


@pytest.fixture(scope="module")
def figure7_result():
    return run_figure7()


class TestReportingHelpers:
    def test_format_table_alignment_and_rounding(self):
        rows = [{"name": "x", "value": 0.123456}, {"name": "longer", "value": 2}]
        text = format_table(rows, title="demo")
        assert "demo" in text and "0.123" in text and "longer" in text

    def test_format_markdown_table(self):
        rows = [{"a": 1, "b": True}]
        text = format_markdown_table(rows)
        assert text.splitlines()[0] == "| a | b |"
        assert "| 1 | yes |" in text

    def test_empty_rows_are_handled(self):
        assert format_table([]) is not None
        assert format_markdown_table([]) is not None

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestTable1:
    def test_path_utilities_match_paper_within_rounding(self, table1_result):
        for row in table1_result.rows:
            assert row.path_utility == pytest.approx(PAPER_PATH_UTILITY[row.account], abs=0.005)

    def test_opacity_extremes_and_ordering(self, table1_result):
        by_account = {row.account: row for row in table1_result.rows}
        assert by_account["a"].opacity_fg == 0.0
        assert by_account["b"].opacity_fg == 1.0
        assert by_account["a"].opacity_fg < by_account["c"].opacity_fg
        assert by_account["c"].opacity_fg < by_account["d"].opacity_fg
        assert by_account["d"].opacity_fg < by_account["b"].opacity_fg

    def test_opacity_of_accounts_c_and_d_is_pinned(self, table1_result):
        # The paper prints 0.882 and 0.948; docs/paper_mapping.md ("Table 1
        # opacity") explains the gap.
        by_account = {row.account: row for row in table1_result.rows}
        assert round(by_account["c"].opacity_fg, 3) == 0.605
        assert round(by_account["d"].opacity_fg, 3) == 0.867

    @pytest.mark.parametrize("variant", ["c", "d"])
    def test_paper_literal_oracle_gives_the_compiled_opacity(self, table1_result, variant):
        example = figure2_variant(variant)
        adversary = AdvancedAdversary()
        service = ProtectionService(example.graph, example.policy, adversary=adversary)
        result = service.protect(
            ProtectionRequest(privileges=(example.high2,), opacity_edges=(SENSITIVE_EDGE,))
        )
        reference = opacity_reference(
            example.graph, result.account, SENSITIVE_EDGE, adversary=adversary
        )
        assert reference == result.scores.opacity.per_edge[SENSITIVE_EDGE]
        assert reference == table1_result.row(variant).opacity_fg

    def test_naive_node_utility_is_six_elevenths(self, table1_result):
        assert table1_result.row("naive").node_utility == pytest.approx(6 / 11)

    def test_rendering_includes_every_account(self, table1_result):
        text = table1_result.render()
        for account in ("naive", "a", "b", "c", "d"):
            assert account in text
        assert len(table1_result.as_rows()) == 5


class TestFigure7:
    def test_surrogating_never_worse_than_hiding(self, figure7_result):
        for comparison in figure7_result.comparisons:
            assert comparison.utility_difference >= -1e-9, comparison.motif
            assert comparison.opacity_difference >= -1e-9, comparison.motif

    def test_bipartite_and_lattice_show_no_difference(self, figure7_result):
        by_motif = figure7_result.by_motif()
        for name in ("bipartite", "lattice"):
            assert by_motif[name].utility_difference == pytest.approx(0.0)
            assert by_motif[name].opacity_difference == pytest.approx(0.0)

    def test_connectivity_restoring_motifs_gain_utility(self, figure7_result):
        by_motif = figure7_result.by_motif()
        for name in ("star", "chain", "tree", "inverted_tree"):
            assert by_motif[name].utility_difference > 0.0, name

    def test_most_motifs_gain_opacity(self, figure7_result):
        by_motif = figure7_result.by_motif()
        gaining = [name for name, row in by_motif.items() if row.opacity_difference > 0]
        assert {"star", "diamond", "tree"} <= set(gaining)

    def test_compare_motif_matches_run(self, figure7_result):
        single = compare_motif(motif("chain"))
        assert single.as_dict() == figure7_result.by_motif()["chain"].as_dict()

    def test_rendering(self, figure7_result):
        text = figure7_result.render()
        assert "bipartite" in text and "opacity_diff" in text


class TestSyntheticSweep:
    def test_record_fields(self, sweep_records):
        assert len(sweep_records) == 4
        for record in sweep_records:
            assert record.nodes == 40
            assert 0.0 <= record.utility_hide <= 1.0
            assert 0.0 <= record.opacity_surrogate <= 1.0
            assert record.protected_edges > 0
            assert "utility_diff" in record.as_dict()

    def test_surrogate_never_worse_than_hide(self, sweep_records):
        for record in sweep_records:
            assert record.utility_difference >= -1e-9
            assert record.opacity_difference >= -1e-9

    def test_grouping_helpers(self, sweep_records):
        by_protection = group_by_protection(sweep_records)
        assert set(by_protection) == {0.2, 0.6}
        by_connectivity = group_by_connectivity(sweep_records, bucket_size=10)
        assert sum(len(group) for group in by_connectivity.values()) == len(sweep_records)

    def test_measure_instance_alone(self):
        instance = small_family_for_tests()[0]
        record = measure_instance(instance)
        assert record.label == instance.spec.label()


class TestFigure8And9:
    def test_figure9_aggregates_and_claims(self, sweep_records):
        result = run_figure9(instances=None, quick=True, seed=7) if False else None
        # Reuse the shared records through the public API instead of regenerating.
        from repro.experiments.figure9 import Figure9Result

        result = run_figure9(instances=small_family_for_tests())
        assert isinstance(result, Figure9Result)
        assert result.all_differences_nonnegative()
        assert set(result.by_protection.points) == {0.2, 0.6}
        # The opacity advantage grows (weakly) with the protected fraction.
        low, high = result.by_protection.points[0.2], result.by_protection.points[0.6]
        assert high["opacity_diff"] >= low["opacity_diff"] - 1e-9
        assert "protect_fraction" in result.render()

    def test_figure8_frontier_dominance(self, sweep_records):
        result = run_figure8(records=sweep_records)
        assert result.surrogate_dominates()
        rows = result.as_rows()
        assert rows[0]["opacity_at_least"] == 0.0
        assert "max_utility_surrogate" in result.render()

    def test_figure8_from_own_sweep(self):
        result = run_figure8(instances=small_family_for_tests())
        assert result.records


class TestFigure10:
    def test_phases_and_claim(self):
        result = run_figure10(node_count=60, connected_pairs_target=10, repeats=2, seed=3)
        rows = {row["activity"]: row["time_ms"] for row in result.as_rows()}
        assert set(rows) == {"total", "db_access", "build_graph", "protect_via_hide", "protect_via_surrogate"}
        assert rows["total"] > 0
        # Each phase is rounded to 3 decimals independently, so allow rounding slack.
        assert rows["total"] == pytest.approx(
            rows["db_access"] + rows["build_graph"] + rows["protect_via_hide"] + rows["protect_via_surrogate"],
            abs=0.01,
        )
        assert result.repeats == 2
        assert len(result.per_run) == 2
        assert "Figure 10" in result.render()
        # The paper's qualitative claim, with generous slack for a fast in-memory store.
        assert result.protection_is_cheap(factor=50.0)
