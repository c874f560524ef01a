"""E1/E2 — regenerate Table 1 (and the Figure 2/3 worked example).

``pytest benchmarks/test_bench_table1.py --benchmark-only -s`` prints the
reproduced table next to the paper's values and times the full driver.
"""

from __future__ import annotations

import pytest

from repro.experiments.table1 import PAPER_PATH_UTILITY, run_table1


@pytest.mark.benchmark(group="table1")
def test_bench_table1_running_example(benchmark):
    """Time the Table-1 driver and check the reproduced rows against the paper."""
    result = benchmark(run_table1)
    print()
    print(result.render())

    by_account = {row.account: row for row in result.rows}
    # Path utilities match the paper to its printed precision.
    for account, expected in PAPER_PATH_UTILITY.items():
        assert by_account[account].path_utility == pytest.approx(expected, abs=0.005)
    # Opacity extremes and ordering match Table 1.
    assert by_account["a"].opacity_fg == 0.0
    assert by_account["b"].opacity_fg == 1.0
    assert by_account["a"].opacity_fg < by_account["c"].opacity_fg < by_account["d"].opacity_fg
    # Node utility of the all-or-nothing account is |N'|/|N| = 6/11.
    assert by_account["naive"].node_utility == pytest.approx(6 / 11)


@pytest.mark.benchmark(group="table1")
def test_bench_naive_account_generation(benchmark):
    """Time just the naive (Figure 1c) account generation used as the baseline."""
    from repro.core.hiding import naive_protected_account
    from repro.core.utility import path_utility
    from repro.workloads.social import figure1_example

    example = figure1_example()

    def build():
        return naive_protected_account(example.graph, example.policy, example.high2)

    account = benchmark(build)
    assert path_utility(example.graph, account) == pytest.approx(14 / 110)


@pytest.mark.benchmark(group="table1")
def test_bench_surrogate_account_generation(benchmark):
    """Time the Figure-2(b) surrogate account generation (the paper's headline case)."""
    from repro.core.generation import build_protected_account
    from repro.core.utility import path_utility
    from repro.workloads.social import figure2_variant

    example = figure2_variant("b")

    def build():
        return build_protected_account(example.graph, example.policy, example.high2)

    account = benchmark(build)
    assert account.is_surrogate_edge("c", "g")
    assert path_utility(example.graph, account) == pytest.approx(30 / 110)
