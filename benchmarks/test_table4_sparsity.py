"""Benchmark: Table 4 — Phi sparsity breakdown across models and random data."""

import pytest

from conftest import print_section, run_once

pytestmark = pytest.mark.smoke

from repro.experiments import run_table4


def test_table4_sparsity_breakdown(benchmark, scale):
    result = run_once(benchmark, run_table4, scale)

    print_section("table4", result)

    snn_rows = [r for r in result.rows if r.dataset != "random"]
    random_rows = [r for r in result.rows if r.dataset == "random"]
    assert snn_rows and random_rows

    for row in result.rows:
        # Level 2 is always sparser than the original bit sparsity and the
        # theoretical speedups follow.
        assert row.l2_density < row.bit_density
        assert row.speedup_over_bit >= 1.0
        assert row.speedup_over_dense > row.speedup_over_bit

    # Structured SNN activations benefit more than random matrices on
    # average (paper Section 5.6).
    snn_mean = sum(r.speedup_over_bit for r in snn_rows) / len(snn_rows)
    random_mean = sum(r.speedup_over_bit for r in random_rows) / len(random_rows)
    assert snn_mean > random_mean * 0.9
