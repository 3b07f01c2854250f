"""Benchmark: Table 3 — Phi area and power breakdown."""

import pytest

from conftest import print_section, run_once

pytestmark = pytest.mark.smoke

from repro.experiments import run_table3


def test_table3_breakdown(benchmark):
    result = run_once(benchmark, run_table3)

    print_section("table3", result)

    assert abs(result.total_area_mm2 - 0.663) < 0.01
    assert abs(result.total_power_mw - 346.5) < 1.0
    buffer_row = result.row("buffer")
    assert buffer_row.area_mm2 == max(r.area_mm2 for r in result.rows)
    assert buffer_row.power_mw == max(r.power_mw for r in result.rows)
