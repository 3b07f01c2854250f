"""Benchmark: Table 2 — Phi vs baseline accelerators on VGG-16 / CIFAR100."""

from conftest import print_section, run_once

from repro.experiments import run_table2


def test_table2_comparison(benchmark, scale):
    result = run_once(benchmark, run_table2, scale)

    print_section("table2", result)

    phi = result.row("phi")
    eyeriss = result.row("eyeriss")
    stellar = result.row("stellar")
    # Shape of the paper's result: Phi is the fastest and the most
    # area-efficient design, and clearly ahead of the dense baseline.
    assert phi.speedup_vs_eyeriss > 3.0
    assert phi.area_efficiency_gops_mm2 > stellar.area_efficiency_gops_mm2
    assert phi.energy_ratio_vs_eyeriss > 2.0
    assert eyeriss.speedup_vs_eyeriss == 1.0
