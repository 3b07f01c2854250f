"""Benchmark: Fig. 11 — accuracy of DNN / bit sparsity / Phi / Phi+PAFT."""

import math

from conftest import print_section, run_once

from repro.experiments import run_fig11


def test_fig11_accuracy(benchmark, scale):
    result = run_once(
        benchmark,
        run_fig11,
        scale,
        workloads=(("vgg16", "cifar10"),),
        train_epochs=2,
    )

    print_section("fig11", result)

    for row in result.rows:
        # Phi without PAFT is lossless: verified exactly at the logit level.
        # This is the central accuracy claim of the paper (Fig. 11 shows the
        # "Bit Sparsity" and "Phi without PAFT" bars are identical).
        assert row.lossless_verified
        assert not math.isnan(row.phi_without_paft_accuracy)
        assert row.phi_without_paft_accuracy == row.bit_sparsity_accuracy
        # The DNN counterpart learns the synthetic task comfortably; the
        # briefly-trained scaled SNN at least produces valid accuracies.
        assert row.dnn_accuracy > 0.3
        assert 0.0 <= row.bit_sparsity_accuracy <= 1.0
        # PAFT costs at most a modest accuracy drop.
        assert row.phi_with_paft_accuracy >= row.bit_sparsity_accuracy - 0.25
