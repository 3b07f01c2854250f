"""Integration tests: every experiment harness runs and its headline
qualitative claims hold at the TINY scale."""

import numpy as np
import pytest

from repro.experiments import (
    TINY,
    run_discussion,
    run_fig7_pattern_sweep,
    run_fig7_tile_sweep,
    run_fig9,
    run_fig10,
    run_fig12,
    run_table2,
    run_table3,
    run_table4,
)
from repro.experiments.fig8 import compare_workload
from repro.experiments.registry import get_experiment
from repro.report.emitters import build_payload, section_markdown


def section(name, result):
    """The experiment's printed report section (the only text rendering)."""
    spec = get_experiment(name)
    return section_markdown(spec, build_payload(spec, result))


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2(TINY)

    def test_all_accelerators_present(self, result):
        names = {row.accelerator for row in result.rows}
        assert names == {"eyeriss", "ptb", "sato", "spinalflow", "stellar", "phi"}

    def test_phi_wins_throughput_and_area_efficiency(self, result):
        phi = result.row("phi")
        for row in result.rows:
            if row.accelerator != "phi":
                assert phi.speedup_vs_eyeriss >= row.speedup_vs_eyeriss * 0.95
                assert phi.area_efficiency_gops_mm2 >= row.area_efficiency_gops_mm2

    def test_eyeriss_is_reference(self, result):
        assert result.row("eyeriss").speedup_vs_eyeriss == pytest.approx(1.0)

    def test_phi_area_is_smallest(self, result):
        phi = result.row("phi")
        assert phi.area_mm2 <= min(r.area_mm2 for r in result.rows)

    def test_formatted_output(self, result):
        text = section("table2", result)
        assert "phi" in text and "eyeriss" in text


class TestTable3:
    def test_breakdown_matches_paper(self):
        result = run_table3()
        assert result.total_area_mm2 == pytest.approx(0.663, abs=0.01)
        assert result.total_power_mw == pytest.approx(346.5, abs=1.0)
        assert result.row("buffer").area_mm2 == pytest.approx(0.452)
        assert result.row("l1_processor").power_mw == pytest.approx(68.2)
        # The buffer dominates both area and power (paper Section 5.3.3).
        assert result.row("buffer").area_mm2 == max(r.area_mm2 for r in result.rows)
        assert result.row("buffer").power_mw == max(r.power_mw for r in result.rows)
        assert "total" in section("table3", result)


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table4(
            TINY,
            workloads=(("vgg16", "cifar10"), ("spikformer", "cifar100")),
            include_random=True,
        )

    def test_snn_rows_beat_bit_sparsity(self, result):
        for row in result.rows:
            assert row.speedup_over_bit >= 1.0
            assert row.speedup_over_dense > row.speedup_over_bit

    def test_l2_density_below_bit_density(self, result):
        for row in result.rows:
            assert row.l2_density < row.bit_density

    def test_random_rows_included(self, result):
        random_rows = [r for r in result.rows if r.dataset == "random"]
        assert len(random_rows) == 4

    def test_snn_speedup_beats_random_at_similar_density(self, result):
        vgg = result.row("vgg16", "cifar10")
        random10 = result.row("random10", "random")
        # Structured SNN activations yield more Phi benefit than random
        # matrices of comparable density (paper Section 5.6).
        assert vgg.speedup_over_bit >= random10.speedup_over_bit * 0.9


class TestFig7:
    def test_tile_sweep_shapes(self):
        points = run_fig7_tile_sweep(TINY, tile_sizes=(8, 16, 32))
        assert [p.k_tile for p in points] == [8, 16, 32]
        for point in points:
            assert point.phi_cycles <= point.bit_cycles
            assert point.optimal_cycles <= point.phi_cycles + 1e-9
            assert 0.0 <= point.element_density <= 1.0

    def test_pattern_sweep_monotonic_memory(self):
        points = run_fig7_pattern_sweep(TINY, pattern_counts=(8, 32))
        assert points[0].pwp_memory_bytes <= points[1].pwp_memory_bytes
        for point in points:
            assert point.phi_cycles <= point.bit_cycles


class TestFig8:
    def test_single_workload_comparison(self):
        comparison = compare_workload("vgg16", "cifar10", TINY)
        assert set(comparison.speedup) == {
            "eyeriss", "ptb", "sato", "spinalflow", "stellar", "phi", "phi_paft",
        }
        assert comparison.speedup["eyeriss"] == pytest.approx(1.0)
        assert comparison.speedup["phi"] > 1.0
        # PAFT speeds Phi up further (or at least does not slow it down).
        assert comparison.speedup["phi_paft"] >= comparison.speedup["phi"] * 0.98
        # Energy is normalised to Phi without PAFT.
        assert comparison.energy["phi"] == pytest.approx(1.0)
        assert comparison.energy["eyeriss"] > 1.0


class TestFig9And10:
    def test_fig9_paft_improves_clustering(self):
        result = run_fig9(TINY)
        assert 0.0 <= result.train_test_overlap <= 1.0
        assert result.clustering_improved

    def test_fig10_paft_reduces_element_density(self):
        result = run_fig10(TINY, workloads=(("vgg16", "cifar10"),))
        pair = result.pair("vgg16", "cifar10")
        assert pair.density_with_paft <= pair.density_without_paft
        assert 0.0 <= pair.improvement <= 1.0


class TestFig12AndDiscussion:
    def test_fig12_traffic_directions(self):
        result = run_fig12(TINY, workloads=(("vgg16", "cifar10"),))
        row = result.rows[0]
        assert row.activation.phi_compressed < row.activation.phi_uncompressed
        assert row.weight.phi_with_prefetch < row.weight.phi_without_prefetch
        without, with_prefetch = result.geomean_weight_ratios()
        assert with_prefetch < without

    def test_discussion_preprocessing_pays_off(self):
        result = run_discussion(TINY, workloads=(("vgg16", "cifar10"),))
        assert result.average_ratio() > 1.0
        assert "benefit_cost" in section("discussion", result)


class TestFig11LosslessCheck:
    def test_corrupted_decomposition_fails(self, monkeypatch):
        # compute_output equals A @ W for any pattern assignment, so the
        # check must also compare the stored Level 2 counts with Level 2.
        from dataclasses import replace

        from repro.core.calibration import LayerCalibration
        from repro.datasets import make_dataset
        from repro.experiments.fig11 import _verify_lossless
        from repro.snn import build_model

        dataset = make_dataset("cifar10", num_train=4, num_test=4)
        network = build_model(
            "vgg16",
            num_classes=dataset.num_classes,
            in_channels=3,
            image_size=dataset.input_shape[-1],
            num_steps=2,
        )
        data = dataset.test_data[:2]
        assert _verify_lossless(network, data, TINY)

        decompose = LayerCalibration.decompose
        rng = np.random.default_rng(0)

        def garbage(self, activations):
            # Random pattern indices with all-zero Level 2 counts.
            real = decompose(self, activations)
            indices = np.stack(
                [rng.integers(0, len(s) + 1, size=real.num_rows) for s in real.pattern_sets],
                axis=1,
            ).astype(np.int32)
            return replace(
                real,
                pattern_indices=indices,
                level2_nonzeros=np.zeros_like(real.level2_nonzeros),
            )

        monkeypatch.setattr(LayerCalibration, "decompose", garbage)
        assert not _verify_lossless(network, data, TINY)
