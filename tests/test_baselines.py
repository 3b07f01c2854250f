"""Tests for the baseline accelerator models and the accelerator registry."""

import math

import numpy as np
import pytest
from reference import baselines as reference_baselines

from repro.baselines import (
    PTB,
    SATO,
    SpikingEyeriss,
    SpinalFlow,
    Stellar,
    available_baselines,
    get_accelerator,
    get_baseline,
    load_imbalance_cycles,
    paper_operations,
)
from repro.core import PhiConfig
from repro.hw import RunResult
from repro.runner.engine import summarize_run
from repro.workloads import generate_random_workload
from repro.workloads.workload import LayerWorkload, ModelWorkload


@pytest.fixture(scope="module")
def reports(vgg_workload):
    reports = {name: get_baseline(name).simulate(vgg_workload) for name in available_baselines()}
    phi = get_accelerator(
        "phi",
        phi_config=PhiConfig(partition_size=16, num_patterns=32, calibration_samples=2000),
    )
    reports["phi"] = phi.simulate(vgg_workload)
    return reports


class TestRegistry:
    def test_available(self):
        assert available_baselines() == ["eyeriss", "ptb", "sato", "spinalflow", "stellar"]

    def test_unknown(self):
        with pytest.raises(ValueError):
            get_baseline("tpu")

    def test_instances(self):
        assert isinstance(get_baseline("eyeriss"), SpikingEyeriss)
        assert isinstance(get_baseline("ptb"), PTB)
        assert isinstance(get_baseline("sato"), SATO)
        assert isinstance(get_baseline("spinalflow"), SpinalFlow)
        assert isinstance(get_baseline("stellar"), Stellar)


class TestHelpers:
    def test_paper_operations(self, vgg_workload):
        layer = vgg_workload[0]
        assert paper_operations(layer) == int(layer.activations.sum()) * layer.n

    def test_load_imbalance_at_least_balanced(self, rng):
        activations = (rng.random((64, 32)) < 0.2).astype(np.uint8)
        imbalanced = load_imbalance_cycles(
            activations.sum(axis=1), lanes=64, rows_per_group=8, work_per_one=1
        )
        balanced = activations.sum() / 64
        assert imbalanced >= balanced

    def test_load_imbalance_invalid(self):
        with pytest.raises(ValueError):
            load_imbalance_cycles(np.zeros(2), lanes=0, rows_per_group=1, work_per_one=1)


class TestReports:
    def test_all_reports_consistent(self, reports, vgg_workload):
        for name, report in reports.items():
            assert isinstance(report, RunResult)
            assert report.total_cycles > 0, name
            assert report.total_operations > 0, name
            assert report.energy_joules > 0, name
            assert report.throughput_gops > 0, name
            assert report.area_efficiency_gops_per_mm2 > 0, name

    def test_same_operation_count_across_accelerators(self, reports):
        ops = {name: r.total_operations for name, r in reports.items()}
        assert len(set(ops.values())) == 1  # the OP definition is shared

    def test_energy_breakdown_sums(self, reports):
        for report in reports.values():
            breakdown = report.energy_breakdown()
            assert sum(breakdown.values()) == pytest.approx(report.energy_joules)


class TestOrdering:
    """The qualitative ordering of Table 2 / Fig. 8 must hold."""

    def test_sparse_accelerators_beat_dense(self, reports):
        dense = reports["eyeriss"].throughput_gops
        for name in ("ptb", "sato", "spinalflow", "stellar", "phi"):
            assert reports[name].throughput_gops > dense, name

    def test_phi_has_best_throughput(self, reports):
        phi = reports["phi"].throughput_gops
        for name, report in reports.items():
            if name != "phi":
                assert phi >= report.throughput_gops, name

    def test_phi_beats_dense_energy_substantially(self, reports):
        assert (
            reports["phi"].energy_efficiency_gops_per_joule
            > 3.0 * reports["eyeriss"].energy_efficiency_gops_per_joule
        )

    def test_phi_has_best_area_efficiency(self, reports):
        phi = reports["phi"].area_efficiency_gops_per_mm2
        for name, report in reports.items():
            if name != "phi":
                assert phi > report.area_efficiency_gops_per_mm2, name

    def test_stellar_is_best_baseline(self, reports):
        stellar = reports["stellar"].throughput_gops
        for name in ("eyeriss", "ptb", "sato", "spinalflow"):
            assert stellar >= reports[name].throughput_gops


class TestCycleModels:
    def test_eyeriss_ignores_sparsity(self):
        sparse = generate_random_workload(density=0.05, m=128, k=64, n=32, seed=0)
        dense = generate_random_workload(density=0.50, m=128, k=64, n=32, seed=0)
        eyeriss = SpikingEyeriss()
        assert eyeriss.simulate(sparse).total_cycles == pytest.approx(
            eyeriss.simulate(dense).total_cycles
        )

    def test_spinalflow_scales_with_density(self):
        sparse = generate_random_workload(density=0.05, m=128, k=64, n=32, seed=0)
        dense = generate_random_workload(density=0.50, m=128, k=64, n=32, seed=0)
        spinalflow = SpinalFlow()
        assert (
            spinalflow.simulate(dense).total_cycles
            > spinalflow.simulate(sparse).total_cycles
        )

    def test_ptb_processes_whole_windows(self):
        workload = generate_random_workload(density=0.3, m=64, k=32, n=8, seed=2)
        ptb = PTB()
        layer = workload[0]
        assert ptb.layer_executed_accumulations(layer) >= paper_operations(layer)

    @pytest.mark.parametrize("window", [1, 2, 4, 8])
    @pytest.mark.parametrize("fill", ["random", "zeros", "ones"])
    @pytest.mark.parametrize("k", [1, 3, 4, 37, 576])
    def test_ptb_window_count_matches_per_window_oracle(self, k, fill, window):
        rng = np.random.default_rng(k)
        activations = {
            "random": (rng.random((23, k)) < 0.1).astype(np.uint8),
            "zeros": np.zeros((23, k), dtype=np.uint8),
            "ones": np.ones((23, k), dtype=np.uint8),
        }[fill]
        ptb = PTB()
        ptb.window = window
        layer = LayerWorkload("layer", activations, np.ones((k, 2)))
        assert ptb._processed_positions(layer) == (
            reference_baselines.ptb_processed_positions(activations, window)
        )

    def test_ptb_rejects_window_wider_than_a_word(self):
        ptb = PTB()
        ptb.window = 3
        layer = LayerWorkload("layer", np.ones((2, 6), dtype=np.uint8), np.ones((6, 2)))
        with pytest.raises(ValueError, match="window"):
            ptb.layer_compute_cycles(layer)

    def test_sato_load_imbalance_visible(self):
        workload = generate_random_workload(density=0.2, m=128, k=64, n=16, seed=3)
        layer = workload[0]
        sato = SATO()
        spinalflow = SpinalFlow()
        # Per executed accumulation, SATO needs at least as many cycles as
        # the sequential bit-sparse design because of group imbalance.
        sato_cycles_per_op = sato.layer_compute_cycles(layer) / paper_operations(layer)
        spinal_cycles_per_op = spinalflow.layer_compute_cycles(layer) / paper_operations(layer)
        assert sato_cycles_per_op > spinal_cycles_per_op * 0.5

    def test_stellar_fs_recode(self):
        spikes = Stellar.fs_recode(np.array([0.25, 0.75]), num_steps=4)
        assert spikes.shape == (4, 2)
        assert set(np.unique(spikes)) <= {0.0, 1.0}


def _layer(m: int, k: int, density: float = 0.3, seed: int = 0) -> LayerWorkload:
    rng = np.random.default_rng(seed)
    activations = (rng.random((m, k)) < density).astype(np.uint8)
    return LayerWorkload("layer", activations, np.ones((k, 3)))


class TestSpikeCounts:
    """Each layer counts its spikes once; every accelerator reads the count."""

    @pytest.mark.parametrize("m, k", [(37, 19), (64, 576), (1, 1), (0, 8), (8, 0)])
    @pytest.mark.parametrize("density", [0.0, 0.1, 1.0])
    def test_cached_counts_equal_activation_sums(self, m, k, density):
        layer = _layer(m, k, density, seed=m + k)
        assert layer.ones == int(layer.activations.sum())
        np.testing.assert_array_equal(layer.row_ones, layer.activations.sum(axis=1))
        assert not layer.row_ones.flags.writeable
        assert layer.row_ones is layer.row_ones  # counted once

    def test_cached_counts_on_a_mapped_layer(self, tmp_path):
        activations = (np.random.default_rng(5).random((41, 23)) < 0.2).astype(np.uint8)
        np.save(tmp_path / "a.npy", activations)
        mapped = np.load(tmp_path / "a.npy", mmap_mode="r")
        layer = LayerWorkload("layer", mapped, np.ones((23, 2)))
        assert np.shares_memory(layer.activations, mapped)
        assert layer.ones == int(activations.sum())
        np.testing.assert_array_equal(layer.row_ones, activations.sum(axis=1))
        assert layer.bit_density == float(activations.mean())


class TestLoadImbalanceOracle:
    """The one-pass group reduction equals the per-group loop bit for bit."""

    @pytest.mark.parametrize(
        "m, k", [(37, 19), (64, 32), (1000, 9), (5, 3), (0, 8), (16, 0)]
    )
    @pytest.mark.parametrize(
        "lanes, rows_per_group", [(256, 16), (8, 16), (64, 8), (7, 3), (1, 7)]
    )
    @pytest.mark.parametrize("work_per_one", [1, 24, 0.1])
    def test_matches_the_per_group_loop(self, m, k, lanes, rows_per_group, work_per_one):
        layer = _layer(m, k, seed=m * 31 + k)
        got = load_imbalance_cycles(layer.row_ones, lanes, rows_per_group, work_per_one)
        want = reference_baselines.load_imbalance_cycles(
            layer.activations, lanes, rows_per_group, work_per_one
        )
        assert type(got) is float
        assert got == want

    @pytest.mark.parametrize("m, k", [(37, 19), (0, 8), (16, 0)])
    def test_sato_matches_the_per_group_loop(self, m, k):
        layer = _layer(m, k, seed=k)
        sato = SATO()
        want = reference_baselines.load_imbalance_cycles(
            layer.activations, sato.lanes, sato.rows_per_group, layer.n
        )
        assert sato.layer_compute_cycles(layer) == want / sato.utilization


class TestEmptyLayers:
    @pytest.mark.parametrize("m, k", [(0, 8), (8, 0), (0, 0)])
    @pytest.mark.parametrize("name", ["eyeriss", "ptb", "sato", "spinalflow", "stellar"])
    def test_baselines_give_finite_records(self, name, m, k):
        workload = ModelWorkload("empty", "none")
        workload.add(_layer(m, k))
        record = summarize_run(get_baseline(name).simulate(workload))
        numbers = list(_numbers(record))
        assert numbers and all(math.isfinite(value) and value >= 0 for value in numbers)
        assert record["layers"][0]["operations"] == 0


def _numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield float(value)
