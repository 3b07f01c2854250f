"""Tests for the end-to-end Phi accelerator simulator."""

import numpy as np
import pytest

from repro.core import PhiCalibrator, PhiConfig
from repro.hw import ArchConfig, PhiSimulator
from repro.workloads import generate_random_workload


@pytest.fixture(scope="module")
def simulator():
    arch = ArchConfig()
    phi = PhiConfig(partition_size=16, num_patterns=16, calibration_samples=2000)
    return PhiSimulator(arch, phi)


@pytest.fixture(scope="module")
def vgg_simulation(simulator, vgg_workload):
    return simulator.simulate(vgg_workload)


class TestLayerSimulation:
    def test_layer_count(self, vgg_simulation, vgg_workload):
        assert len(vgg_simulation.layers) == len(vgg_workload)

    def test_positive_cycles(self, vgg_simulation):
        for layer in vgg_simulation.layers:
            assert layer.compute_cycles > 0
            assert layer.total_cycles >= layer.compute_cycles
            assert layer.total_cycles >= layer.memory_cycles

    def test_traffic_positive(self, vgg_simulation):
        for layer in vgg_simulation.layers:
            assert layer.activation_bytes > 0
            assert layer.weight_bytes > 0
            assert layer.dram_bytes >= layer.activation_bytes + layer.weight_bytes

    def test_prefetch_never_exceeds_unfiltered(self, vgg_simulation):
        for layer in vgg_simulation.layers:
            assert layer.pwp_bytes_prefetched <= layer.pwp_bytes_unfiltered

    def test_compressed_activations_below_uncompressed(self, vgg_simulation):
        for layer in vgg_simulation.layers:
            assert layer.activation_bytes <= layer.activation_bytes_uncompressed

    def test_energy_positive(self, vgg_simulation):
        for layer in vgg_simulation.layers:
            assert layer.energy.total > 0
            assert layer.energy.dram > 0


class TestSimulationResult:
    def test_totals(self, vgg_simulation):
        assert vgg_simulation.total_cycles == pytest.approx(
            sum(l.total_cycles for l in vgg_simulation.layers)
        )
        assert vgg_simulation.runtime_seconds > 0
        assert vgg_simulation.total_operations > 0
        assert vgg_simulation.throughput_gops > 0
        assert vgg_simulation.energy_joules > 0
        assert vgg_simulation.energy_efficiency_gops_per_joule > 0

    def test_aggregate_breakdown(self, vgg_simulation):
        breakdown = vgg_simulation.aggregate_breakdown()
        assert 0.0 < breakdown.bit_density < 1.0
        assert breakdown.level2_density < breakdown.bit_density

    def test_aggregate_operations(self, vgg_simulation):
        totals = vgg_simulation.aggregate_operations()
        assert totals.phi_ops < totals.bit_sparse_ops < totals.dense_ops


class TestSimulatorBehaviour:
    def test_phi_faster_than_bit_sparse_execution(self, simulator, vgg_workload):
        result = simulator.simulate(vgg_workload)
        totals = result.aggregate_operations()
        assert totals.speedup_over_bit > 1.0
        assert totals.speedup_over_dense > 3.0

    def test_provided_calibration_used(self, vgg_workload):
        phi_config = PhiConfig(partition_size=16, num_patterns=16, calibration_samples=2000)
        simulator = PhiSimulator(ArchConfig(), phi_config)
        calibration = PhiCalibrator(phi_config).calibrate_model(
            vgg_workload.activation_matrices()
        )
        result = simulator.simulate(vgg_workload, calibration=calibration)
        assert len(result.layers) == len(vgg_workload)

    def test_partition_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PhiSimulator(ArchConfig(tile_k=16), PhiConfig(partition_size=8))

    def test_calibration_width_mismatch_rejected(self, simulator):
        workload = generate_random_workload(density=0.2, m=32, k=32, n=8, seed=0)
        narrow = generate_random_workload(density=0.2, m=32, k=16, n=8, seed=0)
        calibration = PhiCalibrator(simulator.phi_config).calibrate_model(
            narrow.activation_matrices()
        )
        with pytest.raises(ValueError, match="calibration width 16"):
            simulator.simulate(workload, calibration=calibration)

    def test_decomposition_shape_mismatch_rejected(self, simulator):
        workload = generate_random_workload(density=0.2, m=32, k=32, n=8, seed=0)
        short = generate_random_workload(density=0.2, m=16, k=32, n=8, seed=0)
        calibration = PhiCalibrator(simulator.phi_config).calibrate_model(
            workload.activation_matrices()
        )
        name = workload[0].name
        decomposition = calibration[name].decompose(short[0].activations)
        with pytest.raises(ValueError, match=r"decomposition shape \(16, 32\)"):
            simulator.simulate(
                workload,
                calibration=calibration,
                decompositions={name: decomposition},
            )

    def test_more_patterns_reduce_compute(self):
        workload = generate_random_workload(density=0.15, m=512, k=64, n=32, seed=5)
        few = PhiSimulator(
            ArchConfig(), PhiConfig(partition_size=16, num_patterns=4, calibration_samples=2000)
        ).simulate(workload)
        many = PhiSimulator(
            ArchConfig(), PhiConfig(partition_size=16, num_patterns=64, calibration_samples=2000)
        ).simulate(workload)
        assert (
            many.aggregate_operations().phi_ops <= few.aggregate_operations().phi_ops
        )

    def test_denser_activations_cost_more_cycles(self):
        sparse = generate_random_workload(density=0.05, m=256, k=64, n=32, seed=1)
        dense = generate_random_workload(density=0.40, m=256, k=64, n=32, seed=1)
        simulator = PhiSimulator(
            ArchConfig(), PhiConfig(partition_size=16, num_patterns=16, calibration_samples=2000)
        )
        assert (
            simulator.simulate(sparse).total_cycles < simulator.simulate(dense).total_cycles
        )

    def test_transformer_workload_runs(self, simulator, spikformer_workload):
        result = simulator.simulate(spikformer_workload)
        assert result.total_cycles > 0
        assert result.total_operations > 0
