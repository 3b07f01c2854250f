"""End-to-end integration tests across the whole stack.

These tests exercise the complete pipeline the README advertises:
train/record a spiking model -> calibrate patterns -> decompose -> verify
losslessness -> simulate the accelerator -> compare against a baseline.
"""

import numpy as np
import pytest
from reference.sparsity import check_decomposition

from repro.baselines import get_accelerator, get_baseline
from repro.core import ActivationAligner, PhiCalibrator, PhiConfig
from repro.datasets import make_dataset
from repro.hw import ArchConfig, PhiSimulator
from repro.snn import build_model
from repro.workloads import extract_workload


@pytest.fixture(scope="module")
def phi_config():
    return PhiConfig(partition_size=16, num_patterns=16, calibration_samples=2000)


class TestEndToEndPipeline:
    def test_model_to_simulation(self, vgg_workload, phi_config):
        # Calibrate on the recorded activations.
        calibrator = PhiCalibrator(phi_config)
        calibration = calibrator.calibrate_model(vgg_workload.activation_matrices())

        # Every layer's Phi-decomposed GEMM matches the exact output.
        for layer in vgg_workload:
            decomposition = calibration[layer.name].decompose(layer.activations)
            assert np.allclose(
                decomposition.compute_output(layer.weights), layer.reference_output()
            )

        # Accelerator simulation with the same calibration.
        simulator = PhiSimulator(ArchConfig(), phi_config)
        result = simulator.simulate(vgg_workload, calibration=calibration)
        assert result.total_cycles > 0

        # Phi outperforms the dense baseline on the same workload.
        eyeriss = get_baseline("eyeriss").simulate(vgg_workload)
        phi = get_accelerator("phi", phi_config=phi_config).simulate(
            vgg_workload, calibration=calibration
        )
        assert phi.throughput_gops > eyeriss.throughput_gops

    def test_train_calibration_generalises_to_test(self, phi_config):
        """Patterns calibrated on training data stay effective on test data."""
        dataset = make_dataset("cifar10", num_train=16, num_test=16)
        network = build_model(
            "vgg16", num_classes=dataset.num_classes, in_channels=3,
            image_size=dataset.input_shape[-1], num_steps=2,
        )
        train_workload = extract_workload(
            network, dataset.train_data[:4], dataset_name="cifar10-train"
        )
        test_workload = extract_workload(
            network, dataset.test_data[:4], dataset_name="cifar10-test"
        )
        calibrator = PhiCalibrator(phi_config)
        calibration = calibrator.calibrate_model(train_workload.activation_matrices())

        for layer in test_workload:
            if layer.name not in calibration:
                continue
            decomposition = calibration[layer.name].decompose(layer.activations)
            # Lossless on unseen data ...
            check_decomposition(decomposition)
            # ... and still sparser than plain bit sparsity.
            assert decomposition.level2_nonzeros.sum() <= layer.ones

    def test_paft_alignment_improves_simulated_speed(self, vgg_workload, phi_config):
        calibrator = PhiCalibrator(phi_config)
        calibration = calibrator.calibrate_model(vgg_workload.activation_matrices())
        aligner = ActivationAligner(alignment_strength=0.8, seed=0)

        simulator = PhiSimulator(ArchConfig(), phi_config)
        before = simulator.simulate(vgg_workload, calibration=calibration)

        from repro.workloads import LayerWorkload, ModelWorkload

        aligned = ModelWorkload(model_name="vgg16", dataset_name="cifar10-paft")
        for layer in vgg_workload:
            aligned.add(
                LayerWorkload(
                    name=layer.name,
                    activations=aligner.align_layer(
                        layer.activations, calibration[layer.name]
                    ),
                    weights=layer.weights,
                )
            )
        after = simulator.simulate(aligned, calibration=calibration)
        assert after.total_cycles <= before.total_cycles * 1.02

    def test_text_model_end_to_end(self, phi_config):
        workload_model = build_model(
            "spikebert", num_classes=2, vocab_size=64, seq_len=8, embed_dim=16,
            depth=1, num_steps=2,
        )
        dataset = make_dataset("sst2", num_train=8, num_test=8, seq_len=8, vocab_size=64)
        workload = extract_workload(
            workload_model, dataset.test_data[:4], dataset_name="sst2"
        )
        assert len(workload) > 0
        result = PhiSimulator(ArchConfig(), phi_config).simulate(workload)
        assert result.total_operations > 0
