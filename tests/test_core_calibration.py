"""Unit tests for the Phi calibration stage."""

import numpy as np
import pytest
from reference.sparsity import check_decomposition

from repro.core.calibration import LayerCalibration, ModelCalibration, PhiCalibrator
from repro.core.config import PhiConfig


class TestPhiCalibrator:
    def test_calibrate_layer_shapes(self, binary_matrix, small_phi_config):
        calibrator = PhiCalibrator(small_phi_config)
        calibration = calibrator.calibrate_layer("layer0", binary_matrix)
        assert calibration.layer_name == "layer0"
        assert calibration.total_width == binary_matrix.shape[1]
        assert calibration.num_partitions == 4  # 32 / 8
        for pattern_set in calibration.pattern_sets:
            assert pattern_set.width == 8
            assert pattern_set.num_patterns <= small_phi_config.num_patterns

    def test_decompose_roundtrip(self, binary_matrix, small_phi_config):
        calibrator = PhiCalibrator(small_phi_config)
        calibration = calibrator.calibrate_layer("layer0", binary_matrix)
        decomposition = calibration.decompose(binary_matrix)
        np.testing.assert_array_equal(decomposition.activations, binary_matrix)
        check_decomposition(decomposition)

    def test_subsampling_respects_limit(self, rng):
        config = PhiConfig(partition_size=8, num_patterns=8, calibration_samples=50)
        calibrator = PhiCalibrator(config)
        rows = (rng.random((500, 16)) < 0.3).astype(np.uint8)
        calibration = calibrator.calibrate_layer("big", rows)
        assert calibration.total_width == 16

    def test_rejects_non_binary(self, small_phi_config):
        calibrator = PhiCalibrator(small_phi_config)
        with pytest.raises(ValueError):
            calibrator.calibrate_layer("bad", np.array([[0.5, 1.0]]))

    def test_rejects_empty(self, small_phi_config):
        calibrator = PhiCalibrator(small_phi_config)
        with pytest.raises(ValueError):
            calibrator.calibrate_layer("bad", np.zeros((0, 8), dtype=np.uint8))

    def test_rejects_1d(self, small_phi_config):
        calibrator = PhiCalibrator(small_phi_config)
        with pytest.raises(ValueError):
            calibrator.calibrate_layer("bad", np.zeros(8, dtype=np.uint8))

    def test_calibrate_model(self, binary_matrix, small_phi_config):
        calibrator = PhiCalibrator(small_phi_config)
        model = calibrator.calibrate_model({"a": binary_matrix, "b": binary_matrix[:, :16]})
        assert "a" in model and "b" in model
        assert model.layer_names() == ["a", "b"]
        assert model["b"].total_width == 16

    def test_calibrate_model_from_pairs(self, binary_matrix, small_phi_config):
        calibrator = PhiCalibrator(small_phi_config)
        model = calibrator.calibrate_model([("x", binary_matrix)])
        assert "x" in model

    def test_default_config(self, binary_matrix):
        calibrator = PhiCalibrator()
        assert calibrator.config.partition_size == 16


class TestLayerCalibration:
    def test_decompose_on_unseen_rows_is_exact(self, binary_matrix, small_phi_config, rng):
        # Patterns calibrated on one half must still yield an exact
        # (lossless) decomposition on the other half.
        calibrator = PhiCalibrator(small_phi_config)
        half = binary_matrix.shape[0] // 2
        calibration = calibrator.calibrate_layer("layer0", binary_matrix[:half])
        unseen = binary_matrix[half:]
        decomposition = calibration.decompose(unseen)
        np.testing.assert_array_equal(decomposition.activations, unseen)
        check_decomposition(decomposition)


class TestModelCalibration:
    def test_missing_layer_raises(self, small_phi_config):
        model = ModelCalibration(config=small_phi_config)
        with pytest.raises(KeyError):
            model["missing"]

    def test_contains(self, binary_matrix, small_phi_config):
        calibrator = PhiCalibrator(small_phi_config)
        calibration = calibrator.calibrate_layer("layer0", binary_matrix)
        model = ModelCalibration(config=small_phi_config)
        model.add(calibration)
        assert "layer0" in model
        assert "other" not in model
        assert isinstance(model["layer0"], LayerCalibration)
