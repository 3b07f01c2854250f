"""Unit tests for pattern-aware fine-tuning (PAFT)."""

import numpy as np
import pytest
from reference import paft as reference_paft

from repro.core.calibration import PhiCalibrator
from repro.core.metrics import sparsity_breakdown
from repro.core.paft import (
    ActivationAligner,
    PAFTConfig,
    layer_regularizer,
    paft_regularizer,
    paft_regularizer_gradient,
)


@pytest.fixture
def calibration(binary_matrix, small_phi_config):
    return PhiCalibrator(small_phi_config).calibrate_layer("layer0", binary_matrix)


class TestPAFTConfig:
    def test_defaults(self):
        config = PAFTConfig()
        assert config.epochs == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            PAFTConfig(lam=-1.0)
        with pytest.raises(ValueError):
            PAFTConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            PAFTConfig(epochs=0)


class TestRegularizer:
    def test_regularizer_counts_level2_nonzeros(self, binary_matrix, calibration):
        decomposition = calibration.decompose(binary_matrix)
        nnz = int(np.count_nonzero(decomposition.level2()))
        value = layer_regularizer(binary_matrix, calibration, output_width=7)
        assert value == pytest.approx(7 * nnz)

    def test_regularizer_zero_for_exact_patterns(self, calibration):
        # Rows that exactly equal calibrated patterns need no corrections.
        pattern_rows = np.hstack(
            [ps.matrix[:1] for ps in calibration.pattern_sets]
        )
        value = layer_regularizer(pattern_rows, calibration, output_width=3)
        assert value == 0.0

    def test_invalid_output_width(self, binary_matrix, calibration):
        with pytest.raises(ValueError):
            layer_regularizer(binary_matrix, calibration, output_width=0)

    def test_model_level_regularizer(self, binary_matrix, calibration, small_phi_config):
        from repro.core.calibration import ModelCalibration

        model = ModelCalibration(config=small_phi_config)
        model.add(calibration)
        total = paft_regularizer(
            {"layer0": binary_matrix, "unknown": binary_matrix},
            model,
            {"layer0": 4, "unknown": 4},
        )
        assert total == layer_regularizer(binary_matrix, calibration, 4)


class TestRegularizerGradient:
    def test_gradient_shape_and_sign(self, binary_matrix, calibration):
        grad = paft_regularizer_gradient(binary_matrix, calibration, output_width=3)
        assert grad.shape == binary_matrix.shape
        decomposition = calibration.decompose(binary_matrix)
        # Gradient is zero where Level 2 is zero (only mismatches feel pressure).
        level2 = decomposition.level2()
        assert np.all((grad != 0) <= (level2 != 0))
        # Assigned rows carry output_width * sign(mismatch), others nothing.
        widths = [stop - start for start, stop in decomposition.boundaries]
        assigned = np.repeat(decomposition.pattern_indices != 0, widths, axis=1)
        assert np.any(assigned) and np.any(~assigned)
        np.testing.assert_array_equal(grad, np.where(assigned, 3.0 * level2, 0.0))

    def test_gradient_scales_with_output_width(self, binary_matrix, calibration):
        g1 = paft_regularizer_gradient(binary_matrix, calibration, output_width=1)
        g5 = paft_regularizer_gradient(binary_matrix, calibration, output_width=5)
        assert np.allclose(g5, 5.0 * g1)


class TestActivationAligner:
    def test_invalid_strength(self):
        with pytest.raises(ValueError):
            ActivationAligner(alignment_strength=1.5)

    def test_zero_strength_is_identity(self, binary_matrix, calibration):
        aligner = ActivationAligner(alignment_strength=0.0)
        aligned = aligner.align_layer(binary_matrix, calibration)
        assert np.array_equal(aligned, binary_matrix)

    def test_full_strength_removes_all_mismatches(self, binary_matrix, calibration):
        aligner = ActivationAligner(alignment_strength=1.0)
        aligned = aligner.align_layer(binary_matrix, calibration)
        decomposition = calibration.decompose(aligned)
        # Rows that had a pattern now match it exactly; the remaining L2
        # nonzeros can only come from rows without an assigned pattern.
        original = calibration.decompose(binary_matrix)
        assert decomposition.level2_nonzeros.sum() <= original.level2_nonzeros.sum()

    def test_alignment_reduces_level2_density(self, binary_matrix, calibration):
        aligner = ActivationAligner(alignment_strength=0.6, seed=3)
        aligned = aligner.align_layer(binary_matrix, calibration)
        before = sparsity_breakdown(calibration.decompose(binary_matrix)).level2_density
        after = sparsity_breakdown(calibration.decompose(aligned)).level2_density
        assert after <= before

    @pytest.mark.parametrize("strength", [0.0, 0.3, 1.0])
    def test_align_layer_matches_per_row_oracle(
        self, binary_matrix, calibration, strength
    ):
        aligner = ActivationAligner(alignment_strength=strength, seed=5)
        oracle = ActivationAligner(alignment_strength=strength, seed=5)
        assert np.any(calibration.decompose(binary_matrix).pattern_indices == 0)
        np.testing.assert_array_equal(
            aligner.align_layer(binary_matrix, calibration),
            reference_paft.align_layer(oracle, binary_matrix, calibration),
        )
        assert aligner._rng.random() == oracle._rng.random()

    def test_output_stays_binary(self, binary_matrix, calibration):
        aligner = ActivationAligner(alignment_strength=0.7, seed=1)
        aligned = aligner.align_layer(binary_matrix, calibration)
        assert set(np.unique(aligned)) <= {0, 1}

    def test_align_model(self, binary_matrix, calibration, small_phi_config):
        from repro.core.calibration import ModelCalibration

        model = ModelCalibration(config=small_phi_config)
        model.add(calibration)
        aligner = ActivationAligner(alignment_strength=0.5)
        result = aligner.align_model(
            {"layer0": binary_matrix, "other": binary_matrix}, model
        )
        assert set(result) == {"layer0", "other"}
        # Unknown layers are returned unchanged.
        assert np.array_equal(result["other"], binary_matrix)

    def test_expected_accuracy_drop_is_small(self):
        assert ActivationAligner(alignment_strength=1.0).expected_accuracy_drop() < 0.01
