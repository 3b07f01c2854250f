"""Unit tests for the Phi sparsity decomposition (Level 1 + Level 2)."""

import numpy as np
import pytest
from reference.sparsity import check_decomposition

from repro.core.metrics import sparsity_breakdown
from repro.core.patterns import NO_PATTERN, PatternSet
from repro.core.sparsity import MatrixDecomposition, decompose_matrix, partition_boundaries


def decompose_tile(tile, patterns):
    """Decompose a one-partition matrix (a single tile)."""
    tile = np.asarray(tile)
    return decompose_matrix(tile, (patterns,), tile.shape[1])


@pytest.fixture
def simple_patterns():
    return PatternSet(np.array([[0, 1, 1, 0], [1, 1, 0, 1]], dtype=np.uint8))


class TestPartitionBoundaries:
    def test_exact_division(self):
        assert partition_boundaries(32, 16) == [(0, 16), (16, 32)]

    def test_remainder(self):
        assert partition_boundaries(20, 16) == [(0, 16), (16, 20)]

    def test_single_partition(self):
        assert partition_boundaries(8, 16) == [(0, 8)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            partition_boundaries(0, 16)
        with pytest.raises(ValueError):
            partition_boundaries(16, 0)


class TestDecomposeTile:
    def test_exact_pattern_match_has_empty_level2(self, simple_patterns):
        tile = np.array([[0, 1, 1, 0]], dtype=np.uint8)
        result = decompose_tile(tile, simple_patterns)
        assert result.pattern_indices[0, 0] == 1
        assert np.count_nonzero(result.level2()) == 0

    def test_paper_example_row2(self, simple_patterns):
        # Paper Fig. 2: row 1110 vs pattern 0110 -> +1 correction at bit 0.
        tile = np.array([[1, 1, 1, 0]], dtype=np.uint8)
        result = decompose_tile(tile, simple_patterns)
        assert result.pattern_indices[0, 0] == 1
        assert np.array_equal(result.level2()[0], [1, 0, 0, 0])

    def test_paper_example_row1_negative_correction(self, simple_patterns):
        # Paper Fig. 2: row 1100 vs pattern 1101 -> -1 correction at bit 3.
        tile = np.array([[1, 1, 0, 0]], dtype=np.uint8)
        result = decompose_tile(tile, simple_patterns)
        assert result.pattern_indices[0, 0] == 2
        assert np.array_equal(result.level2()[0], [0, 0, -1, 0]) or np.array_equal(
            result.level2()[0], [0, 0, 0, -1]
        ) or np.count_nonzero(result.level2()[0]) == 1

    def test_no_pattern_when_bit_sparsity_is_better(self, simple_patterns):
        # A one-hot row: any pattern needs more corrections than its single 1.
        tile = np.array([[0, 0, 0, 1]], dtype=np.uint8)
        result = decompose_tile(tile, simple_patterns)
        assert result.pattern_indices[0, 0] == NO_PATTERN
        assert np.array_equal(result.level2()[0], [0, 0, 0, 1])

    def test_all_zero_row(self, simple_patterns):
        tile = np.array([[0, 0, 0, 0]], dtype=np.uint8)
        result = decompose_tile(tile, simple_patterns)
        assert result.pattern_indices[0, 0] == NO_PATTERN
        assert np.count_nonzero(result.level2()[0]) == 0

    def test_reconstruction_is_exact(self, simple_patterns, rng):
        tile = (rng.random((64, 4)) < 0.4).astype(np.uint8)
        check_decomposition(decompose_tile(tile, simple_patterns))

    def test_level2_values_in_range(self, simple_patterns, rng):
        tile = (rng.random((64, 4)) < 0.4).astype(np.uint8)
        result = decompose_tile(tile, simple_patterns)
        assert set(np.unique(result.level2())) <= {-1, 0, 1}

    def test_compute_output_matches_reference(self, simple_patterns, rng):
        tile = (rng.random((32, 4)) < 0.3).astype(np.uint8)
        weights = rng.standard_normal((4, 5))
        result = decompose_tile(tile, simple_patterns)
        assert np.allclose(result.compute_output(weights), tile @ weights)

    def test_compute_output_with_precomputed_pwps(self, simple_patterns, rng):
        # Level 1 is a lookup into the precomputed PWP table.
        tile = (rng.random((16, 4)) < 0.3).astype(np.uint8)
        weights = rng.standard_normal((4, 3))
        pwps = simple_patterns.compute_pwps(weights)
        result = decompose_tile(tile, simple_patterns)
        level1_out = pwps[result.pattern_indices[:, 0]]
        level2_out = result.level2().astype(np.float64) @ weights
        assert np.allclose(level1_out + level2_out, tile @ weights)
        assert np.allclose(result.compute_output(weights), tile @ weights)

    def test_rejects_non_binary(self, simple_patterns):
        with pytest.raises(ValueError):
            decompose_tile(np.array([[0, 2, 0, 1]]), simple_patterns)

    def test_rejects_width_mismatch(self, simple_patterns):
        with pytest.raises(ValueError):
            decompose_tile(np.zeros((2, 5), dtype=np.uint8), simple_patterns)

    def test_densities(self, simple_patterns):
        tile = np.array([[0, 1, 1, 0], [0, 0, 0, 0]], dtype=np.uint8)
        breakdown = sparsity_breakdown(decompose_tile(tile, simple_patterns))
        assert breakdown.bit_density == pytest.approx(0.25)
        assert breakdown.level1_vector_density == pytest.approx(0.5)
        assert breakdown.level2_density == 0.0

    def test_empty_tile(self, simple_patterns):
        result = decompose_tile(np.zeros((0, 4), dtype=np.uint8), simple_patterns)
        assert result.num_rows == 0
        assert result.level2().shape == (0, 4)
        assert sparsity_breakdown(result).bit_density == 0.0


class TestDecomposeMatrix:
    @pytest.fixture
    def matrix_and_patterns(self, rng):
        matrix = (rng.random((50, 24)) < 0.3).astype(np.uint8)
        patterns = [
            PatternSet((rng.random((4, 8)) < 0.3).astype(np.uint8)) for _ in range(3)
        ]
        return matrix, patterns

    def test_reconstruction(self, matrix_and_patterns):
        matrix, patterns = matrix_and_patterns
        check_decomposition(decompose_matrix(matrix, patterns, 8))

    def test_compute_output(self, matrix_and_patterns, rng):
        matrix, patterns = matrix_and_patterns
        weights = rng.standard_normal((24, 6))
        result = decompose_matrix(matrix, patterns, 8)
        assert np.allclose(result.compute_output(weights), matrix @ weights)

    def test_pattern_index_matrix_shape(self, matrix_and_patterns):
        matrix, patterns = matrix_and_patterns
        result = decompose_matrix(matrix, patterns, 8)
        assert result.pattern_indices.shape == (50, 3)

    def test_wrong_pattern_set_count(self, matrix_and_patterns):
        matrix, patterns = matrix_and_patterns
        with pytest.raises(ValueError):
            decompose_matrix(matrix, patterns[:2], 8)

    def test_densities_bounded(self, matrix_and_patterns):
        matrix, patterns = matrix_and_patterns
        breakdown = sparsity_breakdown(decompose_matrix(matrix, patterns, 8))
        assert 0.0 <= breakdown.bit_density <= 1.0
        assert 0.0 <= breakdown.level1_vector_density <= 1.0
        assert 0.0 <= breakdown.level2_density <= 1.0
        assert breakdown.level2_density == pytest.approx(
            breakdown.level2_positive_density + breakdown.level2_negative_density
        )

    def test_compute_output_weight_mismatch(self, matrix_and_patterns):
        matrix, patterns = matrix_and_patterns
        result = decompose_matrix(matrix, patterns, 8)
        with pytest.raises(ValueError):
            result.compute_output(np.zeros((10, 4)))


class TestCheckDecomposition:
    def test_garbage_decomposition_is_rejected(self, rng):
        # Random pattern indices with all-zero Level 2 counts: L1 + L2 == A
        # and compute_output == A @ W still hold, because Level 2 is built
        # as A - L1, so only the stored counts can give it away.
        matrix = (rng.random((40, 16)) < 0.4).astype(np.uint8)
        patterns = tuple(
            PatternSet((rng.random((4, 8)) < 0.4).astype(np.uint8)) for _ in range(2)
        )
        garbage = MatrixDecomposition(
            activations=matrix,
            pattern_sets=patterns,
            boundaries=((0, 8), (8, 16)),
            pattern_indices=rng.integers(0, 5, size=(40, 2)).astype(np.int32),
            level2_nonzeros=np.zeros((40, 2), dtype=np.uint8),
        )
        weights = rng.standard_normal((16, 3))
        assert np.allclose(garbage.compute_output(weights), matrix @ weights)
        with pytest.raises(AssertionError):
            check_decomposition(garbage)
        check_decomposition(decompose_matrix(matrix, patterns, 8))
