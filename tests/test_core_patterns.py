"""Unit tests for repro.core.patterns."""

import numpy as np
import pytest

from repro.core.patterns import PatternSet
from repro.core.sparsity import decompose_matrix


class TestPattern:
    """One pattern's Hamming distance, read from a one-pattern set."""

    def test_hamming_distance(self):
        pattern = PatternSet(np.array([[1, 1, 0, 0]], dtype=np.uint8))
        rows = np.array([[1, 0, 0, 1], [1, 1, 0, 0]], dtype=np.uint8)
        assert pattern.match_counts(rows).tolist() == [[2], [0]]

    def test_hamming_distance_shape_mismatch(self):
        pattern = PatternSet(np.array([[1, 0]], dtype=np.uint8))
        with pytest.raises(ValueError):
            pattern.match_counts(np.array([[1, 0, 1]], dtype=np.uint8))


class TestPatternSet:
    @pytest.fixture
    def pattern_set(self):
        return PatternSet(np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 1, 1]], dtype=np.uint8))

    def test_sizes(self, pattern_set):
        assert pattern_set.num_patterns == 3
        assert pattern_set.width == 4
        assert len(pattern_set) == 3

    def test_indexing_is_one_based(self, pattern_set):
        # Row i of the matrix is the pattern with index i + 1 (0 is "none"),
        # both in a decomposition and in the PWP table.
        decomposition = decompose_matrix(pattern_set.matrix, (pattern_set,), 4)
        assert decomposition.pattern_indices[:, 0].tolist() == [1, 2, 3]
        pwps = pattern_set.compute_pwps(np.eye(4))
        assert np.array_equal(pwps[1:], pattern_set.matrix)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            PatternSet(np.array([[0, 2], [1, 0]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            PatternSet(np.array([1, 0, 1]))

    def test_compute_pwps(self, pattern_set):
        weights = np.arange(8, dtype=np.float64).reshape(4, 2)
        pwps = pattern_set.compute_pwps(weights)
        assert pwps.shape == (4, 2)  # q + 1 rows
        assert np.array_equal(pwps[0], [0.0, 0.0])
        expected = pattern_set.matrix.astype(float) @ weights
        assert np.allclose(pwps[1:], expected)

    def test_compute_pwps_shape_mismatch(self, pattern_set):
        with pytest.raises(ValueError):
            pattern_set.compute_pwps(np.zeros((3, 2)))

    def test_match_counts(self, pattern_set):
        rows = np.array([[1, 0, 1, 0], [0, 0, 0, 0]], dtype=np.uint8)
        counts = pattern_set.match_counts(rows)
        assert counts.shape == (2, 3)
        assert counts[0, 0] == 0  # identical to pattern 1
        assert counts[1, 2] == 4  # all-zero row vs all-ones pattern

    def test_match_counts_width_mismatch(self, pattern_set):
        with pytest.raises(ValueError):
            pattern_set.match_counts(np.zeros((2, 5), dtype=np.uint8))

    def test_matrix_is_read_only(self, pattern_set):
        with pytest.raises(ValueError):
            pattern_set.matrix[0, 0] = 1

    def test_equality(self, pattern_set):
        other = PatternSet(pattern_set.matrix.copy())
        assert pattern_set == other
