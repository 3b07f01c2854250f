"""Unique-row k-means and matching equal their per-row oracles bit for bit.

``binary_kmeans`` runs Lloyd over the distinct rows weighted by their
multiplicity, and ``decompose_matrix`` matches each distinct row once.  The
per-row versions they replaced live in ``tests/reference/``; these tests
check that both return exactly what the oracles return.  The widths cover
both row-key paths: one ``uint64`` key up to 64 bits, void keys above.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import kmeans as reference_kmeans
from reference import sparsity as reference_sparsity

from repro.core.config import KMeansConfig
from repro.core.kmeans import binary_kmeans, hamming_distance_matrix, unique_binary_rows
from repro.core.patterns import PatternSet, distinct_rows
from repro.core.sparsity import decompose_matrix

WIDTHS = [1, 7, 8, 9, 63, 64, 65, 100]


@st.composite
def duplicated_rows(draw, min_rows: int = 1):
    """``(n, k)`` binary rows drawn from a few distinct ones, so most repeat."""
    width = draw(st.sampled_from(WIDTHS))
    density = draw(st.sampled_from([0.1, 0.5, 0.9]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    base = (rng.random((draw(st.integers(1, 8)), width)) < density).astype(np.uint8)
    picks = rng.integers(0, base.shape[0], size=draw(st.integers(min_rows, 120)))
    return base[picks]


def assert_same_clustering(got, want):
    np.testing.assert_array_equal(got.centers, want.centers)
    np.testing.assert_array_equal(got.assignments, want.assignments)
    assert got.inertia == want.inertia
    assert got.iterations == want.iterations


@settings(max_examples=80, deadline=None)
@given(
    rows=duplicated_rows(),
    num_clusters=st.integers(1, 12),
    seed=st.integers(0, 1000),
    tolerance=st.sampled_from([0.0, 0.05, 0.5]),
)
def test_weighted_kmeans_equals_unweighted(rows, num_clusters, seed, tolerance):
    # num_clusters often exceeds the (at most 8) distinct rows, which pads
    # the centres with random rows and empties clusters: the reseed path.
    config = KMeansConfig(seed=seed, tolerance=tolerance)
    want = reference_kmeans.binary_kmeans(rows, num_clusters, config)
    assert_same_clustering(binary_kmeans(rows, num_clusters, config), want)
    assert_same_clustering(
        binary_kmeans(rows, num_clusters, config, unique_rows=unique_binary_rows(rows)),
        want,
    )


# Three distinct rows tie at the maximum distance (2) from their centres
# when the first reseed fires: 00001, 01011 and 11100.  The oracle reseeds
# with whichever comes first in row order, so the lexicographically
# smallest tied row (00001) is never the answer here.
TIE_ROWS = np.array(
    [
        [0, 1, 0, 1, 1],
        [1, 1, 1, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1],
        [0, 1, 0, 1, 1],
        [0, 1, 0, 1, 1],
        [0, 1, 1, 0, 1],
        [1, 0, 1, 1, 0],
        [1, 0, 1, 1, 0],
        [1, 1, 1, 0, 0],
        [1, 1, 1, 1, 0],
        [1, 1, 1, 1, 0],
        [1, 1, 1, 1, 0],
    ],
    dtype=np.uint8,
)


def test_reseed_tie_goes_to_first_occurrence_in_either_order():
    config = KMeansConfig(seed=13)
    swapped = TIE_ROWS[[1, 0, *range(2, TIE_ROWS.shape[0])]]
    results = []
    for rows in (TIE_ROWS, swapped):
        want = reference_kmeans.binary_kmeans(rows, 3, config)
        assert_same_clustering(binary_kmeans(rows, 3, config), want)
        results.append(want.centers)
    # The tie-break is observable: the two orders reseed different rows.
    assert not np.array_equal(*results)


def test_tolerance_early_stop():
    # 400 rows over 40 distinct ones: the stop test must count changed
    # rows, not changed distinct rows, or it stops an iteration early.
    rng = np.random.default_rng(1)
    rows = (rng.random((40, 16)) < 0.3).astype(np.uint8)[rng.integers(0, 40, size=400)]
    early = KMeansConfig(seed=0, tolerance=0.02)
    full = KMeansConfig(seed=0, tolerance=0.0)
    want_early = reference_kmeans.binary_kmeans(rows, 8, early)
    assert want_early.iterations < reference_kmeans.binary_kmeans(rows, 8, full).iterations
    assert_same_clustering(binary_kmeans(rows, 8, early), want_early)


@settings(max_examples=80, deadline=None)
@given(tile=duplicated_rows(min_rows=0), num_patterns=st.integers(1, 20), seed=st.integers(0, 1000))
def test_deduplicated_decomposition_equals_per_row(tile, num_patterns, seed):
    rng = np.random.default_rng(seed)
    patterns = PatternSet((rng.random((num_patterns, tile.shape[1])) < 0.5).astype(np.uint8))
    got = decompose_matrix(tile, (patterns,), tile.shape[1])
    want = reference_sparsity.decompose_tile(tile, patterns)
    np.testing.assert_array_equal(got.pattern_indices[:, 0], want.pattern_indices)
    assert got.pattern_indices.dtype == want.pattern_indices.dtype
    np.testing.assert_array_equal(got.level2(), want.level2)
    assert got.level2().dtype == want.level2.dtype


@pytest.mark.parametrize("width", WIDTHS)
def test_empty_tile(width):
    patterns = PatternSet(np.ones((3, width), dtype=np.uint8))
    tile = np.zeros((0, width), dtype=np.uint8)
    got = decompose_matrix(tile, (patterns,), width)
    want = reference_sparsity.decompose_tile(tile, patterns)
    assert got.pattern_indices.shape == (0, 1)
    assert want.pattern_indices.shape == (0,)
    assert got.level2().shape == want.level2.shape == (0, width)
    assert got.level2_nonzeros.shape == (0, 1)


@settings(max_examples=60, deadline=None)
@given(rows=duplicated_rows(), num_centers=st.integers(1, 12), seed=st.integers(0, 1000))
def test_distinct_rows_and_distances_match_numpy(rows, num_centers, seed):
    unique, inverse = distinct_rows(rows)
    np.testing.assert_array_equal(unique, np.unique(rows, axis=0))
    np.testing.assert_array_equal(unique[inverse], rows)
    np.testing.assert_array_equal(unique_binary_rows(rows), unique)
    rng = np.random.default_rng(seed)
    centers = (rng.random((num_centers, rows.shape[1])) < 0.5).astype(np.uint8)
    expected = (rows[:, None, :] != centers[None, :, :]).sum(axis=2)
    np.testing.assert_array_equal(hamming_distance_matrix(rows, centers), expected)


def test_wrong_unique_rows_rejected():
    rng = np.random.default_rng(3)
    rows = (rng.random((60, 10)) < 0.5).astype(np.uint8)
    unique = unique_binary_rows(rows)
    for wrong in (unique[::-1], unique[1:], unique_binary_rows(np.vstack([rows, 1 - rows[:1]]))):
        with pytest.raises(ValueError, match="unique_rows"):
            binary_kmeans(rows, 4, unique_rows=wrong)
