"""Per-row Phi tile decomposition.

This is ``repro.core.sparsity.decompose_tile`` as it was before it
matched each distinct row once: every row is matched against every
pattern (float64 GEMM form of the Hamming distance) and Level 2 is built
with boolean-mask scatters.  Property tests check that the deduplicated
version returns the same pattern indices and Level 2 matrix.

The result carries its Level 2 as per-row nonzero counts, and its
``level2`` property rebuilds the matrix from the tile and the pattern
indices, so the oracle checks that rebuild against its own scatter.

``rebuild_tile`` and ``level2_counts`` are how a store hit got its Level
2 counts before the store kept them: one XOR popcount of each row's
packed words against its assigned pattern.  Tests check the stored
counts against this recount.
"""

from __future__ import annotations

import numpy as np

from repro.core.patterns import PatternSet, pack_rows
from repro.core.sparsity import TileDecomposition, partition_boundaries


def decompose_tile(tile: np.ndarray, patterns: PatternSet) -> TileDecomposition:
    """Decompose one binary activation tile against a pattern set."""
    tile = np.asarray(tile).astype(np.uint8, copy=False)
    num_rows = tile.shape[0]
    pattern_indices = np.zeros(num_rows, dtype=np.int32)
    level2 = np.zeros(tile.shape, dtype=np.int8)

    if num_rows == 0:
        return _checked(pattern_indices, level2, patterns, tile)

    rows_f = tile.astype(np.float64)
    patterns_f = patterns.matrix.astype(np.float64)
    distances = (
        rows_f.sum(axis=1, keepdims=True)
        + patterns_f.sum(axis=1, keepdims=True).T
        - 2 * (rows_f @ patterns_f.T)
    ).astype(np.int64)
    best_pattern = distances.argmin(axis=1)
    best_distance = distances[np.arange(num_rows), best_pattern]
    popcounts = tile.sum(axis=1).astype(np.int64)

    use_pattern = best_distance < popcounts

    pattern_indices[use_pattern] = best_pattern[use_pattern].astype(np.int32) + 1

    pattern_matrix = patterns.matrix.astype(np.int16)
    assigned = pattern_matrix[best_pattern[use_pattern]]
    level2_assigned = tile[use_pattern].astype(np.int16) - assigned
    level2[use_pattern] = level2_assigned.astype(np.int8)
    level2[~use_pattern] = tile[~use_pattern].astype(np.int8)

    return _checked(pattern_indices, level2, patterns, tile)


def _checked(
    pattern_indices: np.ndarray, level2: np.ndarray, patterns: PatternSet, tile: np.ndarray
) -> TileDecomposition:
    result = TileDecomposition(
        pattern_indices=pattern_indices,
        level2_nonzeros=np.count_nonzero(level2, axis=1),
        patterns=patterns,
        original=tile,
    )
    np.testing.assert_array_equal(result.level2, level2)
    return result


def assigned_distances(
    patterns: PatternSet, rows: np.ndarray, pattern_indices: np.ndarray
) -> np.ndarray:
    """Hamming distance of each row to its own assigned pattern.

    Row ``i`` is compared with the pattern of 1-based index
    ``pattern_indices[i]``; ``NO_PATTERN`` compares with the all-zero
    row, which gives the row's popcount.  The counts come out in the
    smallest unsigned dtype that holds the pattern width.
    """
    table = pack_rows(
        np.concatenate([np.zeros((1, patterns.width), np.uint8), patterns.matrix])
    )
    return np.bitwise_count(pack_rows(rows) ^ table[pattern_indices]).sum(
        axis=1, dtype=np.min_scalar_type(patterns.width)
    )


def rebuild_tile(
    tile: np.ndarray, patterns: PatternSet, pattern_indices: np.ndarray
) -> TileDecomposition:
    """A tile decomposition recounted from its pattern assignments."""
    tile = np.asarray(tile, dtype=np.uint8)
    indices = np.asarray(pattern_indices, dtype=np.int32)
    if indices.shape != (tile.shape[0],):
        raise ValueError(
            f"pattern_indices must have shape ({tile.shape[0]},), got {indices.shape}"
        )
    return TileDecomposition(
        pattern_indices=indices,
        level2_nonzeros=assigned_distances(patterns, tile, indices),
        patterns=patterns,
        original=tile,
    )


def level2_counts(
    activations: np.ndarray,
    pattern_sets,
    partition_size: int,
    pattern_index_matrix: np.ndarray,
) -> np.ndarray:
    """The ``(M, partitions)`` Level 2 counts of any pattern assignment."""
    activations = np.asarray(activations, dtype=np.uint8)
    boundaries = partition_boundaries(activations.shape[1], partition_size)
    widest = max(stop - start for start, stop in boundaries)
    counts = np.empty(
        (activations.shape[0], len(boundaries)), dtype=np.min_scalar_type(widest)
    )
    for p, (patterns, (start, stop)) in enumerate(zip(pattern_sets, boundaries)):
        tile = rebuild_tile(activations[:, start:stop], patterns, pattern_index_matrix[:, p])
        counts[:, p] = tile.level2_nonzeros
    return counts
