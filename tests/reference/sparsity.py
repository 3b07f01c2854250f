"""Per-row Phi tile decomposition and checks that a decomposition is right.

``decompose_tile`` is one partition of ``repro.core.sparsity.decompose_matrix``
as it was before it matched each distinct row once: every row is matched
against every pattern (float64 GEMM form of the Hamming distance) and
Level 2 is built with boolean-mask scatters.  Property tests check that
the deduplicated version returns the same pattern indices and Level 2
matrix.

``assigned_distances`` and ``level2_counts`` are how a store hit got its
Level 2 counts before the store kept them: one XOR popcount of each row's
packed words against its assigned pattern.  Tests check the stored
counts against this recount.

``check_decomposition`` asserts what can actually be wrong with a
decomposition.  Level 2 is built as the activations minus Level 1, so
``L1 + L2 == A`` holds for any pattern assignment and proves nothing;
the stored counts must instead equal both the built Level 2's nonzeros
and the XOR popcount recount.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.patterns import NO_PATTERN, PatternSet, pack_rows
from repro.core.sparsity import MatrixDecomposition, partition_boundaries


@dataclass(frozen=True)
class TileResult:
    """The per-row oracle's decomposition of one partition."""

    pattern_indices: np.ndarray  # (M,) int32, NO_PATTERN for none
    level2: np.ndarray  # (M, k) int8, values in {-1, 0, +1}

    @property
    def level2_nonzeros(self) -> np.ndarray:
        return np.count_nonzero(self.level2, axis=1)


def decompose_tile(tile: np.ndarray, patterns: PatternSet) -> TileResult:
    """Decompose one binary activation tile against a pattern set."""
    tile = np.asarray(tile).astype(np.uint8, copy=False)
    num_rows = tile.shape[0]
    pattern_indices = np.zeros(num_rows, dtype=np.int32)
    level2 = np.zeros(tile.shape, dtype=np.int8)

    if num_rows == 0:
        return TileResult(pattern_indices, level2)

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

    return TileResult(pattern_indices, level2)


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
        counts[:, p] = assigned_distances(
            patterns, activations[:, start:stop], pattern_index_matrix[:, p]
        )
    return counts


def check_decomposition(decomposition: MatrixDecomposition) -> None:
    """Assert that a decomposition's stored matrices describe its activations.

    Per (row, partition): the pattern index is in range, the stored Level
    2 count equals the nonzeros of the built Level 2 and the XOR popcount
    recount; Level 2 values lie in {-1, 0, +1}; and a ``NO_PATTERN`` row
    carries its own bits in Level 2.
    """
    activations = decomposition.activations
    level2 = decomposition.level2()
    assert level2.dtype == np.int8
    assert level2.shape == activations.shape
    assert set(np.unique(level2).tolist()) <= {-1, 0, 1}
    assert decomposition.level2_nonzeros.dtype.kind == "u"
    for p, (patterns, (start, stop)) in enumerate(
        zip(decomposition.pattern_sets, decomposition.boundaries)
    ):
        indices = decomposition.pattern_indices[:, p]
        assert indices.min(initial=0) >= 0
        assert indices.max(initial=0) <= patterns.num_patterns
        tile, tile_level2 = activations[:, start:stop], level2[:, start:stop]
        stored = decomposition.level2_nonzeros[:, p]
        np.testing.assert_array_equal(stored, np.count_nonzero(tile_level2, axis=1))
        np.testing.assert_array_equal(stored, assigned_distances(patterns, tile, indices))
        unassigned = indices == NO_PATTERN
        np.testing.assert_array_equal(tile_level2[unassigned], tile[unassigned])
