"""Phi sparsity decomposition (Level 1 vector sparsity + Level 2 element sparsity).

Given a binary activation matrix ``A`` of shape ``(M, K)`` and a calibrated
pattern set per K-partition, Phi decomposes each partition (tile) as

    A_tile = L1_tile + L2_tile

where every row of ``L1_tile`` is either a calibrated pattern or all zeros
(vector-wise sparsity), and ``L2_tile`` holds {+1, -1} corrections only at
the positions where the chosen pattern mismatches the activation row
(element-wise sparsity).  The decomposition is exact: summing the two
levels always reproduces the original activation tile (Section 3.1).

:class:`MatrixDecomposition` keeps, per row and partition, the assigned
pattern index and the number of Level 2 nonzeros; the Level 2 matrix
itself is built only on request (:meth:`MatrixDecomposition.level2`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .patterns import NO_PATTERN, PatternSet, distinct_rows, is_binary_matrix


def rebuild_decomposition(
    activations: np.ndarray,
    pattern_sets: Sequence[PatternSet],
    partition_size: int,
    pattern_index_matrix: np.ndarray,
    level2_counts: np.ndarray,
) -> MatrixDecomposition:
    """Assemble a matrix decomposition from its stored matrices.

    A decomposition is fully described by its activations, pattern sets
    and two ``(M, partitions)`` matrices: the pattern assignments and the
    Level 2 counts.  The store persists both matrices, so a hit is put
    back together here without matching or counting anything.

    Parameters
    ----------
    activations:
        Binary matrix of shape ``(M, K)`` (the workload's layer input).
    pattern_sets:
        One :class:`PatternSet` per K partition, as used originally.
    partition_size:
        Partition width ``k`` used during calibration.
    pattern_index_matrix:
        :attr:`MatrixDecomposition.pattern_indices` of the decomposition.
    level2_counts:
        :attr:`MatrixDecomposition.level2_nonzeros` of the decomposition.

    Returns
    -------
    MatrixDecomposition
        Equal to the decomposition the matrices were taken from.  No
        input is copied when it already has its in-memory dtype
        (``uint8`` activations, ``int32`` assignments, the count dtype
        of :func:`decompose_matrix`), so a store's mapped payload stays
        mapped.
    """
    activations = np.asarray(activations, dtype=np.uint8)
    boundaries = partition_boundaries(activations.shape[1], partition_size)
    if len(pattern_sets) != len(boundaries):
        raise ValueError(
            f"expected {len(boundaries)} pattern sets, got {len(pattern_sets)}"
        )
    shape = (activations.shape[0], len(boundaries))
    indices = np.asarray(pattern_index_matrix, dtype=np.int32)
    counts = np.asarray(level2_counts, dtype=_count_dtype(boundaries))
    for name, matrix in (("pattern_index_matrix", indices), ("level2_counts", counts)):
        if matrix.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {matrix.shape}")
    return MatrixDecomposition(
        activations=activations,
        pattern_sets=tuple(pattern_sets),
        boundaries=tuple(boundaries),
        pattern_indices=indices,
        level2_nonzeros=counts,
    )


def _count_dtype(boundaries: Sequence[tuple[int, int]]) -> np.dtype:
    """Dtype of an ``(M, partitions)`` Level 2 count matrix.

    The smallest unsigned one that holds the widest partition.
    """
    return np.min_scalar_type(max(stop - start for start, stop in boundaries))


def partition_boundaries(total_width: int, partition_size: int) -> list[tuple[int, int]]:
    """Return the ``[start, stop)`` column ranges of each K partition.

    The final partition may be narrower than ``partition_size`` when the
    total width is not an exact multiple.
    """
    if total_width < 1:
        raise ValueError("total_width must be >= 1")
    if partition_size < 1:
        raise ValueError("partition_size must be >= 1")
    bounds = []
    start = 0
    while start < total_width:
        stop = min(start + partition_size, total_width)
        bounds.append((start, stop))
        start = stop
    return bounds


@dataclass(frozen=True)
class MatrixDecomposition:
    """Phi decomposition of a full (M x K) binary activation matrix.

    The per-row results of every partition live in two ``(M,
    partitions)`` matrices, column ``p`` for partition ``p``.

    Attributes
    ----------
    activations:
        The ``(M, K)`` uint8 activation matrix.
    pattern_sets:
        One :class:`PatternSet` per K partition, in column order.
    boundaries:
        The column ranges covered by each partition.
    pattern_indices:
        ``(M, partitions)`` int32 matrix of assigned 1-based pattern
        indices (``NO_PATTERN`` for none).
    level2_nonzeros:
        ``(M, partitions)`` unsigned matrix of Level 2 nonzeros per row
        and partition: the row's Hamming distance to its pattern, or its
        popcount when no pattern is assigned.  Every counting consumer
        (metrics, the preprocessor plan, DRAM traffic) reads these
        instead of the Level 2 matrix, and the store persists both
        matrices.
    """

    activations: np.ndarray
    pattern_sets: tuple[PatternSet, ...]
    boundaries: tuple[tuple[int, int], ...]
    pattern_indices: np.ndarray
    level2_nonzeros: np.ndarray

    @property
    def num_rows(self) -> int:
        """Number of activation rows M."""
        return int(self.activations.shape[0])

    @property
    def total_width(self) -> int:
        """Total reduction width K."""
        return int(self.activations.shape[1])

    def level2(self) -> np.ndarray:
        """The ``(M, K)`` int8 Level 2 matrix, values in {-1, 0, +1}.

        Built partition by partition on each call: the activations minus
        each row's Level 1 pattern, gathered from the pattern table padded
        with an all-zero row for ``NO_PATTERN``.  Only
        :meth:`compute_output` and PAFT need the correction elements
        themselves.
        """
        level2 = self.activations.astype(np.int8)
        for p, (patterns, (start, stop)) in enumerate(zip(self.pattern_sets, self.boundaries)):
            table = np.zeros((patterns.num_patterns + 1, patterns.width), dtype=np.int8)
            table[1:] = patterns.matrix
            level2[:, start:stop] -= table[self.pattern_indices[:, p]]
        return level2

    def compute_output(self, weights: np.ndarray) -> np.ndarray:
        """Compute ``A @ weights`` using the Phi decomposition tile by tile.

        Each partition contributes its Level 1 pattern-weight products
        plus its Level 2 corrections times the partition's weight rows.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != self.total_width:
            raise ValueError(
                f"weights must have {self.total_width} rows, got {weights.shape[0]}"
            )
        level2 = self.level2()
        output = np.zeros((self.num_rows, weights.shape[1]), dtype=np.float64)
        for p, (patterns, (start, stop)) in enumerate(zip(self.pattern_sets, self.boundaries)):
            pwps = patterns.compute_pwps(weights[start:stop])
            corrections = level2[:, start:stop].astype(np.float64) @ weights[start:stop]
            output += pwps[self.pattern_indices[:, p]] + corrections
        return output


def decompose_matrix(
    activations: np.ndarray,
    pattern_sets: Sequence[PatternSet],
    partition_size: int,
) -> MatrixDecomposition:
    """Decompose a full binary activation matrix into Phi sparsity.

    For every row of every partition the best-matching pattern (minimum
    Hamming distance) is selected.  If even the best pattern needs more
    corrections than the row's own popcount (i.e. the achievable Level 2
    sparsity would be lower than the original bit sparsity), no pattern
    is assigned and the row is carried verbatim in Level 2.

    Parameters
    ----------
    activations:
        Binary matrix of shape ``(M, K)``.
    pattern_sets:
        One :class:`PatternSet` per K partition (in column order).
    partition_size:
        Partition width ``k`` used during calibration.
    """
    activations = np.asarray(activations)
    if activations.ndim != 2:
        raise ValueError("activations must be 2-D")
    if not is_binary_matrix(activations):
        raise ValueError("activations must be a binary 0/1 matrix")
    activations = activations.astype(np.uint8, copy=False)
    boundaries = partition_boundaries(activations.shape[1], partition_size)
    if len(pattern_sets) != len(boundaries):
        raise ValueError(
            f"expected {len(boundaries)} pattern sets for K={activations.shape[1]} "
            f"and k={partition_size}, got {len(pattern_sets)}"
        )
    indices = np.empty((activations.shape[0], len(boundaries)), dtype=np.int32)
    counts = np.empty(indices.shape, dtype=_count_dtype(boundaries))
    for p, (pattern_set, (start, stop)) in enumerate(zip(pattern_sets, boundaries)):
        # The choice is a pure function of a row's bits, so each distinct
        # row is matched once and its choice scattered back to its copies.
        distinct, inverse = distinct_rows(activations[:, start:stop])
        distances = pattern_set.match_counts(distinct)  # (distinct, q)
        best_pattern = distances.argmin(axis=1)  # 0-based
        best_distance = distances[np.arange(distinct.shape[0]), best_pattern]
        popcounts = distinct.sum(axis=1, dtype=np.int64)
        # Assign a pattern only when it strictly reduces the number of
        # runtime corrections compared to the plain bit-sparse row.
        # Either way the row's Level 2 count is the smaller distance.
        use_pattern = best_distance < popcounts
        indices[:, p] = np.where(use_pattern, best_pattern + 1, NO_PATTERN)[inverse]
        counts[:, p] = np.minimum(best_distance, popcounts)[inverse]
    return MatrixDecomposition(
        activations=activations,
        pattern_sets=tuple(pattern_sets),
        boundaries=tuple(boundaries),
        pattern_indices=indices,
        level2_nonzeros=counts,
    )
