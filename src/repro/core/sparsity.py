"""Phi sparsity decomposition (Level 1 vector sparsity + Level 2 element sparsity).

Given a binary activation matrix ``A`` of shape ``(M, K)`` and a calibrated
pattern set per K-partition, Phi decomposes each partition (tile) as

    A_tile = L1_tile + L2_tile

where every row of ``L1_tile`` is either a calibrated pattern or all zeros
(vector-wise sparsity), and ``L2_tile`` holds {+1, -1} corrections only at
the positions where the chosen pattern mismatches the activation row
(element-wise sparsity).  The decomposition is exact: summing the two
levels always reproduces the original activation tile (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .patterns import NO_PATTERN, PatternSet, distinct_rows, is_binary_matrix


@dataclass(frozen=True)
class TileDecomposition:
    """Phi decomposition of a single (M x k) activation partition.

    Attributes
    ----------
    pattern_indices:
        1-D integer array of length ``M``.  Entry ``i`` is the 1-based
        index of the pattern assigned to row ``i``, or ``0`` when no
        pattern is assigned (the row is carried entirely by Level 2).
    level2_nonzeros:
        1-D unsigned array of length ``M``: the number of nonzero Level 2
        corrections of each row, i.e. its Hamming distance to its pattern
        (its popcount when no pattern is assigned).  Every counting
        consumer (metrics, the preprocessor plan, DRAM traffic) reads
        these instead of the Level 2 matrix.
    patterns:
        The :class:`PatternSet` used for the decomposition.
    original:
        The original ``(M, k)`` binary activation tile (kept for metrics
        and verification).
    """

    pattern_indices: np.ndarray
    level2_nonzeros: np.ndarray
    patterns: PatternSet
    original: np.ndarray

    @property
    def num_rows(self) -> int:
        """Number of activation rows M in the tile."""
        return int(self.original.shape[0])

    def row_slice(self, start: int, stop: int) -> "TileDecomposition":
        """The decomposition restricted to rows ``[start, stop)``.

        Rows are decomposed independently (the best pattern of a row does
        not depend on other rows), so slicing an existing decomposition is
        exactly equivalent to decomposing the row slice from scratch.
        """
        return TileDecomposition(
            pattern_indices=self.pattern_indices[start:stop],
            level2_nonzeros=self.level2_nonzeros[start:stop],
            patterns=self.patterns,
            original=self.original[start:stop],
        )

    @property
    def level2(self) -> np.ndarray:
        """The ``(M, k)`` int8 Level 2 matrix, values in {-1, 0, +1}.

        Built on each access from the tile and its Level 1 rows: only
        :meth:`reconstruct`, :meth:`compute_output` and PAFT need the
        correction elements themselves.
        """
        level1 = _level1_rows(self.patterns, self.pattern_indices)
        return (self.original.astype(np.int16) - level1).astype(np.int8)

    def level1_matrix(self) -> np.ndarray:
        """Materialise the Level 1 matrix (each row a pattern or zeros)."""
        return _level1_rows(self.patterns, self.pattern_indices).astype(np.int8)

    def reconstruct(self) -> np.ndarray:
        """Reconstruct the original activation tile from L1 + L2."""
        return (_level1_rows(self.patterns, self.pattern_indices) + self.level2).astype(np.int8)

    # ------------------------------------------------------------------ #
    # Density metrics (used throughout the evaluation section)
    # ------------------------------------------------------------------ #
    @property
    def bit_density(self) -> float:
        """Fraction of 1 bits in the original activation tile."""
        return float(self.original.mean()) if self.original.size else 0.0

    @property
    def level1_density(self) -> float:
        """Fraction of rows assigned a pattern (vector density)."""
        if self.num_rows == 0:
            return 0.0
        return float(np.count_nonzero(self.pattern_indices != NO_PATTERN) / self.num_rows)

    @property
    def level2_density(self) -> float:
        """Fraction of nonzero elements in the Level 2 matrix."""
        if self.original.size == 0:
            return 0.0
        return float(self.level2_nonzeros.sum(dtype=np.int64) / self.original.size)

    def compute_output(self, weight_tile: np.ndarray, pwps: np.ndarray | None = None) -> np.ndarray:
        """Compute ``A_tile @ weight_tile`` via the Phi decomposition.

        Parameters
        ----------
        weight_tile:
            ``(k, n)`` weight partition.
        pwps:
            Optional precomputed pattern-weight products of shape
            ``(q + 1, n)``; computed on the fly when omitted.

        Returns
        -------
        numpy.ndarray
            ``(M, n)`` partial output of this partition.
        """
        weight_tile = np.asarray(weight_tile, dtype=np.float64)
        if pwps is None:
            pwps = self.patterns.compute_pwps(weight_tile)
        level1_out = pwps[self.pattern_indices]
        level2_out = self.level2.astype(np.float64) @ weight_tile
        return level1_out + level2_out


def decompose_tile(tile: np.ndarray, patterns: PatternSet) -> TileDecomposition:
    """Decompose one binary activation tile against a pattern set.

    For every row the best-matching pattern (minimum Hamming distance) is
    selected.  If even the best pattern needs more corrections than the
    row's own popcount (i.e. the achievable Level 2 sparsity would be lower
    than the original bit sparsity), no pattern is assigned and the row is
    carried verbatim in the Level 2 matrix.
    """
    tile = np.asarray(tile)
    if tile.ndim != 2:
        raise ValueError(f"tile must be 2-D, got shape {tile.shape}")
    if not is_binary_matrix(tile):
        raise ValueError("tile must be a binary 0/1 matrix")
    tile = tile.astype(np.uint8, copy=False)
    if tile.shape[1] != patterns.width:
        raise ValueError(
            f"tile width {tile.shape[1]} does not match pattern width {patterns.width}"
        )

    # The choice is a pure function of a row's bits, so each distinct row
    # is matched once and its choice scattered back to its copies.
    distinct, inverse = distinct_rows(tile)
    distances = patterns.match_counts(distinct)  # (distinct, q) Hamming distances
    best_pattern = distances.argmin(axis=1)  # 0-based
    best_distance = distances[np.arange(distinct.shape[0]), best_pattern]
    popcounts = distinct.sum(axis=1, dtype=np.int64)
    # Assign a pattern only when it strictly reduces the number of runtime
    # corrections compared to the plain bit-sparse row.  Either way the
    # row's Level 2 count is the smaller of the two distances.
    use_pattern = best_distance < popcounts
    pattern_indices = np.where(use_pattern, best_pattern + 1, NO_PATTERN).astype(np.int32)
    counts = np.minimum(best_distance, popcounts).astype(np.min_scalar_type(tile.shape[1]))
    return TileDecomposition(
        pattern_indices=pattern_indices[inverse],
        level2_nonzeros=counts[inverse],
        patterns=patterns,
        original=tile,
    )


def _level1_rows(patterns: PatternSet, pattern_indices: np.ndarray) -> np.ndarray:
    """The ``int16`` Level 1 row of each 1-based pattern index.

    One gather from the pattern table padded with an all-zero row 0, so
    unassigned rows (``NO_PATTERN`` == 0) come out as zeros.
    """
    padded = np.zeros((patterns.num_patterns + 1, patterns.width), dtype=np.int16)
    padded[1:] = patterns.matrix
    return padded[pattern_indices]


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

    The smallest unsigned one that holds the widest partition, as for a
    single tile's counts.
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
    partitions)`` matrices; :attr:`tiles` hands out per-partition column
    views of them.

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
        and partition.  The store persists both matrices.
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

    @property
    def tiles(self) -> tuple[TileDecomposition, ...]:
        """One :class:`TileDecomposition` per K partition, as column views."""
        return tuple(
            TileDecomposition(
                pattern_indices=self.pattern_indices[:, p],
                level2_nonzeros=self.level2_nonzeros[:, p],
                patterns=pattern_set,
                original=self.activations[:, start:stop],
            )
            for p, (pattern_set, (start, stop)) in enumerate(
                zip(self.pattern_sets, self.boundaries)
            )
        )

    def reconstruct(self) -> np.ndarray:
        """Reconstruct the full binary activation matrix."""
        out = np.zeros((self.num_rows, self.total_width), dtype=np.int8)
        for tile, (start, stop) in zip(self.tiles, self.boundaries):
            out[:, start:stop] = tile.reconstruct()
        return out

    # ------------------------------------------------------------------ #
    # Aggregate density metrics
    # ------------------------------------------------------------------ #
    @property
    def bit_density(self) -> float:
        """Fraction of 1 bits in the original activation matrix."""
        if self.activations.size == 0:
            return 0.0
        return int(np.count_nonzero(self.activations)) / self.activations.size

    @property
    def level1_density(self) -> float:
        """Fraction of (row, partition) entries that carry a pattern."""
        if self.pattern_indices.size == 0:
            return 0.0
        return int(np.count_nonzero(self.pattern_indices)) / self.pattern_indices.size

    @property
    def level2_density(self) -> float:
        """Fraction of nonzero correction elements across all tiles."""
        if self.activations.size == 0:
            return 0.0
        return int(self.level2_nonzeros.sum(dtype=np.int64)) / self.activations.size

    def compute_output(self, weights: np.ndarray) -> np.ndarray:
        """Compute ``A @ weights`` using the Phi decomposition tile by tile."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != self.total_width:
            raise ValueError(
                f"weights must have {self.total_width} rows, got {weights.shape[0]}"
            )
        output = np.zeros((self.num_rows, weights.shape[1]), dtype=np.float64)
        for tile, (start, stop) in zip(self.tiles, self.boundaries):
            output += tile.compute_output(weights[start:stop])
        return output


def decompose_matrix(
    activations: np.ndarray,
    pattern_sets: Sequence[PatternSet],
    partition_size: int,
) -> MatrixDecomposition:
    """Decompose a full binary activation matrix into Phi sparsity.

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
    boundaries = partition_boundaries(activations.shape[1], partition_size)
    if len(pattern_sets) != len(boundaries):
        raise ValueError(
            f"expected {len(boundaries)} pattern sets for K={activations.shape[1]} "
            f"and k={partition_size}, got {len(pattern_sets)}"
        )
    indices = np.empty((activations.shape[0], len(boundaries)), dtype=np.int32)
    counts = np.empty(indices.shape, dtype=_count_dtype(boundaries))
    for p, (pattern_set, (start, stop)) in enumerate(zip(pattern_sets, boundaries)):
        tile = decompose_tile(activations[:, start:stop], pattern_set)
        indices[:, p] = tile.pattern_indices
        counts[:, p] = tile.level2_nonzeros
    return MatrixDecomposition(
        activations=activations.astype(np.uint8, copy=False),
        pattern_sets=tuple(pattern_sets),
        boundaries=tuple(boundaries),
        pattern_indices=indices,
        level2_nonzeros=counts,
    )
