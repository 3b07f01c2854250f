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
    level2:
        ``(M, k)`` int8 matrix with values in {-1, 0, +1}: the bidirectional
        correction terms.
    patterns:
        The :class:`PatternSet` used for the decomposition.
    original:
        The original ``(M, k)`` binary activation tile (kept for metrics
        and verification).
    """

    pattern_indices: np.ndarray
    level2: np.ndarray
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
        exactly equivalent to decomposing the row slice from scratch.  The
        simulator uses this to hand per-M-tile views of the layer-level
        decomposition to the preprocessor instead of re-matching.
        """
        return TileDecomposition(
            pattern_indices=self.pattern_indices[start:stop],
            level2=self.level2[start:stop],
            patterns=self.patterns,
            original=self.original[start:stop],
        )

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
        if self.level2.size == 0:
            return 0.0
        return float(np.count_nonzero(self.level2) / self.level2.size)

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
    # Assign a pattern only when it strictly reduces the number of runtime
    # corrections compared to the plain bit-sparse row.
    use_pattern = best_distance < distinct.sum(axis=1)
    pattern_indices = np.where(use_pattern, best_pattern + 1, NO_PATTERN)[inverse]
    return rebuild_tile(tile, patterns, pattern_indices)


def _level1_rows(patterns: PatternSet, pattern_indices: np.ndarray) -> np.ndarray:
    """The ``int16`` Level 1 row of each 1-based pattern index.

    One gather from the pattern table padded with an all-zero row 0, so
    unassigned rows (``NO_PATTERN`` == 0) come out as zeros.
    """
    padded = np.zeros((patterns.num_patterns + 1, patterns.width), dtype=np.int16)
    padded[1:] = patterns.matrix
    return padded[pattern_indices]


def rebuild_tile(
    tile: np.ndarray, patterns: PatternSet, pattern_indices: np.ndarray
) -> TileDecomposition:
    """Reconstruct a tile decomposition from stored pattern assignments.

    The Level 2 matrix is a deterministic function of the tile, the
    pattern set and the per-row assignments, so persisting only the
    assignments (see ``repro.runner.store``) and rebuilding here yields
    the bit-exact :func:`decompose_tile` result at a fraction of its cost
    (no Hamming matching).
    """
    # No-copy when the caller already holds uint8 (workload activations
    # are, including memmap-backed store views) — the rebuild only reads.
    tile = np.asarray(tile, dtype=np.uint8)
    indices = np.asarray(pattern_indices, dtype=np.int32)
    if indices.shape != (tile.shape[0],):
        raise ValueError(
            f"pattern_indices must have shape ({tile.shape[0]},), got {indices.shape}"
        )
    # Unassigned rows subtract nothing and keep their bit-sparse form.
    level2 = (tile.astype(np.int16) - _level1_rows(patterns, indices)).astype(np.int8)
    return TileDecomposition(
        pattern_indices=indices, level2=level2, patterns=patterns, original=tile
    )


def rebuild_decomposition(
    activations: np.ndarray,
    pattern_sets: Sequence[PatternSet],
    partition_size: int,
    pattern_index_matrix: np.ndarray,
) -> MatrixDecomposition:
    """Reconstruct a full matrix decomposition from stored assignments.

    Parameters
    ----------
    activations:
        Binary matrix of shape ``(M, K)`` (the workload's layer input).
    pattern_sets:
        One :class:`PatternSet` per K partition, as used originally.
    partition_size:
        Partition width ``k`` used during calibration.
    pattern_index_matrix:
        The ``(M, num_partitions)`` assignment matrix produced by
        :meth:`MatrixDecomposition.pattern_index_matrix`.

    Returns
    -------
    MatrixDecomposition
        Bit-exact equal to ``decompose_matrix(activations, pattern_sets,
        partition_size)``.
    """
    activations = np.asarray(activations)
    boundaries = partition_boundaries(activations.shape[1], partition_size)
    if len(pattern_sets) != len(boundaries):
        raise ValueError(
            f"expected {len(boundaries)} pattern sets, got {len(pattern_sets)}"
        )
    indices = np.asarray(pattern_index_matrix)
    tiles = tuple(
        rebuild_tile(activations[:, start:stop], pattern_set, indices[:, p])
        for p, (pattern_set, (start, stop)) in enumerate(zip(pattern_sets, boundaries))
    )
    return MatrixDecomposition(tiles=tiles, boundaries=tuple(boundaries))


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

    Attributes
    ----------
    tiles:
        One :class:`TileDecomposition` per K partition, in column order.
    boundaries:
        The column ranges covered by each tile.
    """

    tiles: tuple[TileDecomposition, ...]
    boundaries: tuple[tuple[int, int], ...]

    @property
    def num_rows(self) -> int:
        """Number of activation rows M."""
        return self.tiles[0].num_rows if self.tiles else 0

    @property
    def total_width(self) -> int:
        """Total reduction width K."""
        return self.boundaries[-1][1] if self.boundaries else 0

    def reconstruct(self) -> np.ndarray:
        """Reconstruct the full binary activation matrix."""
        out = np.zeros((self.num_rows, self.total_width), dtype=np.int8)
        for tile, (start, stop) in zip(self.tiles, self.boundaries):
            out[:, start:stop] = tile.reconstruct()
        return out

    def pattern_index_matrix(self) -> np.ndarray:
        """The (M x num_partitions) matrix of assigned pattern indices."""
        if not self.tiles:
            return np.zeros((0, 0), dtype=np.int32)
        return np.stack([tile.pattern_indices for tile in self.tiles], axis=1)

    # ------------------------------------------------------------------ #
    # Aggregate density metrics
    # ------------------------------------------------------------------ #
    @property
    def bit_density(self) -> float:
        """Fraction of 1 bits in the original activation matrix."""
        total = sum(t.original.size for t in self.tiles)
        if total == 0:
            return 0.0
        ones = sum(int(t.original.sum()) for t in self.tiles)
        return ones / total

    @property
    def level1_density(self) -> float:
        """Fraction of (row, partition) entries that carry a pattern."""
        total = sum(t.num_rows for t in self.tiles)
        if total == 0:
            return 0.0
        assigned = sum(
            int(np.count_nonzero(t.pattern_indices != NO_PATTERN)) for t in self.tiles
        )
        return assigned / total

    @property
    def level2_density(self) -> float:
        """Fraction of nonzero correction elements across all tiles."""
        total = sum(t.level2.size for t in self.tiles)
        if total == 0:
            return 0.0
        nnz = sum(int(np.count_nonzero(t.level2)) for t in self.tiles)
        return nnz / total

    @property
    def level2_positive_density(self) -> float:
        """Fraction of +1 corrections across all tiles."""
        total = sum(t.level2.size for t in self.tiles)
        if total == 0:
            return 0.0
        nnz = sum(int(np.count_nonzero(t.level2 == 1)) for t in self.tiles)
        return nnz / total

    @property
    def level2_negative_density(self) -> float:
        """Fraction of -1 corrections across all tiles."""
        total = sum(t.level2.size for t in self.tiles)
        if total == 0:
            return 0.0
        nnz = sum(int(np.count_nonzero(t.level2 == -1)) for t in self.tiles)
        return nnz / total

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
    tiles = []
    for pattern_set, (start, stop) in zip(pattern_sets, boundaries):
        tiles.append(decompose_tile(activations[:, start:stop], pattern_set))
    return MatrixDecomposition(tiles=tuple(tiles), boundaries=tuple(boundaries))
