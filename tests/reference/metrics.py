"""Level 2-scanning decomposition metrics.

This is ``repro.core.metrics.decomposition_metrics`` as it was before
decompositions carried per-row Level 2 nonzero counts: one pass over the
partitions builds each Level 2 tile from its activations and pattern
rows, counts its nonzeros and sums its signed values.  Property tests
check that the counts-based version returns the same operation counts
and densities, float for float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import OperationCounts, SparsityBreakdown
from repro.core.patterns import NO_PATTERN
from repro.core.sparsity import MatrixDecomposition


@dataclass(frozen=True)
class _DecompositionTotals:
    elements: int
    ones: int
    rows: int
    assigned: int
    pattern_bit_mass: int
    level2_nonzeros: int
    level2_positive: int
    level2_negative: int


def _decomposition_totals(decomposition: MatrixDecomposition) -> _DecompositionTotals:
    elements = ones = rows = assigned = pattern_mass = nnz = signed = 0
    for p, (patterns, (start, stop)) in enumerate(
        zip(decomposition.pattern_sets, decomposition.boundaries)
    ):
        tile = decomposition.activations[:, start:stop]
        indices = decomposition.pattern_indices[:, p]
        elements += tile.size
        ones += int(np.count_nonzero(tile))
        rows += tile.shape[0]
        used = indices[indices != NO_PATTERN]
        assigned += used.size
        if used.size:
            popcounts = patterns.matrix.sum(axis=1)
            pattern_mass += int(popcounts[used - 1].sum())
        level1 = np.zeros(tile.shape, dtype=np.int16)
        level1[indices != NO_PATTERN] = patterns.matrix[used - 1]
        level2 = tile.astype(np.int16) - level1
        nnz += int(np.count_nonzero(level2))
        signed += int(level2.sum(dtype=np.int64))
    return _DecompositionTotals(
        elements=elements,
        ones=ones,
        rows=rows,
        assigned=assigned,
        pattern_bit_mass=pattern_mass,
        level2_nonzeros=nnz,
        level2_positive=(nnz + signed) // 2,
        level2_negative=(nnz - signed) // 2,
    )


def decomposition_metrics(
    decomposition: MatrixDecomposition,
) -> tuple[OperationCounts, SparsityBreakdown]:
    """Operation counts and density breakdown from one Level 2 scan."""
    totals = _decomposition_totals(decomposition)
    counts = OperationCounts(
        dense_ops=totals.elements,
        bit_sparse_ops=totals.ones,
        phi_level1_ops=totals.assigned,
        phi_level2_ops=totals.level2_nonzeros,
    )
    if totals.elements == 0:
        return counts, SparsityBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return counts, SparsityBreakdown(
        bit_density=totals.ones / totals.elements,
        level1_density=totals.pattern_bit_mass / totals.elements,
        level1_vector_density=totals.assigned / totals.rows,
        level2_density=totals.level2_nonzeros / totals.elements,
        level2_positive_density=totals.level2_positive / totals.elements,
        level2_negative_density=totals.level2_negative / totals.elements,
    )
