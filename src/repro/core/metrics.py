"""Sparsity and operation-count metrics used across the evaluation.

The paper measures efficiency in "operations" (OPs), where one OP is the
accumulation triggered by a single '1' element in a bit-sparse activation
(Section 5.1).  Under Phi sparsity the online work shrinks to:

* Level 1: one PWP lookup-and-accumulate per assigned pattern per output
  tile (amortised over the N dimension it is one vector accumulation), and
* Level 2: one accumulation per {+1, -1} correction element.

The *theoretical speedups* of Table 4 compare operation counts against bit
sparsity ("Theo. Sp. Over B.") and against a dense accelerator
("Theo. Sp. Over D.").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .sparsity import MatrixDecomposition


@dataclass(frozen=True)
class SparsityBreakdown:
    """Density breakdown of one decomposed activation matrix (Table 4 row).

    All densities are fractions in [0, 1].

    Attributes
    ----------
    bit_density:
        Fraction of 1 bits in the original binary activation matrix.
    level1_density:
        Fraction of (row, partition) slots that carry a pattern, expressed
        per element (i.e. pattern popcount mass relative to matrix size) so
        that it is directly comparable with the paper's "L1 density" column
        which closely tracks the bit density.
    level1_vector_density:
        Fraction of (row, partition) slots with an assigned pattern.
    level2_density:
        Fraction of nonzero correction elements.
    level2_positive_density / level2_negative_density:
        Fractions of +1 and -1 corrections.
    """

    bit_density: float
    level1_density: float
    level1_vector_density: float
    level2_density: float
    level2_positive_density: float
    level2_negative_density: float

    @property
    def total_online_density(self) -> float:
        """Density of elements that still require online computation."""
        return self.level2_density

    def as_dict(self) -> dict[str, float]:
        """Return the breakdown as a plain dictionary."""
        return {
            "bit_density": self.bit_density,
            "level1_density": self.level1_density,
            "level1_vector_density": self.level1_vector_density,
            "level2_density": self.level2_density,
            "level2_positive_density": self.level2_positive_density,
            "level2_negative_density": self.level2_negative_density,
        }


def sparsity_breakdown(decomposition: MatrixDecomposition) -> SparsityBreakdown:
    """Compute the Table-4-style density breakdown of a decomposition."""
    return decomposition_metrics(decomposition)[1]


@dataclass(frozen=True)
class OperationCounts:
    """Online operation counts of one layer under different schemes.

    One operation is an accumulation of a weight row of length ``n`` (the
    output-tile width): dense accelerators perform ``M * K`` of them,
    bit-sparse accelerators only for the '1' activations, and Phi only for
    Level 1 pattern lookups plus Level 2 corrections.
    """

    dense_ops: int
    bit_sparse_ops: int
    phi_level1_ops: int
    phi_level2_ops: int

    @property
    def phi_ops(self) -> int:
        """Total online Phi operations (Level 1 lookups + Level 2 ACs)."""
        return self.phi_level1_ops + self.phi_level2_ops

    @property
    def speedup_over_bit(self) -> float:
        """Theoretical speedup of Phi over bit sparsity (Table 4)."""
        if self.phi_ops == 0:
            return float("inf") if self.bit_sparse_ops > 0 else 1.0
        return self.bit_sparse_ops / self.phi_ops

    @property
    def speedup_over_dense(self) -> float:
        """Theoretical speedup of Phi over a dense accelerator (Table 4)."""
        if self.phi_ops == 0:
            return float("inf") if self.dense_ops > 0 else 1.0
        return self.dense_ops / self.phi_ops

    def __add__(self, other: "OperationCounts") -> "OperationCounts":
        return OperationCounts(
            dense_ops=self.dense_ops + other.dense_ops,
            bit_sparse_ops=self.bit_sparse_ops + other.bit_sparse_ops,
            phi_level1_ops=self.phi_level1_ops + other.phi_level1_ops,
            phi_level2_ops=self.phi_level2_ops + other.phi_level2_ops,
        )


def operation_counts(decomposition: MatrixDecomposition) -> OperationCounts:
    """Count online accumulation operations for a decomposed matrix.

    Dense operation count is ``M * K`` vector accumulations; bit-sparse
    count is the number of '1' activation bits; Phi counts one vector
    accumulation per assigned pattern (the PWP lookup) plus one per Level 2
    correction element.
    """
    return decomposition_metrics(decomposition)[0]


def decomposition_metrics(
    decomposition: MatrixDecomposition,
) -> tuple[OperationCounts, SparsityBreakdown]:
    """Operation counts and density breakdown, read off the decomposition's counts.

    The two metric families share every underlying integer mass, so
    callers that need both (the engine's decomposition records) should
    use this instead of calling :func:`operation_counts` and
    :func:`sparsity_breakdown` separately and reading the decomposition twice.
    """
    # Every mass is an integer read off the activations, the pattern
    # indices (NO_PATTERN is 0) and the per-row Level 2 counts; Level 2
    # itself is never built.  Its values are in {-1, 0, +1} and sum to
    # ones minus the pattern bit mass, which splits the nonzeros into
    # +1 and -1 corrections.
    elements = decomposition.activations.size
    ones = int(np.count_nonzero(decomposition.activations))
    rows = decomposition.pattern_indices.size
    assigned = int(np.count_nonzero(decomposition.pattern_indices))
    pattern_mass = 0  # popcounts of the assigned patterns (row 0: none)
    for p, pattern_set in enumerate(decomposition.pattern_sets):
        popcounts = np.zeros(pattern_set.num_patterns + 1, dtype=np.int64)
        popcounts[1:] = pattern_set.matrix.sum(axis=1)
        pattern_mass += int(popcounts[decomposition.pattern_indices[:, p]].sum())
    nonzeros = int(decomposition.level2_nonzeros.sum(dtype=np.int64))
    signed = ones - pattern_mass
    counts = OperationCounts(
        dense_ops=elements,
        bit_sparse_ops=ones,
        phi_level1_ops=assigned,
        phi_level2_ops=nonzeros,
    )
    if elements == 0:
        return counts, SparsityBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return counts, SparsityBreakdown(
        bit_density=ones / elements,
        level1_density=pattern_mass / elements,
        level1_vector_density=assigned / rows,
        level2_density=nonzeros / elements,
        level2_positive_density=(nonzeros + signed) // 2 / elements,
        level2_negative_density=(nonzeros - signed) // 2 / elements,
    )


def aggregate_operation_counts(counts: Iterable[OperationCounts]) -> OperationCounts:
    """Sum operation counts over multiple layers."""
    total = OperationCounts(0, 0, 0, 0)
    for item in counts:
        total = total + item
    return total


def aggregate_breakdowns(
    breakdowns: Iterable[tuple[SparsityBreakdown, int]]
) -> SparsityBreakdown:
    """Weighted average of per-layer breakdowns.

    Parameters
    ----------
    breakdowns:
        Iterable of ``(breakdown, element_count)`` pairs; densities are
        averaged weighted by each layer's element count.
    """
    pairs = list(breakdowns)
    total = sum(weight for _, weight in pairs)
    if total == 0:
        return SparsityBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def weighted(attr: str) -> float:
        return sum(getattr(b, attr) * w for b, w in pairs) / total

    return SparsityBreakdown(
        bit_density=weighted("bit_density"),
        level1_density=weighted("level1_density"),
        level1_vector_density=weighted("level1_vector_density"),
        level2_density=weighted("level2_density"),
        level2_positive_density=weighted("level2_positive_density"),
        level2_negative_density=weighted("level2_negative_density"),
    )


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean used for the "Geomean" columns of Fig. 8."""
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ValueError("geometric_mean requires at least one value")
    if np.any(data <= 0):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(np.exp(np.log(data).mean()))
