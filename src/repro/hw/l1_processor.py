"""L1 Processor: pattern-index driven PWP retrieval and accumulation.

The L1 processor (Section 4.4) reads the pattern-index matrix of an output
tile, skips zero entries (rows without an assigned pattern), fetches the
corresponding pre-computed Pattern-Weight Products (PWPs) through a
16-to-8 crossbar and reduces them in an adder tree.  Each cycle it
examines 16 consecutive pattern indices of a row; when more than 8 of
them are nonzero the surplus spills into the next cycle.

The **PWP prefetcher** exploits that the pattern-index matrix of the
*next* tile is produced while the current tile computes: it knows
exactly which patterns will be used and loads only those PWPs from DRAM,
instead of all ``q`` patterns per partition.  This module counts the
distinct (partition, pattern) pairs a tile uses; the simulator's DRAM
stage turns them into PWP traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArchConfig


def distinct_nonzero_per_column(matrix: np.ndarray) -> int:
    """Total count of distinct nonzero values, per column, of an int matrix.

    Equivalent to ``sum(np.count_nonzero(np.unique(col)) for col in
    matrix.T)`` but computed with one scatter into a presence table instead
    of a Python loop over columns.
    """
    values = np.asarray(matrix)
    if values.size == 0:
        return 0
    vmin = int(values.min())
    vmax = int(values.max())
    columns = values.shape[1]
    present = np.zeros((vmax - vmin + 1, columns), dtype=bool)
    present[values - vmin, np.arange(columns)[None, :]] = True
    total = int(np.count_nonzero(present))
    if vmin <= 0 <= vmax:
        total -= int(np.count_nonzero(present[-vmin]))
    return total


@dataclass(frozen=True)
class L1Result:
    """Cycle accounting of the L1 processor for one tile.

    Attributes
    ----------
    cycles:
        Compute cycles spent retrieving and accumulating PWPs.
    unique_patterns_used:
        Number of distinct (partition, pattern) pairs referenced — the
        PWP rows the prefetcher loads for the tile.
    """

    cycles: int
    unique_patterns_used: int


class L1Processor:
    """Cycle model of the Level 1 (vector sparsity) processor."""

    def __init__(self, config: ArchConfig) -> None:
        self.config = config

    def process_tile(self, pattern_index_matrix: np.ndarray) -> L1Result:
        """Process the pattern-index matrix of one output tile.

        Parameters
        ----------
        pattern_index_matrix:
            Integer matrix of shape ``(rows, partitions)``; entry 0 means
            "no pattern assigned".
        """
        matrix = np.asarray(pattern_index_matrix)
        if matrix.ndim != 2:
            raise ValueError("pattern_index_matrix must be 2-D")
        rows, partitions = matrix.shape
        group = 16  # indices examined per cycle
        lanes = self.config.num_channels  # PWPs forwarded to the adder tree per cycle

        # Nonzero indices per 16-wide examination group, reduced in one
        # vectorized pass: a zero group still burns its examination cycle
        # (simple skipping, Section 4.4), a nonzero group needs
        # ceil(nonzeros / lanes) dispatch cycles.
        if rows == 0 or partitions == 0:
            cycles = 0
        else:
            nonzero = matrix != 0
            pad = (-partitions) % group
            if pad:
                nonzero = np.concatenate(
                    [nonzero, np.zeros((rows, pad), dtype=bool)], axis=1
                )
            per_group = nonzero.reshape(rows, -1, group).sum(axis=2, dtype=np.int64)
            group_cycles = (per_group + lanes - 1) // lanes
            cycles = int(np.where(per_group == 0, 1, group_cycles).sum())

        # Unique (partition, pattern) pairs determine prefetched PWP rows.
        return L1Result(
            cycles=cycles,
            unique_patterns_used=distinct_nonzero_per_column(matrix),
        )
