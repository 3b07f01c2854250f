"""L2 Processor: packed element-sparsity processing (Section 4.3).

The L2 processor consumes the packs produced by the preprocessor.  Every
cycle it reads one pack, dispatches its up-to-``pack_size`` units (weight
rows or partial sums, negated when the value is -1) into the
reconfigurable adder tree, and writes the per-row partial sums back
through a crossbar.  Because the packer has already removed bank
conflicts and balanced occupancy, the cycle count is simply the number of
packs, plus a small drain term.
"""

from __future__ import annotations

import numpy as np

from .config import ArchConfig


class L2Processor:
    """Cycle model of the Level 2 (element sparsity) processor."""

    #: Pipeline depth: pack read, psum read, dispatch, add, write back.
    PIPELINE_DEPTH = 5

    def __init__(self, config: ArchConfig) -> None:
        self.config = config

    def pack_cycles_for(self, packs: np.ndarray) -> np.ndarray:
        """Per-tile L2 cycle counts for a whole layer in one pass.

        ``packs[i]`` is tile ``i``'s pack count.  Element ``i`` of the
        result is that count plus one pipeline drain
        (:attr:`PIPELINE_DEPTH`) when the tile has any pack; a tile
        without packs costs nothing.
        """
        packs = np.asarray(packs, dtype=np.int64)
        return packs + (packs > 0) * self.PIPELINE_DEPTH
