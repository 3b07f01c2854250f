"""Spiking Neuron Array: LIF updates on aggregated output tiles.

The array (Section 4.1) receives the summed L1 + L2 partial results of an
output tile, updates the membrane potential of every output neuron and
emits the spikes of the next layer.  It holds 32 parallel LIF units, so a
tile of ``m x n`` outputs takes ``ceil(m * n / 32)`` cycles; this is
almost always hidden behind the much longer L1/L2 processing.
"""

from __future__ import annotations

import numpy as np

from .config import ArchConfig


class SpikingNeuronArray:
    """Parallel array of LIF units applied to output tiles."""

    def __init__(self, config: ArchConfig, *, num_units: int = 32) -> None:
        if num_units < 1:
            raise ValueError("num_units must be >= 1")
        self.config = config
        self.num_units = num_units

    def estimate(self, rows: int, cols: int) -> int:
        """Cycles to update a ``rows x cols`` output tile."""
        updates = rows * cols
        return int(np.ceil(updates / self.num_units)) if updates else 0
