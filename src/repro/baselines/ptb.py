"""PTB: Parallel Time Batching (HPCA 2022).

PTB processes spike inputs in parallel time windows on a systolic array.
Because whole windows are scheduled as a unit, inactive positions inside
an otherwise-active window are still processed, so only part of the bit
sparsity is harvested (Section 2.2 / 5.3.1 of the Phi paper).  The model
reproduces that mechanism at window granularity.

The dataflow plugs into the shared compute → DRAM stage pipeline of
:class:`~repro.baselines.base.BaselineAccelerator` and reports through
the canonical :class:`~repro.hw.pipeline.RunResult` schema.
"""

from __future__ import annotations

import numpy as np

from ..workloads.workload import LayerWorkload
from .base import BaselineAccelerator


class PTB(BaselineAccelerator):
    """Systolic-array accelerator with time-window batching."""

    name = "ptb"
    area_mm2 = 1.0  # not reported in Table 2; assumed comparable to SATO
    core_power_mw = 240.0
    buffer_power_mw = 180.0

    #: Parallel scalar accumulators in the systolic array.
    lanes = 256
    #: Window size: positions grouped into one scheduling unit.
    window = 4
    #: Systolic-array utilisation.
    utilization = 0.70

    #: ``(layer, window, positions)`` of the last count: the compute stage
    #: and the energy account ask for the same layer in turn.
    _last_count: tuple[LayerWorkload, int, int] | None = None

    def _processed_positions(self, layer: LayerWorkload) -> int:
        """Activation positions scheduled: whole windows with any spike.

        K is zero-padded to whole windows and each row's window is read as
        one unsigned integer, nonzero iff the window holds a spike; every
        active window counts its true width (the last may be narrower).
        """
        last = self._last_count
        if last is not None and last[0] is layer and last[1] == self.window:
            return last[2]
        if self.window not in (1, 2, 4, 8):
            raise ValueError(f"PTB window must be 1, 2, 4 or 8, got {self.window}")
        activations = layer.activations
        m, k = activations.shape
        num_windows = -(-k // self.window)
        spikes = np.zeros((m, num_windows * self.window), dtype=np.uint8)
        spikes[:, :k] = activations
        active = spikes.view(f"u{self.window}") != 0
        widths = np.full(num_windows, self.window, dtype=np.int64)
        widths[-1:] = k - (num_windows - 1) * self.window
        positions = int(np.count_nonzero(active, axis=0) @ widths)
        self._last_count = (layer, self.window, positions)
        return positions

    def layer_compute_cycles(self, layer: LayerWorkload) -> float:
        """Window-granular execution: an active window is fully processed."""
        total_accumulations = self._processed_positions(layer) * layer.n
        return total_accumulations / (self.lanes * self.utilization)

    def layer_executed_accumulations(self, layer: LayerWorkload) -> float:
        """Every position inside an active window is accumulated."""
        return float(self._processed_positions(layer) * layer.n)
