"""SATO: temporal-oriented dataflow accelerator (DAC 2022).

SATO integrates input spikes in parallel at each time step with a binary
adder-search tree.  It skips zero activations, but distributing rows over
parallel lanes makes it sensitive to load imbalance: a lane group only
finishes when its most spike-heavy row finishes (Section 5.3.1 notes
"some load imbalance issues").  The model captures exactly that effect,
plus the adder-search-tree overhead as a utilisation factor.

The dataflow plugs into the shared compute → DRAM stage pipeline of
:class:`~repro.baselines.base.BaselineAccelerator` and reports through
the canonical :class:`~repro.hw.pipeline.RunResult` schema.
"""

from __future__ import annotations

from ..workloads.workload import LayerWorkload
from .base import BaselineAccelerator, load_imbalance_cycles


class SATO(BaselineAccelerator):
    """Bit-sparse accelerator with row-parallel load imbalance."""

    name = "sato"
    area_mm2 = 1.13  # Table 2
    core_power_mw = 230.0
    buffer_power_mw = 170.0

    #: Parallel scalar accumulators.
    lanes = 256
    #: Rows processed concurrently by separate lane groups.
    rows_per_group = 16
    #: Adder-search-tree and output-spike-generation overhead.
    utilization = 0.45

    def layer_compute_cycles(self, layer: LayerWorkload) -> float:
        """Row-parallel bit-sparse execution with group-level imbalance."""
        cycles = load_imbalance_cycles(
            layer.row_ones,
            lanes=self.lanes,
            rows_per_group=self.rows_per_group,
            work_per_one=layer.n,
        )
        return cycles / self.utilization
