"""Stellar: Few-Spikes co-designed accelerator (HPCA 2024).

Stellar is the strongest prior baseline: it retrains models with
Few-Spikes (FS) neurons to raise activation sparsity and pairs them with a
spatiotemporal dataflow.  The Phi paper uses Stellar's reported numbers;
here we model its dataflow analytically: the FS neuron reduces the number
of spike-triggered accumulations and the dedicated dataflow executes them
at high utilisation, giving it the best baseline throughput, energy and
area efficiency — but still roughly 3.4x short of Phi.

The dataflow plugs into the shared compute → DRAM stage pipeline of
:class:`~repro.baselines.base.BaselineAccelerator` and reports through
the canonical :class:`~repro.hw.pipeline.RunResult` schema.
"""

from __future__ import annotations

import numpy as np

from ..snn.neurons import FewSpikesNeuron
from ..workloads.workload import LayerWorkload
from .base import BaselineAccelerator


class Stellar(BaselineAccelerator):
    """Few-Spikes-driven accelerator with spatiotemporal dataflow."""

    name = "stellar"
    area_mm2 = 0.768  # Table 2
    core_power_mw = 160.0
    buffer_power_mw = 130.0

    #: Parallel scalar accumulators.
    lanes = 256
    #: Dataflow utilisation.
    utilization = 0.72
    #: Fraction of spike accumulations remaining after FS-neuron retraining
    #: (FS coding fires markedly fewer spikes than rate-coded LIF models).
    fs_spike_fraction = 0.92

    def layer_compute_cycles(self, layer: LayerWorkload) -> float:
        """Bit-sparse execution on FS-recoded activations."""
        return self.layer_executed_accumulations(layer) / (self.lanes * self.utilization)

    def layer_executed_accumulations(self, layer: LayerWorkload) -> float:
        """FS recoding removes a fraction of the spike-triggered work."""
        effective_ones = layer.ones * self.fs_spike_fraction
        return float(effective_ones * layer.n)

    @staticmethod
    def fs_recode(values: np.ndarray, num_steps: int = 4) -> np.ndarray:
        """Re-encode analog values with FS neurons (helper for studies)."""
        neuron = FewSpikesNeuron(num_steps=num_steps)
        return neuron.encode(values)
