"""Common infrastructure for baseline SNN accelerator models.

Every baseline is an analytical cycle/energy model at the same abstraction
level as the Phi simulator: it consumes a :class:`ModelWorkload` (binary
spike activation matrices plus weights) and reports cycles, DRAM traffic
and energy.  Operation counts follow the paper's definition — one OP per
'1' element in the bit-sparse activation times the output width — so
throughput and energy efficiency are directly comparable across all
accelerators (Section 5.1).

All baselines implement the shared
:class:`~repro.hw.pipeline.AcceleratorModel` interface and report the
same canonical :class:`~repro.hw.pipeline.LayerResult` /
:class:`~repro.hw.pipeline.RunResult` schema as the cycle-level Phi
simulator.  A layer's compute cycles come from the baseline's
dataflow model (:meth:`BaselineAccelerator.layer_compute_cycles`), its
memory cycles from streaming dense activations, dense weights and
binary output spikes; energy is accounted at run level (static power ×
runtime + dynamic energy per executed accumulation).
"""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from ..hw.config import ArchConfig
from ..hw.energy import (
    ACCUMULATE_ENERGY_PJ,
    BUFFER_ENERGY_PER_BYTE_PJ,
    DRAM_ENERGY_PER_BYTE_PJ,
    EnergyBreakdown,
)
from ..hw.pipeline import AcceleratorModel, LayerResult, RunResult
from ..workloads.workload import LayerWorkload, ModelWorkload

#: On-chip SRAM bytes touched per executed accumulation: a weight element
#: (2 B), a partial-sum read-modify-write (2 x 2 B) and amortised control /
#: index metadata.  Set so the per-accumulation energy matches the
#: ~10-20 pJ characteristic of 28 nm SNN accelerators.
BUFFER_BYTES_PER_ACCUMULATION = 10.0


def paper_operations(layer: LayerWorkload) -> int:
    """The paper's OP count for one layer: 1-bits times output width."""
    return layer.ones * layer.n


def dense_activation_bytes(layer: LayerWorkload) -> float:
    """DRAM bytes for the dense (bit-packed) activation matrix."""
    return layer.m * layer.k / 8.0


def weight_bytes(layer: LayerWorkload, config: ArchConfig) -> float:
    """DRAM bytes for the dense weight matrix."""
    return float(layer.k * layer.n * config.weight_bytes)


def output_bytes(layer: LayerWorkload) -> float:
    """DRAM bytes for the binary output spikes."""
    return layer.m * layer.n / 8.0


class BaselineAccelerator(AcceleratorModel):
    """Abstract analytical model of an SNN accelerator.

    Parameters
    ----------
    config:
        Shared architectural constants (frequency, DRAM bandwidth, data
        widths).  All baselines run at the same 500 MHz / 28 nm point as
        Phi for a fair comparison (Section 5.1).
    """

    #: Human-readable accelerator name.
    name: str = "baseline"
    #: Die area in mm^2 (Table 2).
    area_mm2: float = 1.0
    #: Static (leakage + clock) core power in mW.
    core_power_mw: float = 300.0
    #: Static on-chip buffer power in mW.
    buffer_power_mw: float = 200.0

    def __init__(self, config: ArchConfig | None = None) -> None:
        self.config = config or ArchConfig()

    # ------------------------------------------------------------------ #
    @abstractmethod
    def layer_compute_cycles(self, layer: LayerWorkload) -> float:
        """Compute cycles this accelerator needs for one layer."""

    def layer_executed_accumulations(self, layer: LayerWorkload) -> float:
        """Scalar accumulations this accelerator actually executes.

        The default assumes perfect zero skipping (one accumulation per '1'
        activation element per output column); dense or window-granular
        designs override it.  Dynamic core and buffer energy are charged
        per executed accumulation, which is what makes exploiting sparsity
        pay off in energy and not just latency.
        """
        return float(paper_operations(layer))

    # ------------------------------------------------------------------ #
    def simulate_layer(self, layer: LayerWorkload) -> LayerResult:
        """Simulate one layer: dataflow compute cycles, dense DRAM traffic.

        The memory latency is taken from the result's
        :attr:`~repro.hw.pipeline.LayerResult.dram_bytes`, the sum of
        its traffic fields, so latency and traffic cannot disagree.
        """
        result = LayerResult(
            layer_name=layer.name,
            m=layer.m,
            k=layer.k,
            n=layer.n,
            compute_cycles=self.layer_compute_cycles(layer),
            operations=paper_operations(layer),
            activation_bytes=dense_activation_bytes(layer),
            weight_bytes=weight_bytes(layer, self.config),
            output_bytes=output_bytes(layer),
        )
        result.memory_cycles = result.dram_bytes / self.config.dram_bytes_per_cycle
        return result

    def simulate(self, workload: ModelWorkload) -> RunResult:
        """Simulate a complete model workload."""
        result = RunResult(
            accelerator=self.name,
            model_name=workload.model_name,
            dataset_name=workload.dataset_name,
            frequency_hz=self.config.frequency_hz,
            area_mm2=self.area_mm2,
        )
        executed = 0.0
        for layer in workload:
            result.layers.append(self.simulate_layer(layer))
            executed += self.layer_executed_accumulations(layer)
        runtime = result.runtime_seconds
        # Dynamic energy scales with the accumulations actually executed
        # (adder switching plus weight / partial-sum SRAM traffic); static
        # energy scales with runtime.
        dynamic_core = executed * ACCUMULATE_ENERGY_PJ * 1e-12
        dynamic_buffer = (
            executed
            * BUFFER_BYTES_PER_ACCUMULATION
            * BUFFER_ENERGY_PER_BYTE_PJ
            * 1e-12
        )
        result.run_energy = EnergyBreakdown(
            core=self.core_power_mw * 1e-3 * runtime + dynamic_core,
            buffer=self.buffer_power_mw * 1e-3 * runtime + dynamic_buffer,
            dram=result.total_dram_bytes * DRAM_ENERGY_PER_BYTE_PJ * 1e-12,
        )
        return result


def load_imbalance_cycles(
    row_ones: np.ndarray, lanes: int, rows_per_group: int, work_per_one: float
) -> float:
    """Cycle count of a row-parallel accelerator with load imbalance.

    Rows are processed in groups of ``rows_per_group`` parallel lanes; the
    group finishes when its most spike-heavy row finishes, which is the
    load-imbalance effect unstructured sparsity causes on parallel SNN
    dataflows.  ``row_ones`` holds each row's spike count
    (:attr:`~repro.workloads.workload.LayerWorkload.row_ones`).
    """
    if lanes < 1 or rows_per_group < 1:
        raise ValueError("lanes and rows_per_group must be >= 1")
    row_ones = np.asarray(row_ones)
    if row_ones.size == 0:
        return 0.0
    maxima = np.maximum.reduceat(row_ones, np.arange(0, row_ones.size, rows_per_group))
    lanes_per_row = max(lanes // rows_per_group, 1)
    terms = maxima.astype(np.float64) * work_per_one / lanes_per_row
    # A running sum in group order: ``np.sum`` adds pairwise, which
    # rounds differently.
    return float(np.add.accumulate(terms)[-1])
