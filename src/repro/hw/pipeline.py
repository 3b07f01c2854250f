"""Unified accelerator-model schema: one per-layer and one per-run account.

Every accelerator model in this repository — the cycle-level Phi
simulator and the five analytical baselines — implements one interface
and reports through one canonical result schema:

* :class:`LayerResult` — the per-layer record (compute and memory
  cycles, Phi's per-unit cycle splits, traffic components, energy),
* :class:`RunResult` — the per-workload record with every shared
  derived metric (total cycles, runtime, GOPS, Joules, GOPS/J,
  GOPS/mm², DRAM bytes),
* :class:`AcceleratorModel` — the interface every accelerator plugs
  into.  Batching lives in the sweep engine
  (:func:`repro.runner.engine.simulate_many`), which runs whole *point*
  grids — one model per configuration — in workload-grouped dispatches.

How a model fills a :class:`LayerResult` is its own affair: Phi runs
five stages in order (:mod:`repro.hw.simulator`), a baseline applies
its analytical cycle model (:mod:`repro.baselines.base`).  The sweep
engine (:mod:`repro.runner.engine`) flattens a :class:`RunResult` into
the cache-schema-v3 record that the experiment harnesses and the report
pipeline consume, so nothing downstream ever needs to know which
accelerator produced a number.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..core.metrics import (
    OperationCounts,
    SparsityBreakdown,
    aggregate_breakdowns,
    aggregate_operation_counts,
)
from .config import ArchConfig
from .energy import EnergyBreakdown

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..workloads.workload import LayerWorkload, ModelWorkload


# --------------------------------------------------------------------- #
# Canonical result schema
# --------------------------------------------------------------------- #
@dataclass
class LayerResult:
    """Canonical per-layer record shared by Phi and every baseline.

    The traffic component fields (activation/weight/PWP/output/psum
    bytes) sum to :attr:`dram_bytes`; models that do not distinguish a
    component leave it at 0.  Phi-only fields (per-stage cycle splits,
    operation counts, sparsity breakdown) default to empty/``None`` for
    analytical models.
    """

    layer_name: str
    m: int = 0
    k: int = 0
    n: int = 0
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    #: Paper-defined OP count of the layer ('1' activation bits × N).
    operations: int = 0
    preprocessor_cycles: float = 0.0
    l1_cycles: float = 0.0
    l2_cycles: float = 0.0
    neuron_cycles: float = 0.0
    operation_counts: OperationCounts | None = None
    breakdown: SparsityBreakdown | None = None
    activation_bytes: float = 0.0
    activation_bytes_uncompressed: float = 0.0
    weight_bytes: float = 0.0
    pwp_bytes_prefetched: float = 0.0
    pwp_bytes_unfiltered: float = 0.0
    output_bytes: float = 0.0
    psum_spill_bytes: float = 0.0
    pattern_match_comparisons: int = 0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)

    @property
    def total_cycles(self) -> float:
        """Layer latency: compute overlapped with (bounded by) memory."""
        return max(self.compute_cycles, self.memory_cycles)

    @property
    def dram_bytes(self) -> float:
        """Total DRAM traffic of the layer (sum of the component fields)."""
        return (
            self.activation_bytes
            + self.weight_bytes
            + self.pwp_bytes_prefetched
            + self.output_bytes
            + self.psum_spill_bytes
        )


@dataclass
class RunResult:
    """Canonical per-workload result of any accelerator model.

    Its properties are the consumer-visible metric set the paper's
    Table 2 / Fig. 8 comparisons are built from.  Energy is either accumulated per layer (Phi: every
    :class:`LayerResult` carries an :class:`EnergyBreakdown`) or
    accounted at run level (the analytical baselines set
    :attr:`run_energy`); :attr:`energy` resolves to whichever the model
    populated.
    """

    accelerator: str = "phi"
    model_name: str = ""
    dataset_name: str = ""
    frequency_hz: float = 0.0
    area_mm2: float = 0.0
    config: ArchConfig | None = None
    layers: list[LayerResult] = field(default_factory=list)
    run_energy: EnergyBreakdown | None = None

    def __post_init__(self) -> None:
        if not self.frequency_hz and self.config is not None:
            self.frequency_hz = self.config.frequency_hz

    @property
    def total_cycles(self) -> float:
        """End-to-end cycles (layers execute back to back)."""
        return sum(layer.total_cycles for layer in self.layers)

    @property
    def runtime_seconds(self) -> float:
        """Wall-clock runtime at the configured frequency."""
        return self.total_cycles / self.frequency_hz

    @property
    def total_operations(self) -> int:
        """Paper-defined OP count (Section 5.1).

        One OP is the scalar accumulation triggered by a '1' element of
        the bit-sparse activation, so the total is (number of 1 bits) × N
        for every layer regardless of how the accelerator executes it.
        """
        return sum(layer.operations for layer in self.layers)

    @property
    def throughput_gops(self) -> float:
        """Effective throughput in GOP/s (OPs defined as in Section 5.1)."""
        if self.runtime_seconds == 0:
            return 0.0
        return self.total_operations / self.runtime_seconds / 1e9

    @property
    def energy_joules(self) -> float:
        """Total energy in Joules."""
        return self.energy.total

    @property
    def energy_efficiency_gops_per_joule(self) -> float:
        """Energy efficiency in GOP/J."""
        if self.energy_joules == 0:
            return 0.0
        return self.total_operations / self.energy_joules / 1e9

    @property
    def area_efficiency_gops_per_mm2(self) -> float:
        """Area efficiency in GOP/s/mm²."""
        if self.area_mm2 == 0:
            return 0.0
        return self.throughput_gops / self.area_mm2

    @property
    def total_dram_bytes(self) -> float:
        """Total DRAM traffic."""
        return sum(layer.dram_bytes for layer in self.layers)

    @property
    def energy(self) -> EnergyBreakdown:
        """Total energy: run-level when set, else summed over layers."""
        if self.run_energy is not None:
            return self.run_energy
        total = EnergyBreakdown()
        for layer in self.layers:
            total = total + layer.energy
        return total

    @property
    def core_energy(self) -> float:
        """Core (compute logic) energy in Joules."""
        return self.energy.core

    def energy_breakdown(self) -> dict[str, float]:
        """Core / buffer / DRAM energy split (Joules)."""
        energy = self.energy
        return {
            "core": energy.core,
            "buffer": energy.buffer,
            "dram": energy.dram,
        }

    def aggregate_breakdown(self) -> SparsityBreakdown:
        """Element-weighted sparsity breakdown over all layers.

        Only layers that carry a breakdown (Phi decompositions)
        contribute; analytical baseline layers are skipped.
        """
        return aggregate_breakdowns(
            (layer.breakdown, layer.m * layer.k)
            for layer in self.layers
            if layer.breakdown is not None
        )

    def aggregate_operations(self) -> OperationCounts:
        """Summed operation counts over all layers carrying counts."""
        return aggregate_operation_counts(
            layer.operation_counts
            for layer in self.layers
            if layer.operation_counts is not None
        )


# --------------------------------------------------------------------- #
# The accelerator-model interface
# --------------------------------------------------------------------- #
class AcceleratorModel(ABC):
    """Interface every accelerator model plugs into the runner through.

    Implementations report through the canonical
    :class:`LayerResult` / :class:`RunResult` schema.  The sweep engine,
    experiment harnesses and report emitters consume *only* this
    interface — a structural test (``tests/test_pipeline.py``) enforces
    that nothing downstream reaches around it.
    """

    #: Accelerator name as it appears in records and reports.
    name: str = "accelerator"
    #: Die area in mm² (Table 2 / Table 3).
    area_mm2: float = 0.0

    @abstractmethod
    def simulate_layer(self, layer: "LayerWorkload", **kwargs: Any) -> LayerResult:
        """Simulate one spike GEMM and return its canonical layer record."""

    @abstractmethod
    def simulate(self, workload: "ModelWorkload", **kwargs: Any) -> RunResult:
        """Simulate a complete model workload into a :class:`RunResult`."""
