"""Area and power/energy model of the Phi accelerator.

The paper synthesises the RTL with Design Compiler in 28 nm and models
buffers with CACTI and DRAM with DRAMsim3.  We embed the resulting
component-level area and power figures (Table 3) as constants and derive
per-event energies from them, so the simulator can report energy without
the proprietary tool-chain.  Absolute numbers track the paper's setup;
relative comparisons (Fig. 8, Table 2) come out of the cycle/traffic
counts produced by the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .config import ArchConfig


@dataclass(frozen=True)
class ComponentSpec:
    """Synthesis results of one hardware component."""

    area_mm2: float
    power_mw: float


#: Table 3: Phi area and power breakdown (28 nm, 500 MHz).
PHI_COMPONENTS: Mapping[str, ComponentSpec] = {
    "preprocessor": ComponentSpec(area_mm2=0.099, power_mw=22.5),
    "l1_processor": ComponentSpec(area_mm2=0.074, power_mw=68.2),
    "l2_processor": ComponentSpec(area_mm2=0.027, power_mw=25.6),
    "lif_neuron": ComponentSpec(area_mm2=0.011, power_mw=9.4),
    "buffer": ComponentSpec(area_mm2=0.452, power_mw=220.8),
}

#: Energy of one DRAM byte transfer (DDR4-2133, mostly-sequential streams
#: with high row-buffer locality).
DRAM_ENERGY_PER_BYTE_PJ = 60.0

#: Energy of one on-chip SRAM byte access (CACTI-style estimate).
BUFFER_ENERGY_PER_BYTE_PJ = 1.2

#: Energy of a single 8-bit accumulate operation in 28 nm.
ACCUMULATE_ENERGY_PJ = 0.03

#: Energy of one pattern-match comparison (XOR + popcount on 16 bits).
MATCH_ENERGY_PJ = 0.008


@dataclass(frozen=True)
class AreaReport:
    """Per-component area breakdown in mm^2."""

    components: dict[str, float]

    @property
    def total(self) -> float:
        """Total accelerator area."""
        return sum(self.components.values())


@dataclass
class EnergyBreakdown:
    """Energy consumed by one simulation, split by source (in Joules)."""

    core: float = 0.0
    buffer: float = 0.0
    dram: float = 0.0
    components: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Total energy in Joules."""
        return self.core + self.buffer + self.dram

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        merged = dict(self.components)
        for key, value in other.components.items():
            merged[key] = merged.get(key, 0.0) + value
        return EnergyBreakdown(
            core=self.core + other.core,
            buffer=self.buffer + other.buffer,
            dram=self.dram + other.dram,
            components=merged,
        )


class PhiEnergyModel:
    """Translate cycle and traffic counts into energy and area figures."""

    def __init__(
        self,
        config: ArchConfig,
        *,
        components: Mapping[str, ComponentSpec] = PHI_COMPONENTS,
        buffer_scale: float = 1.0,
    ) -> None:
        self.config = config
        self.components = dict(components)
        # On-chip buffer area/power scale roughly linearly with capacity; the
        # Fig. 7d sweep varies buffer_scale.
        self.buffer_scale = buffer_scale

    # ------------------------------------------------------------------ #
    # Area
    # ------------------------------------------------------------------ #
    def area_report(self) -> AreaReport:
        """Component-level area breakdown (Table 3)."""
        areas = {}
        for name, spec in self.components.items():
            area = spec.area_mm2
            if name == "buffer":
                area *= self.buffer_scale
            areas[name] = area
        return AreaReport(components=areas)

    def total_area_mm2(self) -> float:
        """Total accelerator area in mm^2."""
        return self.area_report().total

    # ------------------------------------------------------------------ #
    # Power
    # ------------------------------------------------------------------ #
    def power_report(self) -> dict[str, float]:
        """Component-level power breakdown in mW (Table 3)."""
        powers = {}
        for name, spec in self.components.items():
            power = spec.power_mw
            if name == "buffer":
                power *= self.buffer_scale
            powers[name] = power
        return powers

    def total_power_mw(self) -> float:
        """Total core + buffer power in mW."""
        return sum(self.power_report().values())

    # ------------------------------------------------------------------ #
    # Energy
    # ------------------------------------------------------------------ #
    def component_energy(
        self, component: str, busy_cycles: float
    ) -> float:
        """Energy (J) of one component busy for ``busy_cycles`` cycles."""
        spec = self.components[component]
        power_w = spec.power_mw * 1e-3
        if component == "buffer":
            power_w *= self.buffer_scale
        seconds = busy_cycles / self.config.frequency_hz
        return power_w * seconds

    def buffer_energy(self, bytes_accessed: float) -> float:
        """Energy (J) of on-chip buffer traffic."""
        return bytes_accessed * BUFFER_ENERGY_PER_BYTE_PJ * 1e-12

    def dram_energy(self, bytes_transferred: float) -> float:
        """Energy (J) of off-chip DRAM traffic."""
        return bytes_transferred * DRAM_ENERGY_PER_BYTE_PJ * 1e-12

    def energy_from_activity(
        self,
        *,
        component_busy_cycles: Mapping[str, float],
        buffer_bytes: float,
        dram_bytes: float,
    ) -> EnergyBreakdown:
        """Combine activity counters into a full energy breakdown."""
        per_component = {
            name: self.component_energy(name, cycles)
            for name, cycles in component_busy_cycles.items()
            if name in self.components and name != "buffer"
        }
        core = sum(per_component.values())
        buffer = self.buffer_energy(buffer_bytes)
        if "buffer" in component_busy_cycles:
            buffer += self.component_energy("buffer", component_busy_cycles["buffer"])
        dram = self.dram_energy(dram_bytes)
        per_component["buffer"] = buffer
        per_component["dram"] = dram
        return EnergyBreakdown(
            core=core, buffer=buffer, dram=dram, components=per_component
        )
