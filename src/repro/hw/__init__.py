"""Phi accelerator: unified model schema, cycle-level simulator and energy model."""

from .config import ArchConfig, BufferSizes
from .energy import (
    ACCUMULATE_ENERGY_PJ,
    BUFFER_ENERGY_PER_BYTE_PJ,
    DRAM_ENERGY_PER_BYTE_PJ,
    EnergyBreakdown,
    PhiEnergyModel,
)
from .pipeline import AcceleratorModel, LayerResult, RunResult
from .simulator import PhiSimulator

__all__ = [
    "ArchConfig",
    "BufferSizes",
    "PhiEnergyModel",
    "EnergyBreakdown",
    "ACCUMULATE_ENERGY_PJ",
    "BUFFER_ENERGY_PER_BYTE_PJ",
    "DRAM_ENERGY_PER_BYTE_PJ",
    "AcceleratorModel",
    "LayerResult",
    "RunResult",
    "PhiSimulator",
]
