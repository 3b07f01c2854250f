"""Phi accelerator: unified model pipeline, cycle-level simulator, buffers, DRAM and energy model."""

from .buffers import Buffer, BufferSet
from .config import PAPER_ARCH, ArchConfig, BufferSizes
from .dram import DRAMModel, TrafficCounter
from .energy import (
    ACCUMULATE_ENERGY_PJ,
    BUFFER_ENERGY_PER_BYTE_PJ,
    DRAM_ENERGY_PER_BYTE_PJ,
    PHI_COMPONENTS,
    AreaReport,
    ComponentSpec,
    EnergyBreakdown,
    PhiEnergyModel,
)
from .l1_processor import L1Processor, L1Result
from .l2_processor import L2Processor, L2Result, ReconfigurableAdderTree
from .neuron_array import NeuronArrayResult, SpikingNeuronArray
from .pipeline import (
    AcceleratorModel,
    DerivedMetricsMixin,
    LayerContext,
    LayerResult,
    Pipeline,
    RunResult,
    Stage,
    StageRecord,
)
from .preprocessor import (
    LABEL_NONZERO,
    LABEL_PSUM,
    CompressedRow,
    Compressor,
    Pack,
    Packer,
    PackUnit,
    PatternMatcher,
    Preprocessor,
    PreprocessorResult,
)
from .simulator import PhiSimulator

__all__ = [
    "ArchConfig",
    "BufferSizes",
    "PAPER_ARCH",
    "Buffer",
    "BufferSet",
    "DRAMModel",
    "TrafficCounter",
    "PhiEnergyModel",
    "EnergyBreakdown",
    "AreaReport",
    "ComponentSpec",
    "PHI_COMPONENTS",
    "ACCUMULATE_ENERGY_PJ",
    "BUFFER_ENERGY_PER_BYTE_PJ",
    "DRAM_ENERGY_PER_BYTE_PJ",
    "PatternMatcher",
    "Compressor",
    "Packer",
    "Preprocessor",
    "PreprocessorResult",
    "Pack",
    "PackUnit",
    "CompressedRow",
    "LABEL_NONZERO",
    "LABEL_PSUM",
    "L1Processor",
    "L1Result",
    "L2Processor",
    "L2Result",
    "ReconfigurableAdderTree",
    "SpikingNeuronArray",
    "NeuronArrayResult",
    "AcceleratorModel",
    "DerivedMetricsMixin",
    "LayerContext",
    "LayerResult",
    "Pipeline",
    "RunResult",
    "Stage",
    "StageRecord",
    "PhiSimulator",
]
