"""Analytical models of prior SNN accelerators (Table 2 baselines).

Every baseline implements the unified
:class:`~repro.hw.pipeline.AcceleratorModel` interface: it plugs its
dataflow's cycle model into :class:`BaselineAccelerator`, which builds
each canonical :class:`~repro.hw.pipeline.LayerResult` directly and the
:class:`~repro.hw.pipeline.RunResult` with run-level energy, so the
sweep engine and the experiment harnesses treat Phi and the baselines
identically.
"""

from .base import (
    BaselineAccelerator,
    load_imbalance_cycles,
    paper_operations,
)
from .eyeriss import SpikingEyeriss
from .ptb import PTB
from .registry import (
    BASELINE_CLASSES,
    BASELINE_ORDER,
    available_baselines,
    get_accelerator,
    get_baseline,
)
from .sato import SATO
from .spinalflow import SpinalFlow
from .stellar import Stellar

__all__ = [
    "BaselineAccelerator",
    "paper_operations",
    "load_imbalance_cycles",
    "SpikingEyeriss",
    "PTB",
    "SATO",
    "SpinalFlow",
    "Stellar",
    "get_accelerator",
    "get_baseline",
    "available_baselines",
    "BASELINE_CLASSES",
    "BASELINE_ORDER",
]
