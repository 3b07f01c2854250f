"""Analytical models of prior SNN accelerators (Table 2 baselines).

Every baseline implements the unified
:class:`~repro.hw.pipeline.AcceleratorModel` interface and reports
through the canonical :class:`~repro.hw.pipeline.RunResult` schema, so
the sweep engine and the experiment harnesses treat Phi and the
baselines identically.
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
