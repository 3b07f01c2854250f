"""Registry of baseline accelerators.

The experiments iterate over accelerators by name; :func:`get_baseline`
returns analytical baseline models and :func:`get_accelerator` resolves
*any* accelerator — Phi included — to an
:class:`~repro.hw.pipeline.AcceleratorModel`, so Table 2 / Fig. 8 style
comparisons are one loop over one interface: every model emits the
canonical :class:`~repro.hw.pipeline.RunResult`.
"""

from __future__ import annotations

from typing import Type

from ..core.config import PhiConfig
from ..hw.config import ArchConfig
from ..hw.pipeline import AcceleratorModel
from ..hw.simulator import PhiSimulator
from .base import BaselineAccelerator
from .eyeriss import SpikingEyeriss
from .ptb import PTB
from .sato import SATO
from .spinalflow import SpinalFlow
from .stellar import Stellar

BASELINE_CLASSES: dict[str, Type[BaselineAccelerator]] = {
    "eyeriss": SpikingEyeriss,
    "ptb": PTB,
    "sato": SATO,
    "spinalflow": SpinalFlow,
    "stellar": Stellar,
}

#: Order used when reporting Table 2 / Fig. 8 comparisons.
BASELINE_ORDER = ("eyeriss", "ptb", "sato", "spinalflow", "stellar")


def available_baselines() -> list[str]:
    """Names of all baseline accelerators."""
    return list(BASELINE_ORDER)


def get_baseline(name: str, config: ArchConfig | None = None) -> BaselineAccelerator:
    """Instantiate a baseline accelerator by name."""
    try:
        cls = BASELINE_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown baseline {name!r}; available: {sorted(BASELINE_CLASSES)}"
        ) from None
    return cls(config)


def get_accelerator(
    name: str,
    config: ArchConfig | None = None,
    phi_config: PhiConfig | None = None,
) -> AcceleratorModel:
    """Resolve any accelerator name — ``"phi"`` or a baseline — to a model.

    Parameters
    ----------
    name:
        ``"phi"`` or one of :data:`BASELINE_ORDER`.
    config:
        Architecture configuration shared by every model.
    phi_config:
        Algorithm configuration, used only by the Phi simulator.

    Returns
    -------
    AcceleratorModel
        The model; callers drive it exclusively through the unified
        ``simulate`` interface.
    """
    if name == "phi":
        return PhiSimulator(config, phi_config)
    return get_baseline(name, config)
