"""Shared experiment infrastructure: scales and caching.

Every experiment harness accepts an :class:`ExperimentScale` so the same
code runs as a quick smoke test (``TINY``), as the default benchmark
(``SMALL``) or at a larger setting closer to the paper's configuration
(``PAPER``).  Note that even ``PAPER`` uses the scaled-down model zoo; see
DESIGN.md for the substitution rationale.

Workloads, calibrations and simulation results are shared through the
:mod:`repro.runner` layer: workload generation is memoised in-process,
calibrations are memoised per ``(workload, PhiConfig)`` pair, and sweeps
routed through a :class:`~repro.runner.SweepEngine` additionally reuse
results across processes and runs via the on-disk cache (DESIGN.md
describes the architecture).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import PhiConfig
from ..hw.config import ArchConfig
from ..runner.engine import WorkloadSpec
from ..workloads.generator import cached_workload
from ..workloads.workload import ModelWorkload


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade experiment fidelity for runtime.

    Attributes
    ----------
    batch_size:
        Inference batch recorded for each workload.
    num_steps:
        SNN simulation time steps.
    num_patterns:
        Patterns per partition (q).  The paper uses 128; on the scaled
        model zoo the compute/memory balance point sits lower (the Fig. 7c
        sweep reproduces this), so the default benchmark scale uses 64.
    partition_size:
        Partition width (k); 16 throughout, as in the paper.
    calibration_samples:
        Calibration rows sampled per layer.
    """

    batch_size: int = 8
    num_steps: int = 4
    num_patterns: int = 64
    partition_size: int = 16
    calibration_samples: int = 6000

    def phi_config(self, **overrides) -> PhiConfig:
        """The :class:`PhiConfig` corresponding to this scale."""
        params = {
            "partition_size": self.partition_size,
            "num_patterns": self.num_patterns,
            "calibration_samples": self.calibration_samples,
        }
        params.update(overrides)
        return PhiConfig(**params)

    def arch_config(self, **overrides) -> ArchConfig:
        """The :class:`ArchConfig` corresponding to this scale."""
        params = {
            "tile_k": self.partition_size,
            "num_patterns": self.num_patterns,
        }
        params.update(overrides)
        return ArchConfig(**params)

    def workload_spec(self, model_name: str, dataset_name: str) -> WorkloadSpec:
        """The sweep-engine workload spec for a model/dataset at this scale."""
        return WorkloadSpec(
            model=model_name,
            dataset=dataset_name,
            batch_size=self.batch_size,
            num_steps=self.num_steps,
        )


#: Minimal scale for unit tests and CI smoke runs.
TINY = ExperimentScale(
    batch_size=2, num_steps=2, num_patterns=16, calibration_samples=1500
)
#: Default benchmark scale.
SMALL = ExperimentScale()
#: Closest to the paper's configuration (q = 128) on the scaled model zoo.
PAPER = ExperimentScale(batch_size=8, num_steps=4, num_patterns=128)

#: The single name -> tier mapping everything else consumes (the
#: registry's ``SCALES``, the CLIs' ``--scale`` choices, the generated
#: DESIGN.md table).  Add new tiers here and in ``TIER_PURPOSE`` only.
SCALE_TIERS: dict[str, ExperimentScale] = {
    "tiny": TINY,
    "small": SMALL,
    "paper": PAPER,
}

#: One-line purpose per exported tier (rendered into the DESIGN.md table).
TIER_PURPOSE = {
    "tiny": "unit tests, CI smoke",
    "small": "default benchmarks",
    "paper": "closest to the paper's q=128",
}


def scales_markdown_table() -> str:
    """The `ExperimentScale` tier table, generated from the code.

    DESIGN.md embeds this table verbatim and a docs test asserts they
    stay in sync, so the documented tiers can never drift from the
    exported ``TINY``/``SMALL``/``PAPER`` constants.
    """
    lines = [
        "| Tier | batch | steps | q (patterns) | k (partition) "
        "| calibration rows | Use |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, tier in SCALE_TIERS.items():
        lines.append(
            f"| `{name.upper()}` | {tier.batch_size} | {tier.num_steps} "
            f"| {tier.num_patterns} | {tier.partition_size} "
            f"| {tier.calibration_samples} | {TIER_PURPOSE[name]} |"
        )
    return "\n".join(lines)


def get_workload(model_name: str, dataset_name: str, scale: ExperimentScale) -> ModelWorkload:
    """Workload for a model/dataset pair at the requested scale (read-only).

    Delegates to the generator-level memo the sweep engine uses too, so
    experiments and engine workers in the same process share one workload
    instance per spec, and with it each layer's cached spike counts.
    """
    return cached_workload(
        model_name,
        dataset_name,
        batch_size=scale.batch_size,
        num_steps=scale.num_steps,
        seed=0,
        split="test",
        # lru_cache keys on the keywords as passed: these are the engine's,
        # in its order, so both share one memo entry.
        temporal=False,
    )
