"""Temporal extension: Phi vs baselines on time-unrolled recurrent workloads.

The paper's evaluation stacks each layer's spike matrices over time into
one tall GEMM, which is the right model for feed-forward networks but
hides how sparsity evolves across time steps.  Recurrent models make the
time axis load-bearing: membrane state accumulates, so later steps are
denser than earlier ones.  This harness runs Fig. 8's accelerator grid
and normalisations on workloads whose specs carry ``temporal=True`` —
one GEMM per (layer, time step), named like ``"rnn0.input@t2"`` — and
additionally reports the per-step activation density profile that the
stacked view erases.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..runner.engine import SweepEngine
from ..workloads.temporal import temporal_density_profile
from .common import SMALL, ExperimentScale
from .fig8 import Fig8Result, WorkloadComparison, _compare_specs

#: Default temporal workload list: the recurrent speech model plus one
#: feed-forward model for contrast (its per-step profile is flat).
DEFAULT_WORKLOADS: tuple[tuple[str, str], ...] = (
    ("spikingrnn", "speechcmd"),
    ("vgg16", "cifar10"),
)


@dataclass
class TemporalComparison(WorkloadComparison):
    """A Fig. 8 comparison on one time-unrolled workload."""

    #: Element-weighted activation density per time step.
    density_by_step: dict[int, float] = field(default_factory=dict)


def run_temporal(
    scale: ExperimentScale = SMALL,
    *,
    workloads: tuple[tuple[str, str], ...] = DEFAULT_WORKLOADS,
    paft_strength: float = 0.5,
    engine: SweepEngine | None = None,
) -> Fig8Result:
    """Run all accelerators on time-unrolled workloads and normalise.

    The entire (workload x accelerator) grid is submitted to the engine as
    one batch so every point can run in parallel; the per-step density
    profile is computed afterwards from the workload the engine
    simulated, read through :meth:`SweepEngine.workload`.
    The result holds one :class:`TemporalComparison` per workload.
    """
    specs = [
        replace(scale.workload_spec(model, dataset), temporal=True)
        for model, dataset in workloads
    ]
    engine = engine or SweepEngine()
    comparisons = _compare_specs(specs, scale, paft_strength, engine)
    return Fig8Result(
        [
            TemporalComparison(
                **vars(comparison),
                density_by_step=temporal_density_profile(engine.workload(spec)),
            )
            for spec, comparison in zip(specs, comparisons)
        ]
    )
