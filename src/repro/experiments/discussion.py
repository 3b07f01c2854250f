"""Section 6.1: benefit and cost of the Phi preprocessing.

The pattern matcher compares every activation row with every calibrated
pattern, which costs energy — but it removes far more accumulation work in
the L1/L2 processors than it spends.  The paper reports an average benefit
to cost ratio of about 75x across the SNN models; this harness computes
the same ratio from the simulator's activity counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baselines.base import BUFFER_BYTES_PER_ACCUMULATION
from ..hw.energy import ACCUMULATE_ENERGY_PJ, BUFFER_ENERGY_PER_BYTE_PJ, MATCH_ENERGY_PJ
from ..runner.engine import SweepEngine, SweepPoint
from .common import SMALL, ExperimentScale

#: Model/dataset pairs used for the preprocessing cost analysis.
DISCUSSION_WORKLOADS: tuple[tuple[str, str], ...] = (
    ("vgg16", "cifar100"),
    ("resnet18", "cifar100"),
    ("spikformer", "cifar100"),
    ("spikebert", "sst2"),
)


@dataclass(frozen=True)
class OverheadRow:
    """Preprocessing cost vs accumulation savings of one workload."""

    model: str
    dataset: str
    preprocessing_energy: float
    saved_accumulation_energy: float

    @property
    def benefit_cost_ratio(self) -> float:
        """Energy saved per unit of preprocessing energy."""
        if self.preprocessing_energy == 0:
            return float("inf")
        return self.saved_accumulation_energy / self.preprocessing_energy


@dataclass
class DiscussionResult:
    """Benefit/cost analysis across workloads."""

    rows: list[OverheadRow] = field(default_factory=list)

    def average_ratio(self) -> float:
        """Mean benefit/cost ratio."""
        ratios = [r.benefit_cost_ratio for r in self.rows]
        return sum(ratios) / len(ratios) if ratios else 0.0


def run_discussion(
    scale: ExperimentScale = SMALL,
    *,
    workloads: tuple[tuple[str, str], ...] = DISCUSSION_WORKLOADS,
    engine: SweepEngine | None = None,
) -> DiscussionResult:
    """Reproduce the Section 6.1 preprocessing benefit/cost analysis.

    Parameters
    ----------
    scale:
        Experiment scale tier.
    workloads:
        Model/dataset pairs to analyse.
    engine:
        Sweep engine executing the Phi simulation points; defaults to a
        serial, cache-less engine.

    Returns
    -------
    DiscussionResult
        One :class:`OverheadRow` per workload, computed from the
        simulator's per-layer activity counters in the sweep records.
    """
    engine = engine or SweepEngine()
    points = [
        SweepPoint(
            workload=scale.workload_spec(model_name, dataset_name),
            arch=scale.arch_config(),
            phi=scale.phi_config(),
            label=f"discussion:{model_name}/{dataset_name}",
        )
        for model_name, dataset_name in workloads
    ]
    records = engine.run(points)
    result = DiscussionResult()
    for (model_name, dataset_name), record in zip(workloads, records):
        layers = record["layers"]
        match_ops = sum(layer["pattern_match_comparisons"] for layer in layers)
        preprocessing_energy = match_ops * MATCH_ENERGY_PJ * 1e-12
        # Saved accumulations: the difference between the bit-sparse work
        # and the Phi work, expanded over the output width of each layer.
        # Each skipped accumulation also saves its weight / partial-sum
        # SRAM accesses, which dominate the per-accumulation energy.
        saved_scalar_accumulations = sum(
            (
                layer["operation_counts"]["bit_sparse_ops"]
                - layer["operation_counts"]["phi_level1_ops"]
                - layer["operation_counts"]["phi_level2_ops"]
            )
            * layer["n"]
            for layer in layers
        )
        energy_per_accumulation = (
            ACCUMULATE_ENERGY_PJ
            + BUFFER_BYTES_PER_ACCUMULATION * BUFFER_ENERGY_PER_BYTE_PJ
        )
        saved_energy = (
            max(saved_scalar_accumulations, 0) * energy_per_accumulation * 1e-12
        )
        result.rows.append(
            OverheadRow(
                model=model_name,
                dataset=dataset_name,
                preprocessing_energy=preprocessing_energy,
                saved_accumulation_energy=saved_energy,
            )
        )
    return result
