"""Table 4: Phi sparsity breakdown across models, datasets and random data.

For every model/dataset pair the table reports the bit density, the
Level 1 density, the +1 / -1 Level 2 densities, the theoretical speedup
over bit sparsity and over dense execution.  Rows for random binary
matrices of several densities show that patterns also emerge (to a lesser
degree) in unstructured data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.metrics import OperationCounts
from ..runner.engine import (
    DECOMPOSITION,
    SweepEngine,
    SweepPoint,
    WorkloadSpec,
)
from .common import SMALL, ExperimentScale


@dataclass(frozen=True)
class SparsityRow:
    """One row of Table 4."""

    model: str
    dataset: str
    bit_density: float
    l1_density: float
    l2_positive_density: float
    l2_negative_density: float
    speedup_over_bit: float
    speedup_over_dense: float

    @property
    def l2_density(self) -> float:
        """Total Level 2 density."""
        return self.l2_positive_density + self.l2_negative_density


@dataclass
class Table4Result:
    """All rows of the Table 4 reproduction."""

    rows: list[SparsityRow] = field(default_factory=list)

    def row(self, model: str, dataset: str) -> SparsityRow:
        """Look up the row of one model/dataset pair."""
        for row in self.rows:
            if row.model == model and row.dataset == dataset:
                return row
        raise KeyError(f"{model}/{dataset}")

    def as_dicts(self) -> list[dict]:
        """Rows as dictionaries."""
        return [
            {
                "model": r.model,
                "dataset": r.dataset,
                "bit_density": r.bit_density,
                "L1_density": r.l1_density,
                "L2_+1": r.l2_positive_density,
                "L2_-1": r.l2_negative_density,
                "speedup_over_bit": r.speedup_over_bit,
                "speedup_over_dense": r.speedup_over_dense,
            }
            for r in self.rows
        ]


def _row_from_record(record: dict) -> SparsityRow:
    """Build one Table 4 row from a decomposition sweep record."""
    breakdown = record["breakdown"]
    totals = OperationCounts(**record["operation_counts"])
    return SparsityRow(
        model=record["model"],
        dataset=record["dataset"],
        bit_density=breakdown["bit_density"],
        l1_density=breakdown["level1_density"],
        l2_positive_density=breakdown["level2_positive_density"],
        l2_negative_density=breakdown["level2_negative_density"],
        speedup_over_bit=totals.speedup_over_bit,
        speedup_over_dense=totals.speedup_over_dense,
    )


#: The model/dataset pairs of Table 4 (a subset of the full Fig. 8 list).
TABLE4_WORKLOADS: tuple[tuple[str, str], ...] = (
    ("vgg16", "cifar10"),
    ("vgg16", "cifar100"),
    ("resnet18", "cifar10"),
    ("resnet18", "cifar100"),
    ("spikingbert", "sst2"),
    ("spikingbert", "mnli"),
    ("spikformer", "cifar10dvs"),
    ("spikformer", "cifar100"),
    ("sdt", "cifar10dvs"),
    ("sdt", "cifar100"),
)

#: Densities of the random-matrix rows of Table 4.
RANDOM_DENSITIES: tuple[float, ...] = (0.05, 0.10, 0.20, 0.50)


def run_table4(
    scale: ExperimentScale = SMALL,
    *,
    workloads: tuple[tuple[str, str], ...] = TABLE4_WORKLOADS,
    include_random: bool = True,
    engine: SweepEngine | None = None,
) -> Table4Result:
    """Reproduce Table 4 across the model zoo plus random matrices.

    Parameters
    ----------
    scale:
        Experiment scale tier.
    workloads:
        Model/dataset pairs to analyse.
    include_random:
        Append the random-matrix rows (densities ``RANDOM_DENSITIES``).
    engine:
        Sweep engine executing the decomposition points; defaults to a
        serial, cache-less engine.

    Returns
    -------
    Table4Result
        One :class:`SparsityRow` per workload (and per random density).
    """
    engine = engine or SweepEngine()
    specs = [
        scale.workload_spec(model_name, dataset_name)
        for model_name, dataset_name in workloads
    ]
    if include_random:
        specs.extend(
            WorkloadSpec.random(density, m=1024, k=128, n=64, seed=int(density * 100))
            for density in RANDOM_DENSITIES
        )
    points = [
        SweepPoint(
            workload=spec,
            arch=scale.arch_config(),
            phi=scale.phi_config(),
            accelerator=DECOMPOSITION,
            label=f"table4:{spec.key}",
        )
        for spec in specs
    ]
    result = Table4Result()
    result.rows.extend(_row_from_record(record) for record in engine.run(points))
    return result
