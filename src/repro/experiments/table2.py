"""Table 2: Phi vs baselines on VGG-16 / CIFAR100.

Reports throughput (GOP/s), energy efficiency (GOP/J) and area efficiency
(GOP/s/mm^2) for Spiking Eyeriss, PTB, SATO, SpinalFlow, Stellar and Phi,
all normalised to Spiking Eyeriss as in the paper.

Every accelerator is one :class:`~repro.runner.SweepPoint` and the whole
table is a single :class:`~repro.runner.SweepEngine` batch, so re-runs
come from the result cache and ``--jobs`` parallelises across rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baselines.registry import BASELINE_ORDER
from ..runner.engine import SweepEngine, SweepPoint
from .common import SMALL, ExperimentScale


@dataclass(frozen=True)
class AcceleratorRow:
    """One row of the Table 2 comparison."""

    accelerator: str
    area_mm2: float
    throughput_gops: float
    energy_efficiency_gopj: float
    area_efficiency_gops_mm2: float
    speedup_vs_eyeriss: float
    energy_ratio_vs_eyeriss: float


@dataclass
class Table2Result:
    """All rows of the Table 2 reproduction."""

    model_name: str
    dataset_name: str
    rows: list[AcceleratorRow] = field(default_factory=list)

    def row(self, accelerator: str) -> AcceleratorRow:
        """Look up one accelerator's row."""
        for row in self.rows:
            if row.accelerator == accelerator:
                return row
        raise KeyError(accelerator)

    def as_dicts(self) -> list[dict]:
        """Rows as plain dictionaries (for printing / serialisation)."""
        return [
            {
                "accelerator": r.accelerator,
                "area_mm2": r.area_mm2,
                "GOP/s": r.throughput_gops,
                "GOP/J": r.energy_efficiency_gopj,
                "GOP/s/mm2": r.area_efficiency_gops_mm2,
                "speedup": r.speedup_vs_eyeriss,
                "energy_ratio": r.energy_ratio_vs_eyeriss,
            }
            for r in self.rows
        ]


def run_table2(
    scale: ExperimentScale = SMALL,
    *,
    model_name: str = "vgg16",
    dataset_name: str = "cifar100",
    engine: SweepEngine | None = None,
) -> Table2Result:
    """Reproduce Table 2 on the scaled VGG-16 / CIFAR100 workload.

    Parameters
    ----------
    scale:
        Experiment scale tier.
    model_name, dataset_name:
        The workload the table compares accelerators on.
    engine:
        Sweep engine to execute the per-accelerator points on; defaults to
        a serial, cache-less engine.

    Returns
    -------
    Table2Result
        One :class:`AcceleratorRow` per baseline plus Phi, normalised to
        Spiking Eyeriss.
    """
    engine = engine or SweepEngine()
    spec = scale.workload_spec(model_name, dataset_name)
    arch = scale.arch_config()
    names = BASELINE_ORDER + ("phi",)
    points = [
        SweepPoint(
            workload=spec,
            arch=arch,
            phi=scale.phi_config() if name == "phi" else None,
            accelerator=name,
            label=f"table2:{spec.key}:{name}",
        )
        for name in names
    ]
    records = dict(zip(names, engine.run(points)))

    baseline = records["eyeriss"]
    result = Table2Result(model_name=model_name, dataset_name=dataset_name)
    for name in names:
        record = records[name]
        result.rows.append(
            AcceleratorRow(
                accelerator=name,
                area_mm2=record["area_mm2"],
                throughput_gops=record["throughput_gops"],
                energy_efficiency_gopj=record["energy_efficiency_gops_per_joule"],
                area_efficiency_gops_mm2=record["area_efficiency_gops_per_mm2"],
                speedup_vs_eyeriss=(
                    record["throughput_gops"] / baseline["throughput_gops"]
                ),
                energy_ratio_vs_eyeriss=(
                    record["energy_efficiency_gops_per_joule"]
                    / baseline["energy_efficiency_gops_per_joule"]
                ),
            )
        )
    return result
