"""Figure 8: speedup and energy across the full model zoo.

For every model/dataset pair of the evaluation, the harness runs all
baseline accelerators, Phi without PAFT and Phi with PAFT, and reports
speedup (normalised to Spiking Eyeriss) and energy (normalised to Phi
without PAFT), plus the geometric means across workloads — the same
normalisations the paper's Fig. 8 uses.

Every (accelerator, workload) pair is one :class:`~repro.runner.SweepPoint`;
the whole figure is a single :class:`~repro.runner.SweepEngine` batch, so
``python -m repro.runner fig8 --jobs N`` simulates the grid N-wide and a
re-run with a warm cache costs only the normalisation arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..baselines.registry import BASELINE_ORDER
from ..core.metrics import geometric_mean
from ..runner.engine import SweepEngine, SweepPoint, WorkloadSpec
from .common import SMALL, ExperimentScale

#: Default Fig. 8 workload list (subset of the paper's 12 pairs chosen to
#: cover every model family; pass ``workloads=`` to run more).
DEFAULT_WORKLOADS: tuple[tuple[str, str], ...] = (
    ("vgg16", "cifar10"),
    ("vgg16", "cifar100"),
    ("resnet18", "cifar100"),
    ("spikformer", "cifar10dvs"),
    ("sdt", "cifar100"),
    ("spikebert", "sst2"),
    ("spikingbert", "mnli"),
)

#: The paper's full 12-workload list.
FULL_WORKLOADS: tuple[tuple[str, str], ...] = (
    ("vgg16", "cifar10"),
    ("vgg16", "cifar100"),
    ("resnet18", "cifar10"),
    ("resnet18", "cifar100"),
    ("spikformer", "cifar10dvs"),
    ("spikformer", "cifar100"),
    ("sdt", "cifar10dvs"),
    ("sdt", "cifar100"),
    ("spikebert", "sst2"),
    ("spikebert", "sst5"),
    ("spikingbert", "sst2"),
    ("spikingbert", "mnli"),
)

#: Accelerator ordering used in the Fig. 8 bars.
ACCELERATORS: tuple[str, ...] = BASELINE_ORDER + ("phi", "phi_paft")


@dataclass
class WorkloadComparison:
    """Speedup / energy of every accelerator on one workload."""

    model: str
    dataset: str
    speedup: dict[str, float] = field(default_factory=dict)
    energy: dict[str, float] = field(default_factory=dict)
    throughput_gops: dict[str, float] = field(default_factory=dict)
    energy_joules: dict[str, float] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Canonical workload identifier."""
        return f"{self.model}/{self.dataset}"


@dataclass
class Fig8Result:
    """All workload comparisons plus geometric means."""

    comparisons: list[WorkloadComparison] = field(default_factory=list)

    def geomean_speedup(self) -> dict[str, float]:
        """Geometric-mean speedup per accelerator (normalised to Eyeriss)."""
        result = {}
        for accel in ACCELERATORS:
            values = [c.speedup[accel] for c in self.comparisons if accel in c.speedup]
            if values:
                result[accel] = geometric_mean(values)
        return result

    def geomean_energy(self) -> dict[str, float]:
        """Geometric-mean energy per accelerator (normalised to Phi w/o PAFT)."""
        result = {}
        for accel in ACCELERATORS:
            values = [c.energy[accel] for c in self.comparisons if accel in c.energy]
            if values:
                result[accel] = geometric_mean(values)
        return result


def _workload_points(
    spec: WorkloadSpec, scale: ExperimentScale, paft_strength: float
) -> list[tuple[str, SweepPoint]]:
    """The (accelerator name, sweep point) grid of one workload column."""
    arch = scale.arch_config()
    phi = scale.phi_config()
    points = [
        (name, SweepPoint(workload=spec, arch=arch, accelerator=name))
        for name in BASELINE_ORDER
    ]
    points.append(("phi", SweepPoint(workload=spec, arch=arch, phi=phi)))
    # Labelled, or progress output would show it as plain "phi".
    points.append(
        (
            "phi_paft",
            SweepPoint(
                workload=replace(spec, paft_strength=paft_strength),
                arch=arch,
                phi=phi,
                label=f"phi_paft:{spec.key}",
            ),
        )
    )
    return points


def _comparison_from_records(
    model_name: str,
    dataset_name: str,
    named_records: dict[str, dict],
) -> WorkloadComparison:
    """Normalise one workload's records into a Fig. 8 comparison."""
    comparison = WorkloadComparison(model=model_name, dataset=dataset_name)
    eyeriss_throughput = named_records["eyeriss"]["throughput_gops"]
    phi_energy = named_records["phi"]["energy_joules"]
    # The PAFT run executes fewer real operations, but speedup/energy are
    # normalised against the same nominal OP count as the original model.
    nominal_ops = named_records["phi"]["total_operations"]
    for name, record in named_records.items():
        if name == "phi_paft":
            runtime = record["runtime_seconds"]
            throughput = nominal_ops / runtime / 1e9 if runtime else 0.0
        else:
            throughput = record["throughput_gops"]
        comparison.throughput_gops[name] = throughput
        comparison.speedup[name] = throughput / eyeriss_throughput
        comparison.energy_joules[name] = record["energy_joules"]
        comparison.energy[name] = record["energy_joules"] / phi_energy
    return comparison


def _compare_specs(
    specs: list[WorkloadSpec],
    scale: ExperimentScale,
    paft_strength: float,
    engine: SweepEngine,
) -> list[WorkloadComparison]:
    """Run every accelerator on every workload spec as one engine batch."""
    grids = [_workload_points(spec, scale, paft_strength) for spec in specs]
    records = iter(engine.run([point for grid in grids for _, point in grid]))
    return [
        _comparison_from_records(
            spec.model, spec.dataset, {name: next(records) for name, _ in grid}
        )
        for spec, grid in zip(specs, grids)
    ]


def compare_workload(
    model_name: str,
    dataset_name: str,
    scale: ExperimentScale = SMALL,
    *,
    paft_strength: float = 0.5,
    engine: SweepEngine | None = None,
) -> WorkloadComparison:
    """Run all accelerators on one workload and normalise the results."""
    spec = scale.workload_spec(model_name, dataset_name)
    return _compare_specs([spec], scale, paft_strength, engine or SweepEngine())[0]


def run_fig8(
    scale: ExperimentScale = SMALL,
    *,
    workloads: tuple[tuple[str, str], ...] = DEFAULT_WORKLOADS,
    paft_strength: float = 0.5,
    engine: SweepEngine | None = None,
) -> Fig8Result:
    """Reproduce Fig. 8 across the selected workloads.

    The entire (workload x accelerator) grid is submitted to the engine as
    one batch so every point can run in parallel.
    """
    specs = [scale.workload_spec(model, dataset) for model, dataset in workloads]
    return Fig8Result(
        _compare_specs(specs, scale, paft_strength, engine or SweepEngine())
    )
