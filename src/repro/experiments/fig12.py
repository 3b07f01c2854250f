"""Figure 12: memory-traffic reduction from compression and prefetching."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.traffic import (
    ActivationTraffic,
    WeightTraffic,
    activation_traffic_from_layers,
    weight_traffic_from_layers,
)
from ..core.metrics import geometric_mean
from ..runner.engine import SweepEngine, SweepPoint
from .common import SMALL, ExperimentScale

#: Model/dataset pairs of Fig. 12 (one per model family).
FIG12_WORKLOADS: tuple[tuple[str, str], ...] = (
    ("vgg16", "cifar100"),
    ("resnet18", "cifar100"),
    ("spikformer", "cifar100"),
    ("sdt", "cifar100"),
    ("spikebert", "sst2"),
    ("spikingbert", "mnli"),
)


@dataclass(frozen=True)
class TrafficRow:
    """Activation and weight traffic of one workload."""

    model: str
    dataset: str
    activation: ActivationTraffic
    weight: WeightTraffic


@dataclass
class Fig12Result:
    """Traffic comparison across workloads."""

    rows: list[TrafficRow] = field(default_factory=list)

    def geomean_activation_ratio(self) -> float:
        """Geometric mean of compressed-activation traffic vs dense."""
        return geometric_mean(r.activation.compressed_ratio for r in self.rows)

    def geomean_weight_ratios(self) -> tuple[float, float]:
        """Geometric means of (w/o prefetch, w/ prefetch) weight ratios."""
        without = geometric_mean(r.weight.without_prefetch_ratio for r in self.rows)
        with_prefetch = geometric_mean(r.weight.with_prefetch_ratio for r in self.rows)
        return without, with_prefetch


def run_fig12(
    scale: ExperimentScale = SMALL,
    *,
    workloads: tuple[tuple[str, str], ...] = FIG12_WORKLOADS,
    engine: SweepEngine | None = None,
) -> Fig12Result:
    """Reproduce the Fig. 12 memory-traffic comparison.

    One sweep point per workload, submitted as a single engine batch so
    ``--jobs`` parallelises across workloads and repeat runs come from the
    result cache.
    """
    engine = engine or SweepEngine()
    arch = scale.arch_config()
    phi = scale.phi_config()
    points = [
        SweepPoint(
            workload=scale.workload_spec(model_name, dataset_name),
            arch=arch,
            phi=phi,
            label=f"fig12:{model_name}/{dataset_name}",
        )
        for model_name, dataset_name in workloads
    ]
    records = engine.run(points)
    result = Fig12Result()
    for (model_name, dataset_name), record in zip(workloads, records):
        result.rows.append(
            TrafficRow(
                model=model_name,
                dataset=dataset_name,
                activation=activation_traffic_from_layers(record["layers"]),
                weight=weight_traffic_from_layers(record["layers"]),
            )
        )
    return result
