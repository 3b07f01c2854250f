"""Figure 10: Level 2 element density with and without PAFT.

PAFT aligns activations with their assigned patterns, which lowers the
Level 2 (element) density and therefore the dominant runtime cost of the
L2 processor.  The harness reports the density pairs for the conv and
transformer models of Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..runner.engine import DECOMPOSITION, SweepEngine, SweepPoint
from .common import SMALL, ExperimentScale

#: The model/dataset pairs shown in Fig. 10.
FIG10_WORKLOADS: tuple[tuple[str, str], ...] = (
    ("spikformer", "cifar10dvs"),
    ("spikformer", "cifar100"),
    ("sdt", "cifar100"),
    ("vgg16", "cifar10"),
    ("vgg16", "cifar100"),
    ("resnet18", "cifar100"),
)


@dataclass(frozen=True)
class DensityPair:
    """Element density of one workload with and without PAFT."""

    model: str
    dataset: str
    density_without_paft: float
    density_with_paft: float

    @property
    def improvement(self) -> float:
        """Relative density reduction achieved by PAFT."""
        if self.density_without_paft == 0:
            return 0.0
        return 1.0 - self.density_with_paft / self.density_without_paft


@dataclass
class Fig10Result:
    """Element-density comparison across workloads."""

    pairs: list[DensityPair] = field(default_factory=list)

    def pair(self, model: str, dataset: str) -> DensityPair:
        """Look up one workload's density pair."""
        for pair in self.pairs:
            if pair.model == model and pair.dataset == dataset:
                return pair
        raise KeyError(f"{model}/{dataset}")


def run_fig10(
    scale: ExperimentScale = SMALL,
    *,
    workloads: tuple[tuple[str, str], ...] = FIG10_WORKLOADS,
    alignment_strength: float = 0.5,
    engine: SweepEngine | None = None,
) -> Fig10Result:
    """Reproduce the Fig. 10 element-density comparison.

    Parameters
    ----------
    scale:
        Experiment scale tier.
    workloads:
        Model/dataset pairs to compare.
    alignment_strength:
        PAFT alignment strength of the "with PAFT" variant.
    engine:
        Sweep engine executing the decomposition points (two per
        workload: without and with PAFT); defaults to a serial,
        cache-less engine.

    Returns
    -------
    Fig10Result
        One :class:`DensityPair` per workload.
    """
    engine = engine or SweepEngine()
    points = []
    for model_name, dataset_name in workloads:
        spec = scale.workload_spec(model_name, dataset_name)
        for variant_spec, tag in (
            (spec, "base"),
            (replace(spec, paft_strength=alignment_strength), "paft"),
        ):
            points.append(
                SweepPoint(
                    workload=variant_spec,
                    arch=scale.arch_config(),
                    phi=scale.phi_config(),
                    accelerator=DECOMPOSITION,
                    label=f"fig10:{spec.key}:{tag}",
                )
            )
    records = engine.run(points)
    result = Fig10Result()
    for (model_name, dataset_name), index in zip(workloads, range(0, len(points), 2)):
        without, with_paft = records[index], records[index + 1]
        result.pairs.append(
            DensityPair(
                model=model_name,
                dataset=dataset_name,
                density_without_paft=without["breakdown"]["level2_density"],
                density_with_paft=with_paft["breakdown"]["level2_density"],
            )
        )
    return result
