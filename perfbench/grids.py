"""Point grids of the benchmark workloads, built through the public sweep API.

The grids mirror ``python -m repro.runner fig7`` and ``fig8`` at SMALL
scale, except that every :class:`~repro.runner.WorkloadSpec` carries the
benchmark seed (and ``phi_paft`` points carry it as ``paft_seed`` too),
so each seed is a different set of generated activations.

A grid is a list of *sweeps*: each sweep is one ``SweepEngine.run``
call, in the order ``run_fig7`` / ``run_fig8`` issue them.
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.registry import BASELINE_ORDER
from repro.experiments.common import SMALL
from repro.experiments.fig8 import DEFAULT_WORKLOADS
from repro.hw.config import BufferSizes
from repro.runner import DECOMPOSITION, SweepPoint, WorkloadSpec

#: The fig7 design space: K partition sizes (Fig. 7a/b), pattern counts
#: (Fig. 7c) and buffer scale factors (Fig. 7d), as ``run_fig7`` sweeps them.
TILE_SIZES = (4, 8, 16, 32, 64)
PATTERN_COUNTS = (8, 16, 32, 64, 128, 256)
BUFFER_SCALES = (0.5, 0.75, 1.0, 1.5, 3.0)

#: Alignment strength of the ``phi_paft`` points (``run_fig8``'s default).
PAFT_STRENGTH = 0.5


def _spec(model: str, dataset: str, seed: int) -> WorkloadSpec:
    return replace(SMALL.workload_spec(model, dataset), seed=seed)


def fig7_sweeps(seed: int) -> list[list[SweepPoint]]:
    """The SMALL fig7 grid on vgg16/cifar100: tile, pattern and buffer sweeps."""
    spec = _spec("vgg16", "cifar100", seed)
    tile = [
        SweepPoint(
            workload=spec,
            arch=SMALL.arch_config(),
            phi=SMALL.phi_config(
                partition_size=k, num_patterns=min(SMALL.num_patterns, 2 ** min(k, 16))
            ),
            accelerator=DECOMPOSITION,
            label=f"fig7ab:k={k}",
        )
        for k in TILE_SIZES
    ]
    pattern = [
        SweepPoint(
            workload=spec,
            arch=SMALL.arch_config(num_patterns=q),
            phi=SMALL.phi_config(num_patterns=q),
            label=f"fig7c:q={q}",
        )
        for q in PATTERN_COUNTS
    ]
    buffer = [
        SweepPoint(
            workload=spec,
            arch=SMALL.arch_config(buffers=BufferSizes().scaled(factor)),
            phi=SMALL.phi_config(),
            buffer_scale=factor,
            label=f"fig7d:x{factor}",
        )
        for factor in BUFFER_SCALES
    ]
    return [tile, pattern, buffer]


def fig8_sweeps(seed: int) -> list[list[SweepPoint]]:
    """The SMALL fig8 grid: 7 model/dataset specs x (5 baselines + phi + phi_paft)."""
    arch = SMALL.arch_config()
    phi = SMALL.phi_config()
    points = []
    for model, dataset in DEFAULT_WORKLOADS:
        spec = _spec(model, dataset, seed)
        points += [
            SweepPoint(workload=spec, arch=arch, accelerator=name, label=name)
            for name in BASELINE_ORDER
        ]
        points.append(SweepPoint(workload=spec, arch=arch, phi=phi, label="phi"))
        paft = replace(spec, paft_strength=PAFT_STRENGTH, paft_seed=seed)
        points.append(SweepPoint(workload=paft, arch=arch, phi=phi, label="phi_paft"))
    return [points]


GRIDS = {"fig7": fig7_sweeps, "fig8": fig8_sweeps}
