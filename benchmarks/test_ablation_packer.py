"""Ablation benchmark: packer window count and PAFT alignment strength.

These are the extra design-choice ablations DESIGN.md calls out beyond the
paper's own sweeps: how much the multi-window packer helps pack occupancy,
and how Level 2 density responds to the PAFT alignment strength.
"""

from dataclasses import replace

import numpy as np
from conftest import run_once

from repro.core import PhiCalibrator
from repro.experiments.common import get_workload
from repro.core.sparsity import decompose_tile
from repro.hw import ArchConfig
from repro.hw.preprocessor import CompressedCounts, pack_counts_batch
from repro.runner.engine import DECOMPOSITION, SweepEngine, SweepPoint


def _pack_utilization(workload, scale, windows: int) -> float:
    """Mean per-tile pack occupancy over the largest layer's first M tile."""
    arch = ArchConfig(packer_windows=windows)
    calibrator = PhiCalibrator(scale.phi_config())
    layer = max(workload, key=lambda l: l.m * l.k)
    calibration = calibrator.calibrate_layer(layer.name, layer.activations)
    utilizations = []
    for p, (start, stop) in enumerate(
        zip(range(0, layer.k, 16), range(16, layer.k + 16, 16))
    ):
        tile = layer.activations[: arch.tile_m, start:stop]
        if tile.shape[1] == 0:
            continue
        level2 = decompose_tile(tile, calibration.pattern_sets[p]).level2
        per_row = np.count_nonzero(level2, axis=1)
        kept = np.flatnonzero(per_row)
        compressed = CompressedCounts(
            row_ids=kept, row_nonzeros=per_row[kept], needs_psum=p > 0
        )
        [counts] = pack_counts_batch([(arch, compressed)])
        if counts.num_packs:
            utilizations.append(counts.total_units / (counts.num_packs * arch.pack_size))
    return float(np.mean(utilizations)) if utilizations else 0.0


def test_ablation_packer_windows(benchmark, scale):
    workload = get_workload("vgg16", "cifar100", scale)

    def sweep():
        return {w: _pack_utilization(workload, scale, w) for w in (1, 2, 4)}

    utilization = run_once(benchmark, sweep)
    print("\n=== Ablation: pack occupancy vs packer window count ===")
    for windows, value in utilization.items():
        print(f"  windows={windows}  avg pack occupancy={value:.3f}")
    # More windows never hurt occupancy (they give the packer more choices).
    assert utilization[4] >= utilization[1] * 0.95
    assert all(0.0 < v <= 1.0 for v in utilization.values())


def test_ablation_paft_strength(benchmark, scale):
    spec = scale.workload_spec("vgg16", "cifar10")
    strengths = (0.0, 0.5, 1.0)
    points = [
        SweepPoint(
            workload=spec if strength == 0.0 else replace(spec, paft_strength=strength),
            arch=scale.arch_config(),
            phi=scale.phi_config(),
            accelerator=DECOMPOSITION,
            label=f"ablation:paft={strength}",
        )
        for strength in strengths
    ]

    def sweep():
        records = SweepEngine().run(points)
        return {
            strength: record["breakdown"]["level2_density"]
            for strength, record in zip(strengths, records)
        }

    densities = run_once(benchmark, sweep)
    print("\n=== Ablation: Level 2 density vs PAFT alignment strength ===")
    for strength, density in densities.items():
        print(f"  strength={strength:.1f}  element density={density:.4f}")
    # Stronger alignment monotonically reduces the element density.
    assert densities[1.0] <= densities[0.5] <= densities[0.0]
