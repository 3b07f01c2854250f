#!/usr/bin/env python
"""Quickstart: Phi sparsity end to end on a spiking VGG.

The example walks through the complete pipeline of the paper:

1. build a (scaled) spiking VGG and record its spike activations on a
   synthetic CIFAR-like dataset,
2. calibrate patterns with the Hamming-distance k-means (Algorithm 1),
3. decompose the activations into Level 1 + Level 2 Phi sparsity and
   verify the decomposition is lossless,
4. simulate the Phi accelerator and compare it against the dense Spiking
   Eyeriss baseline.

Run with:  python examples/quickstart.py  (after ``pip install -e .``)

Registry cross-reference: the same pipeline at evaluation scale is the
``table2`` / ``table4`` entries of ``python -m repro.report --list``.
"""

from __future__ import annotations

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - user guidance only
    raise SystemExit(
        "phi-repro is not installed; run `pip install -e .` from the repo root"
    )

from repro.baselines import get_accelerator, get_baseline
from repro.core import PhiCalibrator, PhiConfig, operation_counts, sparsity_breakdown
from repro.datasets import make_dataset
from repro.snn import build_model
from repro.workloads import extract_workload


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Build a spiking VGG and record its spike activations.
    # ------------------------------------------------------------------
    dataset = make_dataset("cifar10", num_train=32, num_test=16)
    channels, image_size, _ = dataset.input_shape
    network = build_model(
        "vgg16",
        num_classes=dataset.num_classes,
        in_channels=channels,
        image_size=image_size,
        num_steps=4,
    )
    print(f"Built {network.name} with {network.num_parameters():,} parameters")

    workload = extract_workload(network, dataset.test_data[:4], dataset_name="cifar10")
    print(f"Recorded {len(workload)} spike GEMMs "
          f"(average bit density {workload.average_bit_density:.1%})")

    # ------------------------------------------------------------------
    # 2. Calibrate patterns (k = 16, q = 64 on the scaled model).
    # ------------------------------------------------------------------
    config = PhiConfig(partition_size=16, num_patterns=64, calibration_samples=4000)
    calibrator = PhiCalibrator(config)
    calibration = calibrator.calibrate_model(workload.activation_matrices())
    print(f"Calibrated patterns for {len(calibration.layer_names())} layers")

    # ------------------------------------------------------------------
    # 3. Decompose one layer and verify the decomposition is lossless.
    # ------------------------------------------------------------------
    layer = workload[1]
    decomposition = calibration[layer.name].decompose(layer.activations)
    breakdown = sparsity_breakdown(decomposition)
    counts = operation_counts(decomposition)
    exact = np.allclose(
        decomposition.compute_output(layer.weights), layer.reference_output()
    )
    print(f"\nLayer {layer.name!r} (M={layer.m}, K={layer.k}, N={layer.n})")
    print(f"  bit density      : {breakdown.bit_density:.2%}")
    print(f"  L1 density       : {breakdown.level1_density:.2%}")
    print(f"  L2 density       : {breakdown.level2_density:.2%}")
    print(f"  speedup over bit : {counts.speedup_over_bit:.2f}x")
    print(f"  speedup over dense: {counts.speedup_over_dense:.2f}x")
    print(f"  lossless         : {exact}")

    # ------------------------------------------------------------------
    # 4. Simulate the Phi accelerator vs the dense baseline.
    # ------------------------------------------------------------------
    phi = get_accelerator("phi", phi_config=config).simulate(
        workload, calibration=calibration
    )
    eyeriss = get_baseline("eyeriss").simulate(workload)
    print("\nAccelerator comparison (same workload, same OP definition):")
    print(f"  Spiking Eyeriss : {eyeriss.throughput_gops:8.2f} GOP/s   "
          f"{eyeriss.energy_efficiency_gops_per_joule:8.2f} GOP/J")
    print(f"  Phi             : {phi.throughput_gops:8.2f} GOP/s   "
          f"{phi.energy_efficiency_gops_per_joule:8.2f} GOP/J")
    print(f"  speedup         : {phi.throughput_gops / eyeriss.throughput_gops:.2f}x")
    print(f"  energy ratio    : "
          f"{phi.energy_efficiency_gops_per_joule / eyeriss.energy_efficiency_gops_per_joule:.2f}x")


if __name__ == "__main__":
    main()
