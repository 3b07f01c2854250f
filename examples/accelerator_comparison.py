#!/usr/bin/env python
"""Accelerator comparison across the model zoo (a mini Fig. 8).

The example runs every baseline SNN accelerator plus Phi on three
workloads — a spiking CNN on images, a spiking transformer on an event
stream and a spiking language model on text — and prints the speedup and
energy-efficiency table normalised to Spiking Eyeriss.

Run with:  python examples/accelerator_comparison.py  (after ``pip install -e .``)

Registry cross-reference: the full evaluation versions are the ``fig8``
and ``table2`` entries of ``python -m repro.report --list``.
"""

from __future__ import annotations

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - user guidance only
    raise SystemExit(
        "phi-repro is not installed; run `pip install -e .` from the repo root"
    )

from repro.baselines import available_baselines, get_accelerator, get_baseline
from repro.core import PhiConfig
from repro.workloads import generate_workload

WORKLOADS = (
    ("vgg16", "cifar100"),
    ("spikformer", "cifar10dvs"),
    ("spikebert", "sst2"),
)


def main() -> None:
    phi_config = PhiConfig(partition_size=16, num_patterns=64, calibration_samples=4000)

    for model_name, dataset_name in WORKLOADS:
        workload = generate_workload(model_name, dataset_name, batch_size=4, num_steps=4)
        print(f"\n=== {model_name} / {dataset_name} "
              f"(bit density {workload.average_bit_density:.1%}, "
              f"{len(workload)} GEMMs) ===")

        reports = {}
        for name in available_baselines():
            reports[name] = get_baseline(name).simulate(workload)
        reports["phi"] = get_accelerator("phi", phi_config=phi_config).simulate(workload)

        reference = reports["eyeriss"]
        header = f"{'accelerator':<12}{'GOP/s':>10}{'speedup':>10}{'GOP/J':>10}{'energy x':>10}"
        print(header)
        print("-" * len(header))
        for name, report in reports.items():
            print(
                f"{name:<12}"
                f"{report.throughput_gops:>10.2f}"
                f"{report.throughput_gops / reference.throughput_gops:>10.2f}"
                f"{report.energy_efficiency_gops_per_joule:>10.2f}"
                f"{report.energy_efficiency_gops_per_joule / reference.energy_efficiency_gops_per_joule:>10.2f}"
            )


if __name__ == "__main__":
    main()
