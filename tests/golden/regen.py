"""Regenerate the golden simulator outputs frozen in ``tests/golden/*.json``.

The golden suite pins the exact cycle, traffic and energy numbers the
cycle-level simulator produces for a small set of fixed-seed workloads and
configurations.  Any refactor of the hot paths (vectorization, caching,
parallel sweeps) must keep these outputs bit-for-bit identical; a change in
the *model* itself requires regenerating the files in a dedicated commit:

    PYTHONPATH=src python tests/golden/regen.py

``tests/test_golden_simulator.py`` imports :data:`GOLDEN_CASES` and
:func:`run_case` from this module so the regeneration script and the
regression test can never disagree about what is being compared.

Besides the Phi simulator cases, the suite freezes every baseline
accelerator (:data:`GOLDEN_BASELINE_CASES`): the baselines were ported
from ad-hoc report classes onto the shared ``repro.hw.pipeline``
interface, and these files pin that port — and any future refactor — to
bit-exact cycle/traffic/energy outputs.
"""

from __future__ import annotations

import json
import pathlib
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

from repro.core.config import PhiConfig
from repro.hw.config import ArchConfig
from repro.hw.pipeline import RunResult
from repro.hw.simulator import PhiSimulator
from repro.workloads.generator import generate_workload

#: Fixed-seed workloads: (model, dataset, batch_size, num_steps, seed).
GOLDEN_WORKLOADS: tuple[tuple[str, str, int, int, int], ...] = (
    ("vgg16", "cifar10", 2, 2, 0),
    ("spikformer", "cifar100", 2, 2, 0),
    ("spikebert", "sst2", 2, 2, 0),
)

#: Simulator configurations exercised by the suite.  ``base`` is the
#: default tiling at a reduced pattern count; ``narrow`` uses a narrower
#: partition, smaller tiles and smaller packs so the partial-sum, packing
#: and tail-tile paths are all covered.
GOLDEN_CONFIGS: dict[str, dict[str, dict]] = {
    "base": {
        "phi": {"partition_size": 16, "num_patterns": 16, "calibration_samples": 1500},
        "arch": {"tile_k": 16, "num_patterns": 16},
    },
    "narrow": {
        "phi": {"partition_size": 8, "num_patterns": 8, "calibration_samples": 1000},
        "arch": {
            "tile_m": 64,
            "tile_k": 8,
            "tile_n": 16,
            "num_patterns": 8,
            "pack_size": 4,
        },
    },
}

#: Every (workload, config) golden case as ``(case_name, workload, config)``.
GOLDEN_CASES: tuple[tuple[str, tuple[str, str, int, int, int], str], ...] = tuple(
    (f"{model}_{dataset}_{config_name}", workload, config_name)
    for workload in GOLDEN_WORKLOADS
    for model, dataset, *_ in [workload]
    for config_name in GOLDEN_CONFIGS
)


#: Baseline accelerators frozen by the suite (registry order).
BASELINE_NAMES: tuple[str, ...] = ("eyeriss", "ptb", "sato", "spinalflow", "stellar")

#: Fixed-seed workloads the baselines are frozen on (a convolutional and a
#: transformer model, covering both activation shapes).
GOLDEN_BASELINE_WORKLOADS: tuple[tuple[str, str, int, int, int], ...] = (
    ("vgg16", "cifar10", 2, 2, 0),
    ("spikformer", "cifar100", 2, 2, 0),
)

#: Every (baseline, workload) golden case as ``(case_name, name, workload)``.
GOLDEN_BASELINE_CASES: tuple[tuple[str, str, tuple[str, str, int, int, int]], ...] = tuple(
    (f"baseline_{name}_{model}_{dataset}", name, workload)
    for workload in GOLDEN_BASELINE_WORKLOADS
    for model, dataset, *_ in [workload]
    for name in BASELINE_NAMES
)


def build_simulator(config_name: str) -> PhiSimulator:
    """Construct the simulator for one named golden configuration."""
    spec = GOLDEN_CONFIGS[config_name]
    return PhiSimulator(ArchConfig(**spec["arch"]), PhiConfig(**spec["phi"]))


def summarize(result: RunResult) -> dict:
    """Flatten a Phi :class:`RunResult` into JSON-friendly exact values."""
    ops = result.aggregate_operations()
    breakdown = result.aggregate_breakdown()
    return {
        "model": result.model_name,
        "dataset": result.dataset_name,
        "total_cycles": result.total_cycles,
        "total_operations": result.total_operations,
        "total_dram_bytes": result.total_dram_bytes,
        "energy_joules": result.energy_joules,
        "energy": {
            "core": result.energy.core,
            "buffer": result.energy.buffer,
            "dram": result.energy.dram,
        },
        "operation_counts": {
            "dense_ops": ops.dense_ops,
            "bit_sparse_ops": ops.bit_sparse_ops,
            "phi_level1_ops": ops.phi_level1_ops,
            "phi_level2_ops": ops.phi_level2_ops,
        },
        "breakdown": breakdown.as_dict(),
        "layers": [
            {
                "name": layer.layer_name,
                "m": layer.m,
                "k": layer.k,
                "n": layer.n,
                "compute_cycles": layer.compute_cycles,
                "memory_cycles": layer.memory_cycles,
                "preprocessor_cycles": layer.preprocessor_cycles,
                "l1_cycles": layer.l1_cycles,
                "l2_cycles": layer.l2_cycles,
                "neuron_cycles": layer.neuron_cycles,
                "activation_bytes": layer.activation_bytes,
                "activation_bytes_uncompressed": layer.activation_bytes_uncompressed,
                "weight_bytes": layer.weight_bytes,
                "pwp_bytes_prefetched": layer.pwp_bytes_prefetched,
                "pwp_bytes_unfiltered": layer.pwp_bytes_unfiltered,
                "output_bytes": layer.output_bytes,
                "psum_spill_bytes": layer.psum_spill_bytes,
                "pattern_match_comparisons": layer.pattern_match_comparisons,
                "dram_bytes": layer.dram_bytes,
                "energy_joules": layer.energy.total,
            }
            for layer in result.layers
        ],
    }


def run_case(workload_spec: tuple[str, str, int, int, int], config_name: str) -> dict:
    """Simulate one golden case from scratch and return its summary."""
    model, dataset, batch_size, num_steps, seed = workload_spec
    workload = generate_workload(
        model, dataset, batch_size=batch_size, num_steps=num_steps, seed=seed
    )
    result = build_simulator(config_name).simulate(workload)
    return summarize(result)


def summarize_baseline(report) -> dict:
    """Flatten a baseline accelerator run into JSON-friendly exact values."""
    energy = report.energy_breakdown()
    return {
        "accelerator": report.accelerator,
        "model": report.model_name,
        "dataset": report.dataset_name,
        "area_mm2": report.area_mm2,
        "total_cycles": report.total_cycles,
        "runtime_seconds": report.runtime_seconds,
        "total_operations": report.total_operations,
        "total_dram_bytes": report.total_dram_bytes,
        "throughput_gops": report.throughput_gops,
        "energy_joules": report.energy_joules,
        "energy_efficiency_gops_per_joule": report.energy_efficiency_gops_per_joule,
        "area_efficiency_gops_per_mm2": report.area_efficiency_gops_per_mm2,
        "energy": {
            "core": energy["core"],
            "buffer": energy["buffer"],
            "dram": energy["dram"],
        },
        "layers": [
            {
                "name": layer.layer_name,
                "compute_cycles": layer.compute_cycles,
                "memory_cycles": layer.memory_cycles,
                "total_cycles": layer.total_cycles,
                "dram_bytes": layer.dram_bytes,
                "operations": layer.operations,
            }
            for layer in report.layers
        ],
    }


def run_baseline_case(
    baseline_name: str, workload_spec: tuple[str, str, int, int, int]
) -> dict:
    """Simulate one baseline golden case from scratch and return its summary."""
    from repro.baselines import get_baseline

    model, dataset, batch_size, num_steps, seed = workload_spec
    workload = generate_workload(
        model, dataset, batch_size=batch_size, num_steps=num_steps, seed=seed
    )
    report = get_baseline(baseline_name, ArchConfig()).simulate(workload)
    return summarize_baseline(report)


def golden_path(case_name: str) -> pathlib.Path:
    """Location of the frozen JSON for one case."""
    return GOLDEN_DIR / f"{case_name}.json"


def main() -> None:
    for case_name, workload_spec, config_name in GOLDEN_CASES:
        summary = run_case(workload_spec, config_name)
        path = golden_path(case_name)
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} (total_cycles={summary['total_cycles']})")
    for case_name, baseline_name, workload_spec in GOLDEN_BASELINE_CASES:
        summary = run_baseline_case(baseline_name, workload_spec)
        path = golden_path(case_name)
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} (total_cycles={summary['total_cycles']})")


if __name__ == "__main__":
    sys.exit(main())
