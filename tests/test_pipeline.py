"""Tests for the unified accelerator-model schema (`repro.hw.pipeline`).

Covers the canonical result-schema math, the order the Phi stages run
in, the engine's batched ``simulate_many`` path, and — the structural
acceptance criterion — that every accelerator implements the
:class:`~repro.hw.pipeline.AcceleratorModel` interface and that no
experiment harness or report module bypasses it.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.baselines import BASELINE_CLASSES, BaselineAccelerator, get_baseline
from repro.hw import ArchConfig, EnergyBreakdown, PhiSimulator
from repro.hw import simulator as simulator_module
from repro.hw.pipeline import AcceleratorModel, LayerResult, RunResult
from repro.runner import SweepEngine, simulate_many, simulate_point
from repro.runner.engine import _pending_units
from repro.workloads import generate_random_workload

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


# --------------------------------------------------------------------- #
# Canonical result schema math
# --------------------------------------------------------------------- #
def _layer(name="l0", compute=100.0, memory=50.0, operations=1000, **kwargs):
    return LayerResult(
        layer_name=name,
        compute_cycles=compute,
        memory_cycles=memory,
        operations=operations,
        **kwargs,
    )


class TestLayerResult:
    def test_total_cycles_is_compute_memory_max(self):
        assert _layer(compute=10.0, memory=25.0).total_cycles == 25.0
        assert _layer(compute=30.0, memory=25.0).total_cycles == 30.0

    def test_dram_bytes_sums_traffic_components(self):
        layer = _layer(
            activation_bytes=1.0,
            weight_bytes=2.0,
            pwp_bytes_prefetched=3.0,
            output_bytes=4.0,
            psum_spill_bytes=5.0,
        )
        assert layer.dram_bytes == 15.0


class TestRunResult:
    def _result(self, **kwargs):
        params = {
            "accelerator": "toy",
            "model_name": "m",
            "dataset_name": "d",
            "frequency_hz": 1e9,
            "area_mm2": 2.0,
            "layers": [
                _layer("l0", compute=100.0, memory=50.0, operations=1000),
                _layer("l1", compute=200.0, memory=300.0, operations=3000),
            ],
        }
        params.update(kwargs)
        return RunResult(**params)

    def test_derived_metrics(self):
        result = self._result(
            run_energy=EnergyBreakdown(core=1e-9, buffer=2e-9, dram=1e-9)
        )
        assert result.total_cycles == 400.0
        assert result.runtime_seconds == 400.0 / 1e9
        assert result.total_operations == 4000
        assert result.throughput_gops == pytest.approx(4000 / 400e-9 / 1e9)
        assert result.energy_joules == pytest.approx(4e-9)
        assert result.energy_efficiency_gops_per_joule == pytest.approx(
            4000 / 4e-9 / 1e9
        )
        assert result.area_efficiency_gops_per_mm2 == pytest.approx(
            result.throughput_gops / 2.0
        )
        assert result.energy_breakdown() == {
            "core": 1e-9,
            "buffer": 2e-9,
            "dram": 1e-9,
        }

    def test_zero_division_guards(self):
        empty = RunResult(accelerator="toy", frequency_hz=1e9)
        assert empty.throughput_gops == 0.0
        assert empty.energy_efficiency_gops_per_joule == 0.0
        assert empty.area_efficiency_gops_per_mm2 == 0.0

    def test_layer_energy_fold_used_without_run_energy(self):
        result = self._result()
        result.layers[0].energy = EnergyBreakdown(core=1.0, buffer=2.0, dram=3.0)
        result.layers[1].energy = EnergyBreakdown(core=0.5, buffer=0.5, dram=0.5)
        assert result.energy_joules == pytest.approx(7.5)
        assert result.core_energy == pytest.approx(1.5)

    def test_frequency_derived_from_config(self):
        arch = ArchConfig()
        result = RunResult(accelerator="phi", config=arch)
        assert result.frequency_hz == arch.frequency_hz


# --------------------------------------------------------------------- #
# The Phi stage graph
# --------------------------------------------------------------------- #
class TestPhiStageGraph:
    #: The order the perfbench tracer's ``hw.stage.*`` spans and its
    #: ``hw.layers`` counter (one per tiling run) rely on.
    STAGES = (
        simulator_module.PhiTilingStage,
        simulator_module.PhiPreprocessStage,
        simulator_module.PhiComputeStage,
        simulator_module.PhiDramStage,
        simulator_module.PhiEnergyStage,
    )

    def test_simulate_layer_runs_each_stage_once_in_order(self, monkeypatch):
        from repro.core import PhiConfig

        calls = []
        for cls in self.STAGES:

            def counted(stage, ctx, _run=cls.run, _cls=cls):
                calls.append(_cls)
                return _run(stage, ctx)

            monkeypatch.setattr(cls, "run", counted)
        workload = generate_random_workload(density=0.2, m=64, k=32, n=16, seed=0)
        simulator = PhiSimulator(
            ArchConfig(),
            PhiConfig(partition_size=16, num_patterns=8, calibration_samples=500),
        )
        result = simulator.simulate_layer(workload[0])
        assert calls == list(self.STAGES)
        assert [cls.name for cls in calls] == [
            "tiling",
            "preprocess",
            "compute",
            "dram",
            "energy",
        ]
        assert isinstance(result, LayerResult)
        assert result.energy.total > 0


# --------------------------------------------------------------------- #
# Batched simulation
# --------------------------------------------------------------------- #
class TestSimulateMany:
    def test_engine_batch_matches_per_point_execution(self, tiny_points):
        batched = SweepEngine(jobs=1).run(tiny_points)
        per_point = [simulate_point(point) for point in tiny_points]
        assert json.loads(json.dumps(batched)) == json.loads(
            json.dumps(per_point)
        )

    def test_simulate_many_preserves_order(self, tiny_points):
        records = simulate_many(tiny_points)
        assert [r["accelerator"] for r in records] == [
            p.accelerator for p in tiny_points
        ]

    @pytest.fixture(scope="class")
    def tiny_points(self):
        from repro.experiments.common import TINY
        from repro.runner import SweepPoint, WorkloadSpec

        spec = WorkloadSpec("vgg16", "cifar10", batch_size=2, num_steps=2)
        return [
            SweepPoint(workload=spec, arch=TINY.arch_config(), phi=TINY.phi_config()),
            SweepPoint(workload=spec, arch=TINY.arch_config(), accelerator="eyeriss"),
            SweepPoint(workload=spec, arch=TINY.arch_config(), accelerator="stellar"),
        ]


class TestPendingUnits:
    def _points(self, specs, phi=None):
        from repro.experiments.common import TINY
        from repro.runner import SweepPoint

        return [
            SweepPoint(
                workload=spec,
                arch=TINY.arch_config(),
                phi=phi or TINY.phi_config(),
            )
            for spec in specs
        ]

    def test_groups_by_workload_and_config(self):
        from dataclasses import replace

        from repro.runner import WorkloadSpec

        base = WorkloadSpec("vgg16", "cifar10", batch_size=2, num_steps=2)
        other = WorkloadSpec("resnet18", "cifar10", batch_size=2, num_steps=2)
        paft = replace(base, paft_strength=0.5)
        points = self._points([base, base, other, paft])
        pending = {f"k{i}": [i] for i in range(len(points))}
        units = _pending_units(points, pending)
        # Same (spec, PhiConfig) -> one unit; the PAFT variant has its own
        # calibration (computed on the aligned workload) so it is its own
        # unit — base-workload sharing happens through the artifact store.
        assert sorted(map(sorted, units)) == [["k0", "k1"], ["k2"], ["k3"]]

    def test_distinct_configs_are_distinct_units(self):
        from repro.experiments.common import TINY
        from repro.runner import SweepPoint, WorkloadSpec

        spec = WorkloadSpec("vgg16", "cifar10", batch_size=2, num_steps=2)
        points = [
            SweepPoint(
                workload=spec,
                arch=TINY.arch_config(num_patterns=q),
                phi=TINY.phi_config(num_patterns=q),
            )
            for q in (8, 16)
        ]
        pending = {f"k{i}": [i] for i in range(len(points))}
        units = _pending_units(points, pending)
        assert sorted(map(sorted, units)) == [["k0"], ["k1"]]


# --------------------------------------------------------------------- #
# Structural enforcement: nothing bypasses AcceleratorModel
# --------------------------------------------------------------------- #
class TestAcceleratorModelInterface:
    """Acceptance criterion: one interface, no bypasses anywhere."""

    #: Tokens that would mean a module is building or driving an
    #: accelerator model directly instead of going through the sweep
    #: engine's records.
    FORBIDDEN = (
        "PhiSimulator",
        "get_baseline",
        "get_accelerator",
        "BaselineAccelerator",
        "SpikingEyeriss(",
        "PTB(",
        "SATO(",
        "SpinalFlow(",
        "Stellar(",
        ".simulate(",
        ".simulate_layer(",
    )

    def test_phi_simulator_implements_the_interface(self):
        assert issubclass(PhiSimulator, AcceleratorModel)

    def test_every_baseline_implements_the_interface(self):
        for name, cls in BASELINE_CLASSES.items():
            assert issubclass(cls, AcceleratorModel), name

    def test_baselines_do_not_bypass_the_shared_pipeline(self):
        """Baselines customise hooks, never the simulate entry points."""
        for name, cls in BASELINE_CLASSES.items():
            assert cls.simulate is BaselineAccelerator.simulate, name
            assert cls.simulate_layer is BaselineAccelerator.simulate_layer, name

    def test_models_emit_canonical_results(self):
        workload = generate_random_workload(density=0.2, m=32, k=32, n=8, seed=7)
        for name in BASELINE_CLASSES:
            result = get_baseline(name).simulate(workload)
            assert isinstance(result, RunResult), name
            assert result.accelerator == name
            for layer in result.layers:
                assert isinstance(layer, LayerResult), name

    def test_no_harness_or_report_module_touches_models_directly(self):
        offenders = []
        for package in ("experiments", "report"):
            for path in sorted((SRC / package).glob("*.py")):
                source = path.read_text()
                for token in self.FORBIDDEN:
                    if token in source:
                        offenders.append(f"{package}/{path.name}: {token}")
        assert not offenders, (
            "experiment harnesses and report modules must consume the "
            "canonical sweep records, not accelerator models; found "
            f"{offenders}"
        )

    def test_engine_is_the_only_runner_module_building_models(self):
        offenders = []
        for path in sorted((SRC / "runner").glob("*.py")):
            if path.name == "engine.py":
                continue
            source = path.read_text()
            for token in self.FORBIDDEN:
                if token in source:
                    offenders.append(f"runner/{path.name}: {token}")
        assert not offenders, (
            "model_for() in runner/engine.py is the single place "
            f"accelerator models are built; found {offenders}"
        )
