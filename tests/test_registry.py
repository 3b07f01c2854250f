"""Consistency tests for the experiment registry.

The registry is the single source of truth the report pipeline and the
runner CLI enumerate; these tests pin the invariants the rest of the
tooling relies on: every harness module is registered, names are unique,
entry points resolve, and no harness bypasses the sweep engine to
construct simulators directly.
"""

from __future__ import annotations

import inspect
import pathlib
import re

import pytest

from repro.experiments import (
    REGISTRY,
    SCALES,
    TINY,
    ExperimentSpec,
    experiment_names,
    get_experiment,
    resolve_scale,
)
from repro.report import PAYLOAD_BUILDERS

EXPERIMENTS_DIR = (
    pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "experiments"
)

#: Harness modules that must have a registry entry.
HARNESS_MODULES = sorted(
    path.stem
    for path in EXPERIMENTS_DIR.glob("*.py")
    if re.fullmatch(r"fig\d+|table\d+|discussion|temporal", path.stem)
)


class TestRegistryCompleteness:
    def test_every_harness_module_is_registered(self):
        assert sorted(experiment_names()) == HARNESS_MODULES

    def test_names_are_unique(self):
        names = experiment_names()
        assert len(names) == len(set(names))

    def test_every_experiment_has_an_emitter(self):
        assert sorted(PAYLOAD_BUILDERS) == sorted(experiment_names())

    def test_specs_are_fully_described(self):
        for spec in REGISTRY:
            assert spec.claim.strip(), spec.name
            assert spec.paper_ref.strip(), spec.name
            assert spec.section.strip(), spec.name
            assert spec.kind in ("figure", "table", "analysis")

    def test_entry_points_resolve(self):
        for spec in REGISTRY:
            assert callable(spec.runner()), spec.name

    def test_presets_reference_known_tiers(self):
        for spec in REGISTRY:
            assert set(spec.presets) <= set(SCALES), spec.name

    def test_uses_engine_matches_the_entry_point_signature(self):
        # A harness that takes ``engine=`` but is not flagged never
        # receives the runner's or the report's engine, so it ignores
        # --jobs, the result cache and the artifact store.
        for spec in REGISTRY:
            takes_engine = "engine" in inspect.signature(spec.runner()).parameters
            assert spec.uses_engine == takes_engine, spec.name


class TestRegistryLookup:
    def test_get_experiment(self):
        assert get_experiment("fig7").paper_ref == "Fig. 7"

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="fig7"):
            get_experiment("fig99")

    def test_resolve_scale_by_name_and_object(self):
        assert resolve_scale("tiny") == ("tiny", TINY)
        assert resolve_scale(TINY) == ("tiny", TINY)
        name, _ = resolve_scale(TINY.__class__(batch_size=3))
        assert name == "custom"

    def test_resolve_scale_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scale"):
            resolve_scale("huge")

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentSpec(
                name="x",
                kind="plot",
                paper_ref="Fig. X",
                section="S",
                claim="c",
                module="m",
                entry_point="f",
            )


class TestNoSimulatorOutsideEngine:
    """Acceptance criterion: no harness builds simulator sweeps itself."""

    FORBIDDEN = ("PhiSimulator", "get_baseline", ".simulate(")

    def test_harness_modules_do_not_construct_simulators(self):
        offenders = []
        for name in HARNESS_MODULES + ["common"]:
            source = (EXPERIMENTS_DIR / f"{name}.py").read_text()
            for token in self.FORBIDDEN:
                if token in source:
                    offenders.append(f"{name}: {token}")
        assert not offenders, (
            "experiment harnesses must route simulations through "
            f"repro.runner.SweepEngine; found {offenders}"
        )
