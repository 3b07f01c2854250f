"""Harness workload reads share the engine's artifact store.

A harness that reads a workload outside a sweep (fig1, fig9, temporal's
per-step density profile) goes through :meth:`SweepEngine.workload`, the
same store entry the engine's sweep points resolve, so each workload
spec is generated once per store.  ``generate_workload`` is counted
wherever a ``repro`` module binds the name, as the benchmark tracer
wraps it.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

import repro.runner.engine as engine_module
from repro.experiments import get_experiment, run_fig7_tile_sweep, run_fig9
from repro.experiments.common import TINY
from repro.experiments.temporal import DEFAULT_WORKLOADS, run_temporal
from repro.runner import ArtifactStore, SweepEngine
from repro.workloads import generator


@pytest.fixture()
def generate_calls(monkeypatch) -> Counter:
    """``(model, dataset)`` counts of ``generate_workload`` calls in this process.

    The process-wide memo is swapped for an empty one, so workloads that
    earlier tests left in it cannot serve these tests.
    """
    calls: Counter = Counter()
    original = generator.generate_workload

    def counting(model_name, dataset_name, **kwargs):
        calls[model_name, dataset_name] += 1
        return original(model_name, dataset_name, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    monkeypatch.setattr(engine_module, "_MEMO", ArtifactStore(None))
    return calls


def test_serial_temporal_generates_each_spec_once(generate_calls):
    result = run_temporal(TINY)
    assert all(comparison.density_by_step for comparison in result.comparisons)
    assert generate_calls == Counter(DEFAULT_WORKLOADS)


def test_pooled_temporal_reads_the_workers_files(generate_calls, tmp_path):
    with SweepEngine(jobs=2, store=ArtifactStore(tmp_path)) as engine:
        result = run_temporal(TINY, engine=engine)
    assert [c.key for c in result.comparisons] == [
        f"{model}/{dataset}" for model, dataset in DEFAULT_WORKLOADS
    ]
    assert all(comparison.density_by_step for comparison in result.comparisons)
    # The pool workers generated and stored both workloads; the parent
    # read them back from disk.
    assert sum(generate_calls.values()) == 0


def test_fig9_reuses_the_workload_fig7_stored(generate_calls, tmp_path):
    engine = SweepEngine(store=ArtifactStore(tmp_path))
    run_fig7_tile_sweep(TINY, engine=engine)
    run_fig9(TINY, engine=engine)
    assert generate_calls == Counter({("vgg16", "cifar100"): 1})


@pytest.mark.parametrize("name", ["fig1", "fig9"])
def test_registry_forwards_the_engine_to_workload_reads(name, monkeypatch):
    engine = SweepEngine()
    readers = []
    original = SweepEngine.workload

    def recording(self, spec):
        readers.append(self)
        return original(self, spec)

    monkeypatch.setattr(SweepEngine, "workload", recording)
    spec = get_experiment(name)
    assert spec.uses_engine
    spec.run("tiny", engine=engine)
    assert readers == [engine]
