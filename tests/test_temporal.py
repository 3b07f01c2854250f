"""Tests for the temporal workload family and trace-driven simulation.

Covers the recurrent spiking cell, the SpikingRNN model zoo entry, the
per-timestep workload unrolling, trace ingest (npz -> store -> spec) and
the end-to-end `temporal` experiment at the TINY tier.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.runner.engine as engine_module
from repro.experiments.common import TINY
from repro.runner import ArtifactStore, SweepEngine, SweepPoint, WorkloadSpec
from repro.runner.cli import load_trace_npz
from repro.runner.store import KIND_TRACE, KIND_WORKLOAD
from repro.snn import RecurrentSpikingCell, build_spiking_rnn
from repro.snn.network import SpikingNetwork
from repro.workloads import (
    extract_workload,
    generate_workload,
    split_timestep_name,
    temporal_density_profile,
    timestep_layer_name,
)
from repro.workloads.generator import generate_random_workload


@pytest.fixture(scope="module")
def rnn_workload():
    return generate_workload("spikingrnn", "speechcmd", batch_size=2, num_steps=3)


@pytest.fixture(scope="module")
def rnn_temporal_workload():
    return generate_workload(
        "spikingrnn", "speechcmd", batch_size=2, num_steps=3, temporal=True
    )


class TestRecurrentSpikingCell:
    def test_state_accumulates_and_resets(self, rng):
        cell = RecurrentSpikingCell(8, 16, rng=rng)
        x = (rng.random((4, 8)) < 0.5).astype(np.float64)
        first = cell.forward(x)
        assert first.shape == (4, 16)
        assert set(np.unique(first)) <= {0.0, 1.0}
        cell.forward(x)
        assert cell._hidden is not None
        cell.reset_state()
        assert cell._hidden is None
        assert np.array_equal(cell.forward(x), first)

    def test_recurrent_gemm_input_is_binary(self, rng):
        cell = RecurrentSpikingCell(8, 16, name="cell", rng=rng)
        network = SpikingNetwork([cell], num_steps=2)
        train = (rng.random((2, 4, 8)) < 0.5).astype(np.float64)
        _, records = network.record_activations(train, pre_encoded=True)
        record = records["cell.recurrent"]
        assert len(record.matrices) == 2
        for matrix in record.matrices:
            assert set(np.unique(matrix)) <= {0.0, 1.0}

    def test_parameters_cover_both_projections(self, rng):
        cell = RecurrentSpikingCell(8, 16, name="cell", rng=rng)
        params = SpikingNetwork([cell]).parameters()
        assert any(key.startswith("cell.input.") for key in params)
        assert any(key.startswith("cell.recurrent.") for key in params)

    def test_batch_size_change_resets_hidden(self, rng):
        cell = RecurrentSpikingCell(8, 16, rng=rng)
        cell.forward((rng.random((4, 8)) < 0.5).astype(np.float64))
        out = cell.forward((rng.random((2, 8)) < 0.5).astype(np.float64))
        assert out.shape == (2, 16)


class TestSpikingRNNWorkload:
    def test_model_builds_and_runs(self):
        network = build_spiking_rnn(num_features=16, hidden_sizes=(8,), num_steps=2)
        train = (np.random.default_rng(0).random((2, 3, 16)) < 0.3).astype(float)
        logits = network.forward(train, pre_encoded=True)
        assert logits.shape == (3, 10)

    def test_workload_layers_are_binary(self, rnn_workload):
        names = rnn_workload.layer_names()
        assert "rnn0.input" in names and "rnn0.recurrent" in names
        for layer in rnn_workload:
            assert set(np.unique(layer.activations)) <= {0, 1}


class TestTemporalUnrolling:
    def test_name_helpers_roundtrip(self):
        assert timestep_layer_name("fc1", 2) == "fc1@t2"
        assert split_timestep_name("fc1@t2") == ("fc1", 2)
        assert split_timestep_name("fc1") == ("fc1", None)
        assert split_timestep_name("fc1@tx") == ("fc1@tx", None)
        with pytest.raises(ValueError):
            timestep_layer_name("fc1", -1)

    def test_unrolled_steps_concatenate_to_stacked(self):
        network = build_spiking_rnn(num_features=16, hidden_sizes=(8,), num_steps=3)
        inputs = (np.random.default_rng(1).random((3, 4, 16)) < 0.3).astype(float)
        stacked = extract_workload(network, inputs, pre_encoded=True)
        unrolled = extract_workload(network, inputs, pre_encoded=True, temporal=True)
        by_base: dict[str, list[np.ndarray]] = {}
        for layer in unrolled:
            base, step = split_timestep_name(layer.name)
            assert step is not None
            by_base.setdefault(base, []).append(layer.activations)
        for layer in stacked:
            assert np.array_equal(
                np.concatenate(by_base[layer.name], axis=0), layer.activations
            )

    def test_generated_temporal_names_and_profile(self, rnn_temporal_workload):
        steps = {split_timestep_name(n)[1] for n in rnn_temporal_workload.layer_names()}
        assert steps == {0, 1, 2}
        profile = temporal_density_profile(rnn_temporal_workload)
        assert sorted(profile) == [0, 1, 2]
        assert all(0.0 <= value <= 1.0 for value in profile.values())

    def test_temporal_spec_simulates_end_to_end(self):
        spec = WorkloadSpec(
            model="spikingrnn",
            dataset="speechcmd",
            batch_size=2,
            num_steps=2,
            temporal=True,
        )
        point = SweepPoint(workload=spec, arch=TINY.arch_config(), phi=TINY.phi_config())
        record = SweepEngine().run([point])[0]
        assert engine_module.validate_record(record) == []
        assert all(
            split_timestep_name(layer["name"])[1] is not None
            for layer in record["layers"]
        )


class TestTraceIngest:
    def _write_trace(self, path, seed=0):
        workload = generate_random_workload(density=0.3, m=32, k=16, n=8, seed=seed)
        arrays = {}
        for layer in workload:
            arrays[f"act:{layer.name}"] = layer.activations
            arrays[f"weight:{layer.name}"] = layer.weights
        np.savez(path, **arrays)
        return workload

    def test_npz_roundtrip_is_bit_exact(self, tmp_path):
        original = self._write_trace(tmp_path / "dump.npz")
        loaded = load_trace_npz(tmp_path / "dump.npz", model="mytrace")
        assert loaded.layer_names() == original.layer_names()
        for a, b in zip(original, loaded):
            assert np.array_equal(a.activations, b.activations)
            assert np.array_equal(a.weights, b.weights)

    def test_corrupt_archive_rejected(self, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"this is not an npz archive")
        with pytest.raises(ValueError, match="cannot read trace archive"):
            load_trace_npz(bad, model="x")

    def test_unpaired_arrays_rejected(self, tmp_path):
        np.savez(
            tmp_path / "odd.npz",
            **{"act:fc1": np.zeros((2, 4), dtype=np.uint8), "weight:fc2": np.zeros((4, 2))},
        )
        with pytest.raises(ValueError, match="malformed"):
            load_trace_npz(tmp_path / "odd.npz", model="x")

    def test_non_binary_trace_rejected(self, tmp_path):
        np.savez(
            tmp_path / "dense.npz",
            **{"act:fc1": np.full((2, 4), 3), "weight:fc1": np.zeros((4, 2))},
        )
        with pytest.raises(ValueError, match="trace layer 'fc1'"):
            load_trace_npz(tmp_path / "dense.npz", model="x")

    def test_store_roundtrip_and_spec_validation(self, tmp_path):
        store = ArtifactStore(tmp_path)
        workload = self._write_trace(tmp_path / "dump.npz")
        store.put(KIND_TRACE, store.trace_key("mytrace"), workload)
        loaded = ArtifactStore(tmp_path).get(KIND_TRACE, store.trace_key("mytrace"))
        assert loaded.layer_names() == workload.layer_names()

        spec = WorkloadSpec.from_trace("mytrace")
        assert spec.is_trace and spec.dataset == "trace"
        with pytest.raises(ValueError):
            WorkloadSpec(model="m", dataset="trace")
        with pytest.raises(ValueError):
            WorkloadSpec(model="m", dataset="cifar10", trace="mytrace")
        with pytest.raises(ValueError):
            WorkloadSpec(model="m", dataset="trace", trace="t", temporal=True)

    def test_trace_spec_requires_store(self):
        point = SweepPoint(
            workload=WorkloadSpec.from_trace("nowhere"),
            arch=TINY.arch_config(),
            phi=TINY.phi_config(),
        )
        with pytest.raises(RuntimeError, match="artifact store"):
            SweepEngine().run([point])

    def test_trace_records_byte_identical_across_runs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        workload = self._write_trace(tmp_path / "dump.npz")
        store.put(KIND_TRACE, store.trace_key("mytrace"), workload)
        point = SweepPoint(
            workload=WorkloadSpec.from_trace("mytrace"),
            arch=TINY.arch_config(),
            phi=TINY.phi_config(),
        )
        first = SweepEngine(store=ArtifactStore(tmp_path)).run([point])[0]
        second = SweepEngine(store=ArtifactStore(tmp_path)).run([point])[0]
        assert engine_module.validate_record(first) == []
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_missing_trace_names_the_import_command(self, tmp_path):
        point = SweepPoint(
            workload=WorkloadSpec.from_trace("ghost"),
            arch=TINY.arch_config(),
            phi=TINY.phi_config(),
        )
        with pytest.raises(RuntimeError, match="trace import"):
            SweepEngine(store=ArtifactStore(tmp_path)).run([point])


class TestStoreCompatLookup:
    def test_legacy_spec_payload_is_unchanged(self):
        # Pre-temporal specs must serialise exactly as before, or every
        # cache and store key of an existing spec would change.
        data = WorkloadSpec(model="vgg16", dataset="cifar10").to_dict()
        assert "temporal" not in data and "trace" not in data
        temporal = WorkloadSpec(model="m", dataset="cifar10", temporal=True).to_dict()
        assert temporal["temporal"] is True
        trace = WorkloadSpec.from_trace("t").to_dict()
        assert trace["trace"] == "t"
        for payload in (data, temporal, trace):
            assert WorkloadSpec.from_dict(payload).to_dict() == payload

    def test_lookup_miss_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, found = store.lookup(KIND_WORKLOAD, {"which": "absent"})
        assert found is None and key == store.key(KIND_WORKLOAD, {"which": "absent"})


class TestTemporalExperiment:
    def test_tiny_end_to_end(self):
        from repro.experiments.registry import get_experiment
        from repro.report.emitters import build_payload, section_markdown

        spec = get_experiment("temporal")
        assert spec.uses_engine
        result = spec.run("tiny")
        assert result.comparisons and result.comparisons[0].key == "spikingrnn/speechcmd"
        geo = result.geomean_speedup()
        assert set(geo) >= {"phi", "phi_paft", "eyeriss"}
        assert result.comparisons[0].density_by_step
        payload = build_payload(spec, result)
        json.dumps(payload)  # payload must be JSON-serialisable
        assert any("density" in t["title"].lower() for t in payload["tables"])
        assert "geomean" in section_markdown(spec, payload)
