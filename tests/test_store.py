"""Tests for the shared artifact store and the store-aware sweep engine.

Covers the npz round-trips (bit-exactness of loaded artifacts), atomic
concurrent writes, the engine's compute-once guarantee across store
instances, and the parallel determinism acceptance criterion (`--jobs 1`
and `--jobs 4` produce byte-identical v3 records).
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from reference import sparsity as reference_sparsity

import repro.runner.engine as engine_module
from repro.core.calibration import PhiCalibrator
from repro.core.config import PhiConfig
from repro.core.paft import ActivationAligner
from repro.core.sparsity import decompose_matrix, rebuild_decomposition
from repro.experiments.common import TINY
from repro.runner import (
    ArtifactStore,
    ResultCache,
    SweepEngine,
    SweepPoint,
    WorkloadSpec,
)
from repro.runner.store import (
    KIND_CALIBRATION,
    KIND_DECOMPOSITION,
    KIND_WORKLOAD,
    DecompositionArtifact,
    pack_arrays,
    unpack_arrays,
    write_packed,
)
from repro.workloads.generator import generate_random_workload


def tiny_workload(seed: int = 0):
    """A small deterministic random workload for store tests."""
    return generate_random_workload(density=0.3, m=64, k=32, n=8, seed=seed)


def tiny_config() -> PhiConfig:
    """A cheap PhiConfig for store tests."""
    return PhiConfig(partition_size=8, num_patterns=4, calibration_samples=64)


def tiny_points(num: int = 3) -> list[SweepPoint]:
    """Random-workload sweep points across distinct pattern counts."""
    spec = WorkloadSpec.random(0.3, m=64, k=32, n=8)
    return [
        SweepPoint(
            workload=spec,
            arch=TINY.arch_config(num_patterns=2**q),
            phi=TINY.phi_config(num_patterns=2**q),
        )
        for q in range(2, 2 + num)
    ]


class TestArtifactRoundtrips:
    def test_workload_roundtrip_is_bit_exact(self, tmp_path):
        store = ArtifactStore(tmp_path)
        workload = tiny_workload()
        key = store.key(KIND_WORKLOAD, {"seed": 0})
        store.put(KIND_WORKLOAD, key, workload)

        loaded = ArtifactStore(tmp_path).get(KIND_WORKLOAD, key)  # fresh memo
        assert loaded is not None
        assert loaded.model_name == workload.model_name
        assert loaded.layer_names() == workload.layer_names()
        for original, restored in zip(workload, loaded):
            np.testing.assert_array_equal(original.activations, restored.activations)
            np.testing.assert_array_equal(original.weights, restored.weights)
            assert restored.activations.dtype == original.activations.dtype

    def test_calibration_roundtrip_is_bit_exact(self, tmp_path):
        store = ArtifactStore(tmp_path)
        workload, config = tiny_workload(), tiny_config()
        calibration = PhiCalibrator(config).calibrate_model(
            workload.activation_matrices()
        )
        key = store.key(KIND_CALIBRATION, {"cfg": config.to_dict()})
        store.put(KIND_CALIBRATION, key, calibration)

        loaded = ArtifactStore(tmp_path).get(KIND_CALIBRATION, key)
        assert loaded is not None
        assert loaded.config == config
        assert loaded.layer_names() == calibration.layer_names()
        for name in calibration.layer_names():
            original, restored = calibration[name], loaded[name]
            assert restored.partition_size == original.partition_size
            assert restored.total_width == original.total_width
            for a, b in zip(original.pattern_sets, restored.pattern_sets):
                np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_decomposition_roundtrip_rebuilds_bit_exact(self, tmp_path):
        store = ArtifactStore(tmp_path)
        workload, config = tiny_workload(), tiny_config()
        calibration = PhiCalibrator(config).calibrate_model(
            workload.activation_matrices()
        )
        decompositions = {
            layer.name: calibration[layer.name].decompose(layer.activations)
            for layer in workload
        }
        key = store.key(KIND_DECOMPOSITION, {"cfg": config.to_dict()})
        store.put(KIND_DECOMPOSITION, key, decompositions)

        loaded = ArtifactStore(tmp_path).get(KIND_DECOMPOSITION, key)
        assert isinstance(loaded, DecompositionArtifact)
        rebuilt = loaded.rebuild(workload, calibration)
        for name, original in decompositions.items():
            restored = rebuilt[name]
            assert restored.boundaries == original.boundaries
            np.testing.assert_array_equal(
                restored.level2_nonzeros, original.level2_nonzeros
            )
            for a, b in zip(original.tiles, restored.tiles):
                np.testing.assert_array_equal(a.pattern_indices, b.pattern_indices)
                np.testing.assert_array_equal(a.level2, b.level2)
                np.testing.assert_array_equal(a.original, b.original)

    def test_rebuild_decomposition_matches_decompose_matrix(self):
        workload, config = tiny_workload(seed=3), tiny_config()
        layer = workload[0]
        calibration = PhiCalibrator(config).calibrate_layer(
            layer.name, layer.activations
        )
        direct = decompose_matrix(
            layer.activations, calibration.pattern_sets, config.partition_size
        )
        rebuilt = rebuild_decomposition(
            layer.activations,
            calibration.pattern_sets,
            config.partition_size,
            direct.pattern_indices,
            direct.level2_nonzeros,
        )
        np.testing.assert_array_equal(rebuilt.reconstruct(), direct.reconstruct())
        for a, b in zip(direct.tiles, rebuilt.tiles):
            np.testing.assert_array_equal(a.level2, b.level2)

    def test_corrupt_artifact_counts_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key(KIND_WORKLOAD, {"seed": 1})
        store.put(KIND_WORKLOAD, key, tiny_workload(seed=1))
        store.path_for(key).write_bytes(b"not an npz")
        assert ArtifactStore(tmp_path).get(KIND_WORKLOAD, key) is None

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown artifact kind"):
            ArtifactStore(tmp_path).key("nonsense", {})

    def test_len_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for seed in range(3):
            key = store.key(KIND_WORKLOAD, {"seed": seed})
            store.put(KIND_WORKLOAD, key, tiny_workload(seed=seed))
        assert len(store) == 3
        assert store.clear() == 3
        assert len(store) == 0

    def test_memory_only_store_touches_no_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        store = ArtifactStore(None)
        workload = tiny_workload()
        key, found = store.lookup(KIND_WORKLOAD, {"seed": 0})
        assert found is None
        store.put(KIND_WORKLOAD, key, workload)
        assert store.lookup(KIND_WORKLOAD, {"seed": 0})[1] is workload
        assert store.get(KIND_WORKLOAD, key) is None
        assert store.contains(key) and len(store) == 0
        assert store.clear() == 0 and not store.contains(key)
        assert not list(tmp_path.iterdir())


def _write_container(path, arrays) -> None:
    """Write ``arrays`` as a store container file at ``path``."""
    prefix, blocks, size = pack_arrays(arrays)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        np.lib.format.write_array_header_1_0(
            handle, {"descr": "|u1", "fortran_order": False, "shape": (size,)}
        )
        write_packed(handle, prefix, blocks)


def _assert_stored_counts(decompositions, workload, calibration) -> None:
    """Stored counts equal a fresh decomposition's and the XOR recount."""
    for layer in workload:
        layer_calibration = calibration[layer.name]
        restored = decompositions[layer.name]
        fresh = layer_calibration.decompose(layer.activations)
        recount = reference_sparsity.level2_counts(
            layer.activations,
            layer_calibration.pattern_sets,
            layer_calibration.partition_size,
            restored.pattern_indices,
        )
        assert restored.level2_nonzeros.dtype == fresh.level2_nonzeros.dtype
        np.testing.assert_array_equal(restored.level2_nonzeros, fresh.level2_nonzeros)
        np.testing.assert_array_equal(restored.level2_nonzeros, recount)
        np.testing.assert_array_equal(restored.pattern_indices, fresh.pattern_indices)


class TestStoredLevel2Counts:
    """A decomposition hit reads its Level 2 counts off disk, recounts nothing."""

    @pytest.mark.parametrize("partition_size", [8, 12])  # 12: ragged last partition
    def test_counts_roundtrip_through_a_fresh_store(self, tmp_path, partition_size):
        store = ArtifactStore(tmp_path)
        workload = tiny_workload()
        config = PhiConfig(
            partition_size=partition_size, num_patterns=4, calibration_samples=64
        )
        calibration = PhiCalibrator(config).calibrate_model(
            workload.activation_matrices()
        )
        decompositions = {
            layer.name: calibration[layer.name].decompose(layer.activations)
            for layer in workload
        }
        key = store.key(KIND_DECOMPOSITION, {"cfg": config.to_dict()})
        store.put(KIND_DECOMPOSITION, key, decompositions)

        loaded = ArtifactStore(tmp_path).get(KIND_DECOMPOSITION, key)
        rebuilt = loaded.rebuild(workload, calibration)
        _assert_stored_counts(rebuilt, workload, calibration)
        for decomposition in rebuilt.values():
            # A mapped, read-only view: nothing was counted or copied.
            assert not decomposition.level2_nonzeros.flags.writeable
            assert not decomposition.pattern_indices.flags.writeable

    def test_paft_aligned_unit_serves_stored_counts(self, tmp_path):
        spec = WorkloadSpec(
            "vgg16", "cifar10", batch_size=2, num_steps=2, paft_strength=0.5
        )
        point = SweepPoint(workload=spec, arch=TINY.arch_config(), phi=TINY.phi_config())
        _clear_process_memos()
        SweepEngine(store=ArtifactStore(tmp_path)).run([point])
        _clear_process_memos()
        store = ArtifactStore(tmp_path)
        with engine_module._active_store(store):
            workload, calibration, decompositions = engine_module._resolve_unit(point)
        assert store.misses == 0 and store.hits == 3
        _assert_stored_counts(decompositions, workload, calibration)

    @pytest.mark.parametrize("damage", ["missing", "short", "float"])
    def test_malformed_counts_are_a_miss_and_recomputed(self, tmp_path, damage):
        point = tiny_points(1)[0]
        _clear_process_memos()
        cold = SweepEngine(store=ArtifactStore(tmp_path)).run([point])[0]

        store = ArtifactStore(tmp_path)
        key = store.key(
            KIND_DECOMPOSITION,
            engine_module._artifact_payload(point.workload, point.phi),
        )
        arrays = {
            name: np.array(array)
            for name, array in unpack_arrays(store.load_payload(key)).items()
        }
        if damage == "missing":
            del arrays["c0"]
        elif damage == "short":
            arrays["c0"] = arrays["c0"][1:]
        else:
            arrays["c0"] = arrays["c0"].astype(np.float64)
        _write_container(store.path_for(key), arrays)
        assert store.get(KIND_DECOMPOSITION, key) is None
        assert store.misses == 1

        _clear_process_memos()
        healing = ArtifactStore(tmp_path)
        assert SweepEngine(store=healing).run([point])[0] == cold
        healed = ArtifactStore(tmp_path).get(KIND_DECOMPOSITION, key)
        assert isinstance(healed, DecompositionArtifact)


class TestConcurrentWrites:
    def test_concurrent_puts_never_corrupt_or_duplicate(self, tmp_path):
        """Many writers, one shared key plus distinct keys, no corruption."""
        store = ArtifactStore(tmp_path)
        workload = tiny_workload()
        shared_key = store.key(KIND_WORKLOAD, {"shared": True})

        def write(i: int) -> None:
            # Fresh store instances so nothing is served from a memo.
            own = ArtifactStore(tmp_path)
            own.put(KIND_WORKLOAD, shared_key, workload)
            unique = own.key(KIND_WORKLOAD, {"writer": i})
            own.put(KIND_WORKLOAD, unique, workload)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(write, range(16)))

        # 1 shared + 16 unique entries, no temp-file litter, all readable.
        assert len(ArtifactStore(tmp_path)) == 17
        assert not list(tmp_path.rglob("*.tmp"))
        fresh = ArtifactStore(tmp_path)
        loaded = fresh.get(KIND_WORKLOAD, shared_key)
        np.testing.assert_array_equal(
            loaded[0].activations, workload[0].activations
        )

    def test_concurrent_cache_puts_are_atomic(self, tmp_path):
        """The result cache tolerates racing writers on the same key."""
        cache = ResultCache(tmp_path)
        record = {"schema": 3, "value": list(range(100))}

        def write(i: int) -> None:
            ResultCache(tmp_path).put("ab" + "0" * 62, record)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(write, range(32)))
        assert len(cache) == 1
        assert cache.get("ab" + "0" * 62) == record
        assert not list(tmp_path.rglob("*.tmp"))

    def test_racing_counter_merges_lose_no_update(self, tmp_path):
        """``add_counts`` racing ``get`` in other threads loses no count."""
        store = ArtifactStore(tmp_path)
        missing = "00" * 32

        def merge(_: int) -> None:
            for _ in range(200):
                store.add_counts(1, 2)
                assert store.get(KIND_WORKLOAD, missing) is None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(merge, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert store.hits == 8 * 200
        assert store.misses == 8 * 200 * 3


def _clear_process_memos() -> None:
    """Drop every in-process memo so only the on-disk store can serve."""
    engine_module._MEMO.clear()


class TestStoreBackedEngine:
    @pytest.fixture()
    def counted_kmeans(self, monkeypatch):
        """Count PhiCalibrator.calibrate_model invocations."""
        calls = {"n": 0}
        original = PhiCalibrator.calibrate_model

        def counting(self, layer_activations):
            calls["n"] += 1
            return original(self, layer_activations)

        monkeypatch.setattr(PhiCalibrator, "calibrate_model", counting)
        return calls

    def test_calibration_computed_once_ever(self, tmp_path, counted_kmeans):
        point = tiny_points(1)[0]
        _clear_process_memos()
        engine = SweepEngine(store=ArtifactStore(tmp_path))
        first = engine.run([point])[0]
        assert counted_kmeans["n"] == 1

        # New store instance, cleared memos: everything must come off disk.
        _clear_process_memos()
        engine = SweepEngine(store=ArtifactStore(tmp_path))
        second = engine.run([point])[0]
        assert counted_kmeans["n"] == 1
        assert first == second

    def test_store_and_storeless_records_agree(self, tmp_path):
        point = tiny_points(1)[0]
        _clear_process_memos()
        with_store = SweepEngine(store=ArtifactStore(tmp_path)).run([point])[0]
        _clear_process_memos()
        without_store = SweepEngine().run([point])[0]
        assert with_store == without_store

    def test_paft_point_uses_store(self, tmp_path, counted_kmeans):
        spec = WorkloadSpec(
            "vgg16", "cifar10", batch_size=2, num_steps=2, paft_strength=0.5
        )
        point = SweepPoint(
            workload=spec, arch=TINY.arch_config(), phi=TINY.phi_config()
        )
        _clear_process_memos()
        first = SweepEngine(store=ArtifactStore(tmp_path)).run([point])[0]
        # Base calibration (alignment target) + aligned-workload calibration.
        assert counted_kmeans["n"] == 2

        _clear_process_memos()
        second = SweepEngine(store=ArtifactStore(tmp_path)).run([point])[0]
        assert counted_kmeans["n"] == 2
        assert first == second

    def test_disk_served_workload_stays_mapped_through_paft(self, tmp_path, monkeypatch):
        # The first run stores the base workload, its calibration and its
        # decompositions.  The second, with memos cleared, reads the base
        # workload off disk and aligns it for a PAFT point: the aligner
        # must get the read-only mapped payload itself, not a heap copy.
        base = WorkloadSpec("vgg16", "cifar10", batch_size=2, num_steps=2)
        paft = WorkloadSpec("vgg16", "cifar10", batch_size=2, num_steps=2, paft_strength=0.5)
        arch, phi = TINY.arch_config(), TINY.phi_config()
        _clear_process_memos()
        SweepEngine(store=ArtifactStore(tmp_path)).run(
            [SweepPoint(workload=base, arch=arch, phi=phi)]
        )

        payloads, aligned_inputs = [], []
        load_payload, align_layer = ArtifactStore.load_payload, ActivationAligner.align_layer

        def recording_load(store, key):
            payload = load_payload(store, key)
            payloads.append(payload)
            return payload

        def recording_align(aligner, activations, calibration):
            aligned_inputs.append(activations)
            return align_layer(aligner, activations, calibration)

        monkeypatch.setattr(ArtifactStore, "load_payload", recording_load)
        monkeypatch.setattr(ActivationAligner, "align_layer", recording_align)
        point = SweepPoint(workload=paft, arch=arch, phi=phi)
        _clear_process_memos()
        from_disk = SweepEngine(store=ArtifactStore(tmp_path)).run([point])[0]

        assert aligned_inputs
        mapped = [payload for payload in payloads if payload is not None]
        for activations in aligned_inputs:
            assert activations.dtype == np.uint8
            assert not activations.flags.writeable
            assert any(np.shares_memory(activations, payload) for payload in mapped)
        _clear_process_memos()
        assert from_disk == SweepEngine().run([point])[0]

    def test_storeless_run_does_not_mutate_workloads(self):
        point = tiny_points(1)[0]
        _clear_process_memos()
        workload = engine_module._stored_base_workload(point.workload)
        before = dict(vars(workload))
        SweepEngine().run([point])
        assert engine_module._stored_base_workload(point.workload) is workload
        assert vars(workload) == before

    def test_storeless_runs_share_artifacts_through_the_memo(
        self, monkeypatch, counted_kmeans
    ):
        """Two store-less engines calibrate and decompose one unit once."""
        import repro.core.calibration as calibration_module

        decompositions = {"n": 0}
        original = calibration_module.decompose_matrix

        def counting(*args, **kwargs):
            decompositions["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(calibration_module, "decompose_matrix", counting)
        point = tiny_points(1)[0]
        _clear_process_memos()
        first = SweepEngine().run([point])[0]
        decomposed = decompositions["n"]
        assert counted_kmeans["n"] == 1 and decomposed > 0
        second = SweepEngine().run([point])[0]
        assert counted_kmeans["n"] == 1
        assert decompositions["n"] == decomposed
        assert first == second


class TestParallelDeterminism:
    def test_jobs1_and_jobs4_records_byte_identical(self, tmp_path):
        """Acceptance criterion: parallel runs cache byte-identical records."""
        points = tiny_points(3)

        serial_cache = tmp_path / "serial"
        with SweepEngine(
            cache=ResultCache(serial_cache),
            store=ArtifactStore(tmp_path / "serial-store"),
            jobs=1,
        ) as engine:
            serial_records = engine.run(points)

        parallel_cache = tmp_path / "parallel"
        with SweepEngine(
            cache=ResultCache(parallel_cache),
            store=ArtifactStore(tmp_path / "parallel-store"),
            jobs=4,
        ) as engine:
            parallel_records = engine.run(points)

        assert serial_records == parallel_records
        serial_files = {p.name: p for p in serial_cache.glob("*/*.json")}
        parallel_files = {p.name: p for p in parallel_cache.glob("*/*.json")}
        assert sorted(serial_files) == sorted(parallel_files)
        for name, path in serial_files.items():
            assert path.read_bytes() == parallel_files[name].read_bytes(), name

    def test_warm_pool_survives_across_runs(self, tmp_path):
        points = tiny_points(2)
        with SweepEngine(
            store=ArtifactStore(tmp_path), cache=ResultCache(tmp_path / "c"), jobs=2
        ) as engine:
            first = engine.run(points)
            pool = engine._pool
            assert pool is not None
            second = engine.run(tiny_points(3))
            assert engine._pool is pool  # same warm pool, not respawned
        assert engine._pool is None  # closed on exit
        assert [r["total_cycles"] for r in first] == [
            r["total_cycles"] for r in second[:2]
        ]


class TestBenchTrajectory:
    def test_append_and_check(self, tmp_path):
        from repro.bench import BenchResult, append_results
        from repro.bench.cli import compare_trajectory

        result = BenchResult(
            schema=1,
            timestamp="2026-07-30T00:00:00+00:00",
            experiment="fig7",
            scale="tiny",
            scenario="serial_cold",
            jobs=1,
            wall_seconds=1.0,
            sweep_seconds=0.8,
            points=16,
            cache_hits=1,
            executed=15,
            code_version="1.0.0",
            python="3.11",
            cpu_count=1,
        )
        output = tmp_path / "BENCH_sweep.json"
        append_results([result], output)
        append_results([result], output)
        entries = json.loads(output.read_text())
        assert len(entries) == 2
        assert entries[0]["scenario"] == "serial_cold"

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"fig7/tiny/serial_cold": 1.0}))
        assert compare_trajectory(output, baseline)[1] == []
        # A scenario with no baseline entry is listed but never fails.
        unbaselined = BenchResult(
            **{**entries[0], "scenario": "parallel_cold", "wall_seconds": 9.0}
        )
        append_results([unbaselined], output)
        lines, failures = compare_trajectory(output, baseline)
        assert failures == []
        assert any("parallel_cold" in line for line in lines)
        # The latest entry per key is the one gated.
        slow = BenchResult(**{**entries[0], "wall_seconds": 2.5})
        append_results([slow], output)
        failures = compare_trajectory(output, baseline)[1]
        assert len(failures) == 1 and "serial_cold" in failures[0]


class TestStoreFailurePaths:
    """PR-4 failure semantics made explicit: the store is an accelerator,
    never a correctness dependency — corruption, clears and unwritable
    directories all degrade to recompute, never to a crash."""

    def test_corrupt_artifact_is_a_miss_under_a_concurrent_writer(self, tmp_path):
        store = ArtifactStore(tmp_path)
        workload = tiny_workload()
        key = store.key(KIND_WORKLOAD, {"corrupt-race": True})
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"definitely not an npz")

        outcomes: list[str] = []

        def read(i: int) -> None:
            loaded = ArtifactStore(tmp_path).get(KIND_WORKLOAD, key)
            if loaded is None:
                outcomes.append("miss")
            else:
                np.testing.assert_array_equal(
                    loaded[0].activations, workload[0].activations
                )
                outcomes.append("hit")

        def write(i: int) -> None:
            ArtifactStore(tmp_path).put(KIND_WORKLOAD, key, workload)
            outcomes.append("write")

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda i: write(i) if i % 4 == 0 else read(i), range(24)))

        # Every read was a clean miss or a bit-exact hit — never an
        # exception, never torn bytes — and the writer eventually heals
        # the entry.
        assert set(outcomes) <= {"miss", "hit", "write"}
        healed = ArtifactStore(tmp_path).get(KIND_WORKLOAD, key)
        np.testing.assert_array_equal(
            healed[0].activations, workload[0].activations
        )

    def test_store_clear_under_a_live_engine_recomputes_and_repopulates(
        self, tmp_path
    ):
        """`python -m repro.runner store --clear` while a service holds the
        store open: in-flight engines keep working and later runs
        repopulate the directory."""
        import subprocess
        import sys

        store = ArtifactStore(tmp_path / "store")
        points = tiny_points(2)
        engine = SweepEngine(cache=ResultCache(tmp_path / "cache-a"), store=store)
        first = engine.run(points)
        assert len(store) > 0

        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.runner",
                "store",
                "--clear",
                "--store-dir",
                str(store.root),
            ],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert len(ArtifactStore(store.root)) == 0

        # The same (still-open) engine serves a fresh cache dir without
        # error: its in-process memo still holds the artifacts, so the
        # clear never disturbs in-flight work.
        engine.cache = ResultCache(tmp_path / "cache-b")
        second = engine.run(points)
        assert json.loads(json.dumps(second)) == json.loads(json.dumps(first))

        # A *fresh* engine (new store instance, empty memo) recomputes
        # and repopulates the cleared directory with identical results.
        fresh = SweepEngine(
            cache=ResultCache(tmp_path / "cache-c"), store=ArtifactStore(store.root)
        )
        third = fresh.run(points)
        assert json.loads(json.dumps(third)) == json.loads(json.dumps(first))
        assert len(ArtifactStore(store.root)) > 0

    def test_unwritable_store_degrades_to_compute_without_persist(self, tmp_path):
        # The store root's parent is a regular *file*, so every mkdir /
        # write fails with OSError regardless of uid (chmod-based
        # read-only checks are vacuous when the suite runs as root).
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        store = ArtifactStore(blocker / "store")
        engine = SweepEngine(cache=ResultCache(tmp_path / "cache"), store=store)

        with pytest.warns(RuntimeWarning, match="not writable"):
            records = engine.run(tiny_points(2))

        assert all(r["schema"] == 3 for r in records)
        assert len(store) == 0, "nothing can persist below a file"
        # The records match a store-less engine bit for bit.
        bare = SweepEngine().run(tiny_points(2))
        assert json.loads(json.dumps(records)) == json.loads(json.dumps(bare))

    def test_put_failure_still_memoises_for_this_process(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        workload = tiny_workload()
        key = store.key(KIND_WORKLOAD, {"memo-only": True})
        monkeypatch.setattr(
            "repro.runner.store.os.replace",
            lambda *args: (_ for _ in ()).throw(PermissionError("read-only")),
        )
        with pytest.warns(RuntimeWarning, match="not writable"):
            store.put(KIND_WORKLOAD, key, workload)
        # Same instance: served from the memo.  Fresh instance: a miss.
        assert store.lookup(KIND_WORKLOAD, {"memo-only": True})[1] is workload
        assert ArtifactStore(tmp_path).get(KIND_WORKLOAD, key) is None
        assert not list(tmp_path.rglob("*.tmp")), "failed put must clean up"
