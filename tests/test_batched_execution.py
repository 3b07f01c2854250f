"""Batched cross-point execution and the unit-grain parallel dispatch.

Property tests pin the bit-exactness contract: the stacked cross-point
:func:`repro.runner.engine.simulate_many` path must be *byte-identical*
to the per-point path, and the vectorized L2 pack accounting must equal
the object-stream oracle in ``tests/reference/preprocessor.py``.
Functional tests pin the parallel engine's dispatch grain — one pool
task per ``(workload spec, PhiConfig)`` unit — and check that its
records and artifact-store counters equal a serial run's.
"""

from __future__ import annotations

import ctypes
import json
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import preprocessor as oracle

from repro.experiments.common import TINY
from repro.hw.config import ArchConfig
from repro.hw.l2_processor import L2Processor
from repro.hw.preprocessor import pack_counts_batch
from repro.runner import (
    ArtifactStore,
    ResultCache,
    SweepEngine,
    SweepPoint,
    WorkloadSpec,
)
from repro.runner import engine as engine_module


# --------------------------------------------------------------------- #
# Vectorized L2 pack accounting == object-stream oracle
# --------------------------------------------------------------------- #

level2_tiles = st.lists(
    arrays(
        dtype=np.int8,
        shape=st.tuples(st.integers(0, 30), st.integers(1, 16)),
        elements=st.integers(-1, 1),
    ),
    min_size=0,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(tiles=level2_tiles, needs_psum=st.booleans())
def test_pack_cycles_for_matches_scalar_path(tiles, needs_psum):
    """``pack_cycles_for`` element i == the oracle's L2 cycles for tile i.

    The tiles form one layer, packed as the simulator packs a layer.
    """
    arch = ArchConfig()
    layer = []
    expected = []
    for level2 in tiles:
        compressed = oracle.compress(level2, needs_psum=needs_psum)
        packs = oracle.pack_rows(arch, compressed.rows).packs
        expected.append(oracle.process_packs_cycles(packs))
        layer.append(oracle.counts_of(compressed, needs_psum))
    [counts] = pack_counts_batch([(arch, oracle.stack_tiles(layer))])
    batched = L2Processor(arch).pack_cycles_for(counts.num_packs)
    assert batched.dtype == np.int64
    assert batched.shape == (len(tiles),)
    assert batched.tolist() == expected


def test_buffer_scaling_batch_plans_and_packs_each_layer_once(
    vgg_workload, monkeypatch
):
    """Five archs that differ only in buffers share one decomposition per
    layer: ``simulate_phi_many`` plans and packs each layer once, and
    every task's result equals its own batch of one."""
    from repro.core import PhiCalibrator
    from repro.hw import PhiSimulator, preprocessor
    from repro.hw import simulator as simulator_module

    base = ArchConfig()
    simulators = [
        PhiSimulator(base.with_overrides(buffers=base.buffers.scaled(factor)))
        for factor in (0.5, 0.75, 1.0, 1.5, 3.0)
    ]
    calibration = PhiCalibrator(simulators[0].phi_config).calibrate_model(
        vgg_workload.activation_matrices()
    )
    decompositions = {
        layer.name: calibration[layer.name].decompose(layer.activations)
        for layer in vgg_workload
    }
    planned = []
    packed = []
    plan_preprocess = simulator_module.plan_preprocess
    lockstep = preprocessor._pack_counts_lockstep

    def counting_plan(arch, decomposition):
        planned.append(decomposition)
        return plan_preprocess(arch, decomposition)

    def counting_lockstep(layers, *machine):
        packed.extend(layers)
        return lockstep(layers, *machine)

    monkeypatch.setattr(simulator_module, "plan_preprocess", counting_plan)
    monkeypatch.setattr(preprocessor, "_pack_counts_lockstep", counting_lockstep)
    results = simulator_module.simulate_phi_many(
        [(sim, vgg_workload, calibration, decompositions) for sim in simulators]
    )
    assert [id(d) for d in planned] == [id(d) for d in decompositions.values()]
    assert len(packed) == len(vgg_workload)
    monkeypatch.undo()

    for sim, result in zip(simulators, results):
        alone = sim.simulate(
            vgg_workload, calibration=calibration, decompositions=decompositions
        )
        assert result.layers == alone.layers


# --------------------------------------------------------------------- #
# Stacked cross-point simulate_many == per-point simulate_point
# --------------------------------------------------------------------- #


def _record_bytes(record: dict) -> bytes:
    """The canonical byte serialisation the result cache writes."""
    return json.dumps(record, sort_keys=True).encode()


phi_grids = st.lists(
    st.tuples(
        st.sampled_from([2, 4, 8]),  # num_patterns (q)
        st.sampled_from([0, 1]),  # workload seed
        st.sampled_from(["phi", engine_module.DECOMPOSITION]),  # accelerator
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=6, deadline=None)
@given(grid=phi_grids)
def test_stacked_simulate_many_is_byte_identical_to_per_point(grid):
    """Cross-point stacking never changes a single record byte.

    Points are drawn over a randomized (num_patterns, workload-seed,
    accelerator) grid — duplicates are allowed and valuable, because
    same-unit points exercise the shared unit resolution, mixed kinds
    share one unit between ``phi`` and ``phi_decomposition`` points, and
    distinct units exercise the per-spec stacking groups.  The batch runs
    without a store and then twice inside a fresh artifact store: the
    first run stores the unit artifacts, the second rebuilds them.
    """
    points = [
        SweepPoint(
            workload=WorkloadSpec.random(0.3, m=64, k=32, n=8, seed=seed),
            arch=TINY.arch_config(num_patterns=q),
            phi=TINY.phi_config(num_patterns=q),
            accelerator=accelerator,
        )
        for q, seed, accelerator in grid
    ]
    reference = [
        _record_bytes(engine_module.simulate_point(point)) for point in points
    ]
    stacked = engine_module.simulate_many(points)
    assert [_record_bytes(r) for r in stacked] == reference
    with tempfile.TemporaryDirectory() as root:
        with engine_module._active_store(ArtifactStore(root)):
            for _ in range(2):
                stacked = engine_module.simulate_many(points)
                assert [_record_bytes(r) for r in stacked] == reference


# --------------------------------------------------------------------- #
# Unit-grain parallel dispatch
# --------------------------------------------------------------------- #

SPEC = WorkloadSpec.random(0.3, m=64, k=32, n=8)


def shared_unit_points(num: int = 3) -> list[SweepPoint]:
    """Points of ONE (workload, PhiConfig) unit: same artifacts, varied arch."""
    phi = TINY.phi_config()
    return [
        SweepPoint(
            workload=SPEC,
            arch=TINY.arch_config(frequency_mhz=500.0 + 100.0 * i),
            phi=phi,
        )
        for i in range(num)
    ]


def three_unit_points() -> list[SweepPoint]:
    """Three buffer scales on one PhiConfig plus two more pattern counts."""
    points = [
        SweepPoint(
            workload=SPEC,
            arch=TINY.arch_config(),
            phi=TINY.phi_config(),
            buffer_scale=scale,
        )
        for scale in (0.5, 1.0, 2.0)
    ]
    points += [
        SweepPoint(
            workload=SPEC,
            arch=TINY.arch_config(num_patterns=q),
            phi=TINY.phi_config(num_patterns=q),
        )
        for q in (4, 8)
    ]
    return points


class RecordingPool(ThreadPoolExecutor):
    """An in-process pool that records every submitted task."""

    def __init__(self) -> None:
        super().__init__(max_workers=2)
        self.submitted: list[tuple] = []

    def submit(self, fn, /, *args, **kwargs):
        self.submitted.append((fn, args))
        return super().submit(fn, *args, **kwargs)


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded in this process, if any."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in paths:
        library = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(library, name):
                return getattr(library, name)()
    return None


def _run(points: list[SweepPoint], **engine_args) -> tuple[list[dict], SweepEngine]:
    with SweepEngine(**engine_args) as engine:
        return engine.run(points), engine


class TestSharedMemoryHandoff:
    """``--jobs 4`` record equality, kept from the shared-memory suite.

    Pool tasks now run whole units, so no artifact crosses processes
    through shared memory and no segment can leak; the test keeps its id.
    """

    def test_jobs4_matches_serial_and_leaks_no_segments(self, tmp_path):
        """A unit's points run in one pool task and match the serial run."""
        points = shared_unit_points(3)
        serial, _ = _run(
            points,
            cache=ResultCache(tmp_path / "serial"),
            store=ArtifactStore(tmp_path / "serial-store"),
        )
        parallel, _ = _run(
            points,
            cache=ResultCache(tmp_path / "parallel"),
            store=ArtifactStore(tmp_path / "parallel-store"),
            jobs=4,
        )
        assert parallel == serial


class TestUnitDispatch:
    def test_one_pool_task_per_unit(self):
        """Three units make three pool tasks, whatever their point counts."""
        points = three_unit_points()
        serial, _ = _run(points)
        engine = SweepEngine(jobs=2)
        pool = engine._pool = RecordingPool()
        with engine:
            parallel = engine.run(points)
        assert [fn for fn, _ in pool.submitted] == [
            engine_module._simulate_with_shared
        ] * 3
        assert sorted(len(args[0]) for _, args in pool.submitted) == [1, 1, 3]
        assert parallel == serial

    def test_pool_store_counters_match_serial(self, tmp_path):
        """Worker-side store hits and misses reach the parent's store."""
        points = three_unit_points()
        serial, serial_engine = _run(points, store=ArtifactStore(tmp_path / "serial"))
        parallel, parallel_engine = _run(
            points, store=ArtifactStore(tmp_path / "parallel"), jobs=2
        )
        assert parallel == serial
        assert parallel_engine.store.misses == serial_engine.store.misses > 0
        assert parallel_engine.store.hits > 0

    def test_store_counts_disk_outcomes_only(self, tmp_path):
        """Memo answers are not store hits: a cold run only misses.

        Three units read one workload, three calibrations and three
        decompositions: seven artifacts.  A cold run misses each once;
        a new store instance on the same root then hits each once.
        """
        points = three_unit_points()
        cold, cold_engine = _run(points, store=ArtifactStore(tmp_path))
        assert (cold_engine.store.hits, cold_engine.store.misses) == (0, 7)
        warm, warm_engine = _run(points, store=ArtifactStore(tmp_path))
        assert (warm_engine.store.hits, warm_engine.store.misses) == (7, 0)
        assert warm == cold

    def test_pool_workers_split_the_cores_between_their_blas(self):
        """Each worker's BLAS runs on the cores divided by the pool size."""
        if not os.path.exists("/proc/self/maps") or _blas_threads() is None:
            pytest.skip("no OpenBLAS found in this process")
        with SweepEngine(jobs=2) as engine:
            threads = engine._ensure_pool().submit(_blas_threads).result()
        assert threads == max(1, (os.cpu_count() or 1) // 2)
