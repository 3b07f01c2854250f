"""Decompositions count Level 2 per row instead of materialising it.

``decompose_matrix`` keeps each row's best Hamming distance (or popcount)
and ``rebuild_decomposition`` takes the stored counts back; every
counting consumer reads those counts.  These tests check the counts
against ``np.count_nonzero`` of the Level 2 matrix and against the XOR
popcount recount (``check_decomposition`` in
``tests/reference/sparsity.py``), the metrics against
the Level 2-scanning oracle in ``tests/reference/metrics.py``, that the
simulator never builds Level 2, and the warm path's memory per
(row, partition).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import metrics as reference_metrics
from reference import sparsity as reference_sparsity

from repro.core.calibration import LayerCalibration
from repro.core.metrics import decomposition_metrics
from repro.core.patterns import PatternSet
from repro.core.sparsity import (
    MatrixDecomposition,
    decompose_matrix,
    partition_boundaries,
    rebuild_decomposition,
)
from repro.hw import ArchConfig, PhiSimulator
from repro.hw.simulator import plan_preprocess
from repro.workloads.workload import LayerWorkload


@st.composite
def layers(draw):
    """A binary ``(M, K)`` layer with one pattern set per partition.

    Partition widths run from 1 to 130 bits (one to three ``pack_rows``
    words), K is often not a multiple of the partition width, and rows
    mix random, all-zero and one-hot ones.  The first pattern of each
    set copies a row of its tile, so some rows match exactly.
    """
    partition_size = draw(st.integers(1, 130))
    last = draw(st.integers(1, partition_size))
    width = partition_size * (draw(st.integers(1, 3)) - 1) + last
    rows = draw(st.integers(0, 24))
    density = draw(st.sampled_from([0.02, 0.3, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    activations = (rng.random((rows, width)) < density).astype(np.uint8)
    kinds = rng.integers(0, 3, size=rows)
    activations[kinds > 0] = 0
    one_hot = np.flatnonzero(kinds == 2)
    activations[one_hot, rng.integers(0, width, size=one_hot.size)] = 1
    pattern_sets = []
    for start, stop in partition_boundaries(width, partition_size):
        patterns = (rng.random((draw(st.integers(1, 6)), stop - start)) < density)
        patterns = patterns.astype(np.uint8)
        if rows:
            patterns[0] = activations[rng.integers(0, rows), start:stop]
        pattern_sets.append(PatternSet(patterns))
    return activations, tuple(pattern_sets), partition_size


def _assert_same_metrics(decomposition) -> None:
    got = decomposition_metrics(decomposition)
    assert got == reference_metrics.decomposition_metrics(decomposition)


@settings(max_examples=80, deadline=None)
@given(layer=layers())
def test_decompose_counts_equal_level2_nonzeros(layer):
    activations, pattern_sets, partition_size = layer
    decomposition = decompose_matrix(activations, pattern_sets, partition_size)
    reference_sparsity.check_decomposition(decomposition)
    for p, (patterns, (start, stop)) in enumerate(zip(pattern_sets, decomposition.boundaries)):
        tile = activations[:, start:stop]
        alone = decompose_matrix(tile, (patterns,), stop - start)
        oracle = reference_sparsity.decompose_tile(tile, patterns)
        counts = decomposition.level2_nonzeros[:, p]
        np.testing.assert_array_equal(alone.level2_nonzeros[:, 0], counts)
        np.testing.assert_array_equal(oracle.level2_nonzeros, counts)
        assert alone.level2_nonzeros.dtype == np.min_scalar_type(patterns.width)
    _assert_same_metrics(decomposition)


@settings(max_examples=80, deadline=None)
@given(layer=layers(), data=st.data())
def test_rebuild_counts_equal_level2_nonzeros(layer, data):
    activations, pattern_sets, partition_size = layer
    # Any assignment rebuilds, not only the best one: draw each row's
    # pattern (NO_PATTERN included) at random.
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    indices = np.stack(
        [rng.integers(0, len(s) + 1, size=activations.shape[0]) for s in pattern_sets],
        axis=1,
    ).astype(np.int32)
    counts = reference_sparsity.level2_counts(
        activations, pattern_sets, partition_size, indices
    )
    rebuilt = rebuild_decomposition(
        activations, pattern_sets, partition_size, indices, counts
    )
    reference_sparsity.check_decomposition(rebuilt)
    for p, (patterns, (start, stop)) in enumerate(zip(pattern_sets, rebuilt.boundaries)):
        bits = np.vstack([np.zeros((1, patterns.width), np.uint8), patterns.matrix])
        by_row = [
            np.count_nonzero(row != bits[index])
            for row, index in zip(activations[:, start:stop], indices[:, p])
        ]
        np.testing.assert_array_equal(rebuilt.level2_nonzeros[:, p], by_row)
    _assert_same_metrics(rebuilt)

    decomposed = decompose_matrix(activations, pattern_sets, partition_size)
    recounted = reference_sparsity.level2_counts(
        activations, pattern_sets, partition_size, decomposed.pattern_indices
    )
    np.testing.assert_array_equal(recounted, decomposed.level2_nonzeros)
    assert recounted.dtype == decomposed.level2_nonzeros.dtype
    again = rebuild_decomposition(
        activations,
        pattern_sets,
        partition_size,
        decomposed.pattern_indices,
        decomposed.level2_nonzeros,
    )
    assert again.level2_nonzeros is decomposed.level2_nonzeros
    assert decomposition_metrics(again) == decomposition_metrics(decomposed)


def _seeded_layer(rows: int, width: int, partition_size: int = 16, patterns: int = 16):
    rng = np.random.default_rng(0)
    activations = (rng.random((rows, width)) < 0.2).astype(np.uint8)
    pattern_sets = tuple(
        PatternSet((rng.random((patterns, stop - start)) < 0.2).astype(np.uint8))
        for start, stop in partition_boundaries(width, partition_size)
    )
    calibration = LayerCalibration("layer", pattern_sets, partition_size, width)
    layer = LayerWorkload("layer", activations, rng.standard_normal((width, 24)))
    return layer, calibration


def test_simulating_never_builds_level2(monkeypatch):
    layer, calibration = _seeded_layer(300, 72)
    arch = ArchConfig(tile_m=64, tile_k=16, num_patterns=16)
    stored = decompose_matrix(layer.activations, calibration.pattern_sets, 16)
    rebuilt = rebuild_decomposition(
        layer.activations,
        calibration.pattern_sets,
        16,
        stored.pattern_indices,
        stored.level2_nonzeros,
    )

    def level2_built(self):
        raise AssertionError("Level 2 was materialised")

    monkeypatch.setattr(MatrixDecomposition, "level2", level2_built)
    simulator = PhiSimulator(arch)
    from_store = simulator.simulate_layer(
        layer, layer_calibration=calibration, decomposition=rebuilt
    )
    decomposed = simulator.simulate_layer(layer, layer_calibration=calibration)
    assert from_store == decomposed
    assert from_store.operation_counts.phi_level2_ops == int(rebuilt.level2_nonzeros.sum())


def test_warm_path_memory_per_row_partition():
    # A seeded 2,048-row, 18-partition layer with stored assignments and
    # counts: assembly, metrics and the preprocessing plan keep one count
    # per (row, partition) and never build Level 2.  Their traced peak
    # stays under 20 B per (row, partition); building int8 Level 2 tiles
    # to count them took 36.
    layer, calibration = _seeded_layer(2048, 288)
    stored = decompose_matrix(layer.activations, calibration.pattern_sets, 16)
    indices, counts = stored.pattern_indices, stored.level2_nonzeros
    del stored
    arch = ArchConfig()
    tracemalloc.start()
    try:
        decomposition = rebuild_decomposition(
            layer.activations, calibration.pattern_sets, 16, indices, counts
        )
        decomposition_metrics(decomposition)
        plan = plan_preprocess(arch, decomposition)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.compressed.offsets.size == plan.num_partitions * len(plan.m_tiles) + 1
    assert peak / indices.size <= 20


def test_plan_memory_per_row_partition():
    # The plan alone on the same layer: the padded counts, their job-major
    # copy, a boolean keep mask and the kept ids and counts stay under
    # 10 B per (row, partition); an int64 index of the kept rows took 12.5.
    layer, calibration = _seeded_layer(2048, 288)
    decomposition = decompose_matrix(layer.activations, calibration.pattern_sets, 16)
    tracemalloc.start()
    try:
        plan = plan_preprocess(ArchConfig(), decomposition)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.compressed.offsets.size == plan.num_partitions * len(plan.m_tiles) + 1
    assert peak / decomposition.pattern_indices.size <= 10


@pytest.mark.parametrize("width", [1, 64, 65, 130])
def test_rebuild_keeps_inputs_uncopied(width):
    # uint8 activations, int32 assignments and counts of the decomposed
    # dtype are used in place, as a store's mapped payload would be.
    rng = np.random.default_rng(width)
    activations = (rng.random((20, width)) < 0.5).astype(np.uint8)
    activations.setflags(write=False)
    pattern_sets = (PatternSet((rng.random((3, width)) < 0.5).astype(np.uint8)),)
    indices = rng.integers(0, 4, size=(20, 1)).astype(np.int32)
    counts = reference_sparsity.level2_counts(activations, pattern_sets, width, indices)
    rebuilt = rebuild_decomposition(activations, pattern_sets, width, indices, counts)
    assert rebuilt.activations is activations
    assert rebuilt.pattern_indices is indices
    assert rebuilt.level2_nonzeros is counts


def test_rebuild_checks_both_matrix_shapes():
    layer, calibration = _seeded_layer(30, 40)
    stored = decompose_matrix(layer.activations, calibration.pattern_sets, 16)
    indices, counts = stored.pattern_indices, stored.level2_nonzeros
    args = (layer.activations, calibration.pattern_sets, 16)
    with pytest.raises(ValueError, match="pattern_index_matrix"):
        rebuild_decomposition(*args, indices[1:], counts)
    with pytest.raises(ValueError, match="level2_counts"):
        rebuild_decomposition(*args, indices, counts[:, :2])
    with pytest.raises(ValueError, match="pattern sets"):
        rebuild_decomposition(layer.activations, calibration.pattern_sets[:2], 16, indices, counts)
