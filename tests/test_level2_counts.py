"""Decompositions count Level 2 per row instead of materialising it.

``decompose_tile`` keeps each row's best Hamming distance (or popcount)
and ``rebuild_tile`` one XOR popcount against the assigned pattern; every
counting consumer reads those counts.  These tests check the counts
against ``np.count_nonzero`` of the Level 2 matrix, the metrics against
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
    TileDecomposition,
    decompose_matrix,
    decompose_tile,
    partition_boundaries,
    rebuild_decomposition,
    rebuild_tile,
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


def _assert_counts_match_level2(tile: TileDecomposition) -> None:
    assert tile.level2_nonzeros.dtype.kind == "u"
    np.testing.assert_array_equal(
        tile.level2_nonzeros, np.count_nonzero(tile.level2, axis=1)
    )


def _assert_same_metrics(decomposition) -> None:
    got = decomposition_metrics(decomposition)
    assert got == reference_metrics.decomposition_metrics(decomposition)


@settings(max_examples=80, deadline=None)
@given(layer=layers())
def test_decompose_counts_equal_level2_nonzeros(layer):
    activations, pattern_sets, partition_size = layer
    decomposition = decompose_matrix(activations, pattern_sets, partition_size)
    for tile in decomposition.tiles:
        _assert_counts_match_level2(tile)
        alone = decompose_tile(tile.original, tile.patterns)
        oracle = reference_sparsity.decompose_tile(tile.original, tile.patterns)
        np.testing.assert_array_equal(alone.level2_nonzeros, tile.level2_nonzeros)
        np.testing.assert_array_equal(oracle.level2_nonzeros, tile.level2_nonzeros)
        assert alone.level2_nonzeros.dtype == np.min_scalar_type(tile.patterns.width)
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
    rebuilt = rebuild_decomposition(activations, pattern_sets, partition_size, indices)
    for p, tile in enumerate(rebuilt.tiles):
        _assert_counts_match_level2(tile)
        by_row = [
            np.count_nonzero(row != tile.patterns.bits_of(int(index)))
            for row, index in zip(tile.original, indices[:, p])
        ]
        np.testing.assert_array_equal(tile.level2_nonzeros, by_row)
        alone = rebuild_tile(tile.original, tile.patterns, indices[:, p])
        np.testing.assert_array_equal(alone.level2_nonzeros, tile.level2_nonzeros)
    _assert_same_metrics(rebuilt)

    decomposed = decompose_matrix(activations, pattern_sets, partition_size)
    again = rebuild_decomposition(
        activations, pattern_sets, partition_size, decomposed.pattern_indices
    )
    np.testing.assert_array_equal(again.level2_nonzeros, decomposed.level2_nonzeros)
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
        layer.activations, calibration.pattern_sets, 16, stored.pattern_indices
    )

    def level2_built(self):
        raise AssertionError("Level 2 was materialised")

    monkeypatch.setattr(TileDecomposition, "level2", property(level2_built))
    simulator = PhiSimulator(arch)
    from_store = simulator.simulate_layer(
        layer, layer_calibration=calibration, decomposition=rebuilt
    )
    decomposed = simulator.simulate_layer(layer, layer_calibration=calibration)
    assert from_store == decomposed
    assert from_store.operation_counts.phi_level2_ops == int(rebuilt.level2_nonzeros.sum())


def test_warm_path_memory_per_row_partition():
    # A seeded 2,048-row, 18-partition layer with stored assignments:
    # rebuild, metrics and the preprocessing plan keep one count per
    # (row, partition) and never build Level 2.  Their traced peak stays
    # under 20 B per (row, partition); building int8 Level 2 tiles to
    # count them took 36.
    layer, calibration = _seeded_layer(2048, 288)
    stored = decompose_matrix(layer.activations, calibration.pattern_sets, 16)
    indices = stored.pattern_indices
    del stored
    arch = ArchConfig()
    tracemalloc.start()
    try:
        decomposition = rebuild_decomposition(
            layer.activations, calibration.pattern_sets, 16, indices
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
    # uint8 activations and int32 assignments are used in place, as a
    # store's mapped payload would be.
    rng = np.random.default_rng(width)
    activations = (rng.random((20, width)) < 0.5).astype(np.uint8)
    activations.setflags(write=False)
    pattern_sets = (PatternSet((rng.random((3, width)) < 0.5).astype(np.uint8)),)
    indices = rng.integers(0, 4, size=(20, 1)).astype(np.int32)
    rebuilt = rebuild_decomposition(activations, pattern_sets, width, indices)
    assert rebuilt.activations is activations
    assert rebuilt.pattern_indices is indices
