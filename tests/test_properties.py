"""Property-based tests (hypothesis) for the core invariants of Phi."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.kmeans import (
    binary_kmeans,
    filter_calibration_rows,
    hamming_distance_matrix,
)
from repro.core.metrics import operation_counts, sparsity_breakdown
from repro.core.patterns import PatternSet
from repro.core.sparsity import decompose_matrix, decompose_tile, partition_boundaries

binary_tiles = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 40), st.just(8)),
    elements=st.integers(0, 1),
)


@st.composite
def tile_with_patterns(draw):
    """A binary tile plus a pattern set of matching (drawn) width.

    Unlike :data:`binary_tiles`, both the partition width and the pattern
    count vary, so the decomposition invariants are exercised across the
    whole (shape, pattern-count) grid rather than at a fixed width.
    """
    width = draw(st.integers(1, 24))
    rows = draw(st.integers(1, 32))
    num_patterns = draw(st.integers(1, 12))
    tile = draw(
        arrays(dtype=np.uint8, shape=(rows, width), elements=st.integers(0, 1))
    )
    patterns = draw(
        arrays(dtype=np.uint8, shape=(num_patterns, width), elements=st.integers(0, 1))
    )
    return tile, patterns

binary_patterns = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 6), st.just(8)),
    elements=st.integers(0, 1),
)

binary_matrices = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 30), st.integers(1, 40)),
    elements=st.integers(0, 1),
)


@settings(max_examples=40, deadline=None)
@given(tile=binary_tiles, patterns=binary_patterns)
def test_decomposition_is_always_exact(tile, patterns):
    """L1 + L2 always reconstructs the original activation tile."""
    pattern_set = PatternSet(patterns)
    result = decompose_tile(tile, pattern_set)
    assert np.array_equal(result.reconstruct(), tile.astype(np.int8))


@settings(max_examples=40, deadline=None)
@given(tile=binary_tiles, patterns=binary_patterns)
def test_level2_never_needs_more_work_than_bit_sparsity(tile, patterns):
    """Per row, the corrections never exceed the row's own popcount."""
    pattern_set = PatternSet(patterns)
    result = decompose_tile(tile, pattern_set)
    corrections = np.count_nonzero(result.level2, axis=1)
    popcounts = tile.sum(axis=1)
    assert np.all(corrections <= popcounts)


@settings(max_examples=40, deadline=None)
@given(tile=binary_tiles, patterns=binary_patterns)
def test_level2_values_are_ternary(tile, patterns):
    result = decompose_tile(tile, PatternSet(patterns))
    assert set(np.unique(result.level2)) <= {-1, 0, 1}


@settings(max_examples=60, deadline=None)
@given(tile_patterns=tile_with_patterns())
def test_decomposition_exact_across_shapes_and_pattern_counts(tile_patterns):
    """L1 + L2 == A for every tile shape and pattern count combination."""
    tile, patterns = tile_patterns
    result = decompose_tile(tile, PatternSet(patterns))
    level1 = result.level1_matrix().astype(np.int16)
    level2 = result.level2.astype(np.int16)
    assert np.array_equal(level1 + level2, tile.astype(np.int16))
    assert np.array_equal(result.reconstruct(), tile.astype(np.int8))


@settings(max_examples=60, deadline=None)
@given(tile_patterns=tile_with_patterns())
def test_level2_ternary_across_shapes_and_pattern_counts(tile_patterns):
    """Level 2 values stay in {-1, 0, +1} for arbitrary shapes/counts."""
    tile, patterns = tile_patterns
    result = decompose_tile(tile, PatternSet(patterns))
    assert set(np.unique(result.level2)) <= {-1, 0, 1}
    # Pattern indices stay in the valid range (0 = no pattern).
    assert result.pattern_indices.min() >= 0
    assert result.pattern_indices.max() <= patterns.shape[0]


@settings(max_examples=40, deadline=None)
@given(tile_patterns=tile_with_patterns(), data=st.data())
def test_row_slice_equals_decomposing_the_slice(tile_patterns, data):
    """Slicing a decomposition == decomposing the row slice.

    This is the exact-equivalence property the simulator's decomposition
    reuse rests on: rows are decomposed independently.
    """
    tile, patterns = tile_patterns
    pattern_set = PatternSet(patterns)
    full = decompose_tile(tile, pattern_set)
    start = data.draw(st.integers(0, tile.shape[0] - 1))
    stop = data.draw(st.integers(start, tile.shape[0]))
    sliced = full.row_slice(start, stop)
    fresh = decompose_tile(tile[start:stop], pattern_set)
    assert np.array_equal(sliced.pattern_indices, fresh.pattern_indices)
    assert np.array_equal(sliced.level2, fresh.level2)
    assert np.array_equal(sliced.original, fresh.original)


@settings(max_examples=30, deadline=None)
@given(tile=binary_tiles, patterns=binary_patterns, data=st.data())
def test_decomposed_matmul_matches_reference(tile, patterns, data):
    """Computing through PWPs + Level 2 equals the plain GEMM."""
    pattern_set = PatternSet(patterns)
    result = decompose_tile(tile, pattern_set)
    seed = data.draw(st.integers(0, 2**16))
    weights = np.random.default_rng(seed).standard_normal((tile.shape[1], 3))
    assert np.allclose(result.compute_output(weights), tile @ weights, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(matrix=binary_matrices, partition=st.integers(2, 16))
def test_matrix_decomposition_reconstructs(matrix, partition):
    boundaries = partition_boundaries(matrix.shape[1], partition)
    rng = np.random.default_rng(0)
    pattern_sets = [
        PatternSet((rng.random((4, stop - start)) < 0.4).astype(np.uint8))
        for start, stop in boundaries
    ]
    result = decompose_matrix(matrix, pattern_sets, partition)
    assert np.array_equal(result.reconstruct(), matrix.astype(np.int8))


@settings(max_examples=30, deadline=None)
@given(matrix=binary_matrices, partition=st.integers(2, 16))
def test_operation_counts_invariants(matrix, partition):
    boundaries = partition_boundaries(matrix.shape[1], partition)
    rng = np.random.default_rng(1)
    pattern_sets = [
        PatternSet((rng.random((4, stop - start)) < 0.4).astype(np.uint8))
        for start, stop in boundaries
    ]
    decomposition = decompose_matrix(matrix, pattern_sets, partition)
    counts = operation_counts(decomposition)
    breakdown = sparsity_breakdown(decomposition)
    assert counts.bit_sparse_ops <= counts.dense_ops
    assert counts.phi_level2_ops <= counts.bit_sparse_ops
    assert 0.0 <= breakdown.level2_density <= breakdown.bit_density <= 1.0


@settings(max_examples=30, deadline=None)
@given(
    rows=arrays(
        dtype=np.uint8,
        shape=st.tuples(st.integers(2, 60), st.integers(2, 16)),
        elements=st.integers(0, 1),
    ),
    clusters=st.integers(1, 8),
)
def test_kmeans_centers_binary_and_assignments_valid(rows, clusters):
    result = binary_kmeans(rows, clusters)
    assert set(np.unique(result.centers)) <= {0, 1}
    assert result.assignments.min() >= 0
    assert result.assignments.max() < clusters
    assert result.inertia >= 0


@settings(max_examples=40, deadline=None)
@given(
    rows=arrays(
        dtype=np.uint8,
        shape=st.tuples(st.integers(1, 40), st.integers(1, 16)),
        elements=st.integers(0, 1),
    )
)
def test_filter_removes_only_degenerate_rows(rows):
    filtered = filter_calibration_rows(rows)
    assert np.all(filtered.sum(axis=1) >= 2)
    kept_mask = rows.sum(axis=1) >= 2
    assert filtered.shape[0] == int(kept_mask.sum())


@settings(max_examples=30, deadline=None)
@given(
    rows=arrays(
        dtype=np.uint8,
        shape=st.tuples(st.integers(1, 20), st.integers(1, 12)),
        elements=st.integers(0, 1),
    ),
    centers=arrays(
        dtype=np.uint8,
        shape=st.tuples(st.integers(1, 6), st.integers(1, 12)),
        elements=st.integers(0, 1),
    ),
)
def test_hamming_distance_matrix_properties(rows, centers):
    if rows.shape[1] != centers.shape[1]:
        rows = rows[:, : min(rows.shape[1], centers.shape[1])]
        centers = centers[:, : rows.shape[1]]
    distances = hamming_distance_matrix(rows, centers)
    assert distances.min() >= 0
    assert distances.max() <= rows.shape[1]


index_matrices = arrays(
    dtype=np.int32,
    shape=st.tuples(st.integers(0, 24), st.integers(1, 40)),
    elements=st.integers(0, 9),
)


@settings(max_examples=50, deadline=None)
@given(matrix=index_matrices, lanes=st.integers(1, 8))
def test_l1_cycles_match_naive_reference(matrix, lanes):
    """The vectorized L1 cycle model equals the per-row/group loop."""
    from repro.hw.config import ArchConfig
    from repro.hw.l1_processor import L1Processor

    arch = ArchConfig(num_channels=lanes, num_patterns=16)
    result = L1Processor(arch).process_tile(matrix)

    group = 16
    expected_cycles = 0
    for row in range(matrix.shape[0]):
        for start in range(0, matrix.shape[1], group):
            nonzeros = int(np.count_nonzero(matrix[row, start : start + group]))
            expected_cycles += 1 if nonzeros == 0 else int(np.ceil(nonzeros / lanes))
    assert result.cycles == expected_cycles
    assert result.unique_patterns_used == len(
        {(c, int(v)) for (_, c), v in np.ndenumerate(matrix) if v}
    )


@settings(max_examples=50, deadline=None)
@given(
    matrix=arrays(
        dtype=np.int32,
        shape=st.tuples(st.integers(0, 20), st.integers(1, 12)),
        elements=st.integers(-3, 6),
    )
)
def test_distinct_nonzero_per_column_matches_unique(matrix):
    """The presence-table scatter equals the per-column np.unique loop."""
    from repro.hw.l1_processor import distinct_nonzero_per_column

    expected = sum(
        int(np.count_nonzero(np.unique(matrix[:, c]))) for c in range(matrix.shape[1])
    )
    assert distinct_nonzero_per_column(matrix) == expected


@settings(max_examples=40, deadline=None)
@given(
    level2=arrays(
        dtype=np.int8,
        shape=st.tuples(st.integers(0, 24), st.integers(1, 16)),
        elements=st.integers(-1, 1),
    ),
    needs_psum=st.booleans(),
)
def test_compress_and_pack_conserve_units(level2, needs_psum):
    """Every Level 2 nonzero (plus psums) lands in exactly one pack unit.

    The counter-level packer agrees with the object-stream oracle, which
    places every unit in a pack.
    """
    from reference import preprocessor as oracle

    from repro.hw.config import ArchConfig
    from repro.hw.preprocessor import pack_counts_batch

    arch = ArchConfig(num_patterns=16)
    compressed = oracle.compress(level2, needs_psum=needs_psum)
    nonzero_rows = int(np.count_nonzero(np.count_nonzero(level2, axis=1)))
    assert compressed.filtered_rows == level2.shape[0] - nonzero_rows
    assert compressed.total_nonzeros == int(np.count_nonzero(level2))

    [counts] = pack_counts_batch([(arch, oracle.counts_of(compressed, needs_psum))])
    expected_psums = nonzero_rows if needs_psum else 0
    assert counts.total_units.tolist() == [compressed.total_nonzeros + expected_psums]
    assert counts.weight_units.tolist() == [compressed.total_nonzeros]
    assert counts.psum_units.tolist() == [expected_psums]
    assert counts.cycles.tolist() == [nonzero_rows]

    packed = oracle.pack_rows(arch, compressed.rows)
    assert counts.num_packs.tolist() == [len(packed.packs)]
    assert counts.total_units.tolist() == [packed.total_units]
    assert all(pack.num_units <= arch.pack_size for pack in packed.packs)
    # The packer's conflict avoidance guarantees every psum unit of a pack
    # lands in a distinct bank, so Pack.psum_banks (derived from the unit
    # list) must agree with the packer's own mirrored bank bookkeeping.
    for pack in packed.packs:
        assert len(pack.psum_banks(arch.num_channels)) == pack.num_psum_units


pack_jobs = st.lists(
    st.tuples(
        st.integers(1, 16),  # pack_size
        st.integers(1, 4),  # packer_windows
        # num_channels (psum banks): one, two and three mask words
        st.sampled_from([1, 2, 3, 8, 16, 64, 65, 128, 129, 200]),
        st.booleans(),  # needs_psum
        st.integers(0, 80),  # rows
        st.integers(1, 40),  # Level 2 width: rows can outgrow a pack
        st.sampled_from([0.0, 0.05, 0.3, 0.9]),  # nonzero density
        st.integers(0, 2**32 - 1),  # seed
    ),
    min_size=1,
    max_size=8,
)


def _random_level2(rows: int, width: int, density: float, seed: int) -> np.ndarray:
    """A ``{-1, 0, +1}`` Level 2 tile with the given nonzero density."""
    rng = np.random.default_rng(seed)
    nonzero = rng.random((rows, width)) < density
    return np.where(nonzero, rng.choice([-1, 1], size=(rows, width)), 0).astype(np.int8)


def _planned_counts(level2: np.ndarray):
    """``level2``'s compressed counts as ``plan_preprocess`` lays them out.

    The plan reads only the decomposition's per-row Level 2 nonzero
    counts.  The tile is both partitions of a one-M-tile layer, so the
    plan's layer holds two tiles of ``level2``'s rows: the first without
    a psum, the second with one.  Its arrays are the plan's compact
    per-layer dtypes.
    """
    from types import SimpleNamespace

    from repro.hw.config import ArchConfig
    from repro.hw.simulator import plan_preprocess

    rows, width = level2.shape
    level2_counts = np.count_nonzero(level2, axis=1)
    plan = plan_preprocess(
        ArchConfig(tile_m=rows, tile_k=width),
        SimpleNamespace(
            pattern_sets=(), level2_nonzeros=np.column_stack([level2_counts] * 2)
        ),
    )
    return plan.compressed


def _assert_packs_like_oracle(arch, tiles, got) -> None:
    """``got``, one layer's pack counts, equals the object-stream packer
    on every ``(level2, needs_psum)`` tile of ``tiles``."""
    from reference import preprocessor as oracle

    assert got.num_packs.size == len(tiles)
    for t, (level2, needs_psum) in enumerate(tiles):
        want = oracle.pack_rows(arch, oracle.compress(level2, needs_psum=needs_psum).rows)
        assert got.num_packs[t] == len(want.packs)
        assert got.weight_units[t] == sum(pack.num_weight_units for pack in want.packs)
        assert got.psum_units[t] == sum(pack.num_psum_units for pack in want.packs)
        assert got.total_units[t] == want.total_units
        assert got.cycles[t] == want.cycles
        assert got.evictions[t] == want.evictions


@settings(max_examples=60, deadline=None)
@given(
    jobs=pack_jobs,
    repeats=st.lists(
        st.tuples(st.integers(0, 7), st.one_of(st.none(), st.integers(1, 4))),
        max_size=4,
    ),
)
def test_pack_counts_batch_matches_oracle_pack_rows(jobs, repeats):
    """The lockstep packer equals the object-stream packer on every tile.

    One batch mixes machine configurations and repeats some layers,
    either exactly (the same object: the dedup path) or under another
    window count (which must not dedup).  It always carries layers with
    65 and 129 psum banks, whose bank masks span two and three 64-bit
    words, and a layer whose rows span up to five chunks.  Every other
    job comes from ``plan_preprocess`` as a two-tile layer, so int64
    oracle counts and the plan's compact dtypes share a batch.
    """
    from reference import preprocessor as oracle

    from repro.hw.config import ArchConfig
    from repro.hw.preprocessor import pack_counts_batch

    cases = []  # (arch, compressed layer, [(level2, needs_psum)] per tile)
    for i, (pack_size, windows, channels, needs_psum, rows, width, density, seed) in (
        enumerate(jobs)
    ):
        arch = ArchConfig(
            pack_size=pack_size, packer_windows=windows, num_channels=channels
        )
        level2 = _random_level2(rows, width, density, seed)
        if i % 2 and rows:
            cases.append((arch, _planned_counts(level2), [(level2, False), (level2, True)]))
        else:
            compressed = oracle.compress(level2, needs_psum=needs_psum)
            counts = oracle.counts_of(compressed, needs_psum)
            cases.append((arch, counts, [(level2, needs_psum)]))
    for i, windows in repeats:
        arch, counts, tiles = cases[i % len(jobs)]
        if windows is not None:
            arch = arch.with_overrides(packer_windows=windows)
        cases.append((arch, counts, tiles))
    # Bank 64 of 65 is bit 0 of the second bank-mask word, and bank 128
    # of 129 bit 0 of the third.  These layers' rows hit bit 0 of every
    # word twice in a row, then once each: a one-window packer must evict
    # on each repeat and only there, whichever word the bank is in.
    for channels in (65, 129):
        banks = np.arange(0, channels, 64)
        sequence = np.concatenate([np.repeat(banks, 2), banks])
        tall = np.zeros((channels * sequence.size, 2), dtype=np.int8)
        tall[np.arange(sequence.size) * channels + sequence, 0] = 1
        arch = ArchConfig(pack_size=16, packer_windows=1, num_channels=channels)
        counts = oracle.counts_of(oracle.compress(tall, needs_psum=True), True)
        cases.append((arch, counts, [(tall, True)]))
    # Rows of up to 16 nonzeros plus a psum span up to five 4-unit chunks.
    arch = ArchConfig(pack_size=4, packer_windows=2, num_channels=8)
    level2 = _random_level2(40, 16, 0.9, 1)
    counts = oracle.counts_of(oracle.compress(level2, needs_psum=True), True)
    cases.append((arch, counts, [(level2, True)]))

    batch = pack_counts_batch([(arch, counts) for arch, counts, _ in cases])
    assert len(batch) == len(cases)
    for (arch, _, tiles), got in zip(cases, batch):
        _assert_packs_like_oracle(arch, tiles, got)


pack_tiles = st.lists(
    st.tuples(
        st.booleans(),  # needs_psum
        st.integers(0, 40),  # rows
        st.integers(1, 24),  # Level 2 width: rows can outgrow a pack
        st.sampled_from([0.0, 0.1, 0.5, 0.9]),  # nonzero density
        st.integers(0, 2**32 - 1),  # seed
    ),
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(
    machines=st.lists(
        st.tuples(
            st.integers(1, 16),  # pack_size: rows split into chunks
            st.integers(1, 4),  # packer_windows
            st.integers(1, 200),  # num_channels (psum banks)
        ),
        min_size=1,
        max_size=3,
    ),
    layers=st.lists(st.tuples(st.integers(0, 2), pack_tiles), min_size=1, max_size=6),
)
def test_packing_layers_together_equals_packing_each_alone(machines, layers):
    """Several layers in one call pack as each layer alone does.

    Layers draw from up to three machine configurations, so several of
    them share one lockstep pass, and every tile also equals the
    object-stream packer.
    """
    from reference import preprocessor as oracle

    from repro.hw.config import ArchConfig
    from repro.hw.preprocessor import pack_counts_batch

    jobs = []
    tiles_of = []
    for machine, tiles in layers:
        pack_size, windows, channels = machines[machine % len(machines)]
        arch = ArchConfig(
            pack_size=pack_size, packer_windows=windows, num_channels=channels
        )
        tiles = [
            (_random_level2(rows, width, density, seed), needs_psum)
            for needs_psum, rows, width, density, seed in tiles
        ]
        counts = oracle.stack_tiles(
            [
                oracle.counts_of(oracle.compress(level2, needs_psum=psum), psum)
                for level2, psum in tiles
            ]
        )
        jobs.append((arch, counts))
        tiles_of.append(tiles)

    together = pack_counts_batch(jobs)
    assert len(together) == len(jobs)
    fields = ("num_packs", "weight_units", "psum_units", "cycles", "evictions")
    for job, tiles, got in zip(jobs, tiles_of, together):
        [alone] = pack_counts_batch([job])
        for field in fields:
            assert getattr(got, field).dtype == np.int64
            assert getattr(got, field).tolist() == getattr(alone, field).tolist()
        _assert_packs_like_oracle(job[0], tiles, got)


@settings(max_examples=50, deadline=None)
@given(total=st.integers(1, 500), partition=st.integers(1, 64))
def test_partition_boundaries_cover_exactly(total, partition):
    boundaries = partition_boundaries(total, partition)
    assert boundaries[0][0] == 0
    assert boundaries[-1][1] == total
    for (a_start, a_stop), (b_start, b_stop) in zip(boundaries, boundaries[1:]):
        assert a_stop == b_start
        assert a_stop - a_start == partition
    assert all(stop > start for start, stop in boundaries)
