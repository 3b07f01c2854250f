"""Unit tests for the Phi accelerator components (config, energy model,
preprocessor counters, L1/L2 processors and the neuron array).

The preprocessor tests check the counter-level path the simulator runs
against the object-stream oracle in ``tests/reference/preprocessor.py``.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from reference import preprocessor as oracle
from reference.preprocessor import LABEL_NONZERO, LABEL_PSUM, CompressedRow, Pack, PackUnit
from reference.sparsity import check_decomposition

from repro.core.calibration import LayerCalibration, PhiCalibrator
from repro.core.config import PhiConfig
from repro.core.patterns import PatternSet
from repro.core.sparsity import decompose_matrix
from repro.hw import ArchConfig, BufferSizes, PhiEnergyModel, PhiSimulator
from repro.hw.l1_processor import L1Processor
from repro.hw.l2_processor import L2Processor
from repro.hw.neuron_array import SpikingNeuronArray
from repro.hw.preprocessor import CompressedCounts, pack_counts_batch
from repro.hw.simulator import plan_preprocess
from repro.workloads.workload import LayerWorkload


@pytest.fixture
def arch():
    return ArchConfig()


@pytest.fixture
def small_patterns():
    return PatternSet(
        np.array(
            [[0, 1, 1, 0, 0, 1, 0, 0], [1, 1, 0, 1, 0, 0, 1, 0], [0, 0, 0, 0, 1, 1, 1, 1]],
            dtype=np.uint8,
        )
    )


class TestArchConfig:
    def test_paper_defaults(self, arch):
        assert arch.tile_m == 256 and arch.tile_k == 16 and arch.tile_n == 32
        assert arch.buffers.total == 240 * 1024
        assert arch.frequency_mhz == 500.0

    def test_derived_quantities(self, arch):
        assert arch.frequency_hz == 5e8
        assert arch.cycle_time_ns == pytest.approx(2.0)
        assert arch.dram_bytes_per_cycle == pytest.approx(128.0)

    def test_buffer_scaling(self):
        scaled = BufferSizes().scaled(2.0)
        assert scaled.total == 480 * 1024
        with pytest.raises(ValueError):
            BufferSizes().scaled(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArchConfig(tile_m=0)
        with pytest.raises(ValueError):
            ArchConfig(frequency_mhz=0)

    def test_with_overrides(self, arch):
        other = arch.with_overrides(tile_n=64)
        assert other.tile_n == 64 and arch.tile_n == 32


class TestEnergyModel:
    def test_table3_totals(self, arch):
        model = PhiEnergyModel(arch)
        assert model.total_area_mm2() == pytest.approx(0.663, abs=0.01)
        assert model.total_power_mw() == pytest.approx(346.5, abs=1.0)

    def test_buffer_scale_affects_area(self, arch):
        small = PhiEnergyModel(arch, buffer_scale=0.5)
        large = PhiEnergyModel(arch, buffer_scale=2.0)
        assert small.total_area_mm2() < large.total_area_mm2()

    def test_component_energy_scales_with_cycles(self, arch):
        model = PhiEnergyModel(arch)
        assert model.component_energy("l1_processor", 2000) == pytest.approx(
            2 * model.component_energy("l1_processor", 1000)
        )

    def test_energy_from_activity(self, arch):
        model = PhiEnergyModel(arch)
        breakdown = model.energy_from_activity(
            component_busy_cycles={"l1_processor": 100, "buffer": 100},
            buffer_bytes=1000,
            dram_bytes=1000,
        )
        assert breakdown.total == pytest.approx(
            breakdown.core + breakdown.buffer + breakdown.dram
        )
        assert breakdown.dram > 0
        combined = breakdown + breakdown
        assert combined.total == pytest.approx(2 * breakdown.total)




class TestPatternMatcher:
    def test_one_row_per_cycle(self, small_patterns, rng):
        # The matcher streams one row per cycle past every matcher unit;
        # the preprocess stage charges rows cycles and rows x q compares.
        arch = ArchConfig(tile_k=8, num_patterns=3)
        simulator = PhiSimulator(arch, PhiConfig(partition_size=8, num_patterns=3))
        tile = (rng.random((20, 8)) < 0.3).astype(np.uint8)
        layer = LayerWorkload("layer", tile, np.ones((8, 4)))
        calibration = LayerCalibration("layer", (small_patterns,), 8, 8)
        result = simulator.simulate_layer(layer, layer_calibration=calibration)
        assert result.preprocessor_cycles == 20
        assert result.pattern_match_comparisons == 20 * 3
        check_decomposition(decompose_matrix(tile, (small_patterns,), 8))


class TestCompressorAndPacker:
    def test_compressor_filters_zero_rows(self):
        level2 = np.array([[0, 0, 0, 0], [1, 0, -1, 0], [0, 0, 0, 0]], dtype=np.int8)
        result = oracle.compress(level2)
        assert result.filtered_rows == 2
        assert len(result.rows) == 1
        assert result.rows[0].columns == (0, 2)
        assert result.rows[0].values == (1, -1)
        assert result.total_nonzeros == 2
        assert result.cycles == 3

    def test_pack_unit_validation(self):
        with pytest.raises(ValueError):
            PackUnit(label="weird", index=0, value=1, row_id=0)
        with pytest.raises(ValueError):
            PackUnit(label=LABEL_NONZERO, index=0, value=2, row_id=0)

    def test_pack_capacity(self):
        pack = Pack(capacity=2)
        pack.add_row([PackUnit(LABEL_NONZERO, 0, 1, 0)])
        assert pack.free_space == 1
        with pytest.raises(ValueError):
            pack.add_row([PackUnit(LABEL_NONZERO, 1, 1, 1), PackUnit(LABEL_PSUM, 1, 1, 1)])

    def test_packer_packs_all_units(self, arch):
        rows = [
            CompressedRow(row_id=i, columns=(0, 1), values=(1, -1), needs_psum=True)
            for i in range(10)
        ]
        result = oracle.pack_rows(arch, rows)
        assert result.total_units == 10 * 3  # 2 nonzeros + 1 psum per row
        assert result.cycles == 10
        assert all(pack.num_units <= arch.pack_size for pack in result.packs)
        [counts] = pack_counts_batch(
            [(arch, oracle.counts_of(oracle.CompressorResult(rows, 10, 0), needs_psum=True))]
        )
        assert counts.total_units.tolist() == [result.total_units]
        assert counts.num_packs.tolist() == [len(result.packs)]

    def test_packer_avoids_psum_bank_conflicts(self, arch):
        # Rows 0 and 8 share a bank (8 banks); they must not share a pack.
        rows = [
            CompressedRow(row_id=0, columns=(0,), values=(1,), needs_psum=True),
            CompressedRow(row_id=8, columns=(1,), values=(1,), needs_psum=True),
        ]
        result = oracle.pack_rows(arch, rows)
        for pack in result.packs:
            banks = [u.row_id % arch.num_channels for u in pack.units if u.label == LABEL_PSUM]
            assert len(banks) == len(set(banks))
        [counts] = pack_counts_batch(
            [(arch, oracle.counts_of(oracle.CompressorResult(rows, 9, 7), needs_psum=True))]
        )
        assert counts.num_packs.tolist() == [len(result.packs)] == [2]

    def test_packer_splits_oversized_rows(self, arch):
        row = CompressedRow(
            row_id=0, columns=tuple(range(12)), values=tuple([1] * 12), needs_psum=True
        )
        result = oracle.pack_rows(arch, [row])
        assert result.total_units == 13
        [counts] = pack_counts_batch(
            [(arch, oracle.counts_of(oracle.CompressorResult([row], 1, 0), needs_psum=True))]
        )
        assert counts.total_units.tolist() == [13]
        assert counts.num_packs.tolist() == [len(result.packs)]

    def test_preprocessor_end_to_end(self, arch, small_patterns, rng):
        tile = (rng.random((40, 8)) < 0.25).astype(np.uint8)
        level2 = decompose_matrix(tile, (small_patterns,), 8).level2()
        compressed = oracle.compress(level2)
        packed = oracle.pack_rows(arch, compressed.rows)
        nnz = int(np.count_nonzero(level2))
        packed_nonzeros = sum(
            1 for pack in packed.packs for u in pack.units if u.label == LABEL_NONZERO
        )
        assert packed_nonzeros == nnz
        [counts] = pack_counts_batch([(arch, oracle.counts_of(compressed, needs_psum=True))])
        assert counts.weight_units.tolist() == [nnz]
        assert counts.num_packs.tolist() == [len(packed.packs)]


class TestL1Processor:
    def test_zero_skipping_cycles(self, arch):
        processor = L1Processor(arch)
        matrix = np.zeros((4, 16), dtype=np.int32)
        matrix[0, :10] = 1  # 10 nonzero indices in the first row
        result = processor.process_tile(matrix)
        # Row 0 takes ceil(10/8) = 2 cycles, rows 1-3 take 1 cycle each.
        assert result.cycles == 2 + 3
        assert result.unique_patterns_used == 10

    def test_prefetch_traffic_less_than_unfiltered(self, arch):
        # The prefetcher loads one PWP row per distinct (partition,
        # pattern) pair, not all q patterns of every partition.
        processor = L1Processor(arch)
        matrix = np.zeros((8, 4), dtype=np.int32)
        matrix[:, 0] = [1, 1, 2, 2, 3, 3, 3, 0]
        result = processor.process_tile(matrix)
        assert result.unique_patterns_used == 3
        assert result.unique_patterns_used < matrix.shape[1] * arch.num_patterns

    def test_rejects_bad_input(self, arch):
        with pytest.raises(ValueError):
            L1Processor(arch).process_tile(np.zeros(4))


class TestL2Processor:
    def test_cycles_track_pack_count(self, arch):
        packs = []
        for i in range(5):
            pack = Pack(arch.pack_size)
            pack.add_row([PackUnit(LABEL_NONZERO, 0, 1, i), PackUnit(LABEL_PSUM, i, 1, i)])
            packs.append(pack)
        cycles = L2Processor(arch).pack_cycles_for(np.array([5]))
        assert cycles.tolist() == [5 + L2Processor.PIPELINE_DEPTH]
        assert oracle.process_packs_cycles(packs) == cycles[0]

    def test_empty_packs(self, arch):
        cycles = L2Processor(arch).pack_cycles_for(np.array([0]))
        assert cycles.tolist() == [0] == [oracle.process_packs_cycles([])]


class TestNeuronArray:
    def test_estimate(self, arch):
        array = SpikingNeuronArray(arch)
        assert array.estimate(64, 32) == 64
        assert array.estimate(0, 32) == 0

    def test_invalid(self, arch):
        with pytest.raises(ValueError):
            SpikingNeuronArray(arch, num_units=0)


class TestCountsFastPath:
    """The counter-level preprocessor path must agree with the oracle."""

    def _random_level2(self, rng, rows, cols, density):
        values = rng.choice([-1, 0, 1], size=(rows, cols), p=[density / 2, 1 - density, density / 2])
        return values.astype(np.int8)

    @pytest.mark.parametrize("needs_psum", [True, False])
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.6])
    def test_compress_counts_matches_compress(self, needs_psum, density):
        # plan_preprocess is the simulator's compressor: each (M tile,
        # partition) tile must equal the oracle compressing that slice.
        arch = ArchConfig(tile_m=16, num_patterns=4)
        rng = np.random.default_rng(7)
        activations = (rng.random((40, 48)) < density).astype(np.uint8)
        calibration = PhiCalibrator(
            PhiConfig(partition_size=16, num_patterns=4)
        ).calibrate_layer("layer", activations)
        decomposition = decompose_matrix(activations, calibration.pattern_sets, 16)
        plan = plan_preprocess(arch, decomposition)
        counts = plan.compressed
        assert counts.offsets.size == len(plan.m_tiles) * plan.num_partitions + 1
        tiles = iter(range(counts.offsets.size - 1))
        checked = 0
        level2 = decomposition.level2()
        for m_start, m_stop in plan.m_tiles:
            for p, (k_start, k_stop) in enumerate(decomposition.boundaries):
                t = next(tiles)
                assert counts.needs_psum[t] == (p > 0)
                if counts.needs_psum[t] != needs_psum:
                    continue
                want = oracle.compress(
                    level2[m_start:m_stop, k_start:k_stop], needs_psum=needs_psum
                )
                row_ids, row_nonzeros = oracle.tile_rows(counts, t)
                assert int(row_nonzeros.sum()) == want.total_nonzeros
                assert row_ids.tolist() == [row.row_id for row in want.rows]
                assert row_nonzeros.tolist() == [row.num_nonzeros for row in want.rows]
                checked += 1
        assert checked == len(plan.m_tiles) * (2 if needs_psum else 1)

    @pytest.mark.parametrize(
        "tile_m, num_channels, rows, id_dtype",
        [
            # Row ids above 32,767 need the plan's wide row-id dtype.
            (40_000, 64, 36_000, np.int32),
            # int16 row ids under more psum banks than int16 holds.
            (256, 40_000, 2_000, np.int16),
        ],
    )
    def test_plan_dtypes_pack_like_the_oracle(
        self, tile_m, num_channels, rows, id_dtype
    ):
        arch = ArchConfig(tile_m=tile_m, num_channels=num_channels)
        level2 = (np.random.default_rng(3).random((rows, 16)) < 0.003).astype(np.int8)
        level2[-1, 0] = 1
        level2_counts = np.count_nonzero(level2, axis=1)
        plan = plan_preprocess(
            arch,
            SimpleNamespace(
                pattern_sets=(),
                level2_nonzeros=np.column_stack([level2_counts] * 2),
            ),
        )
        counts = plan.compressed
        # The layer's compact arrays.
        assert counts.row_ids.dtype == id_dtype
        assert counts.row_nonzeros.dtype == np.uint8
        assert counts.row_ids[-1] == (rows - 1) % tile_m
        [got] = pack_counts_batch([(arch, counts)])
        tiles = iter(range(counts.offsets.size - 1))
        for m_start, m_stop in plan.m_tiles:
            for p in range(2):
                t = next(tiles)
                want = oracle.compress(level2[m_start:m_stop], needs_psum=p > 0)
                row_ids, _ = oracle.tile_rows(counts, t)
                assert row_ids.tolist() == [row.row_id for row in want.rows]
                packed = oracle.pack_rows(arch, want.rows)
                assert got.num_packs[t] == len(packed.packs)
                assert got.evictions[t] == packed.evictions

    def test_pack_batch_memory_per_compressed_row(self):
        # A seeded fig7-sized batch: 24 layers of 100 tiles, each of
        # 100-255 int16 rows with 1-16 nonzeros, so many rows span two
        # 8-unit chunks, and every 9th tile without a psum.  The packer
        # keeps compact per-row arrays: its traced peak stays under 110 B
        # per compressed row.
        arch = ArchConfig()
        rng = np.random.default_rng(0)
        tiles = []
        for t in range(2400):
            rows = int(rng.integers(100, 256))
            row_ids = np.sort(rng.choice(256, size=rows, replace=False))
            row_ids = row_ids.astype(np.int16)
            row_nonzeros = rng.integers(1, 17, size=rows).astype(np.uint8)
            tiles.append(
                CompressedCounts(
                    row_ids,
                    row_nonzeros,
                    np.array([0, rows], dtype=np.int64),
                    np.array([t % 9 != 0]),
                )
            )
        jobs = [
            (arch, oracle.stack_tiles(tiles[start : start + 100]))
            for start in range(0, len(tiles), 100)
        ]
        del tiles
        total_rows = sum(counts.row_ids.size for _, counts in jobs)
        tracemalloc.start()
        try:
            results = pack_counts_batch(jobs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [counts.num_packs.size for counts in results] == [100] * 24
        assert peak / total_rows <= 110

    @pytest.mark.parametrize("needs_psum", [True, False])
    @pytest.mark.parametrize("windows", [1, 2, 4])
    @pytest.mark.parametrize("pack_size", [4, 16])
    def test_pack_counts_matches_pack_rows(self, needs_psum, windows, pack_size):
        # pack_size=4 forces oversized rows to split across packs.
        config = ArchConfig(pack_size=pack_size, packer_windows=windows)
        rng = np.random.default_rng(windows * pack_size)
        level2 = self._random_level2(rng, 200, 16, 0.4)
        compressed = oracle.compress(level2, needs_psum=needs_psum)
        packed = oracle.pack_rows(config, compressed.rows)
        [counts] = pack_counts_batch([(config, oracle.counts_of(compressed, needs_psum))])
        assert counts.num_packs.tolist() == [len(packed.packs)]
        assert counts.cycles.tolist() == [packed.cycles]
        assert counts.evictions.tolist() == [packed.evictions]
        assert counts.weight_units.tolist() == [
            sum(p.num_weight_units for p in packed.packs)
        ]
        assert counts.psum_units.tolist() == [sum(p.num_psum_units for p in packed.packs)]
        assert counts.total_units.tolist() == [packed.total_units]

    def test_process_pack_counts_matches_process_packs(self, arch):
        # The L2 cycles the simulator costs from a layer's pack counts
        # equal the oracle's cycles over the materialised packs, tile by
        # tile.
        rng = np.random.default_rng(11)
        tiles = []
        want = []
        for rows in (0, 1, 30, 120):
            level2 = self._random_level2(rng, rows, 16, 0.3)
            compressed = oracle.compress(level2, needs_psum=True)
            want.append(
                oracle.process_packs_cycles(oracle.pack_rows(arch, compressed.rows).packs)
            )
            tiles.append(oracle.counts_of(compressed, True))
        [counts] = pack_counts_batch([(arch, oracle.stack_tiles(tiles))])
        assert L2Processor(arch).pack_cycles_for(counts.num_packs).tolist() == want
