"""Unit tests for the Phi accelerator components (config, buffers, DRAM,
energy model, preprocessor, L1/L2 processors and the neuron array)."""

import numpy as np
import pytest

from repro.core.patterns import PatternSet
from repro.hw import (
    ArchConfig,
    Buffer,
    BufferSet,
    BufferSizes,
    Compressor,
    DRAMModel,
    L1Processor,
    L2Processor,
    Packer,
    PatternMatcher,
    PhiEnergyModel,
    Preprocessor,
    ReconfigurableAdderTree,
    SpikingNeuronArray,
)
from repro.hw.preprocessor import LABEL_NONZERO, LABEL_PSUM, CompressedRow, Pack, PackUnit


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


class TestBuffersAndDram:
    def test_buffer_accounting(self):
        buffer = Buffer("weight", 1024)
        buffer.read(100)
        buffer.write(50)
        assert buffer.total_access_bytes == 150
        buffer.reset()
        assert buffer.total_access_bytes == 0

    def test_buffer_fill_overflow(self):
        buffer = Buffer("pwp", 100)
        assert buffer.fill(60) == 0
        assert buffer.fill(150) == 50
        assert buffer.overflow_bytes == 50

    def test_buffer_invalid(self):
        with pytest.raises(ValueError):
            Buffer("bad", 0)
        with pytest.raises(ValueError):
            Buffer("ok", 10).read(-1)

    def test_buffer_set(self):
        buffers = BufferSet()
        assert buffers.total_capacity_bytes == 240 * 1024
        buffers.weight.read(10)
        assert buffers.total_access_bytes == 10
        assert buffers.access_summary()["weight"] == 10
        buffers.reset()
        assert buffers.total_access_bytes == 0

    def test_dram_traffic_and_cycles(self, arch):
        dram = DRAMModel(arch)
        dram.read(1000, "weights")
        dram.write(280, "outputs")
        assert dram.total_bytes == 1280
        assert dram.category_bytes("weights") == 1000
        assert dram.category_bytes("missing") == 0
        assert dram.transfer_cycles() == pytest.approx(10.0)
        dram.reset()
        assert dram.total_bytes == 0

    def test_dram_invalid(self, arch):
        with pytest.raises(ValueError):
            DRAMModel(arch).read(-5)


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
    def test_one_row_per_cycle(self, arch, small_patterns, rng):
        matcher = PatternMatcher(arch)
        tile = (rng.random((20, 8)) < 0.3).astype(np.uint8)
        result = matcher.match_tile(tile, small_patterns)
        assert result.cycles == 20
        assert result.comparisons == 20 * 3
        assert np.array_equal(
            result.decomposition.reconstruct(), tile.astype(np.int8)
        )


class TestCompressorAndPacker:
    def test_compressor_filters_zero_rows(self, arch):
        level2 = np.array([[0, 0, 0, 0], [1, 0, -1, 0], [0, 0, 0, 0]], dtype=np.int8)
        result = Compressor(arch).compress(level2)
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
        result = Packer(arch).pack_rows(rows)
        total_units = sum(pack.num_units for pack in result.packs)
        assert total_units == 10 * 3  # 2 nonzeros + 1 psum per row
        assert result.cycles == 10
        assert all(pack.num_units <= arch.pack_size for pack in result.packs)

    def test_packer_avoids_psum_bank_conflicts(self, arch):
        # Rows 0 and 8 share a bank (8 banks); they must not share a pack.
        rows = [
            CompressedRow(row_id=0, columns=(0,), values=(1,), needs_psum=True),
            CompressedRow(row_id=8, columns=(1,), values=(1,), needs_psum=True),
        ]
        result = Packer(arch).pack_rows(rows)
        for pack in result.packs:
            banks = [u.row_id % arch.num_channels for u in pack.units if u.label == LABEL_PSUM]
            assert len(banks) == len(set(banks))

    def test_packer_splits_oversized_rows(self, arch):
        row = CompressedRow(
            row_id=0, columns=tuple(range(12)), values=tuple([1] * 12), needs_psum=True
        )
        result = Packer(arch).pack_rows([row])
        assert sum(p.num_units for p in result.packs) == 13

    def test_preprocessor_end_to_end(self, arch, small_patterns, rng):
        preprocessor = Preprocessor(arch)
        tile = (rng.random((40, 8)) < 0.25).astype(np.uint8)
        result = preprocessor.process_tile(tile, small_patterns)
        assert result.cycles >= 40
        nnz = int(np.count_nonzero(result.matcher.level2))
        packed_nonzeros = sum(
            1 for pack in result.packs for u in pack.units if u.label == LABEL_NONZERO
        )
        assert packed_nonzeros == nnz


class TestL1Processor:
    def test_zero_skipping_cycles(self, arch):
        processor = L1Processor(arch)
        matrix = np.zeros((4, 16), dtype=np.int32)
        matrix[0, :10] = 1  # 10 nonzero indices in the first row
        result = processor.process_tile(matrix)
        # Row 0 takes ceil(10/8) = 2 cycles, rows 1-3 take 1 cycle each.
        assert result.cycles == 2 + 3
        assert result.pwp_accumulations == 10

    def test_prefetch_traffic_less_than_unfiltered(self, arch):
        processor = L1Processor(arch)
        matrix = np.zeros((8, 4), dtype=np.int32)
        matrix[:, 0] = [1, 1, 2, 2, 3, 3, 3, 0]
        result = processor.process_tile(matrix, num_patterns_per_partition=64)
        assert result.unique_patterns_used == 3
        assert result.pwp_bytes_prefetched < result.pwp_bytes_unfiltered
        assert 0.0 < result.prefetch_saving_ratio < 1.0

    def test_rejects_bad_input(self, arch):
        with pytest.raises(ValueError):
            L1Processor(arch).process_tile(np.zeros(4))

    def test_explicit_zero_width_is_not_the_default(self, arch):
        # Regression: ``output_width or tile_n`` silently promoted an
        # explicit 0 to the 32-wide config default.
        matrix = np.ones((4, 16), dtype=np.int32)
        result = L1Processor(arch).process_tile(matrix, output_width=0)
        assert result.pwp_bytes_prefetched == 0.0
        assert result.pwp_bytes_unfiltered == 0.0

    def test_explicit_zero_pattern_count_is_not_the_default(self, arch):
        matrix = np.zeros((4, 16), dtype=np.int32)
        result = L1Processor(arch).process_tile(
            matrix, num_patterns_per_partition=0
        )
        assert result.pwp_bytes_unfiltered == 0.0


class TestL2Processor:
    def test_cycles_track_pack_count(self, arch):
        processor = L2Processor(arch)
        packs = []
        for i in range(5):
            pack = Pack(arch.pack_size)
            pack.add_row([PackUnit(LABEL_NONZERO, 0, 1, i), PackUnit(LABEL_PSUM, i, 1, i)])
            packs.append(pack)
        result = processor.process_packs(packs)
        assert result.packs_processed == 5
        assert result.cycles == 5 + L2Processor.PIPELINE_DEPTH
        assert result.weight_accumulations == 5
        assert result.psum_accumulations == 5
        assert result.total_accumulations == 10

    def test_empty_packs(self, arch):
        result = L2Processor(arch).process_packs([])
        assert result.cycles == 0

    def test_explicit_zero_width_is_not_the_default(self, arch):
        # Regression: ``output_width or tile_n`` silently promoted an
        # explicit 0 to the 32-wide config default.
        pack = Pack(arch.pack_size)
        pack.add_row([PackUnit(LABEL_NONZERO, 0, 1, 0), PackUnit(LABEL_PSUM, 0, 1, 0)])
        result = L2Processor(arch).process_packs([pack], output_width=0)
        assert result.weight_bytes_read == 0.0
        assert result.psum_bytes_accessed == 0.0

    def test_pack_counts_zero_width_matches_packs(self, arch):
        pack = Pack(arch.pack_size)
        pack.add_row([PackUnit(LABEL_NONZERO, 0, 1, 0), PackUnit(LABEL_PSUM, 0, 1, 0)])
        from repro.hw.preprocessor import PackCounts

        counts = PackCounts(
            num_packs=1, weight_units=1, psum_units=1, cycles=1, evictions=0
        )
        by_counts = L2Processor(arch).process_pack_counts(counts, output_width=0)
        by_packs = L2Processor(arch).process_packs([pack], output_width=0)
        assert by_counts.weight_bytes_read == by_packs.weight_bytes_read == 0.0
        assert by_counts.psum_bytes_accessed == by_packs.psum_bytes_accessed == 0.0

    def test_adder_tree(self):
        tree = ReconfigurableAdderTree(num_inputs=8, simd_width=32)
        assert tree.segments_for([3, 3, 2]) == 1
        assert tree.segments_for([8, 8]) == 2
        assert tree.additions_for([2, 2]) == 4 * 32
        with pytest.raises(ValueError):
            tree.segments_for([0])


class TestNeuronArray:
    def test_cycles_and_firing(self, arch):
        array = SpikingNeuronArray(arch, num_units=32, threshold=1.0)
        tile = np.array([[2.0, 0.5], [0.1, 1.5]])
        result = array.process_tile(tile)
        assert result.neuron_updates == 4
        assert result.spikes_emitted == 2
        assert result.cycles == 1
        assert result.firing_rate == pytest.approx(0.5)

    def test_estimate(self, arch):
        array = SpikingNeuronArray(arch)
        result = array.estimate(64, 32)
        assert result.cycles == 64
        assert result.neuron_updates == 64 * 32

    def test_invalid(self, arch):
        with pytest.raises(ValueError):
            SpikingNeuronArray(arch, num_units=0)
        with pytest.raises(ValueError):
            SpikingNeuronArray(arch, threshold=0.0)


class TestCountsFastPath:
    """The counter-level preprocessor path must agree with the object path."""

    def _random_level2(self, rng, rows, cols, density):
        values = rng.choice([-1, 0, 1], size=(rows, cols), p=[density / 2, 1 - density, density / 2])
        return values.astype(np.int8)

    @pytest.mark.parametrize("needs_psum", [True, False])
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.6])
    def test_compress_counts_matches_compress(self, arch, needs_psum, density):
        rng = np.random.default_rng(7)
        level2 = self._random_level2(rng, 40, 16, density)
        rows = Compressor(arch).compress(level2, needs_psum=needs_psum)
        counts = Compressor(arch).compress_counts(level2, needs_psum=needs_psum)
        assert counts.cycles == rows.cycles
        assert counts.filtered_rows == rows.filtered_rows
        assert counts.total_nonzeros == rows.total_nonzeros
        assert counts.row_ids.tolist() == [row.row_id for row in rows.rows]
        assert counts.row_nonzeros.tolist() == [row.num_nonzeros for row in rows.rows]

    @pytest.mark.parametrize("needs_psum", [True, False])
    @pytest.mark.parametrize("windows", [1, 2, 4])
    @pytest.mark.parametrize("pack_size", [4, 16])
    def test_pack_counts_matches_pack_rows(self, needs_psum, windows, pack_size):
        # pack_size=4 forces oversized rows to split across packs.
        config = ArchConfig(pack_size=pack_size, packer_windows=windows)
        rng = np.random.default_rng(windows * pack_size)
        level2 = self._random_level2(rng, 200, 16, 0.4)
        packer = Packer(config)
        compressed = Compressor(config).compress(level2, needs_psum=needs_psum)
        packed = packer.pack_rows(compressed.rows)
        counts = packer.pack_counts(
            Compressor(config).compress_counts(level2, needs_psum=needs_psum)
        )
        assert counts.num_packs == len(packed.packs)
        assert counts.cycles == packed.cycles
        assert counts.evictions == packed.evictions
        assert counts.weight_units == sum(p.num_weight_units for p in packed.packs)
        assert counts.psum_units == sum(p.num_psum_units for p in packed.packs)
        assert counts.total_units == packed.total_units

    def test_process_pack_counts_matches_process_packs(self, arch):
        rng = np.random.default_rng(11)
        level2 = self._random_level2(rng, 120, 16, 0.3)
        compressed = Compressor(arch).compress(level2, needs_psum=True)
        packed = Packer(arch).pack_rows(compressed.rows)
        counts = Packer(arch).pack_counts(
            Compressor(arch).compress_counts(level2, needs_psum=True)
        )
        processor = L2Processor(arch)
        from_packs = processor.process_packs(packed.packs, output_width=32)
        from_counts = processor.process_pack_counts(counts, output_width=32)
        assert from_counts == from_packs

