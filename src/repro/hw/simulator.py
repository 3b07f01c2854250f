"""End-to-end Phi accelerator simulator.

The simulator follows the methodology of the paper (Section 5.1): it takes
the recorded spike activations of a model together with the calibrated
patterns, models the behaviour of every architectural component at the
tile level, and reports cycles, memory traffic and energy.

Execution model per layer (K-first tiling, Section 4.1), expressed as a
:class:`~repro.hw.pipeline.Pipeline` of five stages:

* **tiling** — the activation matrix, decomposed once into the
  two-level Phi representation, is split into ``tile_m``-row M tiles,
  ``tile_k`` wide K partitions and ``tile_n`` wide N tiles,
* **preprocess** — the preprocessor converts every (M tile, partition)
  into the Level 1 pattern-index column and the packed Level 2
  representation; this work is overlapped with the previous tile's
  compute, so it adds energy but no critical-path cycles (the stage
  reduces the layer's per-tile pack arrays in NumPy),
* **compute** — per output tile (M tile, N tile) the L1 and L2
  processors run concurrently and synchronise at the tile boundary, so
  the tile's compute latency is the maximum of the two,
* **dram** — DRAM traffic (compressed activations, weights, prefetched
  PWPs, spilled partial sums) is bandwidth-limited and can bound the
  layer latency,
* **energy** — activity counters are folded into an energy breakdown.

Each stage emits a :class:`~repro.hw.pipeline.StageRecord`; the layer
outcome is the canonical :class:`~repro.hw.pipeline.LayerResult` and a
model run aggregates into :class:`~repro.hw.pipeline.RunResult` — the
same schema every baseline accelerator reports through.

Every simulation runs through :func:`simulate_phi_many`: it decomposes
each layer it was given no decomposition for, plans each layer's
preprocessing once per distinct ``(decomposition, tile_m, tile_k)``
into one :class:`~repro.hw.preprocessor.CompressedCounts` of per-layer
arrays, packs every layer of every task in one lockstep batch, then
runs the stages, which only read what it seeded into the context.
:meth:`PhiSimulator.simulate` and :meth:`PhiSimulator.simulate_layer`
are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.calibration import LayerCalibration, ModelCalibration, PhiCalibrator
from ..core.config import PhiConfig
from ..core.metrics import decomposition_metrics
from ..core.sparsity import decompose_matrix
from ..workloads.workload import LayerWorkload, ModelWorkload
from .config import ArchConfig
from .energy import EnergyBreakdown, PhiEnergyModel
from .l1_processor import L1Processor, distinct_nonzero_per_column
from .l2_processor import L2Processor
from .neuron_array import SpikingNeuronArray
from .pipeline import (
    AcceleratorModel,
    LayerContext,
    LayerResult,
    Pipeline,
    RunResult,
    StageRecord,
)
from .preprocessor import CompressedCounts, pack_counts_batch

class PhiTilingStage:
    """Tiling: record the layer's M × K × N tile grid.

    :func:`simulate_phi_many` seeds the layer's decomposition, the
    metrics derived from it and the preprocessing plan, whose M tiles
    and K partitions this stage records.  Rows decompose independently,
    so the per-tile views the later stages need are sliced out of that
    single decomposition.
    """

    name = "tiling"

    def __init__(self, simulator: "PhiSimulator") -> None:
        self.simulator = simulator

    def run(self, ctx: LayerContext) -> StageRecord:
        """Record the tile grid in the context."""
        plan = ctx.scratch["preprocess_plan"]
        num_n_tiles = int(np.ceil(ctx.layer.n / self.simulator.arch.tile_n))
        ctx.scratch.update(
            m_tiles=plan.m_tiles,
            num_partitions=plan.num_partitions,
            num_n_tiles=num_n_tiles,
        )
        return StageRecord(
            name=self.name,
            detail={
                "m_tiles": len(plan.m_tiles),
                "k_partitions": plan.num_partitions,
                "n_tiles": num_n_tiles,
            },
        )


@dataclass
class PreprocessPlan:
    """Per-layer preprocessing work, planned ahead of execution.

    ``compressed`` is one :class:`~repro.hw.preprocessor.CompressedCounts`
    holding every (M tile, partition) tile of the layer — M-tile-major,
    partition-minor — and ``pattern_counts`` the per-partition pattern
    counts the matcher-comparison counter needs.  Planning is separated
    from execution so :func:`simulate_phi_many` can pack many layers
    under many configurations in a single lockstep pass.
    """

    m_tiles: list[tuple[int, int]]
    num_partitions: int
    pattern_counts: tuple[int, ...]
    compressed: CompressedCounts


def plan_preprocess(arch: ArchConfig, decomposition) -> PreprocessPlan:
    """Plan the preprocessor's compressor and packer work for one layer.

    This is the simulator's compressor: every (M tile, partition) tile's
    compressed counts — the tile-local ids and nonzero counts of the
    Level 2 rows that survive zero-row filtering — come out of one
    vectorized pass over the decomposition's ``(M, partitions)`` Level 2
    nonzero counts, into two per-layer arrays in tile order: ``int16``
    ids (``int32`` for M tiles over 32,768 rows) and counts in the
    smallest dtype that holds ``tile_k``.  Only partitions after the
    first carry a partial sum.  The plan reads nothing of ``arch`` but
    ``tile_m`` and ``tile_k``, and of the decomposition only its Level 2
    counts and pattern sets.
    """
    num_rows, num_partitions = decomposition.level2_nonzeros.shape
    m_tiles = [
        (m_start, min(m_start + arch.tile_m, num_rows))
        for m_start in range(0, num_rows, arch.tile_m)
    ]
    # Rows padded to whole M tiles (padding rows count zero nonzeros, so
    # the compressor drops them), then laid out tile-major: M tile, then
    # partition, then tile-local row.
    nnz = np.zeros(
        (len(m_tiles) * arch.tile_m, num_partitions),
        dtype=np.min_scalar_type(arch.tile_k),
    )
    nnz[:num_rows] = decomposition.level2_nonzeros
    by_tile = nnz.reshape(len(m_tiles), arch.tile_m, num_partitions).transpose(0, 2, 1)
    by_tile = by_tile.reshape(-1, arch.tile_m)
    kept = by_tile != 0
    row_nonzeros = by_tile[kept]
    local_ids = np.arange(
        arch.tile_m, dtype=np.int16 if arch.tile_m <= 2**15 else np.int32
    )
    row_ids = np.broadcast_to(local_ids, by_tile.shape)[kept]
    offsets = np.zeros(by_tile.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(kept, axis=1), out=offsets[1:])
    return PreprocessPlan(
        m_tiles=m_tiles,
        num_partitions=num_partitions,
        pattern_counts=tuple(
            pattern_set.num_patterns for pattern_set in decomposition.pattern_sets
        ),
        compressed=CompressedCounts(
            row_ids=row_ids,
            row_nonzeros=row_nonzeros,
            offsets=offsets,
            needs_psum=np.arange(by_tile.shape[0]) % num_partitions > 0,
        ),
    )


class PhiPreprocessStage:
    """Matcher, compressor and packer work of every (M tile, partition).

    The preprocessor overlaps with the previous tile's compute, so its
    cycles are recorded (they burn energy) but never enter the layer's
    critical path.  The pack machines of every (M tile, partition) run
    in :func:`simulate_phi_many`'s lockstep batch
    (:func:`~repro.hw.preprocessor.pack_counts_batch`), which seeds this
    layer's ``preprocess_plan`` and its per-tile ``preprocess_packed``
    counts.
    """

    name = "preprocess"

    def __init__(self, simulator: "PhiSimulator") -> None:
        self.simulator = simulator

    def run(self, ctx: LayerContext) -> StageRecord:
        """Produce the per-M-tile pack counts and preprocessing counters."""
        plan = ctx.scratch.pop("preprocess_plan")
        packed = ctx.scratch.pop("preprocess_packed")

        shape = (len(plan.m_tiles), plan.num_partitions)
        rows = np.array([stop - start for start, stop in plan.m_tiles])
        # Matcher and compressor sustain one row per cycle and the packer
        # one kept row per cycle; the pipelined cost of a (M tile,
        # partition) is the max of the three (= its row count).
        preproc_cycles = float(
            np.maximum(rows[:, None], packed.cycles.reshape(shape)).sum()
        )
        match_comparisons = int(rows.sum()) * sum(plan.pattern_counts)
        # Every weight unit is one Level 2 correction.
        l2_nonzeros_total = int(packed.weight_units.sum())
        packs_per_tile = packed.num_packs.reshape(shape).sum(axis=1)

        ctx.scratch.update(
            packs_per_tile=packs_per_tile,
            preproc_cycles=preproc_cycles,
            match_comparisons=match_comparisons,
            l2_nonzeros_total=l2_nonzeros_total,
        )
        return StageRecord(
            name=self.name,
            cycles=preproc_cycles,
            detail={
                "match_comparisons": match_comparisons,
                "l2_nonzeros": l2_nonzeros_total,
                "packs": int(packs_per_tile.sum()),
            },
        )


class PhiComputeStage:
    """L1 ∥ L2 compute plus the neuron array, per output tile.

    Within an output tile the two processors run concurrently and
    synchronise at the tile boundary, so the tile's latency is the
    maximum of the two; the same work repeats for every N tile
    (different weight / PWP columns).
    """

    name = "compute"

    def __init__(self, simulator: "PhiSimulator") -> None:
        self.simulator = simulator

    def run(self, ctx: LayerContext) -> StageRecord:
        """Accumulate L1/L2/neuron cycles over the M×N tile grid."""
        sim = self.simulator
        layer = ctx.layer
        pattern_index_matrix = ctx.scratch["decomposition"].pattern_indices
        num_n_tiles = ctx.scratch["num_n_tiles"]

        compute_cycles = 0.0
        l1_cycles_total = 0.0
        l2_cycles_total = 0.0
        neuron_cycles_total = 0.0
        per_tile_unique_rows = 0  # summed per-M-tile uniques (no cross-tile reuse)
        # One vectorized pack-accounting pass costs every tile's L2 side.
        l2_cycles_per_tile = sim.l2.pack_cycles_for(ctx.scratch["packs_per_tile"])
        for i, (m_start, m_stop) in enumerate(ctx.scratch["m_tiles"]):
            l1_result = sim.l1.process_tile(pattern_index_matrix[m_start:m_stop])
            l2_cycles = int(l2_cycles_per_tile[i])
            tile_compute = max(l1_result.cycles, l2_cycles) * num_n_tiles
            compute_cycles += tile_compute
            l1_cycles_total += l1_result.cycles * num_n_tiles
            l2_cycles_total += l2_cycles * num_n_tiles

            neuron_cycles_total += sim.neuron_array.estimate(m_stop - m_start, layer.n)
            per_tile_unique_rows += l1_result.unique_patterns_used

        ctx.scratch.update(
            compute_cycles=compute_cycles,
            l1_cycles=l1_cycles_total,
            l2_cycles=l2_cycles_total,
            neuron_cycles=neuron_cycles_total,
            per_tile_unique_rows=per_tile_unique_rows,
        )
        return StageRecord(
            name=self.name,
            cycles=compute_cycles,
            detail={
                "l1_cycles": l1_cycles_total,
                "l2_cycles": l2_cycles_total,
                "neuron_cycles": neuron_cycles_total,
            },
        )


class PhiDramStage:
    """DRAM traffic model; assembles the canonical :class:`LayerResult`."""

    name = "dram"

    def __init__(self, simulator: "PhiSimulator") -> None:
        self.simulator = simulator

    def run(self, ctx: LayerContext) -> StageRecord:
        """Account all off-chip traffic and build ``ctx.result``."""
        sim = self.simulator
        arch = sim.arch
        layer = ctx.layer
        pattern_index_matrix = ctx.scratch["decomposition"].pattern_indices
        num_partitions = ctx.scratch["num_partitions"]
        ops = ctx.scratch["ops"]

        # Distinct (partition, pattern) pairs used anywhere in the layer —
        # the working set the PWP prefetcher must bring on chip at least once.
        unique_pattern_rows = distinct_nonzero_per_column(pattern_index_matrix)

        # --- PWP DRAM traffic (Section 4.4 prefetcher) -------------------
        # A PWP row spans the full N width of the layer.  Every PWP that is
        # used anywhere in the layer must be fetched at least once; when the
        # used working set exceeds the PWP buffer, a fraction of the
        # per-M-tile re-uses miss on chip and are fetched again.
        pwp_row_bytes = layer.n * arch.pwp_bytes
        pwp_working_set = unique_pattern_rows * pwp_row_bytes
        per_tile_total = ctx.scratch["per_tile_unique_rows"] * pwp_row_bytes
        if pwp_working_set <= arch.buffers.pwp:
            pwp_prefetched = float(pwp_working_set)
        else:
            miss_ratio = 1.0 - arch.buffers.pwp / pwp_working_set
            reload_candidates = max(per_tile_total - pwp_working_set, 0.0)
            pwp_prefetched = float(pwp_working_set + reload_candidates * miss_ratio)
        # Without the prefetcher every calibrated pattern of every partition
        # is streamed for every M tile (Fig. 12b "w/o Prefetch").
        num_m_tiles = int(np.ceil(layer.m / arch.tile_m))
        pwp_unfiltered = float(
            num_partitions * sim.phi_config.num_patterns * pwp_row_bytes * num_m_tiles
        )

        # Compressed activation representation: pattern-index matrix (one
        # byte per entry) plus 5 bits per Level 2 nonzero (4-bit column
        # index inside the k=16 partition plus a sign bit).
        pattern_index_bytes = float(layer.m * num_partitions)
        activation_bytes = pattern_index_bytes + 0.625 * float(ops.phi_level2_ops)
        # Uncompressed Phi representation: 2-bit element matrix + indices.
        activation_bytes_uncompressed = layer.m * layer.k / 4.0 + pattern_index_bytes

        weight_bytes = float(layer.k * layer.n * arch.weight_bytes)
        output_bytes = float(layer.m * layer.n / 8.0)  # spike outputs, 1 bit each

        # Partial sums spill to DRAM only when an M x N tile of psums
        # exceeds the partial-sum buffer.
        psum_tile_bytes = arch.tile_m * layer.n * arch.psum_bytes
        psum_spill = 0.0
        if psum_tile_bytes > arch.buffers.partial_sum:
            spill_per_tile = psum_tile_bytes - arch.buffers.partial_sum
            psum_spill = spill_per_tile * int(np.ceil(layer.m / arch.tile_m)) * 2.0

        dram_bytes = (
            activation_bytes + weight_bytes + pwp_prefetched + output_bytes + psum_spill
        )
        memory_cycles = dram_bytes / arch.dram_bytes_per_cycle

        ctx.result = LayerResult(
            layer_name=layer.name,
            m=layer.m,
            k=layer.k,
            n=layer.n,
            compute_cycles=ctx.scratch["compute_cycles"],
            memory_cycles=memory_cycles,
            operations=ops.bit_sparse_ops * layer.n,
            preprocessor_cycles=ctx.scratch["preproc_cycles"],
            l1_cycles=ctx.scratch["l1_cycles"],
            l2_cycles=ctx.scratch["l2_cycles"],
            neuron_cycles=ctx.scratch["neuron_cycles"],
            operation_counts=ops,
            breakdown=ctx.scratch["breakdown"],
            activation_bytes=activation_bytes,
            activation_bytes_uncompressed=activation_bytes_uncompressed,
            weight_bytes=weight_bytes,
            pwp_bytes_prefetched=pwp_prefetched,
            pwp_bytes_unfiltered=pwp_unfiltered,
            output_bytes=output_bytes,
            psum_spill_bytes=psum_spill,
            pattern_match_comparisons=ctx.scratch["match_comparisons"],
        )
        return StageRecord(
            name=self.name,
            cycles=memory_cycles,
            dram_bytes=dram_bytes,
            detail={
                "activation_bytes": activation_bytes,
                "weight_bytes": weight_bytes,
                "pwp_bytes_prefetched": pwp_prefetched,
                "output_bytes": output_bytes,
                "psum_spill_bytes": psum_spill,
            },
        )


class PhiEnergyStage:
    """Fold the layer's activity counters into an energy breakdown."""

    name = "energy"

    def __init__(self, simulator: "PhiSimulator") -> None:
        self.simulator = simulator

    def run(self, ctx: LayerContext) -> StageRecord:
        """Attach the per-layer :class:`EnergyBreakdown` to the result."""
        ctx.result.energy = self.simulator._layer_energy(ctx.result)
        return StageRecord(
            name=self.name,
            energy_joules=ctx.result.energy.total,
            detail=dict(ctx.result.energy.components),
        )


class PhiSimulator(AcceleratorModel):
    """Cycle-level simulator of the Phi accelerator.

    Parameters
    ----------
    arch_config:
        Architecture parameters (tile sizes, buffers, frequency).
    phi_config:
        Algorithm parameters (partition width, pattern count) used when the
        simulator has to calibrate patterns itself.
    energy_model:
        Optional custom energy model (defaults to the Table 3 constants).
    """

    name = "phi"
    #: Table 3 total area.
    area_mm2 = 0.662

    def __init__(
        self,
        arch_config: ArchConfig | None = None,
        phi_config: PhiConfig | None = None,
        *,
        energy_model: PhiEnergyModel | None = None,
    ) -> None:
        self.arch = arch_config or ArchConfig()
        self.phi_config = phi_config or PhiConfig(
            partition_size=self.arch.tile_k, num_patterns=self.arch.num_patterns
        )
        if self.phi_config.partition_size != self.arch.tile_k:
            raise ValueError(
                "phi_config.partition_size must equal arch_config.tile_k "
                f"({self.phi_config.partition_size} != {self.arch.tile_k})"
            )
        self.energy_model = energy_model or PhiEnergyModel(self.arch)
        self.l1 = L1Processor(self.arch)
        self.l2 = L2Processor(self.arch)
        self.neuron_array = SpikingNeuronArray(self.arch)
        self.pipeline = Pipeline(
            (
                PhiTilingStage(self),
                PhiPreprocessStage(self),
                PhiComputeStage(self),
                PhiDramStage(self),
                PhiEnergyStage(self),
            )
        )

    # ------------------------------------------------------------------ #
    def _calibration_for(
        self, layer: LayerWorkload, calibration: ModelCalibration | None
    ) -> LayerCalibration:
        if calibration is not None and layer.name in calibration:
            return calibration[layer.name]
        calibrator = PhiCalibrator(self.phi_config)
        return calibrator.calibrate_layer(layer.name, layer.activations)

    def simulate(
        self,
        workload: ModelWorkload,
        *,
        calibration: ModelCalibration | None = None,
        decompositions: Mapping | None = None,
    ) -> RunResult:
        """Simulate every layer of a model workload (a batch of one task).

        Parameters
        ----------
        workload:
            The per-layer activation / weight matrices.
        calibration:
            Patterns calibrated on a training subset.  When omitted, each
            layer is calibrated on its own activations (upper bound on
            pattern quality; Section 3.2 shows train-calibrated patterns
            generalise, so the difference is small).
        decompositions:
            Optional mapping of layer name to precomputed
            :class:`~repro.core.sparsity.MatrixDecomposition`; layers not
            in the mapping decompose as usual.
        """
        return simulate_phi_many([(self, workload, calibration, decompositions)])[0]

    def simulate_layer(
        self,
        layer: LayerWorkload,
        *,
        layer_calibration: LayerCalibration | None = None,
        decomposition=None,
    ) -> LayerResult:
        """Simulate one spike GEMM (a batch of one one-layer task).

        Parameters
        ----------
        layer:
            The activation / weight matrices of the GEMM.
        layer_calibration:
            Calibrated patterns for the layer; self-calibrates when omitted.
        decomposition:
            Optional precomputed
            :class:`~repro.core.sparsity.MatrixDecomposition` of the
            layer under ``layer_calibration`` and ``arch.tile_k``.
        """
        calibration = ModelCalibration(self.phi_config)
        if layer_calibration is not None:
            calibration.layers[layer.name] = layer_calibration
        workload = ModelWorkload(model_name="", dataset_name="", layers=[layer])
        result = self.simulate(
            workload,
            calibration=calibration,
            decompositions={layer.name: decomposition},
        )
        return result.layers[0]

    def _layer_context(
        self,
        layer: LayerWorkload,
        layer_calibration: LayerCalibration,
        decomposition,
    ) -> LayerContext:
        """Validated :class:`LayerContext` seeded with the layer's decomposition.

        A missing ``decomposition`` is computed here.
        """
        if layer_calibration.total_width != layer.k:
            raise ValueError(
                f"calibration width {layer_calibration.total_width} does not match "
                f"layer K={layer.k}"
            )
        if decomposition is None:
            decomposition = decompose_matrix(
                layer.activations, layer_calibration.pattern_sets, self.arch.tile_k
            )
        elif decomposition.num_rows != layer.m or decomposition.total_width != layer.k:
            raise ValueError(
                f"decomposition shape ({decomposition.num_rows}, "
                f"{decomposition.total_width}) does not match layer "
                f"({layer.m}, {layer.k})"
            )
        ctx = LayerContext(layer=layer, calibration=layer_calibration)
        ctx.scratch["decomposition"] = decomposition
        return ctx

    def _layer_energy(self, sim: LayerResult) -> EnergyBreakdown:
        """Energy of one simulated layer from its activity counters."""
        n_scale = max(sim.n / self.arch.tile_n, 1.0)
        component_busy = {
            "preprocessor": sim.preprocessor_cycles,
            "l1_processor": sim.l1_cycles,
            "l2_processor": sim.l2_cycles,
            "lif_neuron": sim.neuron_cycles,
            # Buffers burn leakage/access power for the whole layer runtime.
            "buffer": sim.total_cycles,
        }
        # On-chip buffer traffic: weight + PWP reads for every reuse, psum
        # read/write per accumulation, pattern-index reads.
        ops = sim.operation_counts
        buffer_bytes = (
            ops.phi_level1_ops * self.arch.tile_n * self.arch.pwp_bytes * n_scale
            + ops.phi_level2_ops * self.arch.tile_n * self.arch.weight_bytes * n_scale
            + (ops.phi_level1_ops + ops.phi_level2_ops)
            * self.arch.tile_n
            * self.arch.psum_bytes
            * n_scale
        )
        return self.energy_model.energy_from_activity(
            component_busy_cycles=component_busy,
            buffer_bytes=buffer_bytes,
            dram_bytes=sim.dram_bytes,
        )


def simulate_phi_many(
    tasks: Sequence[
        tuple[
            PhiSimulator,
            ModelWorkload,
            ModelCalibration | None,
            Mapping | None,
        ]
    ],
) -> list[RunResult]:
    """Simulate many (simulator, workload) tasks as one stacked batch.

    This is the one Phi execution path: the preprocessing of every layer
    of every task — potentially under *different* Phi/arch
    configurations — is planned first, every layer is packed in a single
    lockstep batch (:func:`~repro.hw.preprocessor.pack_counts_batch`),
    and the per-task pipelines then consume their layers' results.  A task's result
    does not depend on the batch it runs in, because every per-layer
    quantity is computed by the same (deterministic) code on the same
    inputs — only the loop structure changes (property-tested).

    A layer without a given decomposition is decomposed here.  Callers
    that batch many tasks (the sweep engine) pass each unit's shared
    decompositions, and the density/op-count metrics are read once per
    distinct decomposition (keyed by identity).  The preprocessing plan
    depends only on the decomposition and the tile sizes, so it is
    memoised on ``(id(decomposition), tile_m, tile_k)``: the points of a
    buffer sweep share one plan per layer, and the packer packs that
    shared :class:`~repro.hw.preprocessor.CompressedCounts` once.

    Parameters
    ----------
    tasks:
        ``(simulator, workload, calibration, decompositions)`` tuples —
        the last two may be ``None``, matching
        :meth:`PhiSimulator.simulate`.

    Returns
    -------
    list of RunResult
        One result per task, in input order.
    """
    prepared = []  # (simulator, RunResult, [(ctx, job)])
    jobs: list[tuple] = []
    metrics_memo: dict[int, tuple] = {}
    plan_memo: dict[tuple[int, int, int], PreprocessPlan] = {}
    for simulator, workload, calibration, decompositions in tasks:
        result = RunResult(
            accelerator=simulator.name,
            model_name=workload.model_name,
            dataset_name=workload.dataset_name,
            area_mm2=simulator.area_mm2,
            config=simulator.arch,
        )
        decompositions = decompositions or {}
        contexts = []
        for layer in workload:
            layer_calibration = simulator._calibration_for(layer, calibration)
            ctx = simulator._layer_context(
                layer, layer_calibration, decompositions.get(layer.name)
            )
            decomposition = ctx.scratch["decomposition"]
            metrics = metrics_memo.get(id(decomposition))
            if metrics is None:
                metrics = metrics_memo[id(decomposition)] = decomposition_metrics(
                    decomposition
                )
            ctx.scratch["ops"], ctx.scratch["breakdown"] = metrics
            arch = simulator.arch
            plan_key = (id(decomposition), arch.tile_m, arch.tile_k)
            plan = plan_memo.get(plan_key)
            if plan is None:
                plan = plan_memo[plan_key] = plan_preprocess(arch, decomposition)
            ctx.scratch["preprocess_plan"] = plan
            contexts.append((ctx, len(jobs)))
            jobs.append((arch, plan.compressed))
        prepared.append((simulator, result, contexts))

    packed = pack_counts_batch(jobs)

    results = []
    for simulator, result, contexts in prepared:
        for ctx, job in contexts:
            ctx.scratch["preprocess_packed"] = packed[job]
            result.layers.append(simulator.pipeline.run_layer(ctx))
        results.append(result)
    return results
