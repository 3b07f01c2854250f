"""Figure 7: design-space exploration.

Four sweeps justify the architecture configuration:

* **Fig. 7a** — element (L2), vector (L1) and total density versus the K
  partition size.
* **Fig. 7b** — normalised compute cycles (bit sparsity vs Phi vs the
  optimal lower bound) versus the K partition size.
* **Fig. 7c** — compute cycles and PWP memory access versus the number of
  patterns per partition.
* **Fig. 7d** — DRAM power, buffer power and buffer area versus the total
  on-chip buffer size.

All three sweeps are expressed as :class:`~repro.runner.SweepPoint` grids
and executed through a :class:`~repro.runner.SweepEngine`, so they run in
parallel with ``--jobs`` and reuse cached results across invocations
(``python -m repro.runner fig7``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.config import BufferSizes
from ..hw.energy import DRAM_ENERGY_PER_BYTE_PJ, PhiEnergyModel
from ..runner.engine import DECOMPOSITION, SweepEngine, SweepPoint
from .common import SMALL, ExperimentScale


@dataclass(frozen=True)
class TileSizePoint:
    """One K-tile-size point of Fig. 7a/b."""

    k_tile: int
    element_density: float
    vector_density: float
    total_density: float
    bit_cycles: float
    phi_cycles: float
    optimal_cycles: float


@dataclass(frozen=True)
class PatternCountPoint:
    """One pattern-count point of Fig. 7c."""

    num_patterns: int
    phi_cycles: float
    bit_cycles: float
    optimal_cycles: float
    pwp_memory_bytes: float


@dataclass(frozen=True)
class BufferSizePoint:
    """One buffer-size point of Fig. 7d."""

    buffer_kb: float
    dram_power: float
    buffer_power: float
    buffer_area: float


@dataclass
class Fig7Result:
    """All four sweeps of the design-space exploration."""

    tile_sweep: list[TileSizePoint] = field(default_factory=list)
    pattern_sweep: list[PatternCountPoint] = field(default_factory=list)
    buffer_sweep: list[BufferSizePoint] = field(default_factory=list)

    def best_tile_size(self) -> int:
        """The K tile size with the lowest total density (paper: 16)."""
        return min(self.tile_sweep, key=lambda p: p.total_density).k_tile


def _tile_point(k_tile: int, partition_size: int, record: dict) -> TileSizePoint:
    """Fig. 7a/b metrics from one decomposition record."""
    breakdown = record["breakdown"]
    counts = record["operation_counts"]
    bit_ops = counts["bit_sparse_ops"]
    phi_ops = counts["phi_level1_ops"] + counts["phi_level2_ops"]
    # "Optimal" cycles: only the Level 2 corrections of a hypothetical
    # perfect pattern assignment, approximated by the best achievable
    # element count (one correction per mismatching bit with an oracle
    # pattern per row); the paper uses the converged large-q limit.
    optimal_ops = counts["phi_level2_ops"] + counts["phi_level1_ops"] // 2
    vector = breakdown["level1_vector_density"] / max(partition_size, 1)
    return TileSizePoint(
        k_tile=k_tile,
        element_density=breakdown["level2_density"],
        vector_density=vector,
        total_density=breakdown["level2_density"] + vector,
        bit_cycles=1.0,
        phi_cycles=phi_ops / bit_ops if bit_ops else 0.0,
        optimal_cycles=optimal_ops / bit_ops if bit_ops else 0.0,
    )


def run_fig7_tile_sweep(
    scale: ExperimentScale = SMALL,
    *,
    model_name: str = "vgg16",
    dataset_name: str = "cifar100",
    tile_sizes: tuple[int, ...] = (4, 8, 16, 32, 64),
    engine: SweepEngine | None = None,
) -> list[TileSizePoint]:
    """Fig. 7a/b: sweep the K partition size."""
    engine = engine or SweepEngine()
    spec = scale.workload_spec(model_name, dataset_name)
    configs = []
    for k in tile_sizes:
        # Narrow partitions cannot host more than 2**k distinct patterns.
        patterns = min(scale.num_patterns, 2 ** min(k, 16))
        configs.append(scale.phi_config(partition_size=k, num_patterns=patterns))
    points = [
        SweepPoint(
            workload=spec,
            arch=scale.arch_config(),
            phi=config,
            accelerator=DECOMPOSITION,
            label=f"fig7ab:{spec.key}:k={k}",
        )
        for k, config in zip(tile_sizes, configs)
    ]
    records = engine.run(points)
    return [
        _tile_point(k, config.partition_size, record)
        for k, config, record in zip(tile_sizes, configs, records)
    ]


def run_fig7_pattern_sweep(
    scale: ExperimentScale = SMALL,
    *,
    model_name: str = "vgg16",
    dataset_name: str = "cifar100",
    pattern_counts: tuple[int, ...] = (8, 16, 32, 64, 128, 256),
    engine: SweepEngine | None = None,
) -> list[PatternCountPoint]:
    """Fig. 7c: sweep the number of patterns per partition."""
    engine = engine or SweepEngine()
    spec = scale.workload_spec(model_name, dataset_name)
    points = [
        SweepPoint(
            workload=spec,
            arch=scale.arch_config(num_patterns=q),
            phi=scale.phi_config(num_patterns=q),
            label=f"fig7c:{spec.key}:q={q}",
        )
        for q in pattern_counts
    ]
    records = engine.run(points)
    results = []
    for q, record in zip(pattern_counts, records):
        counts = record["operation_counts"]
        bit_ops = counts["bit_sparse_ops"]
        phi_ops = counts["phi_level1_ops"] + counts["phi_level2_ops"]
        pwp_bytes = sum(layer["pwp_bytes_prefetched"] for layer in record["layers"])
        results.append(
            PatternCountPoint(
                num_patterns=q,
                phi_cycles=phi_ops / bit_ops if bit_ops else 0.0,
                bit_cycles=1.0,
                optimal_cycles=(
                    counts["phi_level2_ops"] / bit_ops if bit_ops else 0.0
                ),
                pwp_memory_bytes=pwp_bytes,
            )
        )
    return results


def run_fig7_buffer_sweep(
    scale: ExperimentScale = SMALL,
    *,
    model_name: str = "vgg16",
    dataset_name: str = "cifar100",
    buffer_scales: tuple[float, ...] = (0.5, 0.75, 1.0, 1.5, 3.0),
    engine: SweepEngine | None = None,
) -> list[BufferSizePoint]:
    """Fig. 7d: sweep the total on-chip buffer capacity."""
    engine = engine or SweepEngine()
    spec = scale.workload_spec(model_name, dataset_name)
    base_sizes = BufferSizes()
    archs = [
        scale.arch_config(buffers=base_sizes.scaled(factor))
        for factor in buffer_scales
    ]
    points = [
        SweepPoint(
            workload=spec,
            arch=arch,
            phi=scale.phi_config(),
            buffer_scale=factor,
            label=f"fig7d:{spec.key}:x{factor}",
        )
        for factor, arch in zip(buffer_scales, archs)
    ]
    records = engine.run(points)
    results = []
    for factor, arch, record in zip(buffer_scales, archs, records):
        energy_model = PhiEnergyModel(arch, buffer_scale=factor)
        dram_energy = record["total_dram_bytes"] * DRAM_ENERGY_PER_BYTE_PJ * 1e-12
        dram_power = dram_energy / max(record["runtime_seconds"], 1e-12)
        results.append(
            BufferSizePoint(
                buffer_kb=arch.buffers.total / 1024.0,
                dram_power=dram_power,
                buffer_power=energy_model.power_report()["buffer"],
                buffer_area=energy_model.area_report().components["buffer"],
            )
        )
    return results


def run_fig7(
    scale: ExperimentScale = SMALL,
    *,
    engine: SweepEngine | None = None,
    **kwargs,
) -> Fig7Result:
    """Run all three design-space sweeps."""
    engine = engine or SweepEngine()
    return Fig7Result(
        tile_sweep=run_fig7_tile_sweep(scale, engine=engine, **kwargs),
        pattern_sweep=run_fig7_pattern_sweep(scale, engine=engine, **kwargs),
        buffer_sweep=run_fig7_buffer_sweep(scale, engine=engine, **kwargs),
    )
