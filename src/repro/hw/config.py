"""Phi accelerator architecture configuration (Table 1 of the paper).

The default values reproduce the paper's setup: 500 MHz in a 28 nm
process, an (m, k, n) = (256, 16, 32) tile, 8-channel x 32-wide SIMD adder
trees in both the L1 and the L2 processor, 240 KB of on-chip buffers and a
4-channel DDR4 interface at 64 GB/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping


@dataclass(frozen=True)
class BufferSizes:
    """On-chip buffer capacities in bytes (Table 1)."""

    pack: int = 4 * 1024
    weight: int = 16 * 1024
    pwp: int = 64 * 1024
    pattern_index: int = 28 * 1024
    partial_sum: int = 128 * 1024

    @property
    def total(self) -> int:
        """Total on-chip buffer capacity in bytes."""
        return self.pack + self.weight + self.pwp + self.pattern_index + self.partial_sum

    def scaled(self, factor: float) -> "BufferSizes":
        """Uniformly scale all buffers (used in the Fig. 7d sweep)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return BufferSizes(
            pack=int(self.pack * factor),
            weight=int(self.weight * factor),
            pwp=int(self.pwp * factor),
            pattern_index=int(self.pattern_index * factor),
            partial_sum=int(self.partial_sum * factor),
        )

    def to_dict(self) -> dict:
        """Serialise the buffer capacities to plain Python types."""
        return {
            "pack": self.pack,
            "weight": self.weight,
            "pwp": self.pwp,
            "pattern_index": self.pattern_index,
            "partial_sum": self.partial_sum,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BufferSizes":
        """Reconstruct buffer capacities from :meth:`to_dict` output."""
        return cls(**{key: int(value) for key, value in data.items()})


@dataclass(frozen=True)
class ArchConfig:
    """Phi accelerator configuration.

    Attributes
    ----------
    tile_m, tile_k, tile_n:
        GEMM tile sizes (rows, reduction partition width, output columns).
    num_channels:
        Parallel adder-tree channels in each of the L1 and L2 processors.
    simd_width:
        Vector width of every adder-tree node (elements per operation).
    pack_size:
        Units per Level-2 pack (compact data structure of Section 4.2.2).
    packer_windows:
        Number of concurrently open packer windows.
    num_patterns:
        Patterns per K partition (q); must match the calibration config.
    frequency_mhz:
        Clock frequency.
    technology_nm:
        Process node (only used for reporting).
    buffers:
        On-chip buffer capacities.
    dram_bandwidth_gbps:
        Peak DRAM bandwidth in GB/s.
    weight_bytes / psum_bytes / pwp_bytes:
        Storage size of a weight element, partial sum and PWP element.
    """

    tile_m: int = 256
    tile_k: int = 16
    tile_n: int = 32
    num_channels: int = 8
    simd_width: int = 32
    pack_size: int = 8
    packer_windows: int = 2
    num_patterns: int = 128
    frequency_mhz: float = 500.0
    technology_nm: int = 28
    buffers: BufferSizes = field(default_factory=BufferSizes)
    dram_bandwidth_gbps: float = 64.0
    weight_bytes: int = 2
    psum_bytes: int = 2
    pwp_bytes: int = 2

    def __post_init__(self) -> None:
        if min(self.tile_m, self.tile_k, self.tile_n) < 1:
            raise ValueError("tile sizes must be >= 1")
        if min(self.num_channels, self.simd_width, self.pack_size) < 1:
            raise ValueError("num_channels, simd_width and pack_size must be >= 1")
        if self.packer_windows < 1:
            raise ValueError("packer_windows must be >= 1")
        if self.frequency_mhz <= 0 or self.dram_bandwidth_gbps <= 0:
            raise ValueError("frequency and bandwidth must be positive")

    @property
    def frequency_hz(self) -> float:
        """Clock frequency in Hz."""
        return self.frequency_mhz * 1e6

    @property
    def cycle_time_ns(self) -> float:
        """Duration of one clock cycle in nanoseconds."""
        return 1e3 / self.frequency_mhz

    @property
    def dram_bytes_per_cycle(self) -> float:
        """DRAM bytes transferable per accelerator cycle."""
        return self.dram_bandwidth_gbps * 1e9 / self.frequency_hz

    def with_overrides(self, **kwargs: Any) -> "ArchConfig":
        """Copy of the configuration with the given fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Serialise the configuration to plain Python types.

        The sweep engine hashes this dictionary to build cache keys, so it
        must cover every field that can influence a simulation result.
        """
        return {
            "tile_m": self.tile_m,
            "tile_k": self.tile_k,
            "tile_n": self.tile_n,
            "num_channels": self.num_channels,
            "simd_width": self.simd_width,
            "pack_size": self.pack_size,
            "packer_windows": self.packer_windows,
            "num_patterns": self.num_patterns,
            "frequency_mhz": self.frequency_mhz,
            "technology_nm": self.technology_nm,
            "buffers": self.buffers.to_dict(),
            "dram_bandwidth_gbps": self.dram_bandwidth_gbps,
            "weight_bytes": self.weight_bytes,
            "psum_bytes": self.psum_bytes,
            "pwp_bytes": self.pwp_bytes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArchConfig":
        """Reconstruct a configuration from :meth:`to_dict` output."""
        params = dict(data)
        buffers = params.pop("buffers", None)
        if buffers is not None:
            params["buffers"] = BufferSizes.from_dict(buffers)
        return cls(**params)
