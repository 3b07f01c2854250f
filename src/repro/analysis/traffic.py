"""Memory-traffic analysis (Fig. 12 of the paper).

Two comparisons are reported:

* **Activation traffic** (Fig. 12a): dense bit-packed activations (the
  Spiking Eyeriss baseline) vs the Phi representation without the compact
  data structure (full element matrix plus pattern indices) vs the compact
  compressed form that only stores nonzero corrections.
* **Weight traffic** (Fig. 12b): dense weights vs Phi without the PWP
  prefetcher (every calibrated PWP streamed per tile) vs Phi with the
  prefetcher (only the PWPs that the pattern-index matrix actually uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class ActivationTraffic:
    """Activation DRAM traffic under the three schemes of Fig. 12a (bytes)."""

    dense: float
    phi_uncompressed: float
    phi_compressed: float

    @property
    def compressed_ratio(self) -> float:
        """Phi compressed traffic normalised by dense traffic."""
        return self.phi_compressed / self.dense if self.dense else 0.0

    @property
    def uncompressed_ratio(self) -> float:
        """Phi uncompressed traffic normalised by dense traffic."""
        return self.phi_uncompressed / self.dense if self.dense else 0.0


@dataclass(frozen=True)
class WeightTraffic:
    """Weight / PWP DRAM traffic under the three schemes of Fig. 12b (bytes)."""

    dense: float
    phi_without_prefetch: float
    phi_with_prefetch: float

    @property
    def with_prefetch_ratio(self) -> float:
        """Phi prefetched traffic normalised by dense weight traffic."""
        return self.phi_with_prefetch / self.dense if self.dense else 0.0

    @property
    def without_prefetch_ratio(self) -> float:
        """Phi unfiltered traffic normalised by dense weight traffic."""
        return self.phi_without_prefetch / self.dense if self.dense else 0.0

    @property
    def prefetch_saving(self) -> float:
        """Fraction of PWP traffic removed by the prefetcher."""
        if self.phi_without_prefetch == 0:
            return 0.0
        return 1.0 - self.phi_with_prefetch / self.phi_without_prefetch


def activation_traffic_from_layers(
    layers: Iterable[Mapping[str, float]],
) -> ActivationTraffic:
    """Fig. 12a comparison from per-layer sweep-engine records."""
    dense = 0.0
    uncompressed = 0.0
    compressed = 0.0
    for layer in layers:
        dense += layer["m"] * layer["k"] / 8.0
        uncompressed += layer["activation_bytes_uncompressed"]
        compressed += layer["activation_bytes"]
    return ActivationTraffic(
        dense=dense, phi_uncompressed=uncompressed, phi_compressed=compressed
    )


def weight_traffic_from_layers(
    layers: Iterable[Mapping[str, float]],
) -> WeightTraffic:
    """Fig. 12b comparison from per-layer sweep-engine records."""
    dense = 0.0
    without_prefetch = 0.0
    with_prefetch = 0.0
    for layer in layers:
        dense += layer["weight_bytes"]
        without_prefetch += layer["weight_bytes"] + layer["pwp_bytes_unfiltered"]
        with_prefetch += layer["weight_bytes"] + layer["pwp_bytes_prefetched"]
    return WeightTraffic(
        dense=dense,
        phi_without_prefetch=without_prefetch,
        phi_with_prefetch=with_prefetch,
    )
