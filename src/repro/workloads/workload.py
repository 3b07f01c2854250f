"""Workload containers: per-layer activation and weight matrices.

The accelerator simulator, the baselines and all experiments consume the
same representation: a :class:`LayerWorkload` is one GEMM (binary spike
activation matrix times weight matrix) and a :class:`ModelWorkload`
collects the GEMMs of a whole network in execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from ..core.patterns import is_binary_matrix


@dataclass(frozen=True)
class LayerWorkload:
    """A single spike-matrix multiplication extracted from a model.

    Attributes
    ----------
    name:
        Layer identifier (matches the network layer name).
    activations:
        Binary matrix of shape ``(M, K)`` — the spike inputs of the GEMM,
        as a read-only ``uint8`` view (no copy of a ``uint8`` input).
    weights:
        Weight matrix of shape ``(K, N)``.
    """

    name: str
    activations: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        activations = np.asarray(self.activations)
        weights = np.asarray(self.weights, dtype=np.float64)
        if activations.ndim != 2 or weights.ndim != 2:
            raise ValueError("activations and weights must be 2-D")
        if activations.shape[1] != weights.shape[0]:
            raise ValueError(
                f"K mismatch: activations K={activations.shape[1]}, "
                f"weights K={weights.shape[0]}"
            )
        if not is_binary_matrix(activations):
            raise ValueError("activations must be binary (0/1)")
        # Kept as given when already uint8, so a store's mapped payload
        # stays mapped rather than copied onto the heap; the workload is
        # frozen, so its view is read-only either way.
        activations = np.asarray(activations, dtype=np.uint8).view()
        activations.setflags(write=False)
        object.__setattr__(self, "activations", activations)
        object.__setattr__(self, "weights", weights)

    @property
    def m(self) -> int:
        """Number of activation rows (M dimension)."""
        return int(self.activations.shape[0])

    @property
    def k(self) -> int:
        """Reduction width (K dimension)."""
        return int(self.activations.shape[1])

    @property
    def n(self) -> int:
        """Output width (N dimension)."""
        return int(self.weights.shape[1])

    @cached_property
    def row_ones(self) -> np.ndarray:
        """Spikes per activation row, as a read-only ``int64`` vector.

        Counted once per layer: the accelerator models, densities and OP
        counts read this or :attr:`ones` instead of summing the
        activations again.  The activations are binary and read-only, so
        the count cannot go stale.
        """
        counts = np.asarray(self.activations).sum(axis=1, dtype=np.int64)
        counts.setflags(write=False)
        return counts

    @cached_property
    def ones(self) -> int:
        """Number of 1 bits in the activation matrix."""
        return int(self.row_ones.sum())

    @property
    def bit_density(self) -> float:
        """Fraction of 1 bits in the activation matrix."""
        if self.activations.size == 0:
            return 0.0
        return self.ones / self.activations.size

    @property
    def dense_macs(self) -> int:
        """Number of multiply-accumulates a dense accelerator performs."""
        return self.m * self.k * self.n

    @property
    def nonzero_accumulations(self) -> int:
        """Number of weight-row accumulations under plain bit sparsity."""
        return self.ones * self.n

    def reference_output(self) -> np.ndarray:
        """Exact GEMM output ``activations @ weights`` (golden reference)."""
        return self.activations.astype(np.float64) @ self.weights


@dataclass
class ModelWorkload:
    """All GEMMs of a model on a particular dataset, in execution order."""

    model_name: str
    dataset_name: str
    layers: list[LayerWorkload] = field(default_factory=list)

    @property
    def key(self) -> str:
        """Canonical identifier, e.g. ``"vgg16/cifar10"``."""
        return f"{self.model_name}/{self.dataset_name}"

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[LayerWorkload]:
        return iter(self.layers)

    def __getitem__(self, index: int) -> LayerWorkload:
        return self.layers[index]

    def add(self, layer: LayerWorkload) -> None:
        """Append a layer workload.

        Layer names must be unique within a model:
        :meth:`activation_matrices`, :meth:`weight_matrices` and
        :meth:`summary` key their results by name, so a duplicate would
        silently shadow an earlier layer in every consumer.
        """
        if any(existing.name == layer.name for existing in self.layers):
            raise ValueError(
                f"duplicate layer name {layer.name!r} in workload {self.key!r}; "
                "layer names must be unique (temporal unrolling should encode "
                "the time step in the name, e.g. 'fc1@t0')"
            )
        self.layers.append(layer)

    def layer_names(self) -> list[str]:
        """Names of all layers in order."""
        return [layer.name for layer in self.layers]

    @property
    def total_dense_macs(self) -> int:
        """Dense MAC count summed over all layers."""
        return sum(layer.dense_macs for layer in self.layers)

    @property
    def total_bit_sparse_ops(self) -> int:
        """Bit-sparse accumulation count summed over all layers."""
        return sum(layer.nonzero_accumulations for layer in self.layers)

    @property
    def average_bit_density(self) -> float:
        """Element-weighted average activation bit density."""
        total = sum(layer.activations.size for layer in self.layers)
        if total == 0:
            return 0.0
        ones = sum(layer.ones for layer in self.layers)
        return ones / total

    def activation_matrices(self) -> dict[str, np.ndarray]:
        """Mapping layer name -> binary activation matrix."""
        return {layer.name: layer.activations for layer in self.layers}

    def weight_matrices(self) -> dict[str, np.ndarray]:
        """Mapping layer name -> weight matrix."""
        return {layer.name: layer.weights for layer in self.layers}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-layer shape and density summary for reports."""
        return {
            layer.name: {
                "M": layer.m,
                "K": layer.k,
                "N": layer.n,
                "bit_density": layer.bit_density,
            }
            for layer in self.layers
        }
