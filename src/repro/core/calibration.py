"""Phi calibration stage: per-layer, per-partition pattern selection.

The calibration stage (Section 3.2) runs offline on a small subset of the
training data.  For every layer, the spike-activation matrix is partitioned
along the reduction (K) dimension, each partition's rows are clustered with
Hamming-distance k-means, and the rounded cluster centres become that
partition's pattern set.  Pattern-weight products (PWPs) are then
precomputed so runtime Level 1 processing reduces to table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import PhiConfig
from .kmeans import cluster_partition
from .patterns import PatternSet, is_binary_matrix
from .sparsity import MatrixDecomposition, decompose_matrix, partition_boundaries


@dataclass(frozen=True)
class LayerCalibration:
    """Calibrated patterns for a single layer.

    Attributes
    ----------
    layer_name:
        Identifier of the layer the patterns belong to.
    pattern_sets:
        One :class:`PatternSet` per K partition, in column order.
    partition_size:
        Partition width ``k`` used for the calibration.
    total_width:
        Reduction dimension ``K`` of the layer's activation matrix.
    """

    layer_name: str
    pattern_sets: tuple[PatternSet, ...]
    partition_size: int
    total_width: int

    @property
    def num_partitions(self) -> int:
        """Number of K partitions in this layer."""
        return len(self.pattern_sets)

    def decompose(self, activations: np.ndarray) -> MatrixDecomposition:
        """Decompose a binary activation matrix of this layer."""
        return decompose_matrix(activations, self.pattern_sets, self.partition_size)


@dataclass
class ModelCalibration:
    """Calibrated patterns of an entire model (one entry per layer)."""

    config: PhiConfig
    layers: dict[str, LayerCalibration] = field(default_factory=dict)

    def __contains__(self, layer_name: str) -> bool:
        return layer_name in self.layers

    def __getitem__(self, layer_name: str) -> LayerCalibration:
        return self.layers[layer_name]

    def layer_names(self) -> list[str]:
        """Names of all calibrated layers in insertion order."""
        return list(self.layers.keys())

    def add(self, calibration: LayerCalibration) -> None:
        """Register the calibration of a layer."""
        self.layers[calibration.layer_name] = calibration


class PhiCalibrator:
    """Run the Phi calibration workflow on recorded spike activations.

    Parameters
    ----------
    config:
        The :class:`PhiConfig` controlling partition size, pattern count,
        row filtering and the k-means hyper-parameters.
    """

    def __init__(self, config: PhiConfig | None = None) -> None:
        self.config = config or PhiConfig()

    def calibrate_layer(
        self,
        layer_name: str,
        activations: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
    ) -> LayerCalibration:
        """Calibrate one layer from its binary activation samples.

        Parameters
        ----------
        layer_name:
            Identifier of the layer.
        activations:
            Binary matrix of shape ``(M, K)`` pooling activation rows from
            the calibration subset (rows from several inputs/time steps may
            simply be stacked).
        rng:
            Optional generator used to subsample calibration rows when more
            than ``config.calibration_samples`` are provided.
        """
        activations = np.asarray(activations)
        if activations.ndim != 2:
            raise ValueError("activations must be a 2-D binary matrix")
        if activations.shape[0] == 0 or activations.shape[1] == 0:
            raise ValueError("activations must be non-empty")
        if not is_binary_matrix(activations):
            raise ValueError("activations must contain only 0/1 values")
        activations = activations.astype(np.uint8)

        rng = rng or np.random.default_rng(self.config.kmeans.seed)
        if activations.shape[0] > self.config.calibration_samples:
            idx = rng.choice(
                activations.shape[0], size=self.config.calibration_samples, replace=False
            )
            activations = activations[idx]

        bounds = partition_boundaries(activations.shape[1], self.config.partition_size)
        pattern_sets = []
        for start, stop in bounds:
            pattern_sets.append(
                cluster_partition(
                    activations[:, start:stop],
                    self.config.num_patterns,
                    config=self.config.kmeans,
                    filter_all_zero=self.config.filter_all_zero,
                    filter_one_hot=self.config.filter_one_hot,
                )
            )
        return LayerCalibration(
            layer_name=layer_name,
            pattern_sets=tuple(pattern_sets),
            partition_size=self.config.partition_size,
            total_width=activations.shape[1],
        )

    def calibrate_model(
        self,
        layer_activations: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]],
    ) -> ModelCalibration:
        """Calibrate every layer of a model.

        Parameters
        ----------
        layer_activations:
            Mapping (or iterable of pairs) from layer name to the binary
            activation matrix recorded on the calibration subset.
        """
        if isinstance(layer_activations, Mapping):
            items: Sequence[tuple[str, np.ndarray]] = list(layer_activations.items())
        else:
            items = list(layer_activations)

        model_calibration = ModelCalibration(config=self.config)
        for layer_name, activations in items:
            model_calibration.add(self.calibrate_layer(layer_name, activations))
        return model_calibration
