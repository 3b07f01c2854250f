"""Core Phi sparsity algorithm: patterns, clustering, calibration, PAFT.

A decomposed layer has one type, :class:`MatrixDecomposition`: per row
and K partition, the assigned pattern index (Level 1) and the number of
Level 2 corrections; its Level 2 matrix is built only on request.
"""

from .calibration import LayerCalibration, ModelCalibration, PhiCalibrator
from .config import PAPER_CONFIG, KMeansConfig, PhiConfig
from .kmeans import (
    ClusteringResult,
    binary_kmeans,
    cluster_partition,
    filter_calibration_rows,
    hamming_distance_matrix,
)
from .metrics import (
    OperationCounts,
    SparsityBreakdown,
    aggregate_breakdowns,
    aggregate_operation_counts,
    geometric_mean,
    operation_counts,
    sparsity_breakdown,
)
from .paft import ActivationAligner, PAFTConfig, layer_regularizer, paft_regularizer
from .patterns import NO_PATTERN, PatternSet
from .sparsity import MatrixDecomposition, decompose_matrix, partition_boundaries

__all__ = [
    "PAPER_CONFIG",
    "PhiConfig",
    "KMeansConfig",
    "PatternSet",
    "NO_PATTERN",
    "ClusteringResult",
    "binary_kmeans",
    "cluster_partition",
    "filter_calibration_rows",
    "hamming_distance_matrix",
    "MatrixDecomposition",
    "decompose_matrix",
    "partition_boundaries",
    "PhiCalibrator",
    "LayerCalibration",
    "ModelCalibration",
    "SparsityBreakdown",
    "OperationCounts",
    "sparsity_breakdown",
    "operation_counts",
    "aggregate_breakdowns",
    "aggregate_operation_counts",
    "geometric_mean",
    "PAFTConfig",
    "ActivationAligner",
    "paft_regularizer",
    "layer_regularizer",
]
