"""Analysis tools: t-SNE, activation clustering and memory traffic."""

from .clustering import (
    ClusterStats,
    cluster_stats,
    distribution_overlap,
    expected_random_distance,
    pattern_histogram,
    top_pattern_coverage,
)
from .traffic import ActivationTraffic, WeightTraffic
from .tsne import TSNEResult, pairwise_squared_distances, tsne

__all__ = [
    "tsne",
    "TSNEResult",
    "pairwise_squared_distances",
    "ClusterStats",
    "cluster_stats",
    "pattern_histogram",
    "top_pattern_coverage",
    "distribution_overlap",
    "expected_random_distance",
    "ActivationTraffic",
    "WeightTraffic",
]
