"""Figure 1: activation distribution visualisation (normal vs DNN vs SNN).

The paper's motivation figure shows t-SNE projections of (a) normally
distributed noise, (b) DNN (ViT) activations and (c) SNN (Spikformer)
spike activations: the SNN rows form by far the tightest clusters.  The
harness reproduces the three embeddings and attaches quantitative
clustering scores so the conclusion can be asserted programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.clustering import top_pattern_coverage
from ..analysis.tsne import TSNEResult, tsne
from ..runner.engine import SweepEngine
from .common import SMALL, ExperimentScale


@dataclass(frozen=True)
class DistributionSummary:
    """t-SNE embedding plus clustering statistics for one data source."""

    name: str
    embedding: TSNEResult
    cluster_spread: float
    pattern_coverage: float


@dataclass(frozen=True)
class Fig1Result:
    """Comparison of the three activation distributions of Fig. 1."""

    normal: DistributionSummary
    dnn: DistributionSummary
    snn: DistributionSummary

    def spreads(self) -> dict[str, float]:
        """Cluster-spread score per source (lower = more clustered)."""
        return {
            "normal": self.normal.cluster_spread,
            "dnn": self.dnn.cluster_spread,
            "snn": self.snn.cluster_spread,
        }


def _cluster_spread(embedding: np.ndarray, num_clusters: int = 8, seed: int = 0) -> float:
    """Mean within-cluster spread of a 2-D embedding, normalised by its scale.

    A simple Euclidean k-means on the embedding; the score is the average
    distance of points to their cluster centre divided by the overall
    standard deviation, so 1.0 means no visible cluster structure.
    """
    rng = np.random.default_rng(seed)
    points = np.asarray(embedding, dtype=np.float64)
    scale = float(points.std()) or 1.0
    centers = points[rng.choice(points.shape[0], size=num_clusters, replace=False)]
    for _ in range(20):
        distances = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = distances.argmin(axis=1)
        for c in range(num_clusters):
            members = points[assign == c]
            if members.shape[0]:
                centers[c] = members.mean(axis=0)
    distances = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    nearest = np.sqrt(distances.min(axis=1))
    return float(nearest.mean() / scale)


def run_fig1(
    scale: ExperimentScale = SMALL,
    *,
    num_rows: int = 256,
    seed: int = 0,
    tsne_iterations: int = 200,
    engine: SweepEngine | None = None,
) -> Fig1Result:
    """Reproduce the Fig. 1 comparison of activation distributions.

    ``engine`` only supplies the workload (from its artifact store).
    """
    rng = np.random.default_rng(seed)

    # SNN spike activations: a Spikformer attention-projection layer.
    workload = (engine or SweepEngine()).workload(
        scale.workload_spec("spikformer", "cifar100")
    )
    snn_rows = None
    for layer in workload:
        if layer.k >= 32 and layer.m >= num_rows:
            snn_rows = layer.activations[:num_rows].astype(np.float64)
            break
    if snn_rows is None:
        snn_rows = workload[0].activations[:num_rows].astype(np.float64)
    width = snn_rows.shape[1]

    # DNN-like activations: smooth, correlated analog features (ReLU of a
    # low-rank Gaussian process stands in for ViT activations).
    basis = rng.standard_normal((8, width))
    coefficients = rng.standard_normal((snn_rows.shape[0], 8))
    dnn_rows = np.maximum(coefficients @ basis + 0.3 * rng.standard_normal(
        (snn_rows.shape[0], width)), 0.0)

    # Normally distributed noise.
    normal_rows = rng.standard_normal(snn_rows.shape)

    def summarise(name: str, rows: np.ndarray, binary: bool) -> DistributionSummary:
        embedding = tsne(rows, num_iterations=tsne_iterations, seed=seed)
        # Pattern coverage is measured on partition-width (16-bit) slices,
        # exactly as Phi partitions the activation matrix.
        coverage = (
            top_pattern_coverage(rows.astype(np.uint8)[:, :16], top_k=32)
            if binary
            else 0.0
        )
        return DistributionSummary(
            name=name,
            embedding=embedding,
            cluster_spread=_cluster_spread(embedding.embedding, seed=seed),
            pattern_coverage=coverage,
        )

    return Fig1Result(
        normal=summarise("normal", normal_rows, binary=False),
        dnn=summarise("dnn", dnn_rows, binary=False),
        snn=summarise("snn", snn_rows, binary=True),
    )
