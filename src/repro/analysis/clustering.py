"""Quantitative clustering analysis of binary activation rows.

The t-SNE pictures in Fig. 1 and Fig. 9 are qualitative; these metrics
quantify the same phenomena so tests and benchmarks can assert them:

* *pattern concentration* — how much of the activation mass the most
  frequent row patterns cover (SNN rows repeat, random rows do not),
* *clustering score* — mean Hamming distance of rows to their nearest
  k-means centre, normalised by the expected distance of density-matched
  random rows (lower = tighter clusters), and
* *train/test consistency* — how similar two distributions of row
  patterns are (Fig. 9a shows train and test overlap).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..core.config import KMeansConfig
from ..core.kmeans import binary_kmeans, filter_calibration_rows, unique_binary_rows


@dataclass(frozen=True)
class ClusterStats:
    """Clustering statistics of a set of binary rows."""

    num_rows: int
    num_unique_rows: int
    top_pattern_coverage: float
    mean_distance_to_center: float
    normalized_cluster_score: float

    @property
    def unique_fraction(self) -> float:
        """Fraction of rows that are distinct."""
        if self.num_rows == 0:
            return 0.0
        return self.num_unique_rows / self.num_rows


def pattern_histogram(rows: np.ndarray) -> Counter:
    """Count how often each exact binary row pattern occurs."""
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise ValueError("rows must be 2-D")
    return Counter(row.tobytes() for row in rows)


def top_pattern_coverage(rows: np.ndarray, top_k: int = 128) -> float:
    """Fraction of rows covered by the ``top_k`` most frequent patterns."""
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.shape[0] == 0:
        return 0.0
    histogram = pattern_histogram(rows)
    covered = sum(count for _, count in histogram.most_common(top_k))
    return covered / rows.shape[0]


def expected_random_distance(width: int, density: float, num_clusters: int) -> float:
    """Expected nearest-centre Hamming distance for density-matched random rows.

    For i.i.d. Bernoulli(density) rows and centres the expected distance to
    a *fixed* centre is ``2 * width * density * (1 - density)``; dividing
    measured distances by this value yields a scale-free clustering score
    (1.0 = no better than random structure, << 1 = strongly clustered).
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    baseline = 2.0 * width * density * (1.0 - density)
    # The minimum over several clusters is a bit lower than the mean; a
    # first-order correction keeps the score conservative.
    correction = max(1.0 - 0.05 * np.log2(max(num_clusters, 1)), 0.5)
    return max(baseline * correction, 1e-9)


def cluster_stats(
    rows: np.ndarray,
    *,
    num_clusters: int = 16,
    seed: int = 0,
    filter_degenerate: bool = True,
) -> ClusterStats:
    """Compute clustering statistics for a set of binary activation rows."""
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("rows must be a non-empty 2-D binary matrix")
    analysed = (
        filter_calibration_rows(rows) if filter_degenerate else rows
    )
    if analysed.shape[0] < max(num_clusters, 2):
        analysed = rows

    unique_rows = unique_binary_rows(analysed)
    clusters = min(num_clusters, unique_rows.shape[0])
    result = binary_kmeans(analysed, clusters, KMeansConfig(seed=seed), unique_rows=unique_rows)
    # Each row's assigned centre is its nearest, so the inertia sums the
    # nearest-centre distances.
    mean_distance = result.inertia / analysed.shape[0]

    density = float(analysed.mean())
    baseline = expected_random_distance(analysed.shape[1], density, clusters)
    return ClusterStats(
        num_rows=int(rows.shape[0]),
        num_unique_rows=int(unique_binary_rows(rows).shape[0]),
        top_pattern_coverage=top_pattern_coverage(rows),
        mean_distance_to_center=mean_distance,
        normalized_cluster_score=mean_distance / baseline,
    )


def distribution_overlap(rows_a: np.ndarray, rows_b: np.ndarray) -> float:
    """Overlap (0..1) between two row-pattern distributions (Fig. 9a).

    Computed as the sum over patterns of ``min(p_a, p_b)`` — 1.0 means the
    two sets use exactly the same patterns with the same frequencies.
    """
    rows_a = np.asarray(rows_a, dtype=np.uint8)
    rows_b = np.asarray(rows_b, dtype=np.uint8)
    if rows_a.shape[0] == 0 or rows_b.shape[0] == 0:
        return 0.0
    hist_a = pattern_histogram(rows_a)
    hist_b = pattern_histogram(rows_b)
    total_a = rows_a.shape[0]
    total_b = rows_b.shape[0]
    overlap = 0.0
    for pattern, count_a in hist_a.items():
        count_b = hist_b.get(pattern, 0)
        overlap += min(count_a / total_a, count_b / total_b)
    return overlap
