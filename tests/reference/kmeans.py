"""Unweighted Hamming k-means over every calibration row.

This is ``repro.core.kmeans.binary_kmeans`` as it was before Lloyd moved
to the distinct rows weighted by their multiplicity: one distance row and
one vote per input row, with the float64 GEMM form of the Hamming
distance.  Property tests check that the weighted version returns the
same centres, assignments, inertia and iteration count.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import KMeansConfig
from repro.core.kmeans import ClusteringResult


def _init_centers(rows: np.ndarray, q: int, rng: np.random.Generator) -> np.ndarray:
    """Initialise ``q`` centres from distinct rows where possible."""
    unique_rows = np.unique(rows, axis=0)
    if unique_rows.shape[0] >= q:
        idx = rng.choice(unique_rows.shape[0], size=q, replace=False)
        return unique_rows[idx].copy()
    extra = q - unique_rows.shape[0]
    random_bits = (rng.random((extra, rows.shape[1])) < 0.5).astype(np.uint8)
    return np.vstack([unique_rows, random_bits])


def binary_kmeans(
    rows: np.ndarray,
    num_clusters: int,
    config: KMeansConfig | None = None,
) -> ClusteringResult:
    """Cluster binary rows with Hamming-distance k-means (Algorithm 1)."""
    config = config or KMeansConfig()
    rows = np.asarray(rows, dtype=np.uint8)
    rng = np.random.default_rng(config.seed)
    centers = _init_centers(rows, num_clusters, rng)
    assignments = np.zeros(rows.shape[0], dtype=np.int64)
    n_rows = rows.shape[0]
    num_cols = rows.shape[1]
    iterations = 0

    rows_f = rows.astype(np.float64)
    row_pop = rows_f.sum(axis=1, keepdims=True)
    nonzero_rows, nonzero_cols = np.nonzero(rows)

    def distances_to(current_centers: np.ndarray) -> np.ndarray:
        centers_f = current_centers.astype(np.float64)
        cross = rows_f @ centers_f.T
        center_pop = centers_f.sum(axis=1, keepdims=True).T
        return (row_pop + center_pop - 2 * cross).astype(np.int64)

    for iteration in range(config.max_iterations):
        iterations = iteration + 1
        distances = distances_to(centers)
        new_assignments = distances.argmin(axis=1)

        changed = int(np.count_nonzero(new_assignments != assignments))
        assignments = new_assignments

        new_centers = centers.copy()
        counts = np.bincount(assignments, minlength=num_clusters)
        sums = np.bincount(
            assignments[nonzero_rows] * num_cols + nonzero_cols,
            minlength=num_clusters * num_cols,
        ).reshape(num_clusters, num_cols)
        occupied = counts > 0
        new_centers[occupied] = (
            2 * sums[occupied] >= counts[occupied, None]
        ).astype(np.uint8)
        empty = np.flatnonzero(~occupied)
        if empty.size and config.empty_cluster_strategy == "reseed":
            row_dist = distances[np.arange(n_rows), assignments]
            farthest = int(row_dist.argmax())
            new_centers[empty] = rows[farthest]

        converged = np.array_equal(new_centers, centers) and changed == 0
        centers = new_centers
        if converged or (iteration > 0 and changed <= config.tolerance * n_rows):
            break

    distances = distances_to(centers)
    assignments = distances.argmin(axis=1)
    inertia = int(distances[np.arange(n_rows), assignments].sum())
    return ClusteringResult(
        centers=centers.astype(np.uint8),
        assignments=assignments,
        inertia=inertia,
        iterations=iterations,
    )
