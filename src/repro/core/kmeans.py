"""Binary k-means clustering with Hamming distance (Algorithm 1).

The Phi calibration stage clusters the binary activation rows of each
partition and uses the (rounded) cluster centres as the partition's
patterns.  Hamming distance between a row and its centre equals the number
of correction elements the row would need in the Level 2 matrix, so
minimising the within-cluster Hamming distance directly maximises Level 2
sparsity (Section 3.2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import KMeansConfig
from .patterns import PatternSet, distinct_rows, hamming_packed, pack_rows


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of the binary k-means clustering.

    Attributes
    ----------
    centers:
        Binary matrix of shape ``(q, k)`` holding the rounded cluster
        centres (the calibrated patterns).
    assignments:
        For each input row the index (0-based) of its cluster centre.
    inertia:
        Total Hamming distance between rows and their assigned centres.
    iterations:
        Number of Lloyd iterations performed.
    """

    centers: np.ndarray
    assignments: np.ndarray
    inertia: int
    iterations: int

    @property
    def pattern_set(self) -> PatternSet:
        """The cluster centres wrapped as a :class:`PatternSet`."""
        return PatternSet(self.centers)


def hamming_distance_matrix(rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between binary ``rows`` and ``centers``.

    Parameters
    ----------
    rows:
        Binary matrix of shape ``(n, k)``.
    centers:
        Binary matrix of shape ``(q, k)``.

    Returns
    -------
    numpy.ndarray
        Integer matrix of shape ``(n, q)``.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    centers = np.asarray(centers, dtype=np.uint8)
    if rows.ndim != 2 or centers.ndim != 2:
        raise ValueError("rows and centers must both be 2-D")
    if rows.shape[1] != centers.shape[1]:
        raise ValueError(
            f"width mismatch: rows have {rows.shape[1]} bits, centers have "
            f"{centers.shape[1]}"
        )
    return hamming_packed(pack_rows(rows), pack_rows(centers))


def unique_binary_rows(rows: np.ndarray) -> np.ndarray:
    """Sorted unique rows of a binary matrix (fast ``np.unique(axis=0)``).

    See :func:`~repro.core.patterns.distinct_rows`, which sorts one
    packed key per row instead of ``k`` elements.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise ValueError("rows must be 2-D")
    return distinct_rows(rows)[0]


def filter_calibration_rows(
    rows: np.ndarray,
    *,
    filter_all_zero: bool = True,
    filter_one_hot: bool = True,
) -> np.ndarray:
    """Remove rows that are pointless to cluster (Algorithm 1, step 2).

    All-zero rows require no computation at all, and one-hot rows cannot
    profit from a pattern because the PWP of a one-hot pattern is just a row
    of the weight matrix.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise ValueError("rows must be 2-D")
    popcounts = rows.sum(axis=1)
    keep = np.ones(rows.shape[0], dtype=bool)
    if filter_all_zero:
        keep &= popcounts != 0
    if filter_one_hot:
        keep &= popcounts != 1
    return rows[keep]


def _init_centers(
    unique_rows: np.ndarray, q: int, rng: np.random.Generator
) -> np.ndarray:
    """Initialise ``q`` centres from the distinct rows where possible."""
    if unique_rows.shape[0] >= q:
        idx = rng.choice(unique_rows.shape[0], size=q, replace=False)
        return unique_rows[idx].copy()
    # Fewer unique rows than requested centres: take every unique row and
    # pad with random binary vectors so the shape contract holds.
    extra = q - unique_rows.shape[0]
    random_bits = (rng.random((extra, unique_rows.shape[1])) < 0.5).astype(np.uint8)
    return np.vstack([unique_rows, random_bits])


def binary_kmeans(
    rows: np.ndarray,
    num_clusters: int,
    config: KMeansConfig | None = None,
    *,
    unique_rows: np.ndarray | None = None,
) -> ClusteringResult:
    """Cluster binary rows with Hamming-distance k-means (Algorithm 1).

    Parameters
    ----------
    rows:
        Binary matrix of shape ``(n, k)`` with the calibration rows
        (already filtered of all-zero / one-hot rows by the caller).
    num_clusters:
        Number of clusters ``q`` to produce.
    config:
        Clustering hyper-parameters; defaults to :class:`KMeansConfig`.
    unique_rows:
        Optional ``unique_binary_rows(rows)`` that the caller already
        holds.  The clustering derives the distinct rows itself; passing
        them lets call-level profiling count them (``perfbench/tracer.py``
        does).  Any other array raises ``ValueError``.

    Returns
    -------
    ClusteringResult
        Centres rounded to {0, 1}, per-row assignments, final inertia and
        iteration count.

    Notes
    -----
    Every step of Lloyd's iteration depends on a row only through its
    bits, so the iteration runs over the distinct rows, each weighted by
    the number of rows it stands for.  Identical rows get identical
    distances and hence identical assignments, and the weighted counts,
    bit sums, change count and inertia are the same integers the
    per-row sums give, so the result equals clustering every row.
    """
    config = config or KMeansConfig()
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D binary matrix")
    if rows.shape[0] == 0:
        raise ValueError("cannot cluster an empty set of rows")
    if num_clusters < 1:
        raise ValueError("num_clusters must be >= 1")
    distinct, inverse = distinct_rows(rows)
    if unique_rows is not None and not np.array_equal(unique_rows, distinct):
        raise ValueError("unique_rows must equal unique_binary_rows(rows)")

    rng = np.random.default_rng(config.seed)
    centers = _init_centers(distinct, num_clusters, rng)
    n_rows = rows.shape[0]
    num_cols = rows.shape[1]
    iterations = 0

    # ``weights`` counts the rows behind each distinct row.  The row side
    # of every distance computation and centre update is loop-invariant:
    # hoist the packed words and the nonzero coordinates driving the
    # per-cluster bit sums.
    distinct_words = pack_rows(distinct)
    weights = np.bincount(inverse, minlength=distinct.shape[0])
    nonzero_rows, nonzero_cols = np.nonzero(distinct)
    nonzero_weights = weights[nonzero_rows]
    assignments = np.zeros(distinct.shape[0], dtype=np.int64)

    def distances_to(current_centers: np.ndarray) -> np.ndarray:
        return hamming_packed(distinct_words, pack_rows(current_centers))

    for iteration in range(config.max_iterations):
        iterations = iteration + 1
        distances = distances_to(centers)
        new_assignments = distances.argmin(axis=1)

        changed = int(weights[new_assignments != assignments].sum())
        assignments = new_assignments

        # Update each centre as the rounded mean of its members, in one
        # pass: per-cluster bit sums via weighted bincount over the
        # (cluster, column) pairs of every 1 bit, then the exact integer
        # form of the >= 0.5 rounding (2 * sum >= count).  The float
        # bincount sums are small integers, so the int64 cast is exact.
        new_centers = centers.copy()
        counts = np.bincount(assignments, weights, num_clusters).astype(np.int64)
        bit_index = assignments[nonzero_rows] * num_cols + nonzero_cols
        sums = np.bincount(bit_index, nonzero_weights, num_clusters * num_cols)
        sums = sums.astype(np.int64).reshape(num_clusters, num_cols)
        occupied = counts > 0
        new_centers[occupied] = (
            2 * sums[occupied] >= counts[occupied, None]
        ).astype(np.uint8)
        empty = np.flatnonzero(~occupied)
        if empty.size and config.empty_cluster_strategy == "reseed":
            # Reseed with the first row farthest from its current centre
            # (all empty clusters receive the same farthest row).
            row_dist = distances[np.arange(distinct.shape[0]), assignments]
            farthest = int(row_dist[inverse].argmax())
            new_centers[empty] = rows[farthest]

        converged = np.array_equal(new_centers, centers) and changed == 0
        centers = new_centers
        if converged or (iteration > 0 and changed <= config.tolerance * n_rows):
            break

    distances = distances_to(centers)
    assignments = distances.argmin(axis=1)
    row_dist = distances[np.arange(distinct.shape[0]), assignments]
    return ClusteringResult(
        centers=centers.astype(np.uint8),
        assignments=assignments[inverse],
        inertia=int(row_dist @ weights),
        iterations=iterations,
    )


def cluster_partition(
    rows: np.ndarray,
    num_patterns: int,
    *,
    config: KMeansConfig | None = None,
    filter_all_zero: bool = True,
    filter_one_hot: bool = True,
) -> PatternSet:
    """Produce the pattern set of one partition from its calibration rows.

    This is the complete Algorithm 1 pipeline: filter degenerate rows, run
    binary k-means, and wrap the rounded centres as a :class:`PatternSet`.
    When fewer than ``num_patterns`` useful rows remain after filtering the
    pattern count is reduced accordingly (deduplicated unique rows are used
    directly as patterns).
    """
    rows = np.asarray(rows, dtype=np.uint8)
    filtered = filter_calibration_rows(
        rows, filter_all_zero=filter_all_zero, filter_one_hot=filter_one_hot
    )
    if filtered.shape[0] == 0:
        # Degenerate partition: nothing worth a pattern.  Return a single
        # all-ones pattern so downstream code still has a valid set; the
        # decomposer will simply never pick it if it does not help.
        width = rows.shape[1] if rows.ndim == 2 else 1
        return PatternSet(np.ones((1, width), dtype=np.uint8))

    unique_rows = unique_binary_rows(filtered)
    if unique_rows.shape[0] <= num_patterns:
        return PatternSet(unique_rows)

    result = binary_kmeans(filtered, num_patterns, config, unique_rows=unique_rows)
    # Deduplicate rounded centres; duplicates waste pattern slots.
    centers = unique_binary_rows(result.centers)
    return PatternSet(centers)
