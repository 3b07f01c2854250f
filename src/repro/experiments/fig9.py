"""Figure 9: PAFT's effect on activation clustering (t-SNE comparison).

The paper shows three t-SNE plots of VGG16 first-conv-layer activations on
CIFAR-100: (a) training vs test rows overlap, (b) the test set without
PAFT, and (c) the test set with PAFT forming fewer but denser clusters.
This harness reproduces the same comparison quantitatively: train/test
pattern-distribution overlap, and clustering scores before and after the
PAFT alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.clustering import ClusterStats, cluster_stats, distribution_overlap
from ..analysis.tsne import TSNEResult, tsne
from ..core.calibration import PhiCalibrator
from ..core.paft import ActivationAligner
from ..runner.engine import SweepEngine
from .common import SMALL, ExperimentScale


@dataclass(frozen=True)
class Fig9Result:
    """Train/test consistency and PAFT clustering improvement."""

    train_test_overlap: float
    stats_without_paft: ClusterStats
    stats_with_paft: ClusterStats
    embedding_without_paft: TSNEResult | None
    embedding_with_paft: TSNEResult | None

    @property
    def clustering_improved(self) -> bool:
        """True when PAFT tightened the clusters (lower distance to centres)."""
        return (
            self.stats_with_paft.mean_distance_to_center
            <= self.stats_without_paft.mean_distance_to_center
        )


def run_fig9(
    scale: ExperimentScale = SMALL,
    *,
    model_name: str = "vgg16",
    dataset_name: str = "cifar100",
    layer_index: int = 0,
    num_rows: int = 384,
    alignment_strength: float = 0.6,
    compute_embeddings: bool = False,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> Fig9Result:
    """Reproduce the Fig. 9 PAFT clustering analysis.

    ``engine`` only supplies the workload (from its artifact store).
    """
    workload = (engine or SweepEngine()).workload(
        scale.workload_spec(model_name, dataset_name)
    )
    layer = workload[layer_index]
    # Split the recorded rows into disjoint "train" and "test" halves so
    # the overlap measurement is meaningful even on the cached workload.
    rows = layer.activations
    half = rows.shape[0] // 2
    train_rows = rows[:half]
    test_rows = rows[half:]
    width = min(rows.shape[1], scale.partition_size * 4)
    train_rows = train_rows[:, :width]
    test_rows = test_rows[:, :width]

    overlap = distribution_overlap(
        train_rows[:, : scale.partition_size], test_rows[:, : scale.partition_size]
    )

    calibration = PhiCalibrator(scale.phi_config()).calibrate_layer(
        layer.name, layer.activations
    )
    aligner = ActivationAligner(alignment_strength=alignment_strength, seed=seed)
    aligned = aligner.align_layer(layer.activations, calibration)

    sample = slice(0, min(num_rows, test_rows.shape[0]))
    stats_before = cluster_stats(layer.activations[sample, :width], seed=seed)
    stats_after = cluster_stats(aligned[sample, :width], seed=seed)

    embedding_before = embedding_after = None
    if compute_embeddings:
        embedding_before = tsne(
            layer.activations[sample, :width].astype(float), num_iterations=150, seed=seed
        )
        embedding_after = tsne(
            aligned[sample, :width].astype(float), num_iterations=150, seed=seed
        )

    return Fig9Result(
        train_test_overlap=overlap,
        stats_without_paft=stats_before,
        stats_with_paft=stats_after,
        embedding_without_paft=embedding_before,
        embedding_with_paft=embedding_after,
    )
