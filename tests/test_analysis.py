"""Tests for the analysis tools (t-SNE, clustering, traffic)."""

import numpy as np
import pytest

from repro.analysis import (
    cluster_stats,
    distribution_overlap,
    expected_random_distance,
    pairwise_squared_distances,
    pattern_histogram,
    top_pattern_coverage,
    tsne,
)
from repro.analysis.traffic import (
    activation_traffic_from_layers,
    weight_traffic_from_layers,
)
from repro.core import PhiConfig
from repro.hw import ArchConfig, PhiSimulator
from repro.runner.engine import summarize_run


class TestTSNE:
    def test_pairwise_distances(self):
        data = np.array([[0.0, 0.0], [3.0, 4.0]])
        distances = pairwise_squared_distances(data)
        assert distances[0, 1] == pytest.approx(25.0)
        assert distances[0, 0] == 0.0

    def test_embedding_shape(self, rng):
        data = rng.standard_normal((40, 10))
        result = tsne(data, num_iterations=60, seed=0)
        assert result.embedding.shape == (40, 2)
        assert np.isfinite(result.embedding).all()
        assert result.kl_divergence >= 0

    def test_separates_clear_clusters(self, rng):
        cluster_a = rng.standard_normal((25, 8)) * 0.1
        cluster_b = rng.standard_normal((25, 8)) * 0.1 + 10.0
        data = np.vstack([cluster_a, cluster_b])
        result = tsne(data, num_iterations=150, seed=1)
        emb = result.embedding
        centroid_a = emb[:25].mean(axis=0)
        centroid_b = emb[25:].mean(axis=0)
        spread = max(emb[:25].std(), emb[25:].std())
        assert np.linalg.norm(centroid_a - centroid_b) > 2 * spread

    def test_rejects_tiny_input(self, rng):
        with pytest.raises(ValueError):
            tsne(rng.standard_normal((3, 4)))


class TestClustering:
    def test_pattern_histogram(self):
        rows = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
        histogram = pattern_histogram(rows)
        assert max(histogram.values()) == 2

    def test_top_pattern_coverage(self):
        rows = np.tile(np.array([[1, 0, 1, 0]], dtype=np.uint8), (50, 1))
        assert top_pattern_coverage(rows, top_k=1) == 1.0

    def test_cluster_stats_structured_vs_random(self, binary_matrix, rng):
        structured = cluster_stats(binary_matrix, num_clusters=8, seed=0)
        random_rows = (rng.random(binary_matrix.shape) < binary_matrix.mean()).astype(np.uint8)
        random = cluster_stats(random_rows, num_clusters=8, seed=0)
        # The structured activations cluster much better than random data.
        assert structured.normalized_cluster_score < random.normalized_cluster_score

    def test_cluster_stats_fields(self, binary_matrix):
        stats = cluster_stats(binary_matrix, num_clusters=4)
        assert stats.num_rows == binary_matrix.shape[0]
        assert 0 < stats.num_unique_rows <= stats.num_rows
        assert 0.0 < stats.top_pattern_coverage <= 1.0
        assert 0.0 < stats.unique_fraction <= 1.0

    def test_cluster_stats_rejects_empty(self):
        with pytest.raises(ValueError):
            cluster_stats(np.zeros((0, 4), dtype=np.uint8))

    def test_expected_random_distance(self):
        assert expected_random_distance(16, 0.5, 1) == pytest.approx(8.0)
        with pytest.raises(ValueError):
            expected_random_distance(0, 0.5, 1)

    def test_distribution_overlap_identical(self, binary_matrix):
        assert distribution_overlap(binary_matrix, binary_matrix) == pytest.approx(1.0)

    def test_distribution_overlap_disjoint(self):
        a = np.zeros((10, 4), dtype=np.uint8)
        b = np.ones((10, 4), dtype=np.uint8)
        assert distribution_overlap(a, b) == 0.0

    def test_distribution_overlap_split_halves(self, binary_matrix):
        # Compare partition-width (8-bit) slices, as Phi does: the clustered
        # halves share far more patterns than disjoint data would.
        half = binary_matrix.shape[0] // 2
        overlap = distribution_overlap(
            binary_matrix[:half, :8], binary_matrix[half:, :8]
        )
        assert overlap > 0.3


class TestTraffic:
    @pytest.fixture(scope="class")
    def layers(self, vgg_workload):
        simulator = PhiSimulator(
            ArchConfig(),
            PhiConfig(partition_size=16, num_patterns=32, calibration_samples=2000),
        )
        return summarize_run(simulator.simulate(vgg_workload))["layers"]

    def test_activation_traffic(self, layers):
        traffic = activation_traffic_from_layers(layers)
        assert traffic.dense > 0
        assert traffic.phi_compressed < traffic.phi_uncompressed
        assert traffic.compressed_ratio < traffic.uncompressed_ratio

    def test_weight_traffic(self, layers):
        traffic = weight_traffic_from_layers(layers)
        assert traffic.dense > 0
        # Without the prefetcher the PWP traffic dwarfs the dense weights.
        assert traffic.without_prefetch_ratio > 1.5
        assert traffic.phi_with_prefetch < traffic.phi_without_prefetch
        assert 0.0 < traffic.prefetch_saving < 1.0
