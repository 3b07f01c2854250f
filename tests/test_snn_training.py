"""Tests for the SGD trainer and PAFT fine-tuning loop."""

import numpy as np
import pytest

from repro.core.calibration import PhiCalibrator
from repro.core.config import PhiConfig
from repro.core.paft import PAFTConfig
from repro.snn.layers import LIFLayer, Linear
from repro.snn.models import build_spikebert, build_spikformer, build_spiking_resnet
from repro.snn.network import SpikingNetwork
from repro.snn.training import SGDTrainer, cross_entropy, iterate_minibatches, softmax


@pytest.fixture
def toy_task(rng):
    """A linearly separable 2-class task with 16 features."""
    num = 64
    labels = rng.integers(0, 2, size=num)
    centers = np.array([[0.2] * 16, [0.8] * 16])
    data = centers[labels] + 0.1 * rng.standard_normal((num, 16))
    return np.clip(data, 0, 1), labels


@pytest.fixture
def tiny_network(rng):
    return SpikingNetwork(
        [
            Linear(16, 24, name="fc0", rng=rng),
            LIFLayer(name="lif0"),
            Linear(24, 2, name="fc1", rng=rng),
        ],
        num_steps=3,
        name="tiny",
    )


class TestLossFunctions:
    def test_softmax_sums_to_one(self, rng):
        probs = softmax(rng.standard_normal((5, 7)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_softmax_stability(self):
        probs = softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(probs, 0.5)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[10.0, -10.0]])
        loss, grad = cross_entropy(logits, np.array([0]))
        assert loss < 1e-3
        assert grad.shape == (1, 2)

    def test_cross_entropy_gradient_direction(self):
        logits = np.array([[0.0, 0.0]])
        _, grad = cross_entropy(logits, np.array([1]))
        assert grad[0, 1] < 0 < grad[0, 0]

    def test_minibatch_iteration_covers_data(self, rng):
        data = np.arange(10)[:, None]
        labels = np.arange(10)
        seen = []
        for batch, _ in iterate_minibatches(data, labels, 3, rng=rng):
            seen.extend(batch[:, 0].tolist())
        assert sorted(seen) == list(range(10))

    def test_minibatch_length_mismatch(self):
        with pytest.raises(ValueError):
            list(iterate_minibatches(np.zeros((3, 1)), np.zeros(2), 2))


class TestSGDTrainer:
    def test_training_reduces_loss(self, tiny_network, toy_task):
        data, labels = toy_task
        trainer = SGDTrainer(tiny_network, learning_rate=0.1)
        history = trainer.fit(data, labels, epochs=4, batch_size=16,
                              eval_data=data, eval_labels=labels)
        assert history.losses[-1] < history.losses[0]
        assert history.final_accuracy >= 0.5

    def test_training_beats_chance(self, tiny_network, toy_task):
        data, labels = toy_task
        trainer = SGDTrainer(tiny_network, learning_rate=0.1)
        trainer.fit(data, labels, epochs=5, batch_size=16)
        accuracy = trainer.evaluate(data, labels)
        assert accuracy > 0.6

    def test_invalid_hyperparameters(self, tiny_network):
        with pytest.raises(ValueError):
            SGDTrainer(tiny_network, learning_rate=0.0)
        with pytest.raises(ValueError):
            SGDTrainer(tiny_network, momentum=1.0)

    def test_paft_reduces_regularizer(self, tiny_network, toy_task):
        data, labels = toy_task
        trainer = SGDTrainer(tiny_network, learning_rate=0.05)
        trainer.fit(data, labels, epochs=2, batch_size=16)

        # Calibrate patterns from recorded activations of the trained net.
        _, records = tiny_network.record_activations(data[:16])
        calibrator = PhiCalibrator(PhiConfig(partition_size=8, num_patterns=8,
                                             calibration_samples=1000))
        layer_activations = {
            name: rec.stacked().astype(np.uint8)
            for name, rec in records.items()
            if rec.is_binary and rec.matrices
        }
        calibration = calibrator.calibrate_model(layer_activations)
        assert calibration.layer_names()  # at least one binary GEMM

        trainer.enable_paft(calibration, PAFTConfig(lam=1e-3, learning_rate=1e-2, epochs=2))
        assert trainer.paft_enabled
        history = trainer.fit(data, labels, epochs=2, batch_size=16)
        # The PAFT regulariser is tracked and non-negative.
        assert all(r >= 0 for r in history.regularizers)
        trainer.disable_paft()
        assert not trainer.paft_enabled

    def test_evaluate_on_empty_returns_zero(self, tiny_network):
        trainer = SGDTrainer(tiny_network)
        assert trainer.evaluate(np.zeros((0, 16)), np.zeros(0, dtype=int)) == 0.0


def _composite_networks():
    """Tiny zoo networks built from every composite layer type."""
    rng = np.random.default_rng(0)
    images = rng.random((4, 3, 8, 8))
    return {
        # Stage 1 opens with a strided block, so it carries a downsample conv.
        "resnet18": (
            build_spiking_resnet(
                image_size=8, channels=(4, 8), blocks_per_stage=1, num_steps=2,
                threshold=0.5,
            ),
            images,
        ),
        "spikformer": (
            build_spikformer(
                image_size=8, embed_dim=8, depth=1, num_heads=2, num_steps=2
            ),
            images,
        ),
        "spikebert": (
            build_spikebert(
                vocab_size=16, seq_len=4, embed_dim=8, depth=1, num_heads=2,
                num_steps=2,
            ),
            rng.integers(0, 16, size=(4, 4)),
        ),
    }


#: ``num_parameters()`` of each tiny composite network.
COMPOSITE_PARAMETER_COUNTS = {"resnet18": 1474, "spikformer": 1066, "spikebert": 714}


class TestCompositeTraining:
    """One SGD step through residual, patch-embedding and transformer trees."""

    @pytest.fixture(params=sorted(COMPOSITE_PARAMETER_COUNTS))
    def trained(self, request):
        network, data = _composite_networks()[request.param]
        before = {key: value.copy() for key, value in network.parameters().items()}
        SGDTrainer(network, learning_rate=0.05, momentum=0.9).train_batch(
            data, np.array([0, 1, 0, 1])
        )
        return request.param, network, before

    @staticmethod
    def _leaf_arrays(network, suffix: str = "") -> dict[str, np.ndarray]:
        """Every weight/bias/gamma/beta (or ``*_grad``) array of every leaf."""
        arrays = {}
        for layer in network.all_layers():
            if layer.children():
                continue
            for attr in ("weight", "bias", "gamma", "beta"):
                value = getattr(layer, attr + suffix, None)
                if isinstance(value, np.ndarray):
                    arrays[f"{layer.name}.{attr}"] = value
        return arrays

    def test_parameters_hold_every_leaf_array_once(self, trained):
        name, network, _ = trained
        params = network.parameters()
        leaves = self._leaf_arrays(network)
        assert set(params) == set(leaves)
        assert all(params[key] is leaves[key] for key in leaves)
        assert len({id(value) for value in params.values()}) == len(params)
        assert network.num_parameters() == COMPOSITE_PARAMETER_COUNTS[name]

    def test_zero_gradients_zeroes_every_leaf_gradient(self, trained):
        _, network, _ = trained
        grads = self._leaf_arrays(network, "_grad")
        assert any(np.any(grad) for grad in grads.values())
        network.zero_gradients()
        assert all(not np.any(grad) for grad in grads.values())

    def test_every_parameter_with_a_gradient_moves(self, trained):
        name, network, before = trained
        grads = self._leaf_arrays(network, "_grad")
        params = network.parameters()
        moved = [key for key in params if np.any(grads[key])]
        # The composite backward passes all reach their first GEMM.
        first = {"resnet18": "stage0_block0.conv1", "spikformer": "patch_embed.proj",
                 "spikebert": "embedding"}[name]
        assert f"{first}.weight" in moved
        for key in moved:
            assert not np.array_equal(params[key], before[key]), key
