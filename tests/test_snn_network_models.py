"""Tests for the network container, attention blocks and the model zoo."""

import numpy as np
import pytest

from repro.snn.attention import SpikingSelfAttention, SpikingTransformerBlock
from repro.snn.encoding import direct_encode, event_stream_encode, latency_encode, rate_encode
from repro.snn.layers import LIFLayer, Linear
from repro.snn.models import (
    PAPER_WORKLOADS,
    available_models,
    build_model,
    build_spikformer,
    build_spiking_resnet,
    build_spiking_vgg,
)
from repro.snn.network import SpikingNetwork


class TestEncoding:
    def test_rate_encode_binary_and_rate(self, rng):
        data = np.full((4, 4), 0.5)
        spikes = rate_encode(data, 200, rng=rng)
        assert set(np.unique(spikes)) <= {0.0, 1.0}
        assert spikes.mean() == pytest.approx(0.5, abs=0.05)

    def test_rate_encode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rate_encode(np.array([1.5]), 4)

    def test_latency_encode_single_spike(self):
        spikes = latency_encode(np.array([0.9, 0.1, 0.0]), 8)
        assert spikes.sum(axis=0)[0] == 1
        assert spikes.sum(axis=0)[2] == 0
        # Brighter values fire earlier.
        assert np.argmax(spikes[:, 0]) <= np.argmax(spikes[:, 1])

    def test_direct_encode_repeats(self):
        data = np.array([1.0, 2.0])
        spikes = direct_encode(data, 3)
        assert spikes.shape == (3, 2)
        assert np.all(spikes == data)

    def test_event_stream_rebinning(self):
        events = np.zeros((8, 2, 2))
        events[0, 0, 0] = 1
        events[7, 1, 1] = 1
        binned = event_stream_encode(events, 2)
        assert binned.shape == (2, 2, 2)
        assert binned[0, 0, 0] == 1
        assert binned[1, 1, 1] == 1


class TestSpikingNetwork:
    @pytest.fixture
    def tiny_network(self, rng):
        layers = [
            Linear(12, 16, name="fc0", rng=rng),
            LIFLayer(name="lif0"),
            Linear(16, 4, name="fc1", rng=rng),
        ]
        return SpikingNetwork(layers, num_steps=3, name="tiny")

    def test_forward_shape(self, tiny_network, rng):
        logits = tiny_network.forward(rng.random((5, 12)))
        assert logits.shape == (5, 4)

    def test_predict_and_accuracy(self, tiny_network, rng):
        data = rng.random((6, 12))
        labels = np.zeros(6, dtype=int)
        accuracy = tiny_network.accuracy(data, labels)
        assert 0.0 <= accuracy <= 1.0

    def test_recording_captures_binary_inputs(self, tiny_network, rng):
        _, records = tiny_network.record_activations(rng.random((4, 12)))
        assert set(records) == {"fc0", "fc1"}
        # fc1 is fed by a LIF layer, so its recorded inputs are binary.
        assert records["fc1"].is_binary
        assert records["fc1"].stacked().shape == (4 * 3, 16)
        assert records["fc1"].output_width == 4

    def test_record_bit_density(self, tiny_network, rng):
        _, records = tiny_network.record_activations(rng.random((4, 12)))
        assert 0.0 <= records["fc1"].bit_density <= 1.0

    def test_firing_rates(self, tiny_network, rng):
        tiny_network.forward(rng.random((4, 12)))
        rates = tiny_network.firing_rates()
        assert "lif0" in rates
        assert 0.0 <= rates["lif0"] <= 1.0

    def test_pre_encoded_input(self, tiny_network, rng):
        train = rng.random((3, 4, 12))
        logits = tiny_network.forward(train, pre_encoded=True)
        assert logits.shape == (4, 4)

    def test_pre_encoded_wrong_steps(self, tiny_network, rng):
        with pytest.raises(ValueError):
            tiny_network.forward(rng.random((5, 4, 12)), pre_encoded=True)

    def test_requires_layers(self):
        with pytest.raises(ValueError):
            SpikingNetwork([], num_steps=2)

    def test_num_parameters(self, tiny_network):
        assert tiny_network.num_parameters() == 12 * 16 + 16 + 16 * 4 + 4


class TestAttention:
    def test_ssa_forward_shape(self, rng):
        attention = SpikingSelfAttention(16, num_heads=2, rng=rng)
        out = attention.forward((rng.random((2, 5, 16)) < 0.3).astype(float))
        assert out.shape == (2, 5, 16)
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_ssa_backward_shape(self, rng):
        attention = SpikingSelfAttention(16, num_heads=2, rng=rng)
        x = (rng.random((2, 5, 16)) < 0.3).astype(float)
        out = attention.forward(x)
        grad = attention.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_ssa_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            SpikingSelfAttention(10, num_heads=3)

    def test_transformer_block(self, rng):
        block = SpikingTransformerBlock(16, num_heads=2, rng=rng)
        x = (rng.random((2, 4, 16)) < 0.3).astype(float)
        out = block.forward(x)
        assert out.shape == x.shape
        # q, k, v, out, fc1, fc2
        assert len(SpikingNetwork([block]).matmul_layers()) == 6
        grad = block.backward(np.ones_like(out))
        assert grad.shape == x.shape


class TestModelZoo:
    def test_available_models(self):
        assert set(available_models()) == {
            "vgg16",
            "resnet18",
            "spikformer",
            "sdt",
            "spikebert",
            "spikingbert",
            "spikingrnn",
        }

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            build_model("alexnet")

    def test_paper_workloads_cover_all_models(self):
        # Every paper workload has a zoo model; the zoo additionally holds
        # the temporal-extension model, which the paper does not evaluate.
        paper_models = {spec.model_name for spec in PAPER_WORKLOADS}
        assert paper_models <= set(available_models())
        assert set(available_models()) - paper_models == {"spikingrnn"}

    def test_vgg_forward(self, rng):
        network = build_spiking_vgg(num_classes=5, image_size=8, channels=(4, 8))
        logits = network.forward(rng.random((2, 3, 8, 8)))
        assert logits.shape == (2, 5)

    def test_resnet_forward(self, rng):
        network = build_spiking_resnet(
            num_classes=4, image_size=8, channels=(4, 8), blocks_per_stage=1
        )
        logits = network.forward(rng.random((2, 3, 8, 8)))
        assert logits.shape == (2, 4)

    def test_spikformer_forward(self, rng):
        network = build_spikformer(num_classes=3, image_size=8, embed_dim=16, depth=1, patch_size=4)
        logits = network.forward(rng.random((2, 3, 8, 8)))
        assert logits.shape == (2, 3)

    def test_text_model_forward(self, rng):
        network = build_model("spikebert", num_classes=2, vocab_size=50, seq_len=6,
                              embed_dim=16, depth=1)
        tokens = rng.integers(0, 50, size=(3, 6))
        logits = network.forward(tokens)
        assert logits.shape == (3, 2)

    def test_vgg_threshold_controls_density(self, rng):
        data = rng.random((2, 3, 8, 8))
        low = build_spiking_vgg(image_size=8, channels=(4,), threshold=0.5, seed=0)
        high = build_spiking_vgg(image_size=8, channels=(4,), threshold=2.5, seed=0)
        low.forward(data)
        high.forward(data)
        low_rate = np.mean(list(low.firing_rates().values()))
        high_rate = np.mean(list(high.firing_rates().values()))
        assert high_rate <= low_rate
