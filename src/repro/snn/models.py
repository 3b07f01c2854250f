"""Model zoo: scaled-down spiking versions of the paper's workloads.

The paper evaluates Phi on spiking CNNs (VGG16, ResNet18) and spiking
transformers (Spikformer, Spike-driven Transformer, SpikeBERT,
SpikingBERT).  Training the full-size models is outside the scope of a
CPU-only reproduction, so each builder constructs a *scaled* network with
the same layer types, connectivity pattern and firing behaviour; the
resulting per-layer binary activation matrices exercise exactly the same
Phi pipeline (calibration, decomposition, accelerator simulation).

Every builder accepts ``scale`` hooks (channels, depth, embed dim) so the
benchmarks can trade fidelity for runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import SpikingTransformerBlock
from .layers import (
    AvgPool2d,
    BatchNorm,
    Conv2d,
    Flatten,
    Layer,
    LIFLayer,
    Linear,
    MaxPool2d,
)
from .network import SpikingNetwork
from .recurrent import RecurrentSpikingCell
from .surrogate import ArctanSurrogate


@dataclass(frozen=True)
class ModelSpec:
    """Description of a model/dataset pairing used in the evaluation."""

    model_name: str
    dataset_name: str
    input_kind: str  # "image", "event", "text", or "sequence"


#: The model/dataset pairs evaluated in Fig. 8 and Table 4 of the paper.
PAPER_WORKLOADS: tuple[ModelSpec, ...] = (
    ModelSpec("vgg16", "cifar10", "image"),
    ModelSpec("vgg16", "cifar100", "image"),
    ModelSpec("resnet18", "cifar10", "image"),
    ModelSpec("resnet18", "cifar100", "image"),
    ModelSpec("spikformer", "cifar10dvs", "event"),
    ModelSpec("spikformer", "cifar100", "image"),
    ModelSpec("sdt", "cifar10dvs", "event"),
    ModelSpec("sdt", "cifar100", "image"),
    ModelSpec("spikebert", "sst2", "text"),
    ModelSpec("spikebert", "sst5", "text"),
    ModelSpec("spikingbert", "sst2", "text"),
    ModelSpec("spikingbert", "mnli", "text"),
)


class Embedding(Layer):
    """Token-embedding lookup for the text (BERT-style) models."""

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int,
        *,
        name: str = "embedding",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name)
        if vocab_size < 1 or embed_dim < 1:
            raise ValueError("vocab_size and embed_dim must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.weight = rng.normal(0.0, 0.5, size=(vocab_size, embed_dim))
        self.weight_grad = np.zeros_like(self.weight)
        self._last_tokens: np.ndarray | None = None

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens)
        if not np.issubdtype(tokens.dtype, np.integer):
            tokens = tokens.astype(np.int64)
        self._last_tokens = tokens
        return self.weight[tokens]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_tokens is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        np.add.at(self.weight_grad, self._last_tokens.reshape(-1),
                  grad_output.reshape(-1, grad_output.shape[-1]))
        return np.zeros(self._last_tokens.shape, dtype=np.float64)

    def parameters(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight}

    def gradients(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight_grad}

    def zero_gradients(self) -> None:
        self.weight_grad[...] = 0.0


class SequencePool(Layer):
    """Mean-pool a ``(B, T_tok, D)`` sequence over the token dimension."""

    def __init__(self, *, name: str = "seq_pool") -> None:
        super().__init__(name)
        self._last_tokens: int | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._last_tokens = x.shape[1]
        return x.mean(axis=1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_tokens is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad_output, dtype=np.float64)
        return np.repeat(grad[:, None, :], self._last_tokens, axis=1) / self._last_tokens


class PatchEmbedding(Layer):
    """Convolutional patch embedding producing spiking token sequences."""

    def __init__(
        self,
        in_channels: int,
        embed_dim: int,
        patch_size: int,
        image_size: int,
        *,
        name: str = "patch_embed",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name)
        if image_size % patch_size:
            raise ValueError("image_size must be divisible by patch_size")
        rng = rng or np.random.default_rng(0)
        self.conv = Conv2d(
            in_channels,
            embed_dim,
            patch_size,
            stride=patch_size,
            padding=0,
            name=f"{name}.proj",
            rng=rng,
        )
        self.bn = BatchNorm(embed_dim, name=f"{name}.bn")
        self.lif = LIFLayer(name=f"{name}.lif", surrogate=ArctanSurrogate())
        self.num_tokens = (image_size // patch_size) ** 2
        self.embed_dim = embed_dim

    def children(self) -> list[Layer]:
        return [self.conv, self.bn, self.lif]

    def forward(self, x: np.ndarray) -> np.ndarray:
        feature = self.lif.forward(self.bn.forward(self.conv.forward(x)))
        batch, channels, height, width = feature.shape
        return feature.reshape(batch, channels, height * width).transpose(0, 2, 1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad_output, dtype=np.float64)
        batch, tokens, channels = grad.shape
        side = int(np.sqrt(tokens))
        grad_feature = grad.transpose(0, 2, 1).reshape(batch, channels, side, side)
        return self.conv.backward(self.bn.backward(self.lif.backward(grad_feature)))


class SpikingResidualBlock(Layer):
    """Basic spiking ResNet block: two 3x3 convolutions with a shortcut."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        *,
        stride: int = 1,
        threshold: float = 1.0,
        name: str = "resblock",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        self.conv1 = Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1,
            name=f"{name}.conv1", rng=rng,
        )
        self.bn1 = BatchNorm(out_channels, name=f"{name}.bn1")
        self.lif1 = LIFLayer(name=f"{name}.lif1", threshold=threshold)
        self.conv2 = Conv2d(
            out_channels, out_channels, 3, stride=1, padding=1,
            name=f"{name}.conv2", rng=rng,
        )
        self.bn2 = BatchNorm(out_channels, name=f"{name}.bn2")
        self.lif2 = LIFLayer(name=f"{name}.lif2", threshold=threshold)
        self.downsample: Conv2d | None = None
        if stride != 1 or in_channels != out_channels:
            self.downsample = Conv2d(
                in_channels, out_channels, 1, stride=stride, padding=0,
                name=f"{name}.down", rng=rng,
            )
        self._last_input: np.ndarray | None = None

    def children(self) -> list[Layer]:
        layers: list[Layer] = [self.conv1, self.bn1, self.lif1, self.conv2, self.bn2, self.lif2]
        if self.downsample is not None:
            layers.append(self.downsample)
        return layers

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._last_input = np.asarray(x, dtype=np.float64)
        out = self.lif1.forward(self.bn1.forward(self.conv1.forward(x)))
        out = self.bn2.forward(self.conv2.forward(out))
        shortcut = x if self.downsample is None else self.downsample.forward(x)
        return self.lif2.forward(out + shortcut)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.lif2.backward(np.asarray(grad_output, dtype=np.float64))
        grad_main = self.conv2.backward(self.bn2.backward(grad))
        grad_main = self.conv1.backward(self.bn1.backward(self.lif1.backward(grad_main)))
        grad_short = grad if self.downsample is None else self.downsample.backward(grad)
        return grad_main + grad_short


# --------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------- #
def build_spiking_vgg(
    *,
    num_classes: int = 10,
    in_channels: int = 3,
    image_size: int = 16,
    channels: tuple[int, ...] = (16, 32, 64),
    num_steps: int = 4,
    seed: int = 0,
    threshold: float = 1.4,
    name: str = "vgg16",
) -> SpikingNetwork:
    """Build a scaled spiking VGG: conv/BN/LIF blocks separated by pooling.

    ``threshold`` sets the LIF firing threshold of the hidden layers; the
    default keeps the average activation bit density near the ~10 % the
    paper reports for spiking CNNs.
    """
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    current_channels = in_channels
    current_size = image_size
    for stage, width in enumerate(channels):
        layers.append(
            Conv2d(current_channels, width, 3, padding=1, name=f"conv{stage}a", rng=rng)
        )
        layers.append(BatchNorm(width, name=f"bn{stage}a"))
        layers.append(LIFLayer(name=f"lif{stage}a", threshold=threshold))
        layers.append(Conv2d(width, width, 3, padding=1, name=f"conv{stage}b", rng=rng))
        layers.append(BatchNorm(width, name=f"bn{stage}b"))
        layers.append(LIFLayer(name=f"lif{stage}b", threshold=threshold))
        # Max pooling keeps activations binary, so the next convolution's
        # GEMM input remains a spike matrix Phi can decompose.
        layers.append(MaxPool2d(2, name=f"pool{stage}"))
        current_channels = width
        current_size //= 2
    layers.append(Flatten(name="flatten"))
    feature_dim = current_channels * current_size * current_size
    layers.append(Linear(feature_dim, 128, name="fc1", rng=rng))
    layers.append(LIFLayer(name="fc1_lif", threshold=threshold))
    layers.append(Linear(128, num_classes, name="classifier", rng=rng))
    return SpikingNetwork(layers, num_steps=num_steps, name=name)


def build_spiking_resnet(
    *,
    num_classes: int = 10,
    in_channels: int = 3,
    image_size: int = 16,
    channels: tuple[int, ...] = (16, 32),
    blocks_per_stage: int = 2,
    num_steps: int = 4,
    seed: int = 0,
    threshold: float = 1.4,
    name: str = "resnet18",
) -> SpikingNetwork:
    """Build a scaled spiking ResNet with basic residual blocks.

    ``threshold`` sets the LIF firing threshold (see
    :func:`build_spiking_vgg`).
    """
    rng = np.random.default_rng(seed)
    layers: list[Layer] = [
        Conv2d(in_channels, channels[0], 3, padding=1, name="stem_conv", rng=rng),
        BatchNorm(channels[0], name="stem_bn"),
        LIFLayer(name="stem_lif", threshold=threshold),
    ]
    current_channels = channels[0]
    current_size = image_size
    for stage, width in enumerate(channels):
        for block in range(blocks_per_stage):
            stride = 2 if (block == 0 and stage > 0) else 1
            layers.append(
                SpikingResidualBlock(
                    current_channels,
                    width,
                    stride=stride,
                    threshold=threshold,
                    name=f"stage{stage}_block{block}",
                    rng=rng,
                )
            )
            current_channels = width
            if stride == 2:
                current_size //= 2
    layers.append(AvgPool2d(current_size, name="global_pool"))
    layers.append(Flatten(name="flatten"))
    layers.append(Linear(current_channels, num_classes, name="classifier", rng=rng))
    return SpikingNetwork(layers, num_steps=num_steps, name=name)


def build_spikformer(
    *,
    num_classes: int = 10,
    in_channels: int = 3,
    image_size: int = 16,
    embed_dim: int = 32,
    depth: int = 2,
    num_heads: int = 2,
    patch_size: int = 4,
    num_steps: int = 4,
    seed: int = 0,
    name: str = "spikformer",
) -> SpikingNetwork:
    """Build a scaled Spikformer: patch embedding + SSA encoder blocks."""
    rng = np.random.default_rng(seed)
    layers: list[Layer] = [
        PatchEmbedding(in_channels, embed_dim, patch_size, image_size,
                       name="patch_embed", rng=rng),
    ]
    for i in range(depth):
        layers.append(
            SpikingTransformerBlock(embed_dim, num_heads, name=f"block{i}", rng=rng)
        )
    layers.append(SequencePool(name="pool"))
    layers.append(Linear(embed_dim, num_classes, name="classifier", rng=rng))
    return SpikingNetwork(layers, num_steps=num_steps, name=name)


def build_sdt(
    *,
    num_classes: int = 10,
    in_channels: int = 3,
    image_size: int = 16,
    embed_dim: int = 48,
    depth: int = 2,
    num_heads: int = 4,
    patch_size: int = 4,
    num_steps: int = 4,
    seed: int = 1,
    name: str = "sdt",
) -> SpikingNetwork:
    """Build a scaled Spike-driven Transformer (SDT).

    SDT shares Spikformer's macro-architecture but uses a wider embedding,
    more heads and a leaner MLP ratio; at simulator granularity those are
    the properties that shape its activation matrices.
    """
    rng = np.random.default_rng(seed)
    layers: list[Layer] = [
        PatchEmbedding(in_channels, embed_dim, patch_size, image_size,
                       name="patch_embed", rng=rng),
    ]
    for i in range(depth):
        layers.append(
            SpikingTransformerBlock(
                embed_dim, num_heads, mlp_ratio=1.5, name=f"block{i}", rng=rng
            )
        )
    layers.append(SequencePool(name="pool"))
    layers.append(Linear(embed_dim, num_classes, name="classifier", rng=rng))
    return SpikingNetwork(layers, num_steps=num_steps, name=name)


def _build_text_transformer(
    *,
    num_classes: int,
    vocab_size: int,
    seq_len: int,
    embed_dim: int,
    depth: int,
    num_heads: int,
    num_steps: int,
    seed: int,
    name: str,
) -> SpikingNetwork:
    rng = np.random.default_rng(seed)
    layers: list[Layer] = [
        Embedding(vocab_size, embed_dim, name="embedding", rng=rng),
        LIFLayer(name="embed_lif"),
    ]
    for i in range(depth):
        layers.append(
            SpikingTransformerBlock(embed_dim, num_heads, name=f"block{i}", rng=rng)
        )
    layers.append(SequencePool(name="pool"))
    layers.append(Linear(embed_dim, num_classes, name="classifier", rng=rng))
    network = SpikingNetwork(layers, num_steps=num_steps, name=name)
    network.seq_len = seq_len  # informational; used by workload generators
    return network


def build_spikebert(
    *,
    num_classes: int = 2,
    vocab_size: int = 256,
    seq_len: int = 16,
    embed_dim: int = 32,
    depth: int = 2,
    num_heads: int = 2,
    num_steps: int = 4,
    seed: int = 2,
    name: str = "spikebert",
) -> SpikingNetwork:
    """Build a scaled SpikeBERT text classifier."""
    return _build_text_transformer(
        num_classes=num_classes, vocab_size=vocab_size, seq_len=seq_len,
        embed_dim=embed_dim, depth=depth, num_heads=num_heads,
        num_steps=num_steps, seed=seed, name=name,
    )


def build_spikingbert(
    *,
    num_classes: int = 2,
    vocab_size: int = 256,
    seq_len: int = 16,
    embed_dim: int = 48,
    depth: int = 3,
    num_heads: int = 4,
    num_steps: int = 4,
    seed: int = 3,
    name: str = "spikingbert",
) -> SpikingNetwork:
    """Build a scaled SpikingBERT text classifier (deeper/wider than SpikeBERT)."""
    return _build_text_transformer(
        num_classes=num_classes, vocab_size=vocab_size, seq_len=seq_len,
        embed_dim=embed_dim, depth=depth, num_heads=num_heads,
        num_steps=num_steps, seed=seed, name=name,
    )


def build_spiking_rnn(
    *,
    num_classes: int = 10,
    num_features: int = 32,
    hidden_sizes: tuple[int, ...] = (64, 48),
    num_steps: int = 4,
    seed: int = 4,
    threshold: float = 1.0,
    name: str = "spikingrnn",
) -> SpikingNetwork:
    """Build a small recurrent SNN (speech-commands-shaped SpikingRNN).

    A stack of :class:`~repro.snn.recurrent.RecurrentSpikingCell` layers
    over binary feature frames, closed by a linear readout.  Unlike the
    feed-forward zoo models, every hidden layer carries leaky state *and*
    a recurrent spike GEMM across time steps, so its per-timestep
    activation matrices exhibit the temporal sparsity structure the
    ``temporal`` experiment sweeps.
    """
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    width = num_features
    for index, hidden in enumerate(hidden_sizes):
        layers.append(
            RecurrentSpikingCell(
                width, hidden, threshold=threshold, name=f"rnn{index}", rng=rng
            )
        )
        width = hidden
    layers.append(Linear(width, num_classes, name="classifier", rng=rng))
    return SpikingNetwork(layers, num_steps=num_steps, name=name)


_BUILDERS = {
    "vgg16": build_spiking_vgg,
    "resnet18": build_spiking_resnet,
    "spikformer": build_spikformer,
    "sdt": build_sdt,
    "spikebert": build_spikebert,
    "spikingbert": build_spikingbert,
    "spikingrnn": build_spiking_rnn,
}


def build_model(model_name: str, **kwargs) -> SpikingNetwork:
    """Build a model from the zoo by name."""
    try:
        builder = _BUILDERS[model_name]
    except KeyError:
        raise ValueError(
            f"unknown model {model_name!r}; available: {sorted(_BUILDERS)}"
        ) from None
    return builder(**kwargs)


def available_models() -> list[str]:
    """Names of all models in the zoo."""
    return sorted(_BUILDERS)
