"""Spiking network layers implemented on NumPy.

Each layer processes one time step at a time (the network container loops
over the temporal dimension) and supports a backward pass so the training
loop and PAFT fine-tuning can update weights with surrogate gradients.

Layers that perform a matrix multiplication (``Linear`` and ``Conv2d``)
additionally expose their computation in GEMM form — ``input_matrix()`` of
shape ``(M, K)`` and ``weight_matrix()`` of shape ``(K, N)`` — which is the
representation the Phi calibration, sparsity decomposition and accelerator
simulator operate on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .neurons import LIFNeuron
from .surrogate import SigmoidSurrogate, SurrogateFn


class Layer(ABC):
    """Base class of all spiking-network layers."""

    def __init__(self, name: str) -> None:
        self.name = name

    @abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Process one time step of input and return the output tensor."""

    @abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate through the most recent forward call."""

    def children(self) -> list["Layer"]:
        """Sub-layers of a composite layer (empty for a leaf)."""
        return []

    def reset_state(self) -> None:
        """Clear any temporal state (membranes, caches) between samples."""
        for child in self.children():
            child.reset_state()

    def parameters(self) -> dict[str, np.ndarray]:
        """Trainable parameters owned by this layer (not its children)."""
        return {}

    def gradients(self) -> dict[str, np.ndarray]:
        """Accumulated gradients matching :meth:`parameters`."""
        return {}

    def zero_gradients(self) -> None:
        """Reset this layer's accumulated gradients to zero."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class MatmulLayer(Layer):
    """Base class of layers whose core computation is a GEMM.

    Subclasses must populate ``self._last_input_matrix`` during forward so
    that the Phi pipeline can retrieve the activation matrix.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._last_input_matrix: np.ndarray | None = None

    def input_matrix(self) -> np.ndarray:
        """The most recent input in GEMM form, shape ``(M, K)``."""
        if self._last_input_matrix is None:
            raise RuntimeError(f"layer {self.name!r} has not run forward yet")
        return self._last_input_matrix

    @abstractmethod
    def weight_matrix(self) -> np.ndarray:
        """The layer weights in GEMM form, shape ``(K, N)``."""

    @abstractmethod
    def project_input_matrix_gradient(self, grad_matrix: np.ndarray) -> np.ndarray:
        """Map a gradient on :meth:`input_matrix` back to the input tensor.

        Used by PAFT to inject the pattern-alignment gradient, which is
        naturally expressed on the GEMM-form activation matrix, into the
        ordinary backward pass of the network.
        """

    @property
    def output_width(self) -> int:
        """The N dimension of the GEMM (used by the PAFT regulariser)."""
        return int(self.weight_matrix().shape[1])


class Linear(MatmulLayer):
    """Fully connected layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input (K) and output (N) widths.
    bias:
        Whether to add a learnable bias.
    rng:
        Generator for Kaiming-style weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        name: str = "linear",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name)
        if in_features < 1 or out_features < 1:
            raise ValueError("in_features and out_features must be >= 1")
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.weight = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features) if bias else None
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros(out_features) if bias else None
        self._last_input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        self._last_input = x
        self._last_input_matrix = x
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_input is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.weight_grad += self._last_input.T @ grad_output
        if self.bias is not None:
            self.bias_grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.T

    def weight_matrix(self) -> np.ndarray:
        return self.weight

    def project_input_matrix_gradient(self, grad_matrix: np.ndarray) -> np.ndarray:
        return np.asarray(grad_matrix, dtype=np.float64)

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"weight": self.weight}
        if self.bias is not None:
            params["bias"] = self.bias
        return params

    def gradients(self) -> dict[str, np.ndarray]:
        grads = {"weight": self.weight_grad}
        if self.bias is not None:
            grads["bias"] = self.bias_grad
        return grads

    def zero_gradients(self) -> None:
        self.weight_grad[...] = 0.0
        if self.bias_grad is not None:
            self.bias_grad[...] = 0.0


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``(B, C, H, W)`` input into ``(B * OH * OW, C * k * k)`` columns."""
    x = np.asarray(x, dtype=np.float64)
    batch, channels, height, width = x.shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError("kernel/stride/padding produce empty output")
    padded = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    cols = np.zeros((batch, channels, kernel, kernel, out_h, out_w))
    for i in range(kernel):
        i_end = i + stride * out_h
        for j in range(kernel):
            j_end = j + stride * out_w
            cols[:, :, i, j, :, :] = padded[:, :, i:i_end:stride, j:j_end:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kernel * kernel
    )
    return cols, out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold column gradients back to the ``(B, C, H, W)`` input shape."""
    batch, channels, height, width = input_shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    cols = cols.reshape(batch, out_h, out_w, channels, kernel, kernel).transpose(
        0, 3, 4, 5, 1, 2
    )
    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
    for i in range(kernel):
        i_end = i + stride * out_h
        for j in range(kernel):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


class Conv2d(MatmulLayer):
    """2-D convolution implemented as an im2col GEMM.

    The GEMM view matches what a spatial accelerator sees: the activation
    matrix has one row per output pixel (``M = B * OH * OW``) and one
    column per receptive-field element (``K = C_in * k * k``).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 1,
        bias: bool = True,
        name: str = "conv",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name)
        if min(in_channels, out_channels, kernel_size, stride) < 1 or padding < 0:
            raise ValueError("invalid convolution geometry")
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = rng.normal(0.0, scale, size=(fan_in, out_channels))
        self.bias = np.zeros(out_channels) if bias else None
        self.weight_grad = np.zeros_like(self.weight)
        self.bias_grad = np.zeros(out_channels) if bias else None
        self._last_cols: np.ndarray | None = None
        self._last_input_shape: tuple[int, int, int, int] | None = None
        self._last_out_hw: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError(f"Conv2d expects (B, C, H, W) input, got {x.shape}")
        cols, out_h, out_w = im2col(x, self.kernel_size, self.stride, self.padding)
        self._last_cols = cols
        self._last_input_matrix = cols
        self._last_input_shape = x.shape
        self._last_out_hw = (out_h, out_w)
        out = cols @ self.weight
        if self.bias is not None:
            out = out + self.bias
        batch = x.shape[0]
        return out.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_cols is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch, _, out_h, out_w = grad_output.shape
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        self.weight_grad += self._last_cols.T @ grad_flat
        if self.bias is not None:
            self.bias_grad += grad_flat.sum(axis=0)
        grad_cols = grad_flat @ self.weight.T
        return col2im(
            grad_cols,
            self._last_input_shape,
            self.kernel_size,
            self.stride,
            self.padding,
        )

    def weight_matrix(self) -> np.ndarray:
        return self.weight

    def project_input_matrix_gradient(self, grad_matrix: np.ndarray) -> np.ndarray:
        if self._last_input_shape is None:
            raise RuntimeError("project_input_matrix_gradient called before forward")
        return col2im(
            np.asarray(grad_matrix, dtype=np.float64),
            self._last_input_shape,
            self.kernel_size,
            self.stride,
            self.padding,
        )

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"weight": self.weight}
        if self.bias is not None:
            params["bias"] = self.bias
        return params

    def gradients(self) -> dict[str, np.ndarray]:
        grads = {"weight": self.weight_grad}
        if self.bias is not None:
            grads["bias"] = self.bias_grad
        return grads

    def zero_gradients(self) -> None:
        self.weight_grad[...] = 0.0
        if self.bias_grad is not None:
            self.bias_grad[...] = 0.0


class AvgPool2d(Layer):
    """Average pooling over non-overlapping windows."""

    def __init__(self, kernel_size: int = 2, *, name: str = "avgpool") -> None:
        super().__init__(name)
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size
        self._last_input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        batch, channels, height, width = x.shape
        k = self.kernel_size
        if height % k or width % k:
            raise ValueError(
                f"input spatial size ({height}, {width}) not divisible by {k}"
            )
        self._last_input_shape = x.shape
        reshaped = x.reshape(batch, channels, height // k, k, width // k, k)
        return reshaped.mean(axis=(3, 5))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_input_shape is None:
            raise RuntimeError("backward called before forward")
        k = self.kernel_size
        grad = np.repeat(np.repeat(grad_output, k, axis=2), k, axis=3)
        return grad / (k * k)


class MaxPool2d(Layer):
    """Max pooling over non-overlapping windows."""

    def __init__(self, kernel_size: int = 2, *, name: str = "maxpool") -> None:
        super().__init__(name)
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size
        self._mask: np.ndarray | None = None
        self._last_input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        batch, channels, height, width = x.shape
        k = self.kernel_size
        if height % k or width % k:
            raise ValueError(
                f"input spatial size ({height}, {width}) not divisible by {k}"
            )
        self._last_input_shape = x.shape
        windows = x.reshape(batch, channels, height // k, k, width // k, k)
        out = windows.max(axis=(3, 5))
        self._mask = (windows == out[:, :, :, None, :, None]).astype(np.float64)
        # Break ties so gradients are not double counted.
        norm = self._mask.sum(axis=(3, 5), keepdims=True)
        self._mask /= np.maximum(norm, 1.0)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad = self._mask * grad_output[:, :, :, None, :, None]
        batch, channels, height, width = self._last_input_shape
        return grad.reshape(batch, channels, height, width)


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    def __init__(self, *, name: str = "flatten") -> None:
        super().__init__(name)
        self._last_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._last_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_shape is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad_output).reshape(self._last_shape)


class BatchNorm(Layer):
    """Per-feature normalisation with a learnable affine transform.

    Operates on the channel dimension of ``(B, C, H, W)`` tensors or on the
    feature dimension of ``(B, F)`` tensors.  Running statistics are kept
    so inference is deterministic.
    """

    def __init__(
        self, num_features: int, *, momentum: float = 0.1, eps: float = 1e-5, name: str = "bn"
    ) -> None:
        super().__init__(name)
        if num_features < 1:
            raise ValueError("num_features must be >= 1")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(num_features)
        self.beta = np.zeros(num_features)
        self.gamma_grad = np.zeros(num_features)
        self.beta_grad = np.zeros(num_features)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self.training = True
        self._cache: tuple | None = None

    def _reshape_params(self, x: np.ndarray, param: np.ndarray) -> np.ndarray:
        if x.ndim == 4:
            return param[None, :, None, None]
        return param[None, :]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        mean_b = self._reshape_params(x, mean)
        var_b = self._reshape_params(x, var)
        normalised = (x - mean_b) / np.sqrt(var_b + self.eps)
        self._cache = (normalised, var_b, axes, x.shape)
        return self._reshape_params(x, self.gamma) * normalised + self._reshape_params(
            x, self.beta
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        normalised, var_b, axes, shape = self._cache
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.gamma_grad += (grad_output * normalised).sum(axis=axes)
        self.beta_grad += grad_output.sum(axis=axes)
        count = np.prod([shape[a] for a in axes])
        gamma_b = self._reshape_params(grad_output, self.gamma)
        grad_norm = grad_output * gamma_b
        # Standard batch-norm backward.
        grad_input = (
            grad_norm
            - grad_norm.mean(axis=axes, keepdims=True)
            - normalised * (grad_norm * normalised).mean(axis=axes, keepdims=True)
        ) / np.sqrt(var_b + self.eps)
        _ = count
        return grad_input

    def parameters(self) -> dict[str, np.ndarray]:
        return {"gamma": self.gamma, "beta": self.beta}

    def gradients(self) -> dict[str, np.ndarray]:
        return {"gamma": self.gamma_grad, "beta": self.beta_grad}

    def zero_gradients(self) -> None:
        self.gamma_grad[...] = 0.0
        self.beta_grad[...] = 0.0


@dataclass
class SpikeRecord:
    """Spike statistics recorded by a :class:`LIFLayer` over a sample."""

    total_spikes: int = 0
    total_elements: int = 0

    @property
    def firing_rate(self) -> float:
        """Average firing probability over the recorded window."""
        if self.total_elements == 0:
            return 0.0
        return self.total_spikes / self.total_elements


class LIFLayer(Layer):
    """Layer wrapper around a :class:`LIFNeuron` producing binary spikes."""

    def __init__(
        self,
        *,
        threshold: float = 1.0,
        tau: float = 2.0,
        reset_mode: str = "hard",
        surrogate: SurrogateFn | None = None,
        name: str = "lif",
    ) -> None:
        super().__init__(name)
        self.neuron = LIFNeuron(
            threshold=threshold,
            tau=tau,
            reset_mode=reset_mode,
            surrogate=surrogate or SigmoidSurrogate(),
        )
        self.record = SpikeRecord()
        self._external_grad: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        spikes = self.neuron.step(x)
        self.record.total_spikes += int(spikes.sum())
        self.record.total_elements += int(spikes.size)
        return spikes

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad_output, dtype=np.float64)
        if self._external_grad is not None:
            grad = grad + self._external_grad
            self._external_grad = None
        return grad * self.neuron.surrogate_grad()

    def inject_gradient(self, grad: np.ndarray) -> None:
        """Add an external gradient on the spikes (used by PAFT)."""
        self._external_grad = np.asarray(grad, dtype=np.float64)

    def reset_state(self) -> None:
        self.neuron.reset_state()

    def reset_record(self) -> None:
        """Clear the spike-count statistics."""
        self.record = SpikeRecord()
