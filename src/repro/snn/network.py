"""Sequential spiking-network container with activation recording.

:class:`SpikingNetwork` chains layers, loops them over the temporal
dimension, and rate-decodes the output (summed logits over time steps).
Its most important feature for Phi is *activation recording*: every GEMM
layer's binary input matrix can be captured and handed to the calibration
stage or to the accelerator simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .layers import Layer, LIFLayer, MatmulLayer


def iter_layers(layers: Iterable[Layer]) -> list[Layer]:
    """Flatten a layer list, descending into composite layers."""
    flat: list[Layer] = []
    for layer in layers:
        flat.append(layer)
        flat.extend(iter_layers(layer.children()))
    return flat


@dataclass
class ActivationRecord:
    """Recorded GEMM inputs of one layer, stacked over time steps/samples.

    Attributes
    ----------
    layer_name:
        Name of the recorded :class:`MatmulLayer`.
    matrices:
        List of per-step ``(M, K)`` input matrices.
    output_width:
        The GEMM N dimension (needed by the PAFT regulariser).
    """

    layer_name: str
    matrices: list[np.ndarray] = field(default_factory=list)
    output_width: int = 0

    def stacked(self) -> np.ndarray:
        """All recorded rows stacked into a single ``(sum M, K)`` matrix."""
        if not self.matrices:
            raise ValueError(f"no activations recorded for {self.layer_name!r}")
        return np.vstack(self.matrices)

    @property
    def is_binary(self) -> bool:
        """True when every recorded matrix contains only 0/1 values."""
        return all(
            np.all(np.isin(np.unique(m), (0.0, 1.0))) for m in self.matrices
        )

    @property
    def bit_density(self) -> float:
        """Fraction of nonzero entries across all recorded matrices."""
        total = sum(m.size for m in self.matrices)
        if total == 0:
            return 0.0
        nonzero = sum(int(np.count_nonzero(m)) for m in self.matrices)
        return nonzero / total


class SpikingNetwork:
    """A feed-forward SNN evaluated over ``num_steps`` time steps.

    Parameters
    ----------
    layers:
        The layer sequence; composite layers (transformer blocks) are
        traversed recursively when collecting GEMM layers.
    num_steps:
        Number of simulation time steps ``T``.
    name:
        Network identifier (used in experiment reports).
    encode_fn:
        Optional callable mapping an input batch to a ``(T, ...)`` spike /
        current train.  When omitted the input is repeated at every step
        (direct coding); inputs that already carry a leading time dimension
        of length ``num_steps`` are used as-is.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        *,
        num_steps: int = 4,
        name: str = "snn",
        encode_fn=None,
    ) -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        if num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        self.layers = list(layers)
        self.num_steps = num_steps
        self.name = name
        self.encode_fn = encode_fn
        self._recording = False
        self._records: dict[str, ActivationRecord] = {}

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    def all_layers(self) -> list[Layer]:
        """Every layer including those nested inside composite blocks."""
        return iter_layers(self.layers)

    def matmul_layers(self) -> list[MatmulLayer]:
        """All GEMM layers in execution order."""
        return [l for l in self.all_layers() if isinstance(l, MatmulLayer)]

    def lif_layers(self) -> list[LIFLayer]:
        """All spiking layers in execution order."""
        return [l for l in self.all_layers() if isinstance(l, LIFLayer)]

    def parameters(self) -> dict[str, np.ndarray]:
        """All trainable parameters keyed by ``layer_name.param_name``."""
        return {
            f"{layer.name}.{key}": value
            for layer in self.all_layers()
            for key, value in layer.parameters().items()
        }

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(int(np.prod(v.shape)) for v in self.parameters().values())

    # ------------------------------------------------------------------ #
    # State management
    # ------------------------------------------------------------------ #
    def reset_state(self) -> None:
        """Reset membranes (call before every new input batch)."""
        for layer in self.layers:
            layer.reset_state()

    def zero_gradients(self) -> None:
        """Clear accumulated parameter gradients."""
        for layer in self.all_layers():
            layer.zero_gradients()

    def set_training(self, training: bool) -> None:
        """Toggle training mode on layers that distinguish it (BatchNorm)."""
        for layer in self.all_layers():
            if hasattr(layer, "training"):
                layer.training = training

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def start_recording(self) -> None:
        """Begin capturing GEMM input matrices on subsequent forwards."""
        self._recording = True
        self._records = {
            layer.name: ActivationRecord(layer_name=layer.name)
            for layer in self.matmul_layers()
        }

    def stop_recording(self) -> dict[str, ActivationRecord]:
        """Stop capturing and return the records gathered so far."""
        self._recording = False
        return self._records

    def _capture(self) -> None:
        for layer in self.matmul_layers():
            record = self._records[layer.name]
            record.matrices.append(layer.input_matrix().copy())
            record.output_width = layer.output_width

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def _encode(self, x: np.ndarray, pre_encoded: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if pre_encoded:
            if x.shape[0] != self.num_steps:
                raise ValueError(
                    f"pre-encoded input must have leading dimension {self.num_steps}, "
                    f"got {x.shape[0]}"
                )
            return x
        if self.encode_fn is not None:
            return np.asarray(self.encode_fn(x), dtype=np.float64)
        return np.repeat(x[None], self.num_steps, axis=0)

    def step_forward(self, x_t: np.ndarray) -> np.ndarray:
        """Run a single time step through all layers."""
        out = x_t
        for layer in self.layers:
            out = layer.forward(out)
        if self._recording:
            self._capture()
        return out

    def step_backward(
        self, grad_output: np.ndarray, paft_gradients: dict[str, np.ndarray] | None = None
    ) -> np.ndarray:
        """Backpropagate through the most recent :meth:`step_forward`.

        Parameters
        ----------
        grad_output:
            Gradient of the loss with respect to the step's output.
        paft_gradients:
            Optional mapping from GEMM layer name to a gradient on that
            layer's *input matrix* (the PAFT alignment pressure); it is
            projected back onto the layer input and added to the flowing
            gradient.
        """
        paft_gradients = paft_gradients or {}
        grad = np.asarray(grad_output, dtype=np.float64)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
            if isinstance(layer, MatmulLayer) and layer.name in paft_gradients:
                grad = grad + layer.project_input_matrix_gradient(
                    paft_gradients[layer.name]
                )
        return grad

    def forward(self, x: np.ndarray, *, pre_encoded: bool = False) -> np.ndarray:
        """Full temporal forward pass; returns summed (rate-decoded) logits.

        Parameters
        ----------
        x:
            Input batch, or a pre-encoded ``(T, batch, ...)`` spike train
            when ``pre_encoded=True`` (used for event-stream data).
        """
        train = self._encode(x, pre_encoded=pre_encoded)
        self.reset_state()
        logits = None
        for t in range(self.num_steps):
            out = self.step_forward(train[t])
            logits = out if logits is None else logits + out
        return logits / self.num_steps

    def record_activations(
        self, x: np.ndarray, *, pre_encoded: bool = False
    ) -> tuple[np.ndarray, dict[str, ActivationRecord]]:
        """Forward pass that also captures every GEMM layer's inputs."""
        self.start_recording()
        logits = self.forward(x, pre_encoded=pre_encoded)
        return logits, self.stop_recording()

    def predict(self, x: np.ndarray, *, pre_encoded: bool = False) -> np.ndarray:
        """Class predictions (argmax of rate-decoded logits)."""
        return np.argmax(self.forward(x, pre_encoded=pre_encoded), axis=-1)

    def accuracy(
        self, x: np.ndarray, labels: np.ndarray, *, pre_encoded: bool = False
    ) -> float:
        """Classification accuracy on a batch."""
        predictions = self.predict(x, pre_encoded=pre_encoded)
        labels = np.asarray(labels)
        return float(np.mean(predictions == labels))

    def firing_rates(self) -> dict[str, float]:
        """Average firing rate per spiking layer since the last reset."""
        return {l.name: l.record.firing_rate for l in self.lif_layers()}
