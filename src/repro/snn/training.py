"""Training and fine-tuning loops (plain SGD with surrogate gradients).

The trainer implements softmax cross-entropy on the rate-decoded logits of
a :class:`~repro.snn.network.SpikingNetwork`.  Gradients flow through the
spiking nonlinearity with surrogate derivatives; temporal credit
assignment uses the standard "per-step" simplification (membrane state is
treated as constant across steps), which is sufficient for the small
models of this reproduction and keeps memory bounded.

The same loop powers Pattern-Aware Fine-Tuning (PAFT): when a
:class:`~repro.core.calibration.ModelCalibration` and a ``lambda`` are
provided, the PAFT alignment gradient is injected at every GEMM layer
whose input is a binary spike matrix (Section 3.3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..core.calibration import ModelCalibration
from ..core.paft import PAFTConfig, paft_regularizer_gradient
from .network import SpikingNetwork


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy loss and its gradient with respect to the logits."""
    labels = np.asarray(labels, dtype=np.int64)
    probs = softmax(logits)
    batch = logits.shape[0]
    clipped = np.clip(probs[np.arange(batch), labels], 1e-12, None)
    loss = float(-np.log(clipped).mean())
    grad = probs.copy()
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad / batch


@dataclass
class TrainingHistory:
    """Per-epoch loss / accuracy curves produced by the trainer."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    regularizers: list[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        """Accuracy after the final epoch (0.0 when never evaluated)."""
        return self.accuracies[-1] if self.accuracies else 0.0


def iterate_minibatches(
    data: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    *,
    rng: np.random.Generator | None = None,
    shuffle: bool = True,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield shuffled mini-batches of (data, labels)."""
    data = np.asarray(data)
    labels = np.asarray(labels)
    if data.shape[0] != labels.shape[0]:
        raise ValueError("data and labels must have the same length")
    indices = np.arange(data.shape[0])
    if shuffle:
        (rng or np.random.default_rng(0)).shuffle(indices)
    for start in range(0, len(indices), batch_size):
        batch_idx = indices[start : start + batch_size]
        yield data[batch_idx], labels[batch_idx]


class SGDTrainer:
    """Mini-batch SGD trainer with optional PAFT regularisation.

    Parameters
    ----------
    network:
        The spiking network to train.
    learning_rate:
        SGD step size.
    momentum:
        Classical momentum coefficient (0 disables momentum).
    weight_decay:
        L2 penalty applied to all parameters.
    """

    def __init__(
        self,
        network: SpikingNetwork,
        *,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.network = network
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[int, np.ndarray] = {}
        # PAFT state (configured through enable_paft).
        self._paft_calibration: ModelCalibration | None = None
        self._paft_config: PAFTConfig | None = None

    def enable_paft(
        self, calibration: ModelCalibration, config: PAFTConfig | None = None
    ) -> None:
        """Turn on pattern-aware fine-tuning against ``calibration``."""
        self._paft_calibration = calibration
        self._paft_config = config or PAFTConfig()
        self.learning_rate = self._paft_config.learning_rate

    def disable_paft(self) -> None:
        """Turn PAFT regularisation back off."""
        self._paft_calibration = None
        self._paft_config = None

    @property
    def paft_enabled(self) -> bool:
        """Whether the PAFT regulariser is active."""
        return self._paft_calibration is not None

    # ------------------------------------------------------------------ #
    def _paft_gradients_for_step(self) -> tuple[dict[str, np.ndarray], float]:
        """PAFT input-matrix gradients for the GEMM layers of the last step."""
        assert self._paft_calibration is not None and self._paft_config is not None
        gradients: dict[str, np.ndarray] = {}
        reg_total = 0.0
        lam = self._paft_config.lam
        for layer in self.network.matmul_layers():
            if layer.name not in self._paft_calibration:
                continue
            matrix = layer.input_matrix()
            unique = np.unique(matrix)
            if not np.all(np.isin(unique, (0.0, 1.0))):
                continue  # only binary spike inputs participate in PAFT
            calibration = self._paft_calibration[layer.name]
            if matrix.shape[1] != calibration.total_width:
                continue
            grad = paft_regularizer_gradient(
                matrix.astype(np.uint8), calibration, layer.output_width
            )
            gradients[layer.name] = lam * grad
            reg_total += float(np.abs(grad).sum())
        return gradients, reg_total

    def _apply_gradients(self) -> None:
        for layer in self.network.all_layers():
            params = layer.parameters()
            grads = layer.gradients()
            for key, param in params.items():
                grad = grads.get(key)
                if grad is None:
                    continue
                if self.weight_decay:
                    grad = grad + self.weight_decay * param
                state_key = id(param)
                if self.momentum:
                    velocity = self._velocity.get(state_key)
                    if velocity is None:
                        velocity = np.zeros_like(param)
                    velocity = self.momentum * velocity - self.learning_rate * grad
                    self._velocity[state_key] = velocity
                    param += velocity
                else:
                    param -= self.learning_rate * grad

    def train_batch(self, data: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
        """One SGD step on a mini-batch; returns (loss, PAFT regulariser)."""
        network = self.network
        network.set_training(True)
        network.zero_gradients()

        # Pass 1: full temporal forward to obtain the rate-decoded logits.
        train = network._encode(data)
        network.reset_state()
        logits = None
        for t in range(network.num_steps):
            out = network.step_forward(train[t])
            logits = out if logits is None else logits + out
        logits = logits / network.num_steps
        loss, grad_logits = cross_entropy(logits, labels)
        grad_step = grad_logits / network.num_steps

        # Pass 2: replay each step and backpropagate immediately, so layer
        # caches always refer to the step being differentiated.
        network.reset_state()
        regularizer = 0.0
        for t in range(network.num_steps):
            network.step_forward(train[t])
            paft_grads: dict[str, np.ndarray] = {}
            if self.paft_enabled:
                paft_grads, reg = self._paft_gradients_for_step()
                regularizer += reg
            network.step_backward(grad_step, paft_gradients=paft_grads)

        self._apply_gradients()
        network.set_training(False)
        return loss, regularizer

    def fit(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        *,
        epochs: int = 1,
        batch_size: int = 16,
        eval_data: np.ndarray | None = None,
        eval_labels: np.ndarray | None = None,
        seed: int = 0,
    ) -> TrainingHistory:
        """Train for ``epochs`` passes over the data; returns the history."""
        history = TrainingHistory()
        rng = np.random.default_rng(seed)
        for _ in range(epochs):
            epoch_losses = []
            epoch_regs = []
            for batch_data, batch_labels in iterate_minibatches(
                data, labels, batch_size, rng=rng
            ):
                loss, reg = self.train_batch(batch_data, batch_labels)
                epoch_losses.append(loss)
                epoch_regs.append(reg)
            history.losses.append(float(np.mean(epoch_losses)))
            history.regularizers.append(float(np.mean(epoch_regs)))
            if eval_data is not None and eval_labels is not None:
                history.accuracies.append(
                    self.evaluate(eval_data, eval_labels)
                )
        return history

    def evaluate(self, data: np.ndarray, labels: np.ndarray, *, batch_size: int = 32) -> float:
        """Classification accuracy over a dataset."""
        self.network.set_training(False)
        correct = 0
        total = 0
        for batch_data, batch_labels in iterate_minibatches(
            data, labels, batch_size, shuffle=False
        ):
            predictions = self.network.predict(batch_data)
            correct += int(np.sum(predictions == batch_labels))
            total += len(batch_labels)
        return correct / total if total else 0.0
