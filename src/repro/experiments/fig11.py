"""Figure 11: accuracy of DNN, bit sparsity, Phi without PAFT, Phi with PAFT.

The paper's accuracy claims are: (1) Phi without PAFT is *lossless* — its
accuracy equals the plain bit-sparse SNN because the decomposition is
exact; (2) PAFT trades a small accuracy drop for higher sparsity; (3) the
DNN counterpart is usually a little better on frame-based tasks and not
applicable to event data.  This harness trains small spiking models on the
synthetic tasks, verifies the lossless property *exactly* (logit-level
comparison through the Phi decomposition), and measures the PAFT drop by
fine-tuning with the regulariser.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.paft import PAFTConfig
from ..datasets.synthetic import make_dataset
from ..snn.models import build_model
from ..snn.training import SGDTrainer
from ..core.calibration import PhiCalibrator
from .common import SMALL, ExperimentScale


@dataclass(frozen=True)
class AccuracyRow:
    """Accuracy of one model/dataset pair under the four schemes."""

    model: str
    dataset: str
    dnn_accuracy: float
    bit_sparsity_accuracy: float
    phi_without_paft_accuracy: float
    phi_with_paft_accuracy: float
    lossless_verified: bool

    @property
    def paft_drop(self) -> float:
        """Accuracy cost of PAFT."""
        return self.phi_without_paft_accuracy - self.phi_with_paft_accuracy


@dataclass
class Fig11Result:
    """Accuracy comparison across workloads."""

    rows: list[AccuracyRow] = field(default_factory=list)


def _train_dnn_counterpart(
    train_data: np.ndarray,
    train_labels: np.ndarray,
    test_data: np.ndarray,
    test_labels: np.ndarray,
    num_classes: int,
    *,
    epochs: int = 30,
    learning_rate: float = 0.5,
    seed: int = 0,
) -> float:
    """Multinomial logistic regression on flattened inputs (DNN stand-in)."""
    rng = np.random.default_rng(seed)
    x_train = train_data.reshape(train_data.shape[0], -1)
    x_test = test_data.reshape(test_data.shape[0], -1)
    weights = rng.normal(0.0, 0.01, size=(x_train.shape[1], num_classes))
    bias = np.zeros(num_classes)
    onehot = np.eye(num_classes)[train_labels]
    for _ in range(epochs):
        logits = x_train @ weights + bias
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        grad = (probs - onehot) / x_train.shape[0]
        weights -= learning_rate * (x_train.T @ grad)
        bias -= learning_rate * grad.sum(axis=0)
    predictions = np.argmax(x_test @ weights + bias, axis=1)
    return float(np.mean(predictions == test_labels))


def _verify_lossless(network, data: np.ndarray, scale: ExperimentScale) -> bool:
    """Check that Phi-decomposed GEMMs reproduce the exact layer outputs.

    ``compute_output`` equals ``A @ W`` for any pattern assignment,
    because Level 2 is built as the activations minus Level 1.  What can
    be wrong is the stored Level 2 count of each row and partition, which
    every cost figure reads, so those must match the built Level 2.
    """
    _, records = network.record_activations(data)
    calibrator = PhiCalibrator(scale.phi_config())
    matmuls = {layer.name: layer for layer in network.matmul_layers()}
    for name, record in records.items():
        if not record.matrices or not record.is_binary:
            continue
        activations = record.stacked().astype(np.uint8)
        calibration = calibrator.calibrate_layer(name, activations)
        decomposition = calibration.decompose(activations)
        weights = matmuls[name].weight_matrix()
        reference = activations.astype(np.float64) @ weights
        if not np.allclose(decomposition.compute_output(weights), reference):
            return False
        level2 = decomposition.level2()
        nonzeros = [
            np.count_nonzero(level2[:, start:stop], axis=1)
            for start, stop in decomposition.boundaries
        ]
        if not np.array_equal(np.stack(nonzeros, axis=1), decomposition.level2_nonzeros):
            return False
    return True


def evaluate_model_accuracy(
    model_name: str,
    dataset_name: str,
    scale: ExperimentScale = SMALL,
    *,
    train_epochs: int = 3,
    paft_epochs: int = 1,
    paft_lambda: float = 5e-4,
    num_train: int = 96,
    num_test: int = 48,
    seed: int = 0,
) -> AccuracyRow:
    """Train a small spiking model and measure the four Fig. 11 accuracies."""
    dataset = make_dataset(dataset_name, num_train=num_train, num_test=num_test)
    if dataset.kind != "image":
        raise ValueError("accuracy experiments use the image datasets")
    channels, image_size, _ = dataset.input_shape
    network = build_model(
        model_name,
        num_classes=dataset.num_classes,
        in_channels=channels,
        image_size=image_size,
        num_steps=scale.num_steps,
        seed=seed,
    )

    trainer = SGDTrainer(network, learning_rate=0.05, momentum=0.9)
    trainer.fit(
        dataset.train_data,
        dataset.train_labels,
        epochs=train_epochs,
        batch_size=16,
        seed=seed,
    )
    bit_accuracy = trainer.evaluate(dataset.test_data, dataset.test_labels)

    # Phi without PAFT is lossless by construction; verify it exactly on a
    # test batch by comparing decomposed GEMM outputs to the references.
    lossless = _verify_lossless(network, dataset.test_data[:8], scale)
    phi_accuracy = bit_accuracy if lossless else float("nan")

    # DNN counterpart.
    dnn_accuracy = _train_dnn_counterpart(
        dataset.train_data,
        dataset.train_labels,
        dataset.test_data,
        dataset.test_labels,
        dataset.num_classes,
        seed=seed,
    )

    # PAFT fine-tuning: calibrate patterns, then fine-tune with the
    # Hamming-distance regulariser for a few epochs.
    _, records = network.record_activations(dataset.train_data[: scale.batch_size])
    calibrator = PhiCalibrator(scale.phi_config())
    layer_activations = {
        name: record.stacked().astype(np.uint8)
        for name, record in records.items()
        if record.matrices and record.is_binary
    }
    calibration = calibrator.calibrate_model(layer_activations)
    trainer.enable_paft(
        calibration, PAFTConfig(lam=paft_lambda, learning_rate=5e-3, epochs=paft_epochs)
    )
    trainer.fit(
        dataset.train_data,
        dataset.train_labels,
        epochs=paft_epochs,
        batch_size=16,
        seed=seed + 1,
    )
    paft_accuracy = trainer.evaluate(dataset.test_data, dataset.test_labels)

    return AccuracyRow(
        model=model_name,
        dataset=dataset_name,
        dnn_accuracy=dnn_accuracy,
        bit_sparsity_accuracy=bit_accuracy,
        phi_without_paft_accuracy=phi_accuracy,
        phi_with_paft_accuracy=paft_accuracy,
        lossless_verified=lossless,
    )


def run_fig11(
    scale: ExperimentScale = SMALL,
    *,
    workloads: tuple[tuple[str, str], ...] = (("vgg16", "cifar10"), ("resnet18", "cifar10")),
    train_epochs: int = 3,
) -> Fig11Result:
    """Reproduce the Fig. 11 accuracy comparison on the image workloads."""
    result = Fig11Result()
    for model_name, dataset_name in workloads:
        result.rows.append(
            evaluate_model_accuracy(
                model_name, dataset_name, scale, train_epochs=train_epochs
            )
        )
    return result
