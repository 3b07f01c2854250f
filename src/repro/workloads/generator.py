"""Workload generation: run models on synthetic data and extract GEMMs.

The generator wires together the model zoo and the synthetic datasets,
runs a recording forward pass, and packages every GEMM whose input is a
binary spike matrix into a :class:`~repro.workloads.workload.ModelWorkload`.
"""

from __future__ import annotations

import numpy as np

from ..datasets.synthetic import Dataset, make_dataset
from ..snn.encoding import event_stream_encode
from ..snn.models import PAPER_WORKLOADS, ModelSpec, build_model
from ..snn.network import SpikingNetwork
from .temporal import timestep_layer_name
from .workload import LayerWorkload, ModelWorkload


def _build_model_for_dataset(
    spec: ModelSpec, dataset: Dataset, *, num_steps: int, seed: int
) -> SpikingNetwork:
    """Construct the model sized for the dataset's input shape."""
    kwargs: dict = {"num_classes": dataset.num_classes, "num_steps": num_steps, "seed": seed}
    if dataset.kind == "image":
        channels, image_size, _ = dataset.input_shape
        kwargs.update(in_channels=channels, image_size=image_size)
    elif dataset.kind == "event":
        _, channels, image_size, _ = dataset.input_shape
        kwargs.update(in_channels=channels, image_size=image_size)
    elif dataset.kind == "text":
        seq_len = dataset.input_shape[0]
        kwargs.update(seq_len=seq_len)
    elif dataset.kind == "sequence":
        _, num_features = dataset.input_shape
        kwargs.update(num_features=num_features)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown dataset kind {dataset.kind!r}")
    return build_model(spec.model_name, **kwargs)


def extract_workload(
    network: SpikingNetwork,
    inputs: np.ndarray,
    *,
    dataset_name: str = "custom",
    binary_only: bool = True,
    pre_encoded: bool = False,
    temporal: bool = False,
) -> ModelWorkload:
    """Run ``inputs`` through ``network`` and capture every GEMM.

    Parameters
    ----------
    network:
        The spiking network to profile.
    inputs:
        A batch of inputs, or a pre-encoded ``(T, batch, ...)`` train for
        event data together with ``pre_encoded=True``.
    binary_only:
        Keep only GEMMs whose recorded input is binary — these are the
        spike-driven matrix multiplications Phi accelerates.  Layers fed
        analog inputs (e.g. the first convolution under direct coding) are
        skipped, matching the paper's focus on spike activations.
    pre_encoded:
        Set when ``inputs`` already carries the leading time dimension.
    temporal:
        Emit one GEMM per ``(layer, time step)``, named via
        :func:`~repro.workloads.temporal.timestep_layer_name`
        (``"rnn0.input@t2"``), instead of stacking a layer's steps into
        one tall matrix.  Layer order is preserved and the steps of one
        layer stay adjacent.
    """
    _, records = network.record_activations(inputs, pre_encoded=pre_encoded)
    matmul_layers = {layer.name: layer for layer in network.matmul_layers()}
    workload = ModelWorkload(model_name=network.name, dataset_name=dataset_name)
    for layer_name, record in records.items():
        if not record.matrices:
            continue
        if binary_only and not record.is_binary:
            continue
        weights = np.asarray(matmul_layers[layer_name].weight_matrix(), dtype=np.float64)
        if temporal:
            steps = [
                (timestep_layer_name(layer_name, step), matrix)
                for step, matrix in enumerate(record.matrices)
            ]
        else:
            steps = [(layer_name, record.stacked())]
        for name, activations in steps:
            workload.add(
                LayerWorkload(
                    name=name, activations=activations.astype(np.uint8), weights=weights
                )
            )
    return workload


def generate_workload(
    model_name: str,
    dataset_name: str,
    *,
    batch_size: int = 4,
    num_steps: int = 4,
    seed: int = 0,
    split: str = "test",
    temporal: bool = False,
) -> ModelWorkload:
    """Build model + dataset, run a batch, and return the recorded workload.

    ``temporal`` unrolls every GEMM per time step (see
    :func:`extract_workload`).
    """
    dataset = make_dataset(dataset_name)
    spec = ModelSpec(model_name, dataset_name, dataset.kind)
    network = _build_model_for_dataset(spec, dataset, num_steps=num_steps, seed=seed)

    data = dataset.test_data if split == "test" else dataset.train_data
    batch = data[:batch_size]
    pre_encoded = dataset.kind in ("event", "sequence")
    if pre_encoded:
        # Event data is (B, T, C, H, W) and sequence data (B, T, F);
        # re-bin the frames to the network's time-step count and move
        # time to the front: (T, B, ...).
        batch = np.stack(
            [event_stream_encode(sample, num_steps) for sample in batch], axis=1
        )
    return extract_workload(
        network,
        batch,
        dataset_name=dataset_name,
        pre_encoded=pre_encoded,
        temporal=temporal,
    )


def paper_workload_specs() -> tuple[ModelSpec, ...]:
    """The model/dataset pairs evaluated in Fig. 8 and Table 4."""
    return PAPER_WORKLOADS


def generate_random_workload(
    *,
    density: float,
    m: int = 512,
    k: int = 128,
    n: int = 64,
    seed: int = 0,
    name: str | None = None,
) -> ModelWorkload:
    """Random binary activation matrices (Table 4, "Random" rows).

    Parameters
    ----------
    density:
        Probability of a 1 at each activation position.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    activations = (rng.random((m, k)) < density).astype(np.uint8)
    weights = rng.standard_normal((k, n))
    workload = ModelWorkload(
        model_name=name or f"random{int(density * 100)}",
        dataset_name="random",
    )
    workload.add(LayerWorkload(name="random_gemm", activations=activations, weights=weights))
    return workload
