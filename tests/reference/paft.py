"""Per-row PAFT activation alignment.

This is ``repro.core.paft.ActivationAligner.align_layer`` as it was
before it flipped the drawn mismatching bits with one XOR: it builds
every assigned row's pattern bits one row at a time and copies them into
the flipped positions.  A test checks that both return the
same array and leave the aligner's generator in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import LayerCalibration
from repro.core.paft import ActivationAligner
from repro.core.patterns import NO_PATTERN


def align_layer(
    aligner: ActivationAligner, activations: np.ndarray, calibration: LayerCalibration
) -> np.ndarray:
    """Return activations nudged towards their assigned patterns."""
    activations = np.asarray(activations, dtype=np.uint8)
    decomposition = calibration.decompose(activations)
    aligned = activations.copy()
    for p, (patterns, (start, stop)) in enumerate(
        zip(decomposition.pattern_sets, decomposition.boundaries)
    ):
        indices = decomposition.pattern_indices[:, p]
        assigned = indices != NO_PATTERN
        if not np.any(assigned):
            continue
        block = aligned[:, start:stop]
        pattern_bits = np.zeros_like(block)
        for i, idx in enumerate(indices):
            if idx != NO_PATTERN:
                pattern_bits[i] = patterns.matrix[idx - 1]
        mismatches = block != pattern_bits
        mismatches[~assigned] = False
        flip = mismatches & (
            aligner._rng.random(mismatches.shape) < aligner.alignment_strength
        )
        block[flip] = pattern_bits[flip]
        aligned[:, start:stop] = block
    return aligned
