"""Per-row PAFT activation alignment.

This is ``repro.core.paft.ActivationAligner.align_layer`` as it was
before it flipped the drawn mismatching bits with one XOR: it builds
every assigned row's pattern bits with ``PatternSet.bits_of`` and copies
them into the flipped positions.  A test checks that both return the
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
    for tile, (start, stop) in zip(decomposition.tiles, decomposition.boundaries):
        assigned = tile.pattern_indices != NO_PATTERN
        if not np.any(assigned):
            continue
        mismatches = tile.level2 != 0
        mismatches[~assigned] = False
        flip = mismatches & (
            aligner._rng.random(mismatches.shape) < aligner.alignment_strength
        )
        block = aligned[:, start:stop]
        pattern_bits = np.zeros_like(block)
        for i, idx in enumerate(tile.pattern_indices):
            if idx != NO_PATTERN:
                pattern_bits[i] = tile.patterns.bits_of(int(idx))
        block[flip] = pattern_bits[flip]
        aligned[:, start:stop] = block
    return aligned
