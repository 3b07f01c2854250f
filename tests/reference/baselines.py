"""Per-window PTB position count.

This is ``repro.baselines.ptb.PTB._processed_positions`` as it was
before it read each row's window as one unsigned integer: it slices K
one window at a time and asks ``np.any`` of every slice.  A property
test checks that both count the same positions.
"""

from __future__ import annotations

import numpy as np


def ptb_processed_positions(activations: np.ndarray, window: int) -> int:
    """Positions PTB schedules: the full width of every window with a spike."""
    k = activations.shape[1]
    processed = 0
    for start in range(0, k, window):
        block = activations[:, start : start + window]
        active_rows = np.any(block, axis=1)
        processed += int(active_rows.sum()) * block.shape[1]
    return processed
