"""Per-window PTB position count and per-group SATO load imbalance.

``ptb_processed_positions`` is ``repro.baselines.ptb.PTB._processed_positions``
as it was before it read each row's window as one unsigned integer: it
slices K one window at a time and asks ``np.any`` of every slice.
``load_imbalance_cycles`` is the per-group loop the vectorised one in
``repro.baselines.base`` replaced.  Tests check that each pair agrees
bit for bit.
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


def load_imbalance_cycles(
    activations: np.ndarray, lanes: int, rows_per_group: int, work_per_one: float
) -> float:
    """Row-parallel cycles with load imbalance, one group at a time.

    This is ``repro.baselines.base.load_imbalance_cycles`` as it was
    before it took cached row spike counts and reduced every group's
    maximum in one ``np.maximum.reduceat`` pass: it sums the activations
    per row and adds each group's term in a Python loop.
    """
    if lanes < 1 or rows_per_group < 1:
        raise ValueError("lanes and rows_per_group must be >= 1")
    popcounts = np.asarray(activations).sum(axis=1)
    cycles = 0.0
    lanes_per_row = max(lanes // rows_per_group, 1)
    for start in range(0, len(popcounts), rows_per_group):
        group = popcounts[start : start + rows_per_group]
        if group.size == 0:
            continue
        cycles += float(group.max()) * work_per_one / lanes_per_row
    return cycles
