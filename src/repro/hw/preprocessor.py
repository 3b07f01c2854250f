"""Phi preprocessor: compressor and packer counters (Section 4.2).

The preprocessor converts a spike-activation tile into the two-level Phi
representation on the fly:

* the **pattern matcher** (a 1-D systolic array of matcher units) finds,
  for every activation row, the pre-loaded pattern with the minimum
  Hamming distance and emits the corresponding Level 2 sparse row,
* the **compressor** drops all-zero Level 2 rows and converts the rest to
  (column index, value) pairs, and
* the **packer** merges compressed rows into fixed-size *packs* of
  ``pack_size`` units, using multiple windows and per-window conflict
  detectors so partial-sum bank conflicts are avoided.

The cycle model only needs counts: the matcher and compressor sustain
one row per cycle, the packer one compressed row per cycle, and the L2
processor one pack per cycle.  So the compressed tiles of one layer are
one :class:`CompressedCounts` — every (M tile, partition) tile's
surviving row ids and nonzero counts laid end to end, built by
:func:`~repro.hw.simulator.plan_preprocess` — and their packing outcome
one :class:`PackCounts` of per-tile arrays.  :func:`pack_counts_batch`
runs the packer's window-placement machine on those counts, every tile
of many layers at once in NumPy lockstep.  Tests check it against the
object-stream preprocessor kept in ``tests/reference/preprocessor.py``,
which builds every unit and pack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArchConfig


@dataclass(frozen=True)
class CompressedCounts:
    """Counter-level view of one layer's compressed Level 2 tiles.

    Tile ``t``'s surviving (nonzero) rows are
    ``row_ids[offsets[t]:offsets[t + 1]]``, with their nonzero counts in
    the same slice of ``row_nonzeros``; ``offsets`` starts at 0 and ends
    at the row count.  ``needs_psum[t]`` says whether tile ``t``'s rows
    carry a partial sum.  These are exactly the quantities the cycle
    model consumes, and :func:`pack_counts_batch` packs them.
    """

    row_ids: np.ndarray
    row_nonzeros: np.ndarray
    offsets: np.ndarray
    needs_psum: np.ndarray


@dataclass(frozen=True)
class PackCounts:
    """Per-tile packing outcome of one layer (no pack objects).

    Every field is an ``int64`` array with one element per tile of the
    packed :class:`CompressedCounts`.  The L2 processor's cycle model
    only depends on the number of packs and the unit totals, so this is
    all of the packer's output the simulator consumes.
    """

    num_packs: np.ndarray
    weight_units: np.ndarray
    psum_units: np.ndarray
    cycles: np.ndarray
    evictions: np.ndarray

    @property
    def total_units(self) -> np.ndarray:
        """Weight plus partial-sum units across each tile's packs."""
        return self.weight_units + self.psum_units


# --------------------------------------------------------------------- #
# Batched packing: many independent tile machines in one lockstep pass
# --------------------------------------------------------------------- #
#: ``_BANK_BIT[b]`` is bit ``b`` of a 64-bit bank-mask word.
_BANK_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _unsigned_dtype(bits: int) -> np.dtype:
    """Smallest unsigned integer dtype of at least ``bits`` bits (at most 64)."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bits <= 8 * np.dtype(dtype).itemsize:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def _pack_counts_lockstep(
    layers: list[CompressedCounts], capacity: int, num_windows: int, num_banks: int
) -> list[PackCounts]:
    """Run every tile's packer state machine in NumPy lockstep.

    Every tile's window-placement machine is independent, so all tiles
    of ``layers`` advance one compressed-row *chunk* per step.  Tiles are
    sorted by descending chunk count and the schedule is step-major, so
    step ``s`` reads the contiguous slice of the tiles still active.  The
    state is one 1-D array per window: its free units (``room``) and its
    psum-bank mask words, ``ceil(num_banks / 64)`` of them in the
    smallest unsigned dtype that holds ``min(num_banks, 64)`` bits.  A
    step loops over windows and mask words in Python and runs
    elementwise NumPy over the active tiles, which reproduces the
    first-fit scan and the first-max eviction tie-break.

    Only a row's last chunk is written into the schedule: every other
    slot is a full chunk with no bank bit.  Only the last chunk of a
    psum row claims a bank, and a full chunk fits only an empty window,
    which holds no bank, so no other chunk's bank can matter.  An empty
    window fits any chunk, so a chunk that fits no window always evicts
    an occupied one: evictions equal misfits, and a tile's pack count is
    its evictions plus its windows left occupied.
    """
    row_counts = np.concatenate([np.diff(c.offsets) for c in layers]).astype(np.int64)
    needs = np.concatenate([c.needs_psum for c in layers]).astype(bool)
    num_tiles = row_counts.size
    tile_end = np.cumsum(row_counts)
    nnz = np.concatenate([c.row_nonzeros for c in layers])
    # ``running[i]`` is the sum over the first ``i`` rows, so a tile's
    # total is the difference of its ends' running sums.
    running = np.zeros(nnz.size + 1, dtype=np.int64)
    np.cumsum(nnz, out=running[1:])
    weight_units = np.diff(running[tile_end], prepend=0)
    row_needs = np.repeat(needs, row_counts)

    # Chunk expansion: a row wider than a pack splits into chunks of
    # ``capacity`` units plus a last one, and only the last chunk carries
    # the row's psum unit.  Every row yields at least one chunk.
    last_units = nnz.astype(np.int32)
    del nnz
    last_units += row_needs
    n_chunks = np.maximum((last_units + (capacity - 1)) // capacity, 1)
    last_units -= (n_chunks - 1) * capacity
    np.cumsum(n_chunks, out=running[1:])
    del n_chunks
    tile_chunk_end = running[tile_end]
    steps = np.diff(tile_chunk_end, prepend=0)

    # Sort tiles by descending chunk count; step ``s`` then covers the
    # first ``active[s]`` tiles, stored from ``step_start[s]``.
    order = np.argsort(-steps, kind="stable")
    rank = np.empty(num_tiles, dtype=np.int64)
    rank[order] = np.arange(num_tiles)
    max_steps = int(steps.max(initial=0))
    active = np.searchsorted(-steps[order], -np.arange(max_steps), side="left")
    step_start = np.concatenate(([0], np.cumsum(active)))

    # Schedule position of each row's last chunk: step ``chunk_end - 1 -
    # tile_start``, sorted tile ``rank``.
    last_pos = running[1:]
    del running
    last_pos -= np.repeat(tile_chunk_end - steps + 1, row_counts)
    last_pos = step_start[last_pos]
    last_pos += np.repeat(rank, row_counts)
    units = np.full(
        int(step_start[-1]), capacity, dtype=_unsigned_dtype(capacity.bit_length())
    )
    units[last_pos] = last_units
    del last_units
    # A bank is bit ``bank % 64`` of mask word ``bank // 64``; a row
    # without a psum writes a zero word.
    mask_dtype = _unsigned_dtype(min(num_banks, 64))
    num_words = -(-num_banks // 64)
    bank = np.concatenate([c.row_ids for c in layers])
    bank = np.remainder(bank, num_banks, dtype=np.int32)
    last_pos += (bank >> 6) * np.int64(units.size)
    bank &= 63
    bit_of = _BANK_BIT[: min(num_banks, 64)].astype(mask_dtype)
    bits = np.zeros((num_words, units.size), dtype=mask_dtype)
    bits.reshape(-1)[last_pos] = bit_of[bank] * row_needs
    del bank, last_pos, row_needs

    rooms = [np.full(num_tiles, capacity, dtype=units.dtype) for _ in range(num_windows)]
    masks = [
        [np.zeros(num_tiles, dtype=mask_dtype) for _ in range(num_words)]
        for _ in range(num_windows)
    ]
    evictions = np.zeros(num_tiles, dtype=np.int64)
    bounds = step_start.tolist()
    n = -1
    # Placements multiply by a 0/1 ``uint8`` view of a boolean selector:
    # on small arrays that is several times faster than ``where=`` ufuncs.
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a != n:
            # The active prefix shrank: re-slice the state views once.
            n = b - a
            rooms_n = [room[:n] for room in rooms]
            masks_n = [[word[:n] for word in window] for window in masks]
            evictions_n = evictions[:n]
        u = units[a:b]
        bit = [word[a:b] for word in bits]
        # First fit: place each chunk in the first window with room and
        # no bank conflict; ``left`` marks the chunks no window took.
        left = None
        for room, mask in zip(rooms_n, masks_n):
            fits = room >= u
            for word, word_bit in zip(mask, bit):
                fits &= (word & word_bit) == 0
            if left is None:
                left = ~fits
            else:
                fits &= left
                left ^= fits
            take = fits.view(np.uint8)
            room -= u * take
            for word, word_bit in zip(mask, bit):
                word |= word_bit * take
        if not np.count_nonzero(left):
            continue
        # A misfit evicts the first most-filled window and restarts it
        # holding just the chunk.
        evictions_n += left
        least = rooms_n[0]
        for room in rooms_n[1:]:
            least = np.minimum(least, room)
        fresh = capacity - u
        for room, mask in zip(rooms_n, masks_n):
            victim = left & (room == least)
            left ^= victim
            np.putmask(room, victim, fresh)
            for word, word_bit in zip(mask, bit):
                np.putmask(word, victim, word_bit)

    num_packs = evictions.copy()
    for room in rooms:
        num_packs += room < capacity
    num_packs = num_packs[rank]
    evictions = evictions[rank]
    psum_units = np.where(needs, row_counts, 0)
    results = []
    start = 0
    for compressed in layers:
        stop = start + compressed.offsets.size - 1
        results.append(
            PackCounts(
                num_packs=num_packs[start:stop],
                weight_units=weight_units[start:stop],
                psum_units=psum_units[start:stop],
                cycles=row_counts[start:stop],
                evictions=evictions[start:stop],
            )
        )
        start = stop
    return results


def pack_counts_batch(
    jobs: "list[tuple[ArchConfig, CompressedCounts]]",
) -> list[PackCounts]:
    """Place many layers' compressed rows into packs, avoiding bank conflicts.

    The packer keeps ``packer_windows`` open packs of ``pack_size``
    units per tile.  Each compressed row contributes its nonzeros plus,
    when its tile ``needs_psum``, one partial-sum unit in bank
    ``row_id % num_channels``.  It goes to the first window that has
    enough free units and holds no partial sum of the same bank; when no
    window qualifies, the most-filled window is evicted to the pack
    buffer.  A row wider than a pack splits into ``pack_size`` chunks
    and only its last chunk claims a psum bank.

    Parameters
    ----------
    jobs:
        ``(config, compressed)`` pairs — one per layer, possibly under
        different :class:`ArchConfig` values (a cross-point batch).

    Returns
    -------
    list of PackCounts
        One result per job, in input order, whose element ``t`` equals
        the object-stream packer's counts on the layer's tile ``t``
        (property-tested).

    Notes
    -----
    Jobs are grouped by machine parameters ``(pack_size,
    packer_windows, num_channels)``, and every tile of a group advances
    in one NumPy lockstep pass (:func:`_pack_counts_lockstep`), whatever
    its bank count.  Within a group, jobs that hold the same
    :class:`CompressedCounts` object — the same layer simulated under
    several buffer scalings — are packed once and share the result.
    """
    results: list[PackCounts | None] = [None] * len(jobs)
    groups: dict[tuple[int, int, int], dict[int, list[int]]] = {}
    for j, (config, compressed) in enumerate(jobs):
        params = (config.pack_size, config.packer_windows, config.num_channels)
        groups.setdefault(params, {}).setdefault(id(compressed), []).append(j)

    for (capacity, num_windows, num_banks), members in groups.items():
        sharers = list(members.values())
        layers = [jobs[js[0]][1] for js in sharers]
        packed = _pack_counts_lockstep(layers, capacity, num_windows, num_banks)
        for js, counts in zip(sharers, packed):
            for j in js:
                results[j] = counts
    return results  # type: ignore[return-value]
