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
processor one pack per cycle.  So a compressed tile is a
:class:`CompressedCounts` (the surviving rows' ids and nonzero counts,
built by :func:`~repro.hw.simulator.plan_preprocess`) and a packed tile
a :class:`PackCounts`.  The packer runs its window-placement machine on
those counts, one tile at a time (:meth:`Packer.pack_counts`) or many
tiles in NumPy lockstep (:func:`pack_counts_batch`).  Tests check both
against the object-stream preprocessor kept in
``tests/reference/preprocessor.py``, which builds every unit and pack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArchConfig


@dataclass(frozen=True)
class CompressedCounts:
    """Counter-level view of one compressed Level 2 tile.

    Carries exactly the quantities the cycle model consumes — per-row
    nonzero counts and row ids of the surviving (nonzero) rows — and is
    consumed by :meth:`Packer.pack_counts` and :func:`pack_counts_batch`.
    """

    row_ids: np.ndarray
    row_nonzeros: np.ndarray
    needs_psum: bool
    cycles: int
    filtered_rows: int

    @property
    def total_nonzeros(self) -> int:
        """Total corrections across all surviving rows."""
        return int(self.row_nonzeros.sum())


@dataclass(frozen=True)
class PackCounts:
    """Aggregate packing outcome of one tile (no pack objects).

    The L2 processor's cycle model only depends on the number of packs
    and the unit totals, so this is all of the packer's output the
    simulator consumes.
    """

    num_packs: int
    weight_units: int
    psum_units: int
    cycles: int
    evictions: int

    @property
    def total_units(self) -> int:
        """Weight plus partial-sum units across all packs."""
        return self.weight_units + self.psum_units

    def merge(self, other: "PackCounts") -> "PackCounts":
        """Combine the counts of two independent tiles."""
        return PackCounts(
            num_packs=self.num_packs + other.num_packs,
            weight_units=self.weight_units + other.weight_units,
            psum_units=self.psum_units + other.psum_units,
            cycles=self.cycles + other.cycles,
            evictions=self.evictions + other.evictions,
        )


#: Identity element of :meth:`PackCounts.merge`.
EMPTY_PACK_COUNTS = PackCounts(
    num_packs=0, weight_units=0, psum_units=0, cycles=0, evictions=0
)


class Packer:
    """Place compressed rows into fixed-size packs, avoiding bank conflicts.

    The packer keeps ``packer_windows`` open packs.  An incoming row goes
    to a window that (a) has enough free units and (b) whose existing
    partial-sum banks do not conflict with the row's bank.  When no window
    qualifies, the most-filled window is evicted to the pack buffer.
    """

    def __init__(self, config: ArchConfig) -> None:
        self.config = config
        self.num_banks = config.num_channels

    def pack_counts(self, compressed: CompressedCounts) -> PackCounts:
        """Place one tile's compressed rows; return its pack and unit totals.

        A row contributes its nonzeros plus, when ``needs_psum``, one
        partial-sum unit, which is always its last unit.  A row wider
        than a pack splits into ``pack_size`` chunks and only its last
        chunk claims a psum bank.  The algorithm runs on plain integers;
        it is property-tested against the object-stream packer that
        places every unit.
        """
        capacity = self.config.pack_size
        num_windows = self.config.packer_windows
        num_banks = self.num_banks
        needs_psum = compressed.needs_psum
        used = [0] * num_windows
        banks: list[set[int]] = [set() for _ in range(num_windows)]
        window_range = range(num_windows)
        finished = 0
        evictions = 0
        cycles = 0

        for row_id, nnz in zip(
            compressed.row_ids.tolist(), compressed.row_nonzeros.tolist()
        ):
            cycles += 1
            total_units = nnz + 1 if needs_psum else nnz
            row_bank = row_id % num_banks
            if total_units <= capacity:  # the common, unsplit case
                full_chunks = 0
                last_chunk = total_units
            else:
                full_chunks, last_chunk = divmod(total_units, capacity)
                if last_chunk == 0:
                    full_chunks -= 1
                    last_chunk = capacity
            for chunk in range(full_chunks + 1):
                num_units = capacity if chunk < full_chunks else last_chunk
                has_psum = needs_psum and chunk == full_chunks
                target = -1
                for i in window_range:
                    if capacity - used[i] < num_units:
                        continue
                    if needs_psum and row_bank in banks[i]:
                        continue
                    target = i
                    break
                if target < 0:
                    victim = max(window_range, key=used.__getitem__)
                    if used[victim]:
                        finished += 1
                        evictions += 1
                    used[victim] = 0
                    banks[victim] = set()
                    target = victim
                used[target] += num_units
                if has_psum:
                    banks[target].add(row_bank)

        finished += sum(1 for occupancy in used if occupancy)
        kept_rows = int(compressed.row_ids.size)
        return PackCounts(
            num_packs=finished,
            weight_units=compressed.total_nonzeros,
            psum_units=kept_rows if needs_psum else 0,
            cycles=cycles,
            evictions=evictions,
        )


# --------------------------------------------------------------------- #
# Batched packing: many independent tile machines in one lockstep pass
# --------------------------------------------------------------------- #
def _pack_job_key(packer: Packer, compressed: CompressedCounts) -> tuple:
    """Dedup key: two jobs with equal keys produce equal :class:`PackCounts`."""
    config = packer.config
    return (
        config.pack_size,
        config.packer_windows,
        packer.num_banks,
        bool(compressed.needs_psum),
        compressed.row_ids.dtype.str,
        compressed.row_ids.tobytes(),
        compressed.row_nonzeros.dtype.str,
        compressed.row_nonzeros.tobytes(),
    )


def _pack_counts_lockstep(
    batch: list[CompressedCounts], capacity: int, num_windows: int, num_banks: int
) -> list[PackCounts]:
    """Run many independent packer state machines in NumPy lockstep.

    Every tile's window-placement machine is independent, so a batch of
    them advances one compressed-row *chunk* per step on ``(B, W)`` state
    arrays — occupancy integers and per-window psum-bank bitmasks — with
    ``np.argmax`` reproducing the scalar first-fit scan and the
    first-max eviction tie-break exactly.  Jobs are sorted by descending
    chunk count so each step only touches the still-active prefix; total
    work is proportional to the number of chunks, not ``B x max_steps``.
    """
    B = len(batch)
    row_counts = np.array([c.row_ids.size for c in batch], dtype=np.int64)
    needs = np.array([bool(c.needs_psum) for c in batch])
    if row_counts.sum() == 0:
        return [EMPTY_PACK_COUNTS] * B
    row_job = np.repeat(np.arange(B), row_counts)
    row_ids = np.concatenate(
        [np.asarray(c.row_ids, dtype=np.int64) for c in batch if c.row_ids.size]
    )
    nnz = np.concatenate(
        [np.asarray(c.row_nonzeros, dtype=np.int64) for c in batch if c.row_ids.size]
    )
    row_needs = needs[row_job]

    # Chunk expansion (rows wider than a pack split across several packs,
    # exactly as in the scalar path): every row yields at least one chunk;
    # all but the last carry ``capacity`` units.
    total_units = nnz + row_needs
    n_chunks = np.maximum((total_units + capacity - 1) // capacity, 1)
    chunk_job = np.repeat(row_job, n_chunks)
    num_chunks = int(n_chunks.sum())
    row_start = np.zeros(n_chunks.size, dtype=np.int64)
    np.cumsum(n_chunks[:-1], out=row_start[1:])
    pos_in_row = np.arange(num_chunks) - np.repeat(row_start, n_chunks)
    is_last = pos_in_row == np.repeat(n_chunks - 1, n_chunks)
    last_size = total_units - (n_chunks - 1) * capacity
    units = np.where(is_last, np.repeat(last_size, n_chunks), capacity)
    bank = np.repeat(row_ids % num_banks, n_chunks)
    has_psum = is_last & np.repeat(row_needs, n_chunks)

    # Sort jobs by descending chunk count so each lockstep step operates
    # on a shrinking active prefix.
    steps = np.bincount(chunk_job, minlength=B)
    order = np.argsort(-steps, kind="stable")
    rank = np.empty(B, dtype=np.int64)
    rank[order] = np.arange(B)
    steps_desc = steps[order]
    max_steps = int(steps_desc[0])

    # Dense (B, S) chunk schedules in sorted-job order.
    job_start = np.zeros(B, dtype=np.int64)
    np.cumsum(steps[:-1], out=job_start[1:])
    sorted_job = rank[chunk_job]
    slot = np.arange(num_chunks) - job_start[chunk_job]
    unit_mat = np.zeros((B, max_steps), dtype=np.int64)
    unit_mat[sorted_job, slot] = units
    bit_mat = np.zeros((B, max_steps), dtype=np.uint64)
    bit_mat[sorted_job, slot] = np.uint64(1) << bank.astype(np.uint64)
    psum_mat = np.zeros((B, max_steps), dtype=bool)
    psum_mat[sorted_job, slot] = has_psum

    used = np.zeros((B, num_windows), dtype=np.int64)
    bankmask = np.zeros((B, num_windows), dtype=np.uint64)
    finished = np.zeros(B, dtype=np.int64)
    evictions = np.zeros(B, dtype=np.int64)
    needs_desc = needs[order][:, None]
    zero = np.uint64(0)
    indices = np.arange(B)
    for s in range(max_steps):
        n = int(np.searchsorted(-steps_desc, -s, side="left"))
        u = unit_mat[:n, s]
        bit = bit_mat[:n, s]
        used_n = used[:n]
        ok = ((capacity - used_n) >= u[:, None]) & ~(
            needs_desc[:n] & ((bankmask[:n] & bit[:, None]) != zero)
        )
        target = np.argmax(ok, axis=1)
        misfit = ~ok.any(axis=1)
        if misfit.any():
            idx = np.flatnonzero(misfit)
            victim = np.argmax(used_n[idx], axis=1)
            occupied = used_n[idx, victim] > 0
            finished[idx] += occupied
            evictions[idx] += occupied
            used[idx, victim] = 0
            bankmask[idx, victim] = zero
            target[idx] = victim
        used[indices[:n], target] += u
        claim = np.flatnonzero(psum_mat[:n, s])
        bankmask[claim, target[claim]] |= bit[claim]
    finished += (used > 0).sum(axis=1)

    weight_units = np.bincount(row_job, weights=nnz, minlength=B).astype(np.int64)
    num_packs = finished[rank]
    num_evictions = evictions[rank]
    return [
        PackCounts(
            num_packs=int(num_packs[j]),
            weight_units=int(weight_units[j]),
            psum_units=int(row_counts[j]) if needs[j] else 0,
            cycles=int(row_counts[j]),
            evictions=int(num_evictions[j]),
        )
        for j in range(B)
    ]


def pack_counts_batch(
    jobs: "list[tuple[Packer, CompressedCounts]]",
) -> list[PackCounts]:
    """Batched :meth:`Packer.pack_counts` over many independent tiles.

    Parameters
    ----------
    jobs:
        ``(packer, compressed)`` pairs — one per tile, possibly from
        different :class:`Packer` configurations (a cross-point batch).

    Returns
    -------
    list of PackCounts
        One result per job, in input order, each bit-identical to
        ``packer.pack_counts(compressed)`` (property-tested).

    Notes
    -----
    Identical jobs (same machine parameters and compressed counts — e.g.
    the same workload simulated under several buffer scalings) are packed
    once and the result shared.  Distinct jobs are grouped by machine
    parameters and advanced in NumPy lockstep
    (:func:`_pack_counts_lockstep`); configurations whose bank count
    exceeds a 64-bit bitmask (``ArchConfig`` accepts any
    ``num_channels``) fall back to the scalar machine.
    """
    results: list[PackCounts | None] = [None] * len(jobs)
    canonical: dict[tuple, int] = {}
    duplicates: list[tuple[int, int]] = []
    groups: dict[tuple[int, int, int], list[int]] = {}
    for j, (packer, compressed) in enumerate(jobs):
        key = _pack_job_key(packer, compressed)
        first = canonical.setdefault(key, j)
        if first != j:
            duplicates.append((j, first))
            continue
        config = packer.config
        params = (config.pack_size, config.packer_windows, packer.num_banks)
        groups.setdefault(params, []).append(j)

    for (capacity, num_windows, num_banks), members in groups.items():
        if num_banks > 64:
            for j in members:
                packer, compressed = jobs[j]
                results[j] = packer.pack_counts(compressed)
            continue
        batch = [jobs[j][1] for j in members]
        for j, counts in zip(members, _pack_counts_lockstep(
            batch, capacity, num_windows, num_banks
        )):
            results[j] = counts
    for j, first in duplicates:
        results[j] = results[first]
    return results  # type: ignore[return-value]
