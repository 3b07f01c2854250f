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
a :class:`PackCounts`.  :func:`pack_counts_batch` runs the packer's
window-placement machine on those counts, many tiles at once in NumPy
lockstep.  Tests check it against the object-stream preprocessor kept in
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
    consumed by :func:`pack_counts_batch`.
    """

    row_ids: np.ndarray
    row_nonzeros: np.ndarray
    needs_psum: bool

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


# --------------------------------------------------------------------- #
# Batched packing: many independent tile machines in one lockstep pass
# --------------------------------------------------------------------- #
def _pack_job_key(config: ArchConfig, compressed: CompressedCounts) -> tuple:
    """Dedup key: two jobs with equal keys produce equal :class:`PackCounts`."""
    return (
        config.pack_size,
        config.packer_windows,
        config.num_channels,
        bool(compressed.needs_psum),
        compressed.row_ids.dtype.str,
        compressed.row_ids.tobytes(),
        compressed.row_nonzeros.dtype.str,
        compressed.row_nonzeros.tobytes(),
    )


#: ``_BANK_BIT[b]`` is bit ``b`` of a 64-bit bank-mask word.
_BANK_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _pack_counts_lockstep(
    batch: list[CompressedCounts], capacity: int, num_windows: int, num_banks: int
) -> list[PackCounts]:
    """Run many independent packer state machines in NumPy lockstep.

    Every tile's window-placement machine is independent, so a batch of
    them advances one compressed-row *chunk* per step on ``(B, W)`` state
    arrays — occupancy integers and per-window psum-bank bitmasks of
    ``ceil(num_banks / 64)`` ``uint64`` words — with ``np.argmax``
    reproducing the first-fit scan and the first-max eviction tie-break.
    Jobs are sorted by descending chunk count so each step only touches
    the still-active prefix; total work is proportional to the number of
    chunks, not ``B x max_steps``.

    Per-row data stays in compact dtypes, and only a row's last chunk is
    written into the dense ``(B, max_steps)`` schedule: every other slot
    is a full chunk with no bank bit.  Only the last chunk of a psum row
    claims a bank, and a full chunk fits only an empty window, which
    holds no bank, so no other chunk's bank can matter; a slot's bank
    bit is thus also its claim flag.
    """
    B = len(batch)
    row_counts = np.array([c.row_ids.size for c in batch], dtype=np.int64)
    needs = np.array([bool(c.needs_psum) for c in batch])
    if row_counts.sum() == 0:
        return [EMPTY_PACK_COUNTS] * B
    nonempty = [c for c in batch if c.row_ids.size]
    row_ids = np.concatenate([c.row_ids for c in nonempty])
    nnz = np.concatenate([c.row_nonzeros for c in nonempty])
    row_job = np.repeat(np.arange(B, dtype=np.int32), row_counts)
    row_needs = needs[row_job]
    weight_units = np.bincount(row_job, weights=nnz, minlength=B).astype(np.int64)

    # Chunk expansion: a row wider than a pack splits into chunks of
    # ``capacity`` units plus a last one, and only the last chunk carries
    # the row's psum unit.  Every row yields at least one chunk.
    last_units = nnz.astype(np.int32)
    del nnz
    last_units += row_needs
    n_chunks = np.maximum((last_units + (capacity - 1)) // capacity, 1)
    last_units -= (n_chunks - 1) * capacity
    chunk_end = np.cumsum(n_chunks, dtype=np.int64)
    del n_chunks

    # Chunks per job, from the running chunk count at each job's last row.
    job_end = np.cumsum(row_counts)
    job_chunk_end = np.where(job_end > 0, chunk_end[np.maximum(job_end - 1, 0)], 0)
    steps = np.diff(job_chunk_end, prepend=0)

    # Sort jobs by descending chunk count so each lockstep step operates
    # on a shrinking active prefix.
    order = np.argsort(-steps, kind="stable")
    rank = np.empty(B, dtype=np.int64)
    rank[order] = np.arange(B)
    steps_desc = steps[order]
    max_steps = int(steps_desc[0])

    # Flat position of each row's last chunk in the schedule: sorted job
    # ``rank``, slot ``chunk_end - 1 - job_start``.
    last_pos = chunk_end
    last_pos += (rank * max_steps - (job_chunk_end - steps) - 1)[row_job]
    del row_job
    unit_dtype = np.int16 if capacity <= np.iinfo(np.int16).max else np.int32
    unit_mat = np.full(B * max_steps, capacity, dtype=unit_dtype)
    unit_mat[last_pos] = last_units
    del last_units
    # A bank is bit ``bank % 64`` of mask word ``bank // 64``.
    num_words = -(-num_banks // 64)
    bank = row_ids[row_needs].astype(np.int32) % num_banks
    del row_ids
    bit_mat = np.zeros((B * max_steps, num_words), dtype=np.uint64)
    bit_mat[last_pos[row_needs], bank // 64] = _BANK_BIT[bank % 64]
    del bank, last_pos, row_needs
    unit_mat = unit_mat.reshape(B, max_steps)
    bit_mat = bit_mat.reshape(B, max_steps, num_words)

    used = np.zeros((B, num_windows), dtype=np.int64)
    bankmask = np.zeros((B, num_windows, num_words), dtype=np.uint64)
    finished = np.zeros(B, dtype=np.int64)
    evictions = np.zeros(B, dtype=np.int64)
    zero = np.uint64(0)
    indices = np.arange(B)
    for s in range(max_steps):
        n = int(np.searchsorted(-steps_desc, -s, side="left"))
        u = unit_mat[:n, s]
        bit = bit_mat[:n, s]
        used_n = used[:n]
        conflict = ((bankmask[:n] & bit[:, None, :]) != zero).any(axis=2)
        ok = ((capacity - used_n) >= u[:, None]) & ~conflict
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
        claim = np.flatnonzero(bit.any(axis=1))
        bankmask[claim, target[claim]] |= bit[claim]
    finished += (used > 0).sum(axis=1)

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
    jobs: "list[tuple[ArchConfig, CompressedCounts]]",
) -> list[PackCounts]:
    """Place many tiles' compressed rows into packs, avoiding bank conflicts.

    The packer keeps ``packer_windows`` open packs of ``pack_size``
    units.  Each compressed row contributes its nonzeros plus, when
    ``needs_psum``, one partial-sum unit in bank ``row_id % num_channels``.
    It goes to the first window that has enough free units and holds no
    partial sum of the same bank; when no window qualifies, the
    most-filled window is evicted to the pack buffer.  A row wider than a
    pack splits into ``pack_size`` chunks and only its last chunk claims
    a psum bank.

    Parameters
    ----------
    jobs:
        ``(config, compressed)`` pairs — one per tile, possibly from
        different :class:`ArchConfig` values (a cross-point batch).

    Returns
    -------
    list of PackCounts
        One result per job, in input order, each equal to the
        object-stream packer's counts on that tile (property-tested).

    Notes
    -----
    Identical jobs (same machine parameters and compressed counts — e.g.
    the same workload simulated under several buffer scalings) are packed
    once and the result shared.  Distinct jobs are grouped by machine
    parameters and advanced in NumPy lockstep
    (:func:`_pack_counts_lockstep`), whatever their bank count.
    """
    results: list[PackCounts | None] = [None] * len(jobs)
    canonical: dict[tuple, int] = {}
    duplicates: list[tuple[int, int]] = []
    groups: dict[tuple[int, int, int], list[int]] = {}
    for j, (config, compressed) in enumerate(jobs):
        key = _pack_job_key(config, compressed)
        first = canonical.setdefault(key, j)
        if first != j:
            duplicates.append((j, first))
            continue
        params = (config.pack_size, config.packer_windows, config.num_channels)
        groups.setdefault(params, []).append(j)

    for (capacity, num_windows, num_banks), members in groups.items():
        batch = [jobs[j][1] for j in members]
        for j, counts in zip(members, _pack_counts_lockstep(
            batch, capacity, num_windows, num_banks
        )):
            results[j] = counts
    for j, first in duplicates:
        results[j] = results[first]
    return results  # type: ignore[return-value]
