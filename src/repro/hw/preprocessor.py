"""Phi Preprocessor: pattern matcher, compressor and packer (Section 4.2).

The Preprocessor converts a spike-activation tile into the two-level Phi
representation on the fly:

* the **pattern matcher** (a 1-D systolic array of matcher units) finds,
  for every activation row, the pre-loaded pattern with the minimum
  Hamming distance and emits the corresponding Level 2 sparse row,
* the **compressor** drops all-zero Level 2 rows and converts the rest to
  (column index, value) pairs, and
* the **packer** merges compressed rows into fixed-size *packs* of
  ``pack_size`` units, using multiple windows and per-window conflict
  detectors so partial-sum bank conflicts are avoided.

All three stages are modelled behaviourally and cycle-accurately at the
row granularity: the matcher and compressor sustain one row per cycle and
the packer one compressed row per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.patterns import PatternSet
from ..core.sparsity import TileDecomposition, decompose_tile
from .config import ArchConfig

#: Unit label: a {+1,-1} correction element that accumulates a weight row.
LABEL_NONZERO = "nonzero"
#: Unit label: a partial sum carried from the previous K partition.
LABEL_PSUM = "psum"


@dataclass(frozen=True)
class PackUnit:
    """One unit of the compact Level 2 data structure.

    Attributes
    ----------
    label:
        Either :data:`LABEL_NONZERO` (weight accumulation) or
        :data:`LABEL_PSUM` (partial-sum accumulation).
    index:
        Column index of the weight row, or the partial-sum slot index.
    value:
        +1 or -1 for nonzeros; always +1 for partial sums.
    row_id:
        The output row this unit contributes to.
    """

    label: str
    index: int
    value: int
    row_id: int

    def __post_init__(self) -> None:
        if self.label not in (LABEL_NONZERO, LABEL_PSUM):
            raise ValueError(f"invalid unit label {self.label!r}")
        if self.value not in (-1, 1):
            raise ValueError("unit value must be +1 or -1")


def _make_unit(label: str, index: int, value: int, row_id: int) -> PackUnit:
    """Construct a :class:`PackUnit` bypassing dataclass validation.

    Internal fast path for unit streams whose labels and values the caller
    has already checked; the public ``PackUnit(...)`` constructor keeps its
    validation.
    """
    unit = object.__new__(PackUnit)
    object.__setattr__(unit, "label", label)
    object.__setattr__(unit, "index", index)
    object.__setattr__(unit, "value", value)
    object.__setattr__(unit, "row_id", row_id)
    return unit


@dataclass
class Pack:
    """A fixed-capacity group of units processed by the L2 processor."""

    capacity: int
    units: list[PackUnit] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.num_weight_units = sum(
            1 for u in self.units if u.label == LABEL_NONZERO
        )
        self.num_psum_units = sum(1 for u in self.units if u.label == LABEL_PSUM)

    @property
    def num_units(self) -> int:
        """Number of occupied units."""
        return len(self.units)

    @property
    def free_space(self) -> int:
        """Remaining unit slots."""
        return self.capacity - len(self.units)

    @property
    def row_ids(self) -> list[int]:
        """Distinct output rows contributing units, in insertion order."""
        seen: list[int] = []
        for unit in self.units:
            if unit.row_id not in seen:
                seen.append(unit.row_id)
        return seen

    def psum_banks(self, num_banks: int) -> set[int]:
        """Partial-sum buffer banks already referenced by this pack."""
        return {unit.row_id % num_banks for unit in self.units if unit.label == LABEL_PSUM}

    def add_row(self, units: list[PackUnit]) -> None:
        """Append all units of one compressed row."""
        if len(units) > self.free_space:
            raise ValueError("row does not fit into the pack")
        self.units.extend(units)
        for unit in units:
            if unit.label == LABEL_NONZERO:
                self.num_weight_units += 1
            else:
                self.num_psum_units += 1

    @property
    def utilization(self) -> float:
        """Fraction of occupied unit slots."""
        return self.num_units / self.capacity if self.capacity else 0.0


@dataclass(frozen=True)
class CompressedRow:
    """Column-index representation of one nonzero Level 2 row."""

    row_id: int
    columns: tuple[int, ...]
    values: tuple[int, ...]
    needs_psum: bool

    @property
    def num_nonzeros(self) -> int:
        """Number of {+1, -1} corrections in the row."""
        return len(self.columns)

    def units(self) -> list[PackUnit]:
        """Expand the row into pack units (corrections plus partial sum)."""
        row_id = self.row_id
        units = []
        for col, val in zip(self.columns, self.values):
            # Mirrors PackUnit.__post_init__'s value check; the labels are
            # the module constants, so the label check cannot fail here.
            if val != 1 and val != -1:
                raise ValueError("unit value must be +1 or -1")
            units.append(_make_unit(LABEL_NONZERO, col, val, row_id))
        if self.needs_psum:
            units.append(_make_unit(LABEL_PSUM, row_id, 1, row_id))
        return units


@dataclass
class MatcherResult:
    """Output of the pattern matcher for one activation tile."""

    decomposition: TileDecomposition
    cycles: int
    comparisons: int

    @property
    def pattern_indices(self) -> np.ndarray:
        """Assigned pattern index per row (0 = no pattern)."""
        return self.decomposition.pattern_indices

    @property
    def level2(self) -> np.ndarray:
        """The {+1, 0, -1} Level 2 correction matrix."""
        return self.decomposition.level2


class PatternMatcher:
    """1-D systolic array of matcher units (one per pattern).

    The array sustains one activation row per cycle; its pipeline-fill
    latency is hidden by overlapping with L1/L2 processing, so the cycle
    cost of a tile is its row count.
    """

    def __init__(self, config: ArchConfig) -> None:
        self.config = config

    def match_tile(
        self,
        tile: np.ndarray,
        patterns: PatternSet,
        *,
        decomposition: TileDecomposition | None = None,
    ) -> MatcherResult:
        """Match every row of a binary tile against the pattern set.

        When the caller already holds the tile's decomposition (the
        simulator decomposes the full layer once for its metrics), passing
        it via ``decomposition`` skips the redundant re-match; the cycle
        and comparison accounting is unchanged because the systolic array
        still streams every row past every matcher unit.
        """
        if decomposition is None:
            decomposition = decompose_tile(tile, patterns)
        rows = tile.shape[0]
        comparisons = rows * patterns.num_patterns
        return MatcherResult(
            decomposition=decomposition, cycles=rows, comparisons=comparisons
        )


@dataclass
class CompressorResult:
    """Output of the compressor for one Level 2 tile."""

    rows: list[CompressedRow]
    cycles: int
    filtered_rows: int

    @property
    def total_nonzeros(self) -> int:
        """Total corrections across all surviving rows."""
        return sum(row.num_nonzeros for row in self.rows)


class Compressor:
    """Filter all-zero Level 2 rows and extract column indices."""

    def __init__(self, config: ArchConfig) -> None:
        self.config = config

    def compress(
        self, level2: np.ndarray, *, needs_psum: bool = True
    ) -> CompressorResult:
        """Compress a ``(M, k)`` Level 2 matrix into sparse rows."""
        level2 = np.asarray(level2)
        num_rows = level2.shape[0]
        # One pass over the whole tile: np.nonzero walks the matrix in
        # row-major order, so slicing the flat index arrays by per-row
        # counts yields exactly the per-row ``flatnonzero`` results.
        row_idx, col_idx = np.nonzero(level2)
        counts = np.bincount(row_idx, minlength=num_rows)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        columns = col_idx.tolist()
        values = level2[row_idx, col_idx].astype(int).tolist()

        rows: list[CompressedRow] = []
        filtered = 0
        for row_id in range(num_rows):
            start, stop = offsets[row_id], offsets[row_id + 1]
            if start == stop:
                filtered += 1
                continue
            rows.append(
                CompressedRow(
                    row_id=row_id,
                    columns=tuple(columns[start:stop]),
                    values=tuple(values[start:stop]),
                    needs_psum=needs_psum,
                )
            )
        # The compressor scans one matcher output row per cycle.
        return CompressorResult(rows=rows, cycles=num_rows, filtered_rows=filtered)

    def compress_counts(
        self, level2: np.ndarray, *, needs_psum: bool = True
    ) -> CompressedCounts:
        """Counter-level :meth:`compress`: per-row nonzero counts only.

        The simulator's cycle model never inspects column indices or
        values, so this fast path skips the per-row object construction
        entirely while agreeing with :meth:`compress` on every quantity
        both report (row ids, nonzero counts, cycles, filtered rows).
        """
        level2 = np.asarray(level2)
        num_rows = level2.shape[0]
        nonzeros = np.count_nonzero(level2, axis=1)
        kept = np.flatnonzero(nonzeros)
        return CompressedCounts(
            row_ids=kept,
            row_nonzeros=nonzeros[kept],
            needs_psum=needs_psum,
            cycles=num_rows,
            filtered_rows=num_rows - int(kept.size),
        )


@dataclass
class PackerResult:
    """Output of the packer for one tile."""

    packs: list[Pack]
    cycles: int
    evictions: int

    @property
    def average_utilization(self) -> float:
        """Mean pack occupancy (1.0 = every unit slot used)."""
        if not self.packs:
            return 0.0
        return float(np.mean([pack.utilization for pack in self.packs]))

    @property
    def total_units(self) -> int:
        """Total units across all packs."""
        return sum(pack.num_units for pack in self.packs)


class Packer:
    """Pack compressed rows into fixed-size packs with conflict avoidance.

    The packer keeps ``packer_windows`` open packs.  An incoming row goes
    to a window that (a) has enough free units and (b) whose existing
    partial-sum banks do not conflict with the row's bank.  When no window
    qualifies, the most-filled window is evicted to the pack buffer.
    """

    def __init__(self, config: ArchConfig) -> None:
        self.config = config
        self.num_banks = config.num_channels

    def pack_rows(self, rows: list[CompressedRow]) -> PackerResult:
        """Pack the compressed rows of one tile."""
        capacity = self.config.pack_size
        num_windows = self.config.packer_windows
        windows: list[Pack] = [Pack(capacity) for _ in range(num_windows)]
        # Window occupancy and partial-sum banks are mirrored in plain
        # lists so the placement scan does not re-derive them from the
        # unit lists on every probe.
        used = [0] * num_windows
        banks: list[set[int]] = [set() for _ in range(num_windows)]
        finished: list[Pack] = []
        evictions = 0
        cycles = 0

        for row in rows:
            cycles += 1
            all_units = row.units()
            row_bank = row.row_id % self.num_banks
            # With the calibrated pattern count a row never exceeds a pack
            # (Section 4.2.2); tiny pattern sets used in sweeps can violate
            # that, in which case the row is split across several packs.
            chunks = [
                all_units[i : i + capacity] for i in range(0, len(all_units), capacity)
            ]
            for units in chunks:
                num_units = len(units)
                # The partial-sum unit is always the last of the row, so
                # only the final chunk can claim a psum bank.
                has_psum = units[-1].label == LABEL_PSUM
                target = -1
                for i in range(num_windows):
                    if capacity - used[i] < num_units:
                        continue
                    if row.needs_psum and row_bank in banks[i]:
                        continue
                    target = i
                    break
                if target < 0:
                    # Evict the most-filled window and reuse it.
                    victim = max(range(num_windows), key=used.__getitem__)
                    if used[victim]:
                        finished.append(windows[victim])
                        evictions += 1
                    windows[victim] = Pack(capacity)
                    used[victim] = 0
                    banks[victim] = set()
                    target = victim
                windows[target].add_row(units)
                used[target] += num_units
                if has_psum:
                    banks[target].add(units[-1].row_id % self.num_banks)

        for window in windows:
            if window.num_units:
                finished.append(window)
        return PackerResult(packs=finished, cycles=cycles, evictions=evictions)

    def pack_counts(self, compressed: CompressedCounts) -> PackCounts:
        """Counter-level :meth:`pack_rows`: pack/unit totals only.

        Runs the identical window-placement and eviction algorithm on
        plain integers, so the pack count, unit totals, cycle count and
        eviction count agree exactly with packing the materialised rows
        (property-tested against :meth:`pack_rows`), without building a
        single :class:`PackUnit`.
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


@dataclass(frozen=True)
class CompressedCounts:
    """Counter-level view of one compressed Level 2 tile.

    Carries exactly the quantities the cycle model consumes — per-row
    nonzero counts and row ids of the surviving rows — without
    materialising :class:`CompressedRow` / :class:`PackUnit` objects.
    Produced by :meth:`Compressor.compress_counts` and consumed by
    :meth:`Packer.pack_counts`; equivalent (and property-tested against)
    the object-level :meth:`Compressor.compress` output.
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
    and the unit totals, so this is all :meth:`Packer.pack_rows` output
    the simulator ever consumes — computed by :meth:`Packer.pack_counts`
    with the exact same window/eviction algorithm.
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
        return [
            PackCounts(num_packs=0, weight_units=0, psum_units=0, cycles=0, evictions=0)
            for _ in batch
        ]
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
    exceeds a 64-bit bitmask fall back to the scalar machine.
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
        if num_banks > 64 or num_windows < 1 or capacity < 1:
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


@dataclass
class PreprocessorResult:
    """Combined result of matching, compressing and packing one tile."""

    matcher: MatcherResult
    compressor: CompressorResult
    packer: PackerResult

    @property
    def cycles(self) -> int:
        """Preprocessor cycles for the tile (stages are pipelined)."""
        return max(self.matcher.cycles, self.compressor.cycles, self.packer.cycles)

    @property
    def packs(self) -> list[Pack]:
        """The Level 2 packs ready for the L2 processor."""
        return self.packer.packs


class Preprocessor:
    """The full Phi Preprocessor pipeline for one activation tile."""

    def __init__(self, config: ArchConfig) -> None:
        self.config = config
        self.matcher = PatternMatcher(config)
        self.compressor = Compressor(config)
        self.packer = Packer(config)

    def process_tile(
        self,
        tile: np.ndarray,
        patterns: PatternSet,
        *,
        needs_psum: bool = True,
        decomposition: TileDecomposition | None = None,
    ) -> PreprocessorResult:
        """Run matcher, compressor and packer on one binary tile.

        ``decomposition`` optionally supplies the tile's already-computed
        Phi decomposition so the matcher does not redo it.
        """
        matched = self.matcher.match_tile(tile, patterns, decomposition=decomposition)
        compressed = self.compressor.compress(matched.level2, needs_psum=needs_psum)
        packed = self.packer.pack_rows(compressed.rows)
        return PreprocessorResult(
            matcher=matched, compressor=compressed, packer=packed
        )
