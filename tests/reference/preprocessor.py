"""Object-stream preprocessor: compressed rows, pack units and packs.

This is the Phi preprocessor (Section 4.2) as ``repro.hw.preprocessor``
modelled it before the simulator moved to per-row counters: the
compressor emits one :class:`CompressedRow` per nonzero Level 2 row, the
packer places every row's :class:`PackUnit` objects into
:class:`Pack` windows, and the L2 processor costs one cycle per pack plus
a pipeline drain.  Tests check the counter-level path the simulator runs
(``CompressedCounts``, ``pack_counts_batch`` and
``L2Processor.pack_cycles_for``) against it, tile by tile: the simulator
packs one ``CompressedCounts`` per layer, which :func:`stack_tiles`
builds from one-tile ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.config import ArchConfig
from repro.hw.l2_processor import L2Processor
from repro.hw.preprocessor import CompressedCounts

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
class CompressorResult:
    """Output of the compressor for one Level 2 tile."""

    rows: list[CompressedRow]
    cycles: int
    filtered_rows: int

    @property
    def total_nonzeros(self) -> int:
        """Total corrections across all surviving rows."""
        return sum(row.num_nonzeros for row in self.rows)


def compress(level2: np.ndarray, *, needs_psum: bool = True) -> CompressorResult:
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


def counts_of(compressed: CompressorResult, needs_psum: bool) -> CompressedCounts:
    """The compressed rows as a one-tile layer of the counts the simulator packs."""
    return CompressedCounts(
        row_ids=np.array([row.row_id for row in compressed.rows], dtype=np.int64),
        row_nonzeros=np.array(
            [row.num_nonzeros for row in compressed.rows], dtype=np.int64
        ),
        offsets=np.array([0, len(compressed.rows)], dtype=np.int64),
        needs_psum=np.array([needs_psum]),
    )


def stack_tiles(layers: list[CompressedCounts]) -> CompressedCounts:
    """One layer holding every tile of ``layers``, in order."""
    sizes = [layer.row_ids.size for layer in layers]
    starts = np.cumsum([0] + sizes[:-1], dtype=np.int64)
    return CompressedCounts(
        row_ids=np.concatenate(
            [layer.row_ids for layer in layers] or [np.zeros(0, dtype=np.int64)]
        ),
        row_nonzeros=np.concatenate(
            [layer.row_nonzeros for layer in layers] or [np.zeros(0, dtype=np.int64)]
        ),
        offsets=np.concatenate(
            [[0]]
            + [layer.offsets[1:] + start for layer, start in zip(layers, starts)]
        ).astype(np.int64),
        needs_psum=np.concatenate(
            [layer.needs_psum for layer in layers] or [np.zeros(0, dtype=bool)]
        ),
    )


def tile_rows(counts: CompressedCounts, tile: int) -> tuple[np.ndarray, np.ndarray]:
    """Tile ``tile``'s row ids and nonzero counts."""
    start, stop = counts.offsets[tile], counts.offsets[tile + 1]
    return counts.row_ids[start:stop], counts.row_nonzeros[start:stop]


@dataclass
class PackerResult:
    """Output of the packer for one tile."""

    packs: list[Pack]
    cycles: int
    evictions: int

    @property
    def total_units(self) -> int:
        """Total units across all packs."""
        return sum(pack.num_units for pack in self.packs)


def pack_rows(config: ArchConfig, rows: list[CompressedRow]) -> PackerResult:
    """Pack the compressed rows of one tile into ``pack_size`` packs.

    The packer keeps ``packer_windows`` open packs.  An incoming row goes
    to a window that (a) has enough free units and (b) whose existing
    partial-sum banks do not conflict with the row's bank (one bank per
    ``num_channels``).  When no window qualifies, the most-filled window
    is evicted to the pack buffer.
    """
    capacity = config.pack_size
    num_windows = config.packer_windows
    num_banks = config.num_channels
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
        row_bank = row.row_id % num_banks
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
                banks[target].add(units[-1].row_id % num_banks)

    for window in windows:
        if window.num_units:
            finished.append(window)
    return PackerResult(packs=finished, cycles=cycles, evictions=evictions)


def process_packs_cycles(packs: list[Pack]) -> int:
    """L2 processor cycles for one tile's packs.

    One pack is read per cycle and the pipeline drains once per tile.
    """
    cycles = len(packs)
    if packs:
        cycles += L2Processor.PIPELINE_DEPTH  # drain the pipeline once per tile
    return cycles
