"""Pattern sets and pattern-weight products (PWPs).

A *pattern* is a binary row vector of length ``k`` (the partition width).
A :class:`PatternSet` stores the patterns calibrated for one partition of
one layer.  Pattern index ``0`` is reserved for "no pattern assigned"; real
patterns use indices ``1 .. q``.

Because patterns are fixed after calibration, their products with the
weight tile — the Pattern-Weight Products (PWPs) — can be computed offline
and merely looked up at inference time (Section 3.1 of the paper).
"""

from __future__ import annotations

import numpy as np

#: Pattern index value meaning "no pattern assigned to this row".
NO_PATTERN = 0


def is_binary_matrix(arr: np.ndarray) -> bool:
    """Whether every element of ``arr`` is 0 or 1.

    Equivalent to checking the array's unique values against ``(0, 1)``
    but without the sort that implies: unsigned integer and boolean
    arrays only need a max check, everything else a single comparison
    pass.
    """
    if arr.dtype == np.bool_ or arr.dtype.kind == "u":
        return bool(arr.max(initial=0) <= 1)
    if arr.dtype.kind == "i":
        return bool(arr.size == 0 or (arr.max() <= 1 and arr.min() >= 0))
    return bool(((arr == 0) | (arr == 1)).all())


def _validate_binary(matrix: np.ndarray, name: str) -> np.ndarray:
    """Return ``matrix`` as a contiguous uint8 array, checking it is 0/1."""
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not is_binary_matrix(arr):
        raise ValueError(f"{name} must contain only 0/1 values")
    return np.ascontiguousarray(arr, dtype=np.uint8)


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack each binary row into ``max(1, ceil(k / 64))`` ``uint64`` words.

    Bits fill each word from its most significant end, in row order, and
    the padding bits are zero, so comparing two rows' words in order
    compares the rows lexicographically.
    """
    num_rows, width = rows.shape
    # Rows padded to whole bytes form one flat bit stream, so a single
    # flat packbits packs them all; zero bytes then pad each row to
    # whole words.  Nothing wider than the packed words is allocated.
    if width % 8:
        bits = np.zeros((num_rows, 8 * -(-width // 8)), dtype=np.uint8)
        bits[:, :width] = rows
    else:
        bits = np.ascontiguousarray(rows, dtype=np.uint8)
    row_bytes = bits.shape[1] // 8
    packed = np.zeros((num_rows, 8 * max(1, -(-width // 64))), dtype=np.uint8)
    packed[:, :row_bytes] = np.packbits(bits.reshape(-1)).reshape(num_rows, row_bytes)
    return packed.view(">u8").astype(np.uint64)


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct rows of a binary matrix, and where each row went.

    Returns ``(unique, inverse)``: ``unique`` equals ``np.unique(rows,
    axis=0)`` and ``unique[inverse]`` equals ``rows``.  Each row's
    :func:`pack_rows` words become one key (the word itself up to 64
    bits, the void view of the big-endian words beyond), and the keys sort
    as the rows do, so one 1-D unique over them replaces a row-wise sort.
    """
    words = pack_rows(rows)
    if words.shape[1] == 1:
        keys = words[:, 0]
    else:
        keys = words.astype(">u8").view(np.dtype((np.void, 8 * words.shape[1]))).ravel()
    keys, inverse = np.unique(keys, return_inverse=True)
    as_bytes = np.ascontiguousarray(keys, dtype=">u8" if keys.dtype.kind == "u" else keys.dtype)
    as_bytes = as_bytes.view(np.uint8).reshape(keys.shape[0], keys.dtype.itemsize)
    return np.unpackbits(as_bytes, axis=1, count=rows.shape[1]), inverse


def hamming_packed(rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The ``(n, q)`` Hamming distances between packed ``(n, w)`` and ``(q, w)`` words.

    The package's one Hamming kernel: each pair's XOR popcount, summed
    over the :func:`pack_rows` words, as ``int64``.
    """
    distances = np.bitwise_count(rows[:, 0, None] ^ centers[None, :, 0]).astype(np.int64)
    for word in range(1, rows.shape[1]):
        distances += np.bitwise_count(rows[:, word, None] ^ centers[None, :, word])
    return distances


class PatternSet:
    """The calibrated patterns of one partition.

    Parameters
    ----------
    patterns:
        Binary matrix of shape ``(q, k)``; row ``i`` holds the bits of the
        pattern with index ``i + 1``.
    """

    def __init__(self, patterns: np.ndarray) -> None:
        self._matrix = _validate_binary(patterns, "patterns")
        # pack_rows words of the patterns, built on first use.
        self._packed: np.ndarray | None = None

    @property
    def matrix(self) -> np.ndarray:
        """The ``(q, k)`` binary pattern matrix (read-only view)."""
        view = self._matrix.view()
        view.setflags(write=False)
        return view

    @property
    def num_patterns(self) -> int:
        """Number of patterns ``q`` in the set."""
        return int(self._matrix.shape[0])

    @property
    def width(self) -> int:
        """Partition width ``k``."""
        return int(self._matrix.shape[1])

    def __len__(self) -> int:
        return self.num_patterns

    def compute_pwps(self, weight_tile: np.ndarray) -> np.ndarray:
        """Compute the Pattern-Weight Products for a weight tile.

        Parameters
        ----------
        weight_tile:
            Array of shape ``(k, n)`` holding the weight rows of this
            partition.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(q + 1, n)``.  Row 0 is all zeros (for the
            "no pattern" index); row ``i`` is ``patterns[i-1] @ weight_tile``.
        """
        weight_tile = np.asarray(weight_tile, dtype=np.float64)
        if weight_tile.ndim != 2 or weight_tile.shape[0] != self.width:
            raise ValueError(
                f"weight_tile must have shape ({self.width}, n), got "
                f"{weight_tile.shape}"
            )
        products = self._matrix.astype(np.float64) @ weight_tile
        zero_row = np.zeros((1, weight_tile.shape[1]), dtype=np.float64)
        return np.vstack([zero_row, products])

    def match_counts(self, rows: np.ndarray) -> np.ndarray:
        """Hamming distance of each row against each pattern.

        Parameters
        ----------
        rows:
            Binary matrix of shape ``(m, k)``.

        Returns
        -------
        numpy.ndarray
            Integer matrix of shape ``(m, q)`` where entry ``(i, j)`` is the
            Hamming distance between row ``i`` and pattern ``j + 1``.
        """
        rows = _validate_binary(rows, "rows")
        if rows.shape[1] != self.width:
            raise ValueError(
                f"rows width {rows.shape[1]} does not match pattern width "
                f"{self.width}"
            )
        if self._packed is None:
            self._packed = pack_rows(self._matrix)
        return hamming_packed(pack_rows(rows), self._packed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternSet):
            return NotImplemented
        return np.array_equal(self._matrix, other._matrix)

    def __repr__(self) -> str:
        return f"PatternSet(q={self.num_patterns}, k={self.width})"

