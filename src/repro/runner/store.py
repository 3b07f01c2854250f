"""Content-addressed on-disk store for shared sweep artifacts.

The expensive state a sweep point needs before any cycle-level simulation
— the generated workload (an SNN forward pass), the k-means Phi
calibration and the two-level activation decomposition — is a pure
function of ``(workload spec, PhiConfig)``.  The :class:`ArtifactStore`
persists each of these under a content hash of exactly those inputs (plus
the package version and a store schema version), so they are computed
once per configuration *ever*: parallel workers, later runs and other
experiments all load the stored artifact instead of re-deriving it.

Storage is one file per artifact, fanned out over two-hex-digit
subdirectories like the result cache, written atomically (temp file +
``os.replace``) so concurrent writers can never corrupt an entry and a
killed worker can never leave a half-written file behind.  Concurrent
writers of the same key compute identical content — whichever replace
lands last wins, harmlessly.  A corrupt or unreadable file is treated as
a miss and recomputed, mirroring the result cache's semantics.

The file itself is a plain ``.npy`` holding one ``uint8`` vector: a
small JSON directory followed by each payload array's raw bytes at
64-byte-aligned offsets (see :func:`pack_arrays`).  Reads go through
``np.load(path, mmap_mode="r")``, so loading an artifact maps the file
once and slices every array out as a *read-only, zero-copy view* — no
decompression, no per-array header parsing, no heap copies.  Pool
workers map the same files, so the page cache shares one copy of each
artifact between them.

Array payloads round-trip bit-exactly through the container, so a loaded
artifact is indistinguishable from a freshly computed one; the golden
regression suite and the report manifest check pin this.  A
decomposition is stored as its two ``(M, partitions)`` matrices, the
pattern assignments and the Level 2 counts, and a hit is assembled from
their mapped views against the workload and calibration it belongs to:
nothing is matched, counted or copied on the warm path.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import threading
import warnings
from typing import Any, Callable, Mapping

import numpy as np

from ..core.calibration import LayerCalibration, ModelCalibration
from ..core.config import PhiConfig
from ..core.patterns import PatternSet
from ..core.sparsity import MatrixDecomposition, rebuild_decomposition
from ..workloads.workload import LayerWorkload, ModelWorkload
from .cache import cache_key

#: Bump on ANY change to artifact layouts or to the deterministic
#: computations they capture (workload generation, calibration,
#: decomposition).  The package version is hashed into every key too, so
#: releases invalidate the store even when this stays constant.
#: v2: mmap-friendly single-``.npy`` container replaced the ``.npz``
#: archive.
#: v3: imported-trace artifacts (``KIND_TRACE``) joined the store.
#: v4: decompositions store their Level 2 count matrix next to the
#: pattern assignments.
STORE_SCHEMA_VERSION = 4

#: Artifact kinds the store recognises (part of every key payload).
KIND_WORKLOAD = "workload"
KIND_CALIBRATION = "calibration"
KIND_DECOMPOSITION = "decomposition"
KIND_TRACE = "trace"


def default_store_dir() -> pathlib.Path:
    """The default artifact store location.

    ``REPRO_STORE_DIR`` overrides it; otherwise artifacts live next to
    the result cache under the XDG cache home so repeated sweeps share
    calibrations across checkouts.
    """
    env = os.environ.get("REPRO_STORE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "phi-repro" / "store"


# --------------------------------------------------------------------- #
# The zero-copy array container
# --------------------------------------------------------------------- #
#: Leading bytes of every container payload; a mismatch means the file
#: does not hold a v2 artifact.
CONTAINER_MAGIC = b"PHIART02"

#: Alignment of every array block inside the container.  The ``.npy``
#: format itself aligns its data section to 64 bytes, so block offsets
#: that are multiples of 64 guarantee naturally aligned typed views.
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def pack_arrays(
    arrays: Mapping[str, np.ndarray],
) -> tuple[bytes, list[np.ndarray], int]:
    """Lay out named arrays as a container prefix plus data blocks.

    Returns the serialized prefix (magic, directory length, JSON
    directory, padding to the first block offset), the C-contiguous
    arrays in directory order, and the total payload size.  Writing the
    prefix followed by each block's raw bytes — zero-padded up to the
    next 64-byte boundary between blocks — produces a complete payload.

    The directory records each block's absolute offset, and offsets
    shift the directory's own JSON length, so the layout is solved to a
    fixpoint (it converges in two or three passes: offsets only grow
    with digit count, which stabilises immediately).
    """
    blocks: list[np.ndarray] = []
    entries: list[dict[str, Any]] = []
    for name, array in arrays.items():
        block = np.ascontiguousarray(array)
        blocks.append(block)
        entries.append(
            {
                "name": name,
                "dtype": np.lib.format.dtype_to_descr(block.dtype),
                "shape": list(block.shape),
                "nbytes": int(block.nbytes),
                "offset": 0,
            }
        )
    head = len(CONTAINER_MAGIC) + 8
    while True:
        directory = json.dumps({"arrays": entries}).encode("utf-8")
        offset = _aligned(head + len(directory))
        changed = False
        for entry in entries:
            if entry["offset"] != offset:
                entry["offset"] = offset
                changed = True
            offset = _aligned(offset + entry["nbytes"])
        if not changed:
            break
    data_start = _aligned(head + len(directory))
    total = entries[-1]["offset"] + entries[-1]["nbytes"] if entries else data_start
    prefix = CONTAINER_MAGIC + len(directory).to_bytes(8, "little") + directory
    prefix += b"\0" * (data_start - len(prefix))
    return prefix, blocks, total


def write_packed(handle, prefix: bytes, blocks: list[np.ndarray]) -> int:
    """Stream a :func:`pack_arrays` layout into ``handle``.

    Writes sequentially (no full-payload buffer); returns the number of
    bytes written, which equals the layout's total payload size.
    """
    handle.write(prefix)
    written = len(prefix)
    for block in blocks:
        pad = _aligned(written) - written
        if pad:
            handle.write(b"\0" * pad)
            written += pad
        if block.nbytes:
            handle.write(memoryview(block).cast("B"))
            written += block.nbytes
    return written


def unpack_arrays(payload: np.ndarray) -> dict[str, np.ndarray]:
    """Zero-copy views of every array in a container ``payload``.

    ``payload`` is the container as a 1-D ``uint8`` array — typically a
    read-only memmap from ``np.load(..., mmap_mode="r")``.  The returned
    arrays alias the payload's storage (no copies); they inherit its
    writability, so memmap-backed artifacts are naturally read-only.

    Raises ``ValueError`` on any malformed container.
    """
    if payload.ndim != 1 or payload.dtype != np.uint8:
        raise ValueError("container payload must be a 1-D uint8 array")
    head = len(CONTAINER_MAGIC)
    if payload[:head].tobytes() != CONTAINER_MAGIC:
        raise ValueError("bad container magic")
    length = int.from_bytes(payload[head : head + 8].tobytes(), "little")
    if length < 0 or head + 8 + length > payload.size:
        raise ValueError("container directory out of bounds")
    directory = json.loads(payload[head + 8 : head + 8 + length].tobytes())
    arrays: dict[str, np.ndarray] = {}
    for entry in directory["arrays"]:
        dtype = np.dtype(entry["dtype"])
        offset, nbytes = entry["offset"], entry["nbytes"]
        if offset + nbytes > payload.size:
            raise ValueError("array block out of bounds")
        flat = payload[offset : offset + nbytes].view(dtype)
        arrays[entry["name"]] = flat.reshape(entry["shape"])
    return arrays


# --------------------------------------------------------------------- #
# Artifact codecs (one pair per artifact kind)
# --------------------------------------------------------------------- #
def _encode_workload(workload: ModelWorkload) -> dict[str, np.ndarray]:
    meta = {
        "model_name": workload.model_name,
        "dataset_name": workload.dataset_name,
        "layers": workload.layer_names(),
    }
    arrays: dict[str, np.ndarray] = {"meta": np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )}
    for i, layer in enumerate(workload):
        arrays[f"a{i}"] = layer.activations
        arrays[f"w{i}"] = layer.weights
    return arrays


def _decode_meta(arrays: Mapping[str, np.ndarray]) -> dict:
    return json.loads(bytes(arrays["meta"]).decode("utf-8"))


def _decode_workload(arrays: Mapping[str, np.ndarray]) -> ModelWorkload:
    meta = _decode_meta(arrays)
    workload = ModelWorkload(
        model_name=meta["model_name"], dataset_name=meta["dataset_name"]
    )
    for i, name in enumerate(meta["layers"]):
        workload.add(
            LayerWorkload(
                name=name, activations=arrays[f"a{i}"], weights=arrays[f"w{i}"]
            )
        )
    return workload


def _encode_calibration(calibration: ModelCalibration) -> dict[str, np.ndarray]:
    layers = []
    arrays: dict[str, np.ndarray] = {}
    for i, name in enumerate(calibration.layer_names()):
        layer = calibration[name]
        layers.append(
            {
                "name": name,
                "partition_size": layer.partition_size,
                "total_width": layer.total_width,
                "num_partitions": layer.num_partitions,
            }
        )
        for p, pattern_set in enumerate(layer.pattern_sets):
            arrays[f"p{i}_{p}"] = pattern_set.matrix
    config = calibration.config
    meta = {"layers": layers, "config": config.to_dict() if config else None}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    return arrays


def _decode_calibration(arrays: Mapping[str, np.ndarray]) -> ModelCalibration:
    meta = _decode_meta(arrays)
    config = PhiConfig.from_dict(meta["config"]) if meta["config"] else None
    calibration = ModelCalibration(config=config)
    for i, layer in enumerate(meta["layers"]):
        pattern_sets = tuple(
            PatternSet(arrays[f"p{i}_{p}"]) for p in range(layer["num_partitions"])
        )
        calibration.add(
            LayerCalibration(
                layer_name=layer["name"],
                pattern_sets=pattern_sets,
                partition_size=layer["partition_size"],
                total_width=layer["total_width"],
            )
        )
    return calibration


def _encode_decompositions(
    decompositions: "Mapping[str, MatrixDecomposition] | DecompositionArtifact",
) -> dict[str, np.ndarray]:
    # Each layer stores its two (M, partitions) matrices, the pattern
    # assignments and the Level 2 counts, in their in-memory dtypes.  The
    # original tiles are the workload's activations, so a hit is
    # assembled by :func:`repro.core.sparsity.rebuild_decomposition`
    # without matching or counting.
    if isinstance(decompositions, DecompositionArtifact):
        items = list(decompositions.layers.items())
    else:
        items = [
            (name, (decomposition.pattern_indices, decomposition.level2_nonzeros))
            for name, decomposition in decompositions.items()
        ]
    layers = []
    arrays: dict[str, np.ndarray] = {}
    for i, (name, (indices, counts)) in enumerate(items):
        layers.append({"name": name})
        arrays[f"i{i}"] = indices
        arrays[f"c{i}"] = counts
    arrays["meta"] = np.frombuffer(
        json.dumps({"layers": layers}).encode("utf-8"), dtype=np.uint8
    )
    return arrays


class DecompositionArtifact:
    """Stored decomposition matrices awaiting a workload + calibration.

    Assembling a decomposition needs the activation matrices and pattern
    sets, which the caller already holds (they come from sibling store
    entries), so the artifact carries only each layer's pattern
    assignments and Level 2 counts.
    """

    def __init__(self, layers: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
        self.layers = layers

    def rebuild(
        self, workload: ModelWorkload, calibration: ModelCalibration
    ) -> dict[str, MatrixDecomposition]:
        """The decomposition of every stored layer."""
        activations = workload.activation_matrices()
        return {
            name: rebuild_decomposition(
                activations[name],
                calibration[name].pattern_sets,
                calibration[name].partition_size,
                indices,
                counts,
            )
            for name, (indices, counts) in self.layers.items()
        }


def _decode_decompositions(arrays: Mapping[str, np.ndarray]) -> DecompositionArtifact:
    layers = {}
    for i, layer in enumerate(_decode_meta(arrays)["layers"]):
        indices, counts = arrays[f"i{i}"], arrays[f"c{i}"]
        if indices.ndim != 2 or counts.shape != indices.shape or counts.dtype.kind != "u":
            raise ValueError(f"layer {layer['name']!r}: malformed decomposition matrices")
        layers[layer["name"]] = (indices, counts)
    return DecompositionArtifact(layers)


_CODECS: dict[str, tuple[Callable, Callable]] = {
    KIND_WORKLOAD: (_encode_workload, _decode_workload),
    KIND_CALIBRATION: (_encode_calibration, _decode_calibration),
    KIND_DECOMPOSITION: (_encode_decompositions, _decode_decompositions),
    # A trace is a recorded ModelWorkload imported from outside the
    # generator (``repro.runner trace import``); it shares the workload
    # container layout but is addressed by user-chosen name.
    KIND_TRACE: (_encode_workload, _decode_workload),
}


def _artifact_nbytes(artifact: Any) -> int:
    """Estimated array payload of a memoised artifact, in bytes."""
    if isinstance(artifact, ModelWorkload):
        return sum(
            layer.activations.nbytes + layer.weights.nbytes for layer in artifact
        )
    if isinstance(artifact, ModelCalibration):
        return sum(
            pattern_set.matrix.nbytes
            for name in artifact.layer_names()
            for pattern_set in artifact[name].pattern_sets
        )
    if isinstance(artifact, DecompositionArtifact):
        return sum(
            indices.nbytes + counts.nbytes
            for indices, counts in artifact.layers.values()
        )
    return 0


# --------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------- #
class ArtifactStore:
    """A directory of content-addressed, mmap-readable artifacts.

    Parameters
    ----------
    root:
        Store directory (created lazily on the first ``put``), or
        ``None`` for a memory-only store: nothing is read from or written
        to disk, and the memo below is the whole store.

    Notes
    -----
    Reads are zero-copy: ``get`` maps the artifact file with
    ``np.load(path, mmap_mode="r")`` and returns an artifact whose
    arrays are read-only views of the mapping — bytes are paged in on
    first touch and shared between every process that maps the same
    file.  Callers must treat loaded artifacts as read-only, which
    every consumer of workloads and calibrations already does (the
    views enforce it: writes raise).

    Loaded and stored artifacts are additionally memoised in-process (one
    dict per store instance, keyed by content hash), so repeated
    ``lookup`` calls within a worker never re-open or re-decode the
    file.  The memo is bounded twice over — by entry count
    (``memo_entries``) and by estimated array bytes
    (``memo_budget_bytes``, which matters for long-lived services whose
    workload artifacts can each hold tens of MB of activations) — with
    FIFO eviction, and decomposition entries are memoised in their
    stored form (:class:`DecompositionArtifact`).

    ``hits`` / ``misses`` count disk outcomes of ``get``; an answer from
    the memo counts as neither, so ``hits`` is the number of artifacts
    this store *reused* from disk.  They surface in the runner's stats
    line and the bench trajectory as ``store_hits`` / ``store_misses``.
    """

    #: Maximum number of memoised artifacts per store instance.
    memo_entries = 128

    #: Approximate cap on the memo's total array payload, in bytes.
    memo_budget_bytes = 512 * 1024 * 1024

    def __init__(self, root: pathlib.Path | str | None) -> None:
        self.root = pathlib.Path(root) if root is not None else None
        self._memo: dict[str, Any] = {}
        self._memo_bytes = 0
        # One store instance is shared by every dispatcher thread of the
        # job service; the lock keeps membership checks and the FIFO
        # eviction scan coherent under that concurrency.
        self._memo_lock = threading.Lock()
        self._warned_unwritable = False
        self.hits = 0
        self.misses = 0

    def _memoise(self, key: str, artifact: Any) -> None:
        size = _artifact_nbytes(artifact)
        with self._memo_lock:
            memo = self._memo
            evicted = memo.pop(key, None)
            if evicted is not None:
                self._memo_bytes -= _artifact_nbytes(evicted)
            while memo and (
                len(memo) >= self.memo_entries
                or self._memo_bytes + size > self.memo_budget_bytes
            ):
                self._memo_bytes -= _artifact_nbytes(memo.pop(next(iter(memo))))
            memo[key] = artifact
            self._memo_bytes += size

    def _memoised(self, key: str) -> Any | None:
        with self._memo_lock:
            return self._memo.get(key)

    # ------------------------------------------------------------------ #
    def key(self, kind: str, payload: Mapping[str, Any]) -> str:
        """Content hash for an artifact of ``kind`` derived from ``payload``.

        The payload must contain every input the artifact's computation
        depends on (the engine passes the workload-spec and Phi-config
        dicts); kind, store schema version and package version are mixed
        in here.

        Trace artifacts are *imported* data, not a derived computation,
        so their keys deliberately omit the package version: a recorded
        trace must stay addressable across releases.
        """
        from .. import __version__

        if kind not in _CODECS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        return cache_key(
            {
                "kind": kind,
                "store_schema": STORE_SCHEMA_VERSION,
                "code_version": None if kind == KIND_TRACE else __version__,
                "payload": dict(payload),
            }
        )

    def trace_key(self, name: str) -> str:
        """Store key of the imported trace registered under ``name``."""
        return self.key(KIND_TRACE, {"trace": str(name)})

    def lookup(self, kind: str, payload: Mapping[str, Any]) -> tuple[str, Any | None]:
        """Key of the ``kind`` artifact for ``payload``, plus the artifact.

        The memo answers first, without counting; otherwise :meth:`get`
        reads the disk.  The artifact is ``None`` on a miss.
        """
        key = self.key(kind, payload)
        found = self._memoised(key)
        if found is None:
            found = self.get(kind, key)
        return key, found

    def path_for(self, key: str) -> pathlib.Path:
        """File that stores (or would store) the artifact for ``key``."""
        return self.root / key[:2] / f"{key}.npy"

    # ------------------------------------------------------------------ #
    def _count(self, field: str) -> None:
        with self._memo_lock:
            setattr(self, field, getattr(self, field) + 1)

    def load_payload(self, key: str) -> np.ndarray | None:
        """The raw container payload for ``key`` as a read-only memmap.

        ``None`` on miss or corruption, and always for a memory-only store.
        """
        if self.root is None:
            return None
        try:
            payload = np.load(self.path_for(key), mmap_mode="r")
        except (OSError, ValueError, EOFError):
            return None
        if (
            not isinstance(payload, np.ndarray)
            or payload.ndim != 1
            or payload.dtype != np.uint8
        ):
            return None
        return payload

    def get(self, kind: str, key: str) -> Any | None:
        """The artifact stored on disk for ``key``, or ``None`` on miss.

        Reads the disk only (the memo is :meth:`lookup`'s), memoises what
        it reads and counts the outcome in ``hits`` / ``misses``.  A
        corrupt or unreadable file counts as a miss: callers recompute
        and overwrite rather than fail.  Array payloads of a hit are
        read-only zero-copy views of the mapped file.
        """
        payload = self.load_payload(key)
        if payload is not None:
            try:
                artifact = _CODECS[kind][1](unpack_arrays(payload))
            except (ValueError, KeyError, json.JSONDecodeError):
                payload = None
            else:
                self._count("hits")
                self._memoise(key, artifact)
                return artifact
        self._count("misses")
        return None

    def add_counts(self, hits: int, misses: int) -> None:
        """Add ``get`` outcomes counted by another instance on this root.

        The parallel engine's pool workers each open their own store;
        the engine adds every task's counts here, so ``hits`` and
        ``misses`` cover the whole sweep.
        """
        with self._memo_lock:
            self.hits += hits
            self.misses += misses

    def put(self, kind: str, key: str, artifact: Any) -> None:
        """Atomically persist ``artifact`` under ``key`` (and memoise it).

        A memory-only store memoises the artifact and writes nothing.

        Decompositions are memoised in their stored form, the
        assignment and count matrices, not with the activations the
        producer's decompositions hold: a later ``lookup`` assembles
        them against the workload without copying anything.

        An unwritable store (read-only directory, full disk, root
        replaced by a file) degrades to compute-without-persist: the
        artifact stays memoised in this process, a one-time warning is
        emitted, and the caller's sweep proceeds — the store is an
        accelerator, never a correctness dependency.
        """
        arrays = _CODECS[kind][0](artifact)
        if kind == KIND_DECOMPOSITION:
            self._memoise(key, _CODECS[kind][1](arrays))
        else:
            self._memoise(key, artifact)
        if self.root is None:
            return
        path = self.path_for(key)
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=key[:8], suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                # Stream straight to the temp file: buffering the whole
                # container in memory first would double large workloads'
                # footprint per concurrent put.  The outer ``.npy``
                # header needs the payload length up front, which
                # ``pack_arrays``'s directory provides exactly.
                prefix, blocks, size = pack_arrays(arrays)
                np.lib.format.write_array_header_1_0(
                    handle,
                    {"descr": "|u1", "fortran_order": False, "shape": (size,)},
                )
                written = write_packed(handle, prefix, blocks)
                if written != size:
                    raise ValueError(
                        f"container size mismatch: wrote {written}, declared {size}"
                    )
            os.replace(tmp_name, path)
        except BaseException as error:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            if not isinstance(error, OSError):
                raise
            if not self._warned_unwritable:
                self._warned_unwritable = True
                warnings.warn(
                    f"artifact store {self.root} is not writable ({error}); "
                    "continuing without persisting shared artifacts",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def contains(self, key: str) -> bool:
        """Whether an artifact for ``key`` is memoised or on disk."""
        return self._memoised(key) is not None or (
            self.root is not None and self.path_for(key).exists()
        )

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self.root is None or not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.npy"))

    def clear(self) -> int:
        """Delete every stored artifact; returns the number removed."""
        with self._memo_lock:
            self._memo.clear()
            self._memo_bytes = 0
        removed = 0
        if self.root is None or not self.root.exists():
            return removed
        for path in self.root.glob("*/*.npy"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
