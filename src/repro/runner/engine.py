"""The parallel sweep engine.

A *sweep point* names everything needed to reproduce one simulation:
the accelerator (the Phi simulator, one of the analytical baselines, or
the decomposition-only density analysis), the algorithm and architecture
configurations, and a :class:`WorkloadSpec` describing how to regenerate
the fixed-seed workload.  :class:`SweepEngine` fans a list of points out
over ``multiprocessing`` workers and memoises every result in an on-disk
content-addressed cache, so design-space sweeps pay for each distinct
configuration exactly once — across processes, runs and experiments.

Workloads, calibrations and activation decompositions are deterministic
functions of ``(workload spec, PhiConfig)``, so a record computed
anywhere is valid everywhere.  The engine's parallel dispatch grain is
one pool task per ``(workload spec, PhiConfig)`` *unit* (see
:meth:`SweepEngine.run`).  A batch resolves each unit once, store or no
store — workload, then calibration, then decompositions — and both
``phi`` and ``phi_decomposition`` points read that one resolution.
Every artifact goes through one :class:`~repro.runner.store.ArtifactStore`
and its in-process memo.  When the engine carries a store, the artifacts
are also persisted on disk and each is computed once per configuration
ever — later units, workers and runs load them instead of re-running
workload generation, k-means or pattern matching.  Without one, a
process-wide memory-only store shares them within each process.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ..baselines.registry import BASELINE_CLASSES, get_accelerator
from ..core.calibration import ModelCalibration, PhiCalibrator
from ..core.config import PhiConfig
from ..core.metrics import (
    aggregate_breakdowns,
    aggregate_operation_counts,
    decomposition_metrics,
)
from ..core.paft import ActivationAligner
from ..core.sparsity import MatrixDecomposition
from ..hw.config import ArchConfig
from ..hw.energy import PhiEnergyModel
from ..hw.pipeline import AcceleratorModel, LayerResult, RunResult
from ..hw.simulator import PhiSimulator
from ..workloads.generator import cached_workload, generate_random_workload
from ..workloads.workload import LayerWorkload, ModelWorkload
from .cache import ResultCache, cache_key
from .store import (
    KIND_CALIBRATION,
    KIND_DECOMPOSITION,
    KIND_TRACE,
    KIND_WORKLOAD,
    ArtifactStore,
)

#: Bump on ANY change that affects cached records — the record layout OR
#: result-affecting simulator/calibration behaviour.  The package version
#: is also hashed into every key (see :meth:`SweepPoint.cache_payload`),
#: so releases invalidate the cache even when this stays constant.
#: v2: per-layer operation counts + pattern-match comparisons, efficiency
#: and area fields (the report pipeline consumes these).
#: v3: one canonical record for every accelerator, flattened from the
#: unified ``repro.hw.pipeline.RunResult`` schema — baselines gained
#: per-layer entries and area fields, every record embeds its ``schema``
#: version, and :func:`validate_record` checks the layout.  v2 entries
#: hash to different keys and are therefore ignored, never parsed.
CACHE_SCHEMA_VERSION = 3

#: Accelerator name for the decomposition-only density/op-count analysis
#: used by the Fig. 7a/b tile-size sweep (no cycle-level simulation).
DECOMPOSITION = "phi_decomposition"

#: Accelerators whose points read a unit's calibration and decompositions.
_PHI_KINDS = ("phi", DECOMPOSITION)


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to regenerate a workload deterministically.

    Parameters
    ----------
    model, dataset:
        Model-zoo and dataset names (``repro.workloads.generate_workload``
        arguments), or the special pair produced by :meth:`random` for the
        unstructured random matrices of Table 4.
    batch_size, num_steps, split, seed:
        Forwarded to the workload generator.
    paft_strength:
        When set, selects the post-PAFT variant: the activations are
        aligned towards the patterns calibrated on the *original* workload
        (see :func:`aligned_workload`).
    paft_seed:
        Seed of the PAFT alignment sampling.
    density, dims:
        Only for random workloads (see :meth:`random`): the probability of
        a 1 bit and the ``(m, k, n)`` GEMM dimensions.
    temporal:
        Unroll each GEMM per time step (layer names carry the step, see
        :mod:`repro.workloads.temporal`) instead of stacking the steps
        into one tall matrix.
    trace:
        Name of an imported activation trace (see :meth:`from_trace`):
        the workload is loaded from the artifact store's trace entry
        instead of being generated.
    """

    model: str
    dataset: str
    batch_size: int = 8
    num_steps: int = 4
    split: str = "test"
    seed: int = 0
    paft_strength: float | None = None
    paft_seed: int = 0
    density: float | None = None
    dims: tuple[int, int, int] | None = None
    temporal: bool = False
    trace: str | None = None

    def __post_init__(self) -> None:
        if self.is_random and (self.density is None or self.dims is None):
            raise ValueError(
                "random workload specs need density and dims; "
                "build them with WorkloadSpec.random()"
            )
        if self.trace is not None and self.dataset != "trace":
            raise ValueError(
                "trace specs must use dataset='trace'; "
                "build them with WorkloadSpec.from_trace()"
            )
        if self.trace is None and self.dataset == "trace":
            raise ValueError(
                "dataset='trace' needs a trace name; "
                "build the spec with WorkloadSpec.from_trace()"
            )
        if self.temporal and (self.is_random or self.is_trace):
            raise ValueError(
                "temporal unrolling applies to generated model workloads only"
            )

    @classmethod
    def random(
        cls,
        density: float,
        *,
        m: int = 512,
        k: int = 128,
        n: int = 64,
        seed: int = 0,
    ) -> "WorkloadSpec":
        """Spec for a random binary workload (Table 4 "Random" rows).

        Parameters
        ----------
        density:
            Probability of a 1 at each activation position.
        m, k, n:
            GEMM dimensions of the single random layer.
        seed:
            RNG seed of the random matrices.

        Returns
        -------
        WorkloadSpec
            A spec whose ``dataset`` is ``"random"``; workers regenerate
            the matrices from ``(density, dims, seed)`` deterministically.
        """
        return cls(
            model=f"random{int(density * 100)}",
            dataset="random",
            seed=seed,
            density=density,
            dims=(m, k, n),
        )

    @classmethod
    def from_trace(cls, name: str) -> "WorkloadSpec":
        """Spec for a workload imported with ``repro.runner trace import``.

        Parameters
        ----------
        name:
            The name the trace was registered under.

        Returns
        -------
        WorkloadSpec
            A spec whose ``dataset`` is ``"trace"``; the engine resolves
            it by loading the store's trace artifact instead of running
            a generator, so simulating it requires an artifact store.
        """
        return cls(model=str(name), dataset="trace", trace=str(name))

    @property
    def is_random(self) -> bool:
        """Whether this spec describes a random binary workload."""
        return self.dataset == "random"

    @property
    def is_trace(self) -> bool:
        """Whether this spec loads an imported trace from the store."""
        return self.trace is not None

    @property
    def key(self) -> str:
        """Canonical workload identifier."""
        return f"{self.model}/{self.dataset}"

    def to_dict(self) -> dict:
        """Serialise the spec to plain Python types (cache-key payload).

        ``temporal`` and ``trace`` are emitted only when set: specs that
        predate them serialise exactly as before, so their cache/store
        keys stay byte-identical.
        """
        data = {
            "model": self.model,
            "dataset": self.dataset,
            "batch_size": self.batch_size,
            "num_steps": self.num_steps,
            "split": self.split,
            "seed": self.seed,
            "paft_strength": self.paft_strength,
            "paft_seed": self.paft_seed,
            "density": self.density,
            "dims": list(self.dims) if self.dims is not None else None,
        }
        if self.temporal:
            data["temporal"] = True
        if self.trace is not None:
            data["trace"] = self.trace
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output (wire round-trip)."""
        data = dict(data)
        if data.get("dims") is not None:
            data["dims"] = tuple(data["dims"])
        return cls(**data)


@dataclass(frozen=True)
class SweepPoint:
    """One (accelerator, configuration, workload) grid point of a sweep."""

    workload: WorkloadSpec
    arch: ArchConfig
    phi: PhiConfig | None = None
    accelerator: str = "phi"
    buffer_scale: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        known = set(BASELINE_CLASSES) | set(_PHI_KINDS)
        if self.accelerator not in known:
            raise ValueError(
                f"unknown accelerator {self.accelerator!r}; expected one of "
                f"{sorted(known)}"
            )
        if self.accelerator in _PHI_KINDS and self.phi is None:
            raise ValueError(f"accelerator {self.accelerator!r} needs a PhiConfig")

    def cache_payload(self) -> dict:
        """The canonical payload hashed into this point's cache key.

        The display ``label`` is deliberately excluded: it does not
        influence the simulation result.
        """
        from .. import __version__

        return {
            "schema": CACHE_SCHEMA_VERSION,
            "code_version": __version__,
            "accelerator": self.accelerator,
            "buffer_scale": self.buffer_scale,
            "workload": self.workload.to_dict(),
            "arch": self.arch.to_dict(),
            "phi": self.phi.to_dict() if self.phi is not None else None,
        }

    def cache_key(self) -> str:
        """Content hash identifying this point in the result cache."""
        return cache_key(self.cache_payload())

    def to_dict(self) -> dict:
        """Serialise the point to plain Python types (wire payload).

        Unlike :meth:`cache_payload` this keeps the ``label`` and drops
        the schema/version envelope: it exists so a remote worker can
        rebuild the *same* point with :meth:`from_dict` and verify the
        round-trip by comparing :meth:`cache_key` values — any schema or
        code-version skew between server and worker surfaces as a key
        mismatch instead of a silently different record.
        """
        return {
            "workload": self.workload.to_dict(),
            "arch": self.arch.to_dict(),
            "phi": self.phi.to_dict() if self.phi is not None else None,
            "accelerator": self.accelerator,
            "buffer_scale": self.buffer_scale,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepPoint":
        """Rebuild a point from :meth:`to_dict` output."""
        phi = data.get("phi")
        return cls(
            workload=WorkloadSpec.from_dict(data["workload"]),
            arch=ArchConfig.from_dict(data["arch"]),
            phi=PhiConfig.from_dict(phi) if phi is not None else None,
            accelerator=data.get("accelerator", "phi"),
            buffer_scale=data.get("buffer_scale", 1.0),
            label=data.get("label", ""),
        )

    def describe(self) -> str:
        """Short human-readable tag for progress output."""
        if self.label:
            return self.label
        return f"{self.accelerator}:{self.workload.key}"


# --------------------------------------------------------------------- #
# Shared-artifact resolution (store-aware)
# --------------------------------------------------------------------- #
#: The artifact store consulted by the spec-level resolution helpers,
#: held *per thread* so concurrent :meth:`SweepEngine.run` calls (the job
#: service dispatches from multiple threads) never swap each other's
#: store out mid-batch.  ``None`` selects :data:`_MEMO`.  Serial engine
#: runs activate their store around the batch loop; pool workers set it
#: once in their initializer.
_ACTIVE = threading.local()

#: The process-wide memory-only store of runs without an artifact store.
_MEMO = ArtifactStore(None)


def _current_store() -> ArtifactStore:
    """The artifact store installed for the calling thread, or :data:`_MEMO`."""
    store = getattr(_ACTIVE, "store", None)
    # Not ``or``: an empty store is falsy (``ArtifactStore.__len__``).
    return _MEMO if store is None else store


@contextlib.contextmanager
def _active_store(store: ArtifactStore | None):
    """Temporarily install ``store`` as the calling thread's artifact store."""
    previous = getattr(_ACTIVE, "store", None)
    _ACTIVE.store = store
    try:
        yield
    finally:
        _ACTIVE.store = previous


def _pool_initializer(store_root: str | None, blas_threads: int) -> None:
    """Worker start-up: install the artifact store, if any; cap BLAS threads.

    Each worker's OpenBLAS would otherwise start a thread per core, so
    ``jobs`` workers would oversubscribe the machine ``jobs``-fold and
    parallel sweeps would run slower and far less steadily.  Workers fork
    after NumPy loaded OpenBLAS, too late for ``OPENBLAS_NUM_THREADS``, so
    the loaded library's own setter is called (Linux only).  Records do
    not depend on the thread count.
    """
    _ACTIVE.store = ArtifactStore(store_root) if store_root is not None else None
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
        libraries = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return
    for library in libraries:
        for name in ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            if hasattr(library, name):
                getattr(library, name)(blas_threads)


#: Per-thread progress hook installed by :func:`progress_scope`.  The
#: engine is shared by every service job, so progress cannot be an
#: engine-level attribute: each dispatcher thread sees only its own
#: job's completions.
_PROGRESS = threading.local()


@contextlib.contextmanager
def progress_scope(hook: Callable[[int, int, "SweepPoint", str], None]):
    """Receive per-point completion callbacks from enclosed engine runs.

    Every :meth:`SweepEngine.run` executed by the calling thread inside
    the ``with`` block invokes ``hook(done, total, point, origin)`` once
    per settled point, where ``origin`` is ``"cache"`` (result cache
    hit), ``"run"`` (simulated by this call) or ``"inflight"`` (shared
    with a concurrent run of the same point in another thread).  The
    hook runs on the engine thread and must be cheap and exception-free.
    """
    previous = getattr(_PROGRESS, "hook", None)
    _PROGRESS.hook = hook
    try:
        yield
    finally:
        _PROGRESS.hook = previous


def _base_spec(spec: WorkloadSpec) -> WorkloadSpec:
    """The spec of the underlying base workload (PAFT fields stripped)."""
    if spec.paft_strength is None and spec.paft_seed == 0:
        return spec
    return replace(spec, paft_strength=None, paft_seed=0)


def _artifact_payload(spec: WorkloadSpec, config: PhiConfig | None) -> dict:
    """The store-key payload of an artifact derived from (spec, config)."""
    return {
        "workload": spec.to_dict(),
        "phi": config.to_dict() if config is not None else None,
    }


def _trace_workload(spec: WorkloadSpec) -> ModelWorkload:
    """Load the imported trace workload named by ``spec`` from the store.

    Traces are first-class store artifacts: there is no generator to
    fall back to, so a missing store or a missing entry is an error with
    a pointer at the ``trace import`` CLI, never a silent regeneration.
    """
    store = _current_store()
    if store.root is None:
        raise RuntimeError(
            f"trace workload {spec.trace!r} needs an artifact store; "
            "run with --store-dir (or pass store= to the engine)"
        )
    workload = store.lookup(KIND_TRACE, {"trace": spec.trace})[1]
    if workload is None:
        raise RuntimeError(
            f"trace {spec.trace!r} not found in artifact store {store.root}; "
            "register it with 'python -m repro.runner trace import <npz>'"
        )
    return workload


def _stored(
    kind: str, payload: dict, compute: Callable, rebuild: Callable | None = None
):
    """The ``kind`` artifact for ``payload``: a store hit or ``compute()``.

    A computed artifact is put into the calling thread's store (see
    :func:`_current_store`).  ``rebuild`` turns a stored hit into the
    live artifact; only decompositions need one (see
    :class:`~repro.runner.store.DecompositionArtifact`).
    """
    store = _current_store()
    key, found = store.lookup(kind, payload)
    if found is not None:
        return found if rebuild is None else rebuild(found)
    artifact = compute()
    store.put(kind, key, artifact)
    return artifact


def _stored_base_workload(spec: WorkloadSpec) -> ModelWorkload:
    """Base workload for ``spec``: the imported trace, a store hit or generated."""
    spec = _base_spec(spec)
    if spec.is_trace:
        return _trace_workload(spec)
    return _stored(
        KIND_WORKLOAD, _artifact_payload(spec, None), lambda: _base_workload(spec)
    )


def _stored_calibration(
    spec: WorkloadSpec, config: PhiConfig, workload: ModelWorkload
) -> ModelCalibration:
    """Calibration of ``workload`` (described by ``spec``) under ``config``.

    ``spec`` must describe exactly the workload passed in — the full spec
    (including PAFT fields) for an aligned workload, the base spec for a
    base workload — because it is what the store key is derived from.
    """
    return _stored(
        KIND_CALIBRATION,
        _artifact_payload(spec, config),
        lambda: PhiCalibrator(config).calibrate_model(
            workload.activation_matrices()
        ),
    )


def _with_store_delta(task: Callable, *args):
    """``task(*args)`` plus the calling thread's store ``(hits, misses)`` delta.

    Pool workers keep their own store instances; their tasks return this
    delta so the parent can add it to its store's counters.
    """
    store = _current_store()
    hits, misses = store.hits, store.misses
    result = task(*args)
    return result, (store.hits - hits, store.misses - misses)


def _seed_workload(spec: WorkloadSpec) -> tuple[int, int]:
    """Pool task: materialise one base workload into the worker's store.

    Returns the worker store's ``(hits, misses)`` delta.
    """
    return _with_store_delta(_stored_base_workload, spec)[1]


def _base_workload(spec: WorkloadSpec) -> ModelWorkload:
    """Generate the base workload of a non-trace ``spec``."""
    if spec.is_random:
        m, k, n = spec.dims
        return generate_random_workload(
            density=spec.density, m=m, k=k, n=n, seed=spec.seed, name=spec.model
        )
    return cached_workload(
        spec.model,
        spec.dataset,
        batch_size=spec.batch_size,
        num_steps=spec.num_steps,
        seed=spec.seed,
        split=spec.split,
        temporal=spec.temporal,
    )


def aligned_workload(
    workload: ModelWorkload,
    calibration: ModelCalibration,
    *,
    strength: float,
    seed: int = 0,
) -> ModelWorkload:
    """The post-PAFT variant of ``workload`` (Section 3.3 effect model).

    Every layer of ``workload`` found in ``calibration`` — the base
    workload's calibration, the alignment target — is aligned towards
    its patterns; the other layers are kept as they are.
    """
    aligner = ActivationAligner(alignment_strength=strength, seed=seed)
    aligned = ModelWorkload(
        model_name=workload.model_name, dataset_name=workload.dataset_name
    )
    for layer in workload:
        if layer.name in calibration:
            activations = aligner.align_layer(layer.activations, calibration[layer.name])
        else:
            activations = layer.activations
        aligned.add(
            LayerWorkload(
                name=layer.name, activations=activations, weights=layer.weights
            )
        )
    return aligned


def _resolve_workload(point: SweepPoint) -> ModelWorkload:
    """The workload ``point`` runs on: its base workload or its PAFT variant.

    Aligned workloads are store artifacts of their own, keyed by the full
    spec (PAFT fields included) plus the aligning PhiConfig.
    """
    spec = point.workload
    if spec.paft_strength is None:
        return _stored_base_workload(spec)
    if point.phi is None:
        raise ValueError("PAFT workloads need a PhiConfig for calibration")

    def align() -> ModelWorkload:
        base_spec = _base_spec(spec)
        base = _stored_base_workload(base_spec)
        return aligned_workload(
            base,
            _stored_calibration(base_spec, point.phi, base),
            strength=spec.paft_strength,
            seed=spec.paft_seed,
        )

    return _stored(KIND_WORKLOAD, _artifact_payload(spec, point.phi), align)


def _resolve_unit(
    point: SweepPoint,
) -> tuple[ModelWorkload, ModelCalibration, dict[str, MatrixDecomposition]]:
    """Workload, calibration and per-layer decompositions of ``point``'s unit.

    Everything here is a function of the ``(workload spec, PhiConfig)``
    unit alone.  A plain spec's calibration equals the simulator's
    per-layer self-calibration.  For a PAFT spec the paper fine-tunes,
    then re-calibrates on the tuned network: the calibration is computed
    on the *aligned* workload (keyed by the full spec).  A decomposition
    stores its pattern assignments and Level 2 counts; a stored one is
    assembled against the workload and calibration without matching or
    counting anything.
    """
    spec, config = point.workload, point.phi
    workload = _resolve_workload(point)
    calibration = _stored_calibration(spec, config, workload)
    decompositions = _stored(
        KIND_DECOMPOSITION,
        _artifact_payload(spec, config),
        lambda: {
            layer.name: calibration[layer.name].decompose(layer.activations)
            for layer in workload
            if layer.name in calibration
        },
        rebuild=lambda found: found.rebuild(workload, calibration),
    )
    return workload, calibration, decompositions


# --------------------------------------------------------------------- #
# Record construction (cache schema v3)
# --------------------------------------------------------------------- #
def _counts_dict(ops) -> dict:
    return {
        "dense_ops": ops.dense_ops,
        "bit_sparse_ops": ops.bit_sparse_ops,
        "phi_level1_ops": ops.phi_level1_ops,
        "phi_level2_ops": ops.phi_level2_ops,
    }


def _layer_entry(layer: LayerResult) -> dict:
    """Flatten one canonical :class:`LayerResult` into a record entry."""
    entry = {
        "name": layer.layer_name,
        "m": layer.m,
        "k": layer.k,
        "n": layer.n,
        "compute_cycles": layer.compute_cycles,
        "memory_cycles": layer.memory_cycles,
        "total_cycles": layer.total_cycles,
        "operations": layer.operations,
        "activation_bytes": layer.activation_bytes,
        "activation_bytes_uncompressed": layer.activation_bytes_uncompressed,
        "weight_bytes": layer.weight_bytes,
        "pwp_bytes_prefetched": layer.pwp_bytes_prefetched,
        "pwp_bytes_unfiltered": layer.pwp_bytes_unfiltered,
        "output_bytes": layer.output_bytes,
        "psum_spill_bytes": layer.psum_spill_bytes,
        "dram_bytes": layer.dram_bytes,
        "pattern_match_comparisons": layer.pattern_match_comparisons,
    }
    if layer.operation_counts is not None:
        entry["operation_counts"] = _counts_dict(layer.operation_counts)
    return entry


def summarize_run(result: RunResult) -> dict:
    """Flatten any accelerator's :class:`RunResult` into a v3 record.

    Parameters
    ----------
    result:
        The canonical run result — the Phi simulator and every baseline
        emit the same schema, so one flattener serves them all.

    Returns
    -------
    dict
        JSON-serialisable record with aggregate metrics, area/efficiency
        fields and one entry per layer — the layout cached by the sweep
        engine and consumed by the experiment harnesses and the report
        pipeline.  Phi-only aggregates (operation counts, sparsity
        breakdown) are present whenever the layers carry them.
    """
    energy = result.energy
    record = {
        "schema": CACHE_SCHEMA_VERSION,
        "accelerator": result.accelerator,
        "model": result.model_name,
        "dataset": result.dataset_name,
        "total_cycles": result.total_cycles,
        "runtime_seconds": result.runtime_seconds,
        "total_operations": result.total_operations,
        "throughput_gops": result.throughput_gops,
        "energy_joules": result.energy_joules,
        "energy_efficiency_gops_per_joule": result.energy_efficiency_gops_per_joule,
        "energy": {"core": energy.core, "buffer": energy.buffer, "dram": energy.dram},
        "total_dram_bytes": result.total_dram_bytes,
        "area_mm2": result.area_mm2,
        "area_efficiency_gops_per_mm2": result.area_efficiency_gops_per_mm2,
        "layers": [_layer_entry(layer) for layer in result.layers],
    }
    if any(layer.operation_counts is not None for layer in result.layers):
        record["operation_counts"] = _counts_dict(result.aggregate_operations())
        record["breakdown"] = result.aggregate_breakdown().as_dict()
    return record


def model_for(point: SweepPoint) -> AcceleratorModel:
    """Construct the accelerator model that executes one sweep point.

    This is the single place the runner instantiates accelerator models;
    everything downstream drives them through the
    :class:`~repro.hw.pipeline.AcceleratorModel` interface only.
    """
    if point.accelerator == "phi":
        energy_model = PhiEnergyModel(point.arch, buffer_scale=point.buffer_scale)
        return PhiSimulator(point.arch, point.phi, energy_model=energy_model)
    return get_accelerator(point.accelerator, point.arch)


def _model_record(point: SweepPoint) -> dict:
    """Record of one baseline-accelerator point."""
    # _resolve_workload honours a PAFT spec for every accelerator (it
    # needs point.phi for the alignment calibration); a plain spec
    # resolves to the base workload.
    return summarize_run(model_for(point).simulate(_resolve_workload(point)))


def _decomposition_record(
    workload: ModelWorkload, decompositions: dict[str, MatrixDecomposition]
) -> dict:
    """Density / op-count analysis without cycle-level simulation."""
    breakdown_pairs = []
    counts = []
    for layer in workload:
        layer_counts, layer_breakdown = decomposition_metrics(
            decompositions[layer.name]
        )
        breakdown_pairs.append((layer_breakdown, layer.activations.size))
        counts.append(layer_counts)
    totals = aggregate_operation_counts(counts)
    breakdown = aggregate_breakdowns(breakdown_pairs)
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "operation_counts": _counts_dict(totals),
        "breakdown": breakdown.as_dict(),
    }


def simulate_point(point: SweepPoint) -> dict:
    """Execute one sweep point from scratch and return its record.

    This is the unit of work the engine dispatches to workers (and the
    seam tests monkeypatch to observe or stub simulator invocations).  A
    ``phi`` or ``phi_decomposition`` point runs as a batch of one through
    :func:`_simulate_phi_points`.
    """
    if point.accelerator in _PHI_KINDS:
        return _simulate_phi_points([point])[0]
    return _finalize_record(point, _model_record(point))


#: The unpatched :func:`simulate_point`, for detecting a stubbed seam.
_REAL_SIMULATE_POINT = simulate_point


def _finalize_record(point: SweepPoint, record: dict) -> dict:
    record["accelerator"] = point.accelerator
    record["model"] = point.workload.model
    record["dataset"] = point.workload.dataset
    return record


def _simulate_phi_points(points: Sequence[SweepPoint]) -> list[dict]:
    """Execute a batch of ``phi`` and ``phi_decomposition`` points.

    Each ``(workload spec, PhiConfig)`` unit of the batch is resolved
    once (:func:`_resolve_unit`), with or without a store, so e.g. a
    buffer-scaling sweep decomposes its workload once instead of once
    per point.  ``phi_decomposition`` points read their record off the
    unit's decompositions; ``phi`` points all go to one
    :func:`repro.hw.simulator.simulate_phi_many` call, which packs every
    layer of every point in one lockstep pass.  A point's record does not
    depend on the batch it runs in.
    """
    from ..hw.simulator import simulate_phi_many

    units: dict[tuple, list[int]] = {}
    for i, point in enumerate(points):
        units.setdefault(_unit_key(point), []).append(i)
    records: list[dict | None] = [None] * len(points)
    tasks, simulated = [], []
    for indices in units.values():
        workload, calibration, decompositions = _resolve_unit(points[indices[0]])
        for i in indices:
            point = points[i]
            if point.accelerator == DECOMPOSITION:
                record = _decomposition_record(workload, decompositions)
                records[i] = _finalize_record(point, record)
            else:
                tasks.append((model_for(point), workload, calibration, decompositions))
                simulated.append(i)
        # Unbind the unit before the next one resolves, so a unit with no
        # phi point is freed instead of peaking beside its successor.
        del workload, calibration, decompositions
    if tasks:
        for i, result in zip(simulated, simulate_phi_many(tasks)):
            records[i] = _finalize_record(points[i], summarize_run(result))
    return records  # type: ignore[return-value]


def simulate_many(points: Sequence[SweepPoint]) -> list[dict]:
    """Execute a batch of sweep points through one entry point.

    Points run inside one process; the active artifact store (the
    process-wide memory-only store when the engine has none) shares the
    derived state, so the first point of each ``(workload, PhiConfig)``
    unit pays for it and every later point — in this batch, this process
    or any store-sharing worker — reuses it.
    This is the unit of work the engine submits to pool workers.

    Baseline points run one by one.  ``phi`` and ``phi_decomposition``
    points (across every unit in the call) run as one batch of
    :func:`_simulate_phi_points`, with records put back in input order.
    When the :func:`simulate_point` seam has been replaced (tests stub
    it to observe or fake invocations), every point routes through the
    stub instead — batching is an optimisation of the real path only.

    Parameters
    ----------
    points:
        The batch to execute.

    Returns
    -------
    list of dict
        One v3 record per point, in input order.
    """
    records: list[dict | None] = [None] * len(points)
    batch: list[int] = []
    for i, point in enumerate(points):
        if point.accelerator in _PHI_KINDS and simulate_point is _REAL_SIMULATE_POINT:
            batch.append(i)
        else:
            records[i] = simulate_point(point)
    for i, record in zip(batch, _simulate_phi_points([points[i] for i in batch])):
        records[i] = record
    return records  # type: ignore[return-value]


def _simulate_with_shared(
    points: Sequence[SweepPoint],
) -> tuple[list[dict], tuple[int, int]]:
    """Pool task: run one unit's points against the worker's shared store.

    The points share a ``(workload spec, PhiConfig)`` unit, so the one
    :func:`simulate_many` call resolves the unit's calibration and
    decomposition once.  Returns the records in input order and the
    worker store's ``(hits, misses)`` delta.
    """
    return _with_store_delta(simulate_many, points)


# --------------------------------------------------------------------- #
# Record validation (cache schema v3)
# --------------------------------------------------------------------- #
#: Aggregate keys every v3 accelerator record must carry.
RECORD_REQUIRED_KEYS: tuple[str, ...] = (
    "accelerator",
    "model",
    "dataset",
    "total_cycles",
    "runtime_seconds",
    "total_operations",
    "throughput_gops",
    "energy_joules",
    "energy_efficiency_gops_per_joule",
    "energy",
    "total_dram_bytes",
    "area_mm2",
    "area_efficiency_gops_per_mm2",
    "layers",
)

#: Keys every per-layer entry of a v3 record must carry.
LAYER_REQUIRED_KEYS: tuple[str, ...] = (
    "name",
    "m",
    "k",
    "n",
    "compute_cycles",
    "memory_cycles",
    "total_cycles",
    "operations",
    "dram_bytes",
)


def validate_record(record: dict) -> list[str]:
    """Check one sweep record against the v3 schema.

    Parameters
    ----------
    record:
        A record as produced by :func:`simulate_point` (or loaded from
        the on-disk cache).

    Returns
    -------
    list of str
        Human-readable problems; empty when the record is valid.
        Records with a non-current ``schema`` field are *not* validated
        here — callers should treat them as legacy entries and ignore
        them (their cache keys can never be produced again).
    """
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected dict"]
    if record.get("schema") != CACHE_SCHEMA_VERSION:
        return [f"schema is {record.get('schema')!r}, expected {CACHE_SCHEMA_VERSION}"]
    if record.get("accelerator") == DECOMPOSITION:
        for key in ("operation_counts", "breakdown", "model", "dataset"):
            if key not in record:
                problems.append(f"missing key {key!r}")
        return problems
    for key in RECORD_REQUIRED_KEYS:
        if key not in record:
            problems.append(f"missing key {key!r}")
    energy = record.get("energy")
    if not isinstance(energy, dict) or not {"core", "buffer", "dram"} <= set(energy):
        problems.append("energy must map core/buffer/dram to Joules")
    layers = record.get("layers")
    if not isinstance(layers, list):
        problems.append("layers must be a list")
    else:
        for i, layer in enumerate(layers):
            if not isinstance(layer, dict):
                problems.append(f"layers[{i}] is not a mapping")
                continue
            for key in LAYER_REQUIRED_KEYS:
                if key not in layer:
                    problems.append(f"layers[{i}] missing key {key!r}")
    return problems


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #
def _unit_key(point: SweepPoint) -> tuple:
    """Dispatch-unit key: points sharing it share every derived artifact.

    A *unit* is one ``(workload spec, PhiConfig)`` pair — its points
    share the resolved workload, the calibration and the decomposition.
    The parallel engine submits one pool task per unit and the fleet
    leases one unit at a time, so a unit's shared artifacts are resolved
    once, in one process.
    """
    return (point.workload, point.phi)


def _pending_units(
    points: Sequence[SweepPoint], pending: dict[str, list[int]]
) -> list[list[str]]:
    """Group pending cache keys into dispatch units, in input order."""
    units: dict[tuple, list[str]] = {}
    for key, indices in pending.items():
        units.setdefault(_unit_key(points[indices[0]]), []).append(key)
    return list(units.values())


def _pending_spec_groups(
    points: Sequence[SweepPoint], pending: dict[str, list[int]]
) -> list[list[str]]:
    """Group pending cache keys by workload spec, in input order.

    The serial execution path dispatches one :func:`simulate_many` call
    per *workload spec* (not per unit), so points that share a workload
    but differ in PhiConfig — a pattern-count sweep, a buffer-scaling
    sweep — land in one stacked cross-point batch.
    """
    groups: dict[WorkloadSpec, list[str]] = {}
    for key, indices in pending.items():
        groups.setdefault(points[indices[0]].workload, []).append(key)
    return list(groups.values())


@dataclass
class SweepStats:
    """Accounting of one or more :meth:`SweepEngine.run` calls.

    ``inflight_hits`` counts points that were neither cached nor
    simulated by their own run: a concurrent :meth:`SweepEngine.run` in
    another thread was already computing the identical point, and this
    run waited for that record instead of duplicating the work.

    ``remote_hits`` counts points whose record came back from a fleet
    worker via the engine's ``dispatcher`` hook rather than a local
    simulation.  Remote points are *also* counted in ``executed``: from
    the caller's perspective they were executed (not cached), and the
    split between local and remote execution is deliberately invisible
    everywhere except these operator-facing stats.
    """

    requested: int = 0
    cache_hits: int = 0
    executed: int = 0
    inflight_hits: int = 0
    remote_hits: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of requested points served from the cache."""
        return self.cache_hits / self.requested if self.requested else 0.0


class _InFlight:
    """One pending point owned by some engine thread; others wait on it."""

    __slots__ = ("event", "record", "failed")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.record: dict | None = None
        self.failed = False


class SweepEngine:
    """Fan sweep points out over workers with on-disk result + artifact caches.

    Parameters
    ----------
    cache:
        Result cache, or ``None`` to disable caching entirely (every point
        recomputes — the default, so library callers keep pure behaviour
        unless they opt in).
    jobs:
        Worker processes.  ``1`` executes inline in this process (no pool,
        monkeypatch-friendly); higher values use a persistent process pool
        that stays warm across :meth:`run` calls (close it with
        :meth:`close` or by using the engine as a context manager).
    store:
        Shared artifact store for workloads, calibrations and
        decompositions, or ``None`` (the default) to keep them in the
        process-wide memory-only store.  With a store, each artifact is
        computed once per configuration ever — workers and later runs
        load it from disk.
    dispatcher:
        Optional remote-execution hook (duck-typed; the service layer
        passes its fleet coordinator).  Before simulating locally,
        :meth:`run` offers its pending points to
        ``dispatcher.dispatch({cache_key: point, ...})``; whatever
        subset of keys comes back mapped to records is settled exactly
        as if simulated here (cached, counted as executed), and only
        the remainder runs locally.  A dispatcher that raises is
        treated as having returned nothing — remote execution is an
        accelerator, never a correctness dependency.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        jobs: int = 1,
        store: ArtifactStore | None = None,
        dispatcher=None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.cache = cache
        self.jobs = jobs
        self.store = store
        self.dispatcher = dispatcher
        self.stats = SweepStats()
        self._warned_cache_unwritable = False
        self._pool: ProcessPoolExecutor | None = None
        # run() is re-entrant across threads (the job service dispatches
        # concurrent jobs onto one engine): the lock guards stats, pool
        # lifecycle and the in-flight table; the table guarantees a point
        # being simulated by one thread is never simulated again by
        # another — later arrivals wait for the first record.
        self._lock = threading.Lock()
        self._inflight: dict[str, _InFlight] = {}

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                store_root = str(self.store.root) if self.store is not None else None
                blas_threads = max(1, (os.cpu_count() or 1) // self.jobs)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_pool_initializer,
                    initargs=(store_root, blas_threads),
                )
            return self._pool

    def warm_up(self) -> None:
        """Create the worker pool now instead of on the first parallel run.

        Long-lived multithreaded owners (the job service) call this
        *before* starting their dispatcher/HTTP threads: the pool's
        worker processes are forked while the parent is still
        single-threaded, which sidesteps the classic
        fork-under-threads hazard of a child inheriting a lock some
        other thread held at fork time.  No-op for serial engines.
        """
        if self.jobs > 1:
            self._ensure_pool()

    def close(self) -> None:
        """Shut down the warm worker pool (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    def _emit(self, done: int, total: int, point: SweepPoint, origin: str) -> None:
        hook = getattr(_PROGRESS, "hook", None)
        if hook is not None:
            hook(done, total, point, origin)

    def _count(self, field: str, n: int = 1) -> None:
        with self._lock:
            setattr(self.stats, field, getattr(self.stats, field) + n)

    def _claim(self, key: str) -> tuple[_InFlight, bool]:
        """Claim ``key`` for this run, or join another thread's claim.

        Returns the in-flight entry and whether this run owns it (owner
        computes and must resolve; joiners wait on the entry's event).
        """
        with self._lock:
            entry = self._inflight.get(key)
            if entry is not None:
                return entry, False
            entry = self._inflight[key] = _InFlight()
            return entry, True

    def _resolve(self, key: str, record: dict | None, *, failed: bool = False) -> None:
        """Publish an owned key's record (or failure) and release waiters."""
        with self._lock:
            entry = self._inflight.pop(key, None)
        if entry is not None:
            entry.record = record
            entry.failed = failed
            entry.event.set()

    def run(self, points: Sequence[SweepPoint]) -> list[dict]:
        """Execute every point (cache first), preserving input order.

        Points with identical cache keys within one batch are executed
        once and the record is shared across their result slots.  The
        serial path runs the pending points in one :func:`simulate_many`
        call per workload spec.  The parallel path groups them into
        ``(workload spec, PhiConfig)`` units and submits one pool task
        per unit, so a unit's calibration and decomposition are resolved
        once, by one worker.  Records stream back as tasks complete and
        are written to the result cache incrementally.

        ``run`` is re-entrant: concurrent calls from multiple threads
        (the job service's dispatchers) share one engine safely, and a
        point already being simulated by another thread is *waited for*,
        never recomputed — each distinct point is simulated exactly once
        across all concurrent runs (see :class:`SweepStats`'s
        ``inflight_hits``).  Progress can be observed per-thread via
        :func:`progress_scope`.

        Parameters
        ----------
        points:
            The sweep grid to execute.

        Returns
        -------
        list of dict
            One JSON-friendly record per input point, in input order.
        """
        points = list(points)
        self._count("requested", len(points))
        records: list[dict | None] = [None] * len(points)
        # key -> indices of every point that resolves to that key; owned
        # keys are computed by this run, awaited keys by a concurrent one.
        pending: dict[str, list[int]] = {}
        awaited: dict[str, tuple[list[int], _InFlight]] = {}
        done = 0

        # Owned keys not yet settled — what the failure path must
        # release.  Tracked separately from `pending` because a settled
        # key may already have been re-claimed by another thread (no
        # cache), and resolving it again would fail that thread's entry.
        unsettled: set[str] = set()

        def settle(key: str, record: dict) -> None:
            nonlocal done
            for i in pending[key]:
                records[i] = record
                done += 1
                self._emit(done, len(points), points[i], "run")
            self._finish(points[pending[key][0]], record)
            unsettled.discard(key)
            self._resolve(key, record)

        try:
            for i, point in enumerate(points):
                key = point.cache_key()
                if key in pending:
                    pending[key].append(i)
                    continue
                if key in awaited:
                    awaited[key][0].append(i)
                    continue
                cached = self.cache.get(key) if self.cache is not None else None
                if cached is None:
                    entry, owned = self._claim(key)
                    if owned and self.cache is not None:
                        # The previous owner may have finished (and
                        # cached) between our miss and our claim;
                        # re-check so the exactly-once guarantee has no
                        # race window.
                        cached = self.cache.get(key)
                        if cached is not None:
                            self._resolve(key, cached)
                if cached is not None:
                    records[i] = cached
                    self._count("cache_hits")
                    done += 1
                    self._emit(done, len(points), point, "cache")
                elif owned:
                    pending[key] = [i]
                    unsettled.add(key)
                else:
                    awaited[key] = ([i], entry)

            if pending and self.dispatcher is not None:
                # Offer the pending work to the fleet first.  The
                # dispatcher returns whatever subset the workers
                # completed (possibly nothing — no workers registered,
                # leases expired, draining); the rest runs locally, so
                # callers cannot tell how many nodes served their sweep.
                representatives = {
                    key: points[indices[0]] for key, indices in pending.items()
                }
                try:
                    remote = self.dispatcher.dispatch(representatives) or {}
                except Exception:
                    remote = {}
                for key, record in remote.items():
                    if key in unsettled:
                        settle(key, record)
                        self._count("remote_hits", len(pending[key]))
                        del pending[key]

            if pending:
                if self.jobs == 1 or len(pending) == 1:
                    with _active_store(self.store):
                        for keys in _pending_spec_groups(points, pending):
                            results = simulate_many(
                                [points[pending[k][0]] for k in keys]
                            )
                            for key, record in zip(keys, results):
                                settle(key, record)
                else:
                    self._run_parallel(points, pending, settle)
        except BaseException:
            # Owned keys that never settled must not strand waiters in
            # other threads: publish the failure so they recompute.
            for key in unsettled:
                self._resolve(key, None, failed=True)
            raise

        for key, (indices, entry) in awaited.items():
            entry.event.wait()
            if entry.failed or entry.record is None:
                # The owning run died.  Another waiter may already have
                # recovered and cached the record — re-check before
                # recomputing; without a cache each waiter recomputes
                # (deterministically identical, degraded but correct).
                record = self.cache.get(key) if self.cache is not None else None
                if record is not None:
                    self._count("cache_hits", len(indices))
                    origin = "cache"
                else:
                    with _active_store(self.store):
                        record = simulate_many([points[indices[0]]])[0]
                    self._finish(points[indices[0]], record)
                    origin = "run"
            else:
                record = entry.record
                self._count("inflight_hits", len(indices))
                origin = "inflight"
            for i in indices:
                records[i] = record
                done += 1
                self._emit(done, len(points), points[i], origin)
        return records  # type: ignore[return-value]

    def _run_parallel(
        self,
        points: list[SweepPoint],
        pending: dict[str, list[int]],
        settle,
    ) -> None:
        """Run each pending unit as one task on the warm worker pool."""
        if self.store is not None:
            self._seed_workloads(points, pending)
        pool = self._ensure_pool()
        futures = {}
        for keys in _pending_units(points, pending):
            batch = [points[pending[key][0]] for key in keys]
            futures[pool.submit(_simulate_with_shared, batch)] = keys
        try:
            for future in as_completed(futures):
                records, counts = future.result()
                self._add_store_counts(counts)
                for key, record in zip(futures[future], records):
                    settle(key, record)
        except BaseException:
            # A failed or interrupted run must not leave its own queued
            # tasks running — but the pool is shared with concurrent
            # runs (the service's dispatcher threads), so cancel only
            # this run's futures, never the whole pool.
            for future in futures:
                future.cancel()
            raise

    def _add_store_counts(self, counts: tuple[int, int]) -> None:
        """Add a pool task's store ``(hits, misses)`` to this engine's store."""
        if self.store is not None:
            self.store.add_counts(*counts)

    def _seed_workloads(
        self, points: list[SweepPoint], pending: dict[str, list[int]]
    ) -> None:
        """Materialise every pending base workload into the store.

        Workload generation (an SNN forward pass) is common to every unit
        of the same spec; seeding every missing spec before dispatch
        means no two unit tasks ever race to regenerate one.  The
        generation itself runs as pool tasks, so distinct workloads
        materialise concurrently instead of serially on this thread.
        """
        missing: list[WorkloadSpec] = []
        seen: set[WorkloadSpec] = set()
        for indices in pending.values():
            spec = _base_spec(points[indices[0]].workload)
            # Trace workloads already live in the store — there is
            # nothing to materialise.
            if spec in seen or spec.is_trace:
                continue
            seen.add(spec)
            key = self.store.key(KIND_WORKLOAD, _artifact_payload(spec, None))
            if not self.store.contains(key):
                missing.append(spec)
        if not missing:
            return
        pool = self._ensure_pool()
        for future in [pool.submit(_seed_workload, spec) for spec in missing]:
            self._add_store_counts(future.result())

    def _finish(self, point: SweepPoint, record: dict) -> None:
        self._count("executed")
        if self.cache is not None:
            try:
                self.cache.put(point.cache_key(), record)
            except OSError as error:
                # A full or unwritable cache (ENOSPC, revoked perms) must
                # not fail a sweep whose record is already computed: the
                # cache is an accelerator, never a correctness
                # dependency — the same contract as ArtifactStore.put.
                # Cache.put is atomic (tmp + os.replace with unlink on
                # failure), so a failed write leaves no partial record.
                if not self._warned_cache_unwritable:
                    self._warned_cache_unwritable = True
                    warnings.warn(
                        f"result cache {self.cache.root} is unwritable "
                        f"({error}); records from this run will not persist",
                        RuntimeWarning,
                        stacklevel=2,
                    )

    # ------------------------------------------------------------------ #
    def run_one(self, point: SweepPoint) -> dict:
        """Convenience wrapper for a single point."""
        return self.run([point])[0]
