"""Parallel sweep engine with on-disk content-addressed caches.

The runner decouples *what* an experiment sweeps (a grid of
``(PhiConfig, ArchConfig, workload)`` points) from *how* the grid is
executed (serial, multi-process, cached).  Experiments build
:class:`SweepPoint` lists and hand them to a :class:`SweepEngine`; the
engine returns JSON-friendly records and memoises each one under the
SHA-256 hash of the point's full configuration.  An optional
:class:`ArtifactStore` additionally shares the expensive intermediate
state — generated workloads, k-means calibrations, activation
decompositions — across workers and runs.

See ``python -m repro.runner --help`` for the CLI.
"""

from .cache import ResultCache, cache_key, default_cache_dir
from .engine import (
    CACHE_SCHEMA_VERSION,
    DECOMPOSITION,
    SweepEngine,
    SweepPoint,
    WorkloadSpec,
    aligned_workload,
    progress_scope,
    simulate_many,
    simulate_point,
    summarize_run,
    validate_record,
)
from .store import ArtifactStore, default_store_dir

__all__ = [
    "ArtifactStore",
    "CACHE_SCHEMA_VERSION",
    "DECOMPOSITION",
    "ResultCache",
    "SweepEngine",
    "SweepPoint",
    "WorkloadSpec",
    "aligned_workload",
    "cache_key",
    "default_cache_dir",
    "default_store_dir",
    "progress_scope",
    "simulate_many",
    "simulate_point",
    "summarize_run",
    "validate_record",
]
