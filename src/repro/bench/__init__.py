"""Benchmark trajectory for the sweep engine (``python -m repro.bench``).

The bench subsystem times the canonical sweep scenarios — serial cold,
parallel cold, cold result cache with a warm artifact store, and fully
warm — in isolated subprocesses with scenario-controlled cache/store
directories, and appends machine-readable entries to ``BENCH_sweep.json``
so performance wins (and regressions) are tracked across commits.  Each
scenario's point counts and sweep time are parsed from the footer line
``python -m repro.runner`` prints after the experiment's report section.

There is one regression gate, ``python -m repro.bench compare``: it
fails when any scenario's latest wall time in the trajectory exceeds 2x
its entry in the committed ``benchmarks/bench_baseline.json``.  CI runs
the TINY scenarios, then that gate.
"""

from .cli import (
    BENCH_SCHEMA_VERSION,
    DEFAULT_OUTPUT,
    SCENARIOS,
    BenchResult,
    append_results,
    main,
    run_scenario,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchResult",
    "DEFAULT_OUTPUT",
    "SCENARIOS",
    "append_results",
    "main",
    "run_scenario",
]
