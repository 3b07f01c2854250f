"""One benchmark repetition (or one set-up) in a fresh interpreter.

``run.py`` starts this script once per repetition, so the in-process
memos of the package (``cached_workload``, the calibration memo, the
artifact store's memo) never carry work from one repetition to the next.
It writes one JSON object to ``--out``::

    python3 perfbench/rep.py --workload dse_cold --seed 0 \
        --work .perfbench-work/dse_cold --out rep.json [--trace-dir DIR]

``--setup`` runs the workload's set-up instead: it imports the runner
and builds the grid, and for a workload whose store starts filled it
runs the grid once with the store and no result cache.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import pathlib
import resource
import time

#: Record fields summed into the ``sim.*`` statistics.
SIM_FIELDS = {
    "sim.total_cycles": ("total_cycles",),
    "sim.dram_bytes": ("total_dram_bytes",),
    "sim.energy_j": ("energy_joules",),
    "sim.phi_level1_ops": ("operation_counts", "phi_level1_ops"),
    "sim.phi_level2_ops": ("operation_counts", "phi_level2_ops"),
}


def _numbers(value):
    """Every numeric leaf of a record."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)


def check_records(records: list[dict]) -> int:
    """Number of records that fail the schema or hold a bad statistic."""
    from repro.runner import validate_record

    bad = 0
    for record in records:
        if validate_record(record) or not all(
            math.isfinite(x) and x >= 0 for x in _numbers(record)
        ):
            bad += 1
    return bad


def sim_statistics(records: list[dict]) -> dict[str, float]:
    """Exact sums of the simulated statistics over ``records``."""
    sums = {}
    for metric, path in SIM_FIELDS.items():
        total = 0
        for record in records:
            value = record
            for key in path:
                value = value.get(key) if isinstance(value, dict) else None
            if value is not None:
                total += value
        sums[metric] = total
    return sums


def digest(records: list[dict]) -> str:
    """Canonical SHA-256 of every record, in grid order."""
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of each live pool worker.

    Pages a worker shares copy-on-write with the parent (NumPy, the
    imported package, state built before the fork) count once per
    process, so with a pool this overstates the memory in use.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = pathlib.Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--trace-dir", type=pathlib.Path, default=None)
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import repro.runner as runner

    import_s = time.perf_counter() - start

    tracer = None
    if args.trace_dir is not None:
        import tracer as tracing

        tracer = tracing.install(args.trace_dir)
    from grids import GRIDS
    from run import WORKLOADS

    grid, jobs, prefilled, _min_reps = WORKLOADS[args.workload]
    sweeps = GRIDS[grid](args.seed)
    store = runner.ArtifactStore(args.work / "store")
    if args.setup:
        if prefilled:
            with runner.SweepEngine(store=store) as engine:
                for points in sweeps:
                    engine.run(points)
        args.out.write_text(json.dumps({"import_s": import_s}))
        return

    cache = runner.ResultCache(args.work / "cache")
    records: list[dict] = []
    sweep_s = 0.0
    with runner.SweepEngine(cache=cache, store=store, jobs=jobs) as engine:
        for points in sweeps:
            begin = time.perf_counter()
            records += engine.run(points)
            sweep_s += time.perf_counter() - begin
        peak_rss_mb = _peak_rss_mb()

    result = {
        "import_s": import_s,
        "sweep_s": sweep_s,
        "peak_rss_mb": peak_rss_mb,
        "points": len(records),
        "invalid": check_records(records),
        "digest": digest(records),
        "sim": sim_statistics(records),
    }
    if tracer is not None:
        events, counts = tracer.collect()
        result["layers"] = tracing.layer_metrics(events, counts)
        trace_path = args.trace_dir / "trace.json"
        trace_path.write_text(json.dumps(tracing.chrome_trace(events)))
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
