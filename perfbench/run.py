"""Benchmark entry point: set-up, timed repetitions and the result line.

Run from the repository root::

    python3 perfbench/run.py --workload dse_cold --seed 0 --seconds 10 --trace 0

Each repetition is a fresh interpreter (``perfbench/rep.py``) started only
after the previous one ended: a closed loop with one client.  With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` untraced and traced
repetitions alternate and it holds the per-layer metrics instead.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"

#: Set-ups per run: at least this many, for at least ``SETUP_MIN_S``
#: seconds; ``setup_s`` is their median.
SETUP_MIN_RUNS = 3
SETUP_MIN_S = 4.0
#: Fewest untraced and traced repetitions each in a ``--trace 1`` run.
TRACE_MIN_PAIRS = 3
#: Wall-clock budget of one invocation; no repetition starts that could
#: overrun it.
BUDGET_S = 170.0

#: Workload name -> (grid, worker processes, store filled during set-up,
#: fewest untraced repetitions however short ``--seconds``).
WORKLOADS = {
    "dse_cold": ("fig7", 1, False, 5),
    "dse_cold_par": ("fig7", 2, False, 4),
    "zoo_resim": ("fig8", 1, True, 8),
}


def _units() -> dict[str, str]:
    """Unit of every reported metric, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class RepFailed(RuntimeError):
    """A repetition exited non-zero or wrote no result."""


def _run_rep(args, work: pathlib.Path, out: pathlib.Path, timeout: float, *extra):
    """Run one ``rep.py`` process; return its wall seconds and result."""
    out.unlink(missing_ok=True)
    # The environment the CLI gets: BLAS threading is left to the package.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--work", str(work),
        "--out", str(out),
        *extra,
    ]
    begin = time.perf_counter()
    # A session of its own lets a timeout stop the pool workers as well.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired as error:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"repetition timed out after {timeout:.0f}s") from error
    wall = time.perf_counter() - begin
    if proc.returncode != 0 or not out.exists():
        raise RepFailed(f"repetition exited {proc.returncode}: {stderr[-2000:]}")
    return wall, json.loads(out.read_text())


def _clear(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description="Phi reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    _grid, jobs, prefilled, min_reps = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    traces = WORK / "traces"
    _clear(work)
    work.mkdir(parents=True)
    traces.mkdir(parents=True, exist_ok=True)
    out = work / "rep.json"
    started = time.perf_counter()

    def remaining() -> float:
        return BUDGET_S - (time.perf_counter() - started)

    try:
        setups = []
        while len(setups) < SETUP_MIN_RUNS or sum(setups) < SETUP_MIN_S:
            _clear(work / "store")
            wall, _ = _run_rep(args, work, out, remaining(), "--setup")
            setups.append(wall)
        setup_s = statistics.median(setups)

        measured = time.perf_counter()
        plain, traced, crashed = [], [], 0
        longest = 0.0
        while True:
            tracing = args.trace == 1 and len(plain) > len(traced)
            _clear(work / "cache")
            if not prefilled:
                _clear(work / "store")
            extra = ()
            if tracing:
                trace_dir = work / f"spans-{len(traced)}"
                _clear(trace_dir)
                trace_dir.mkdir()
                extra = ("--trace-dir", str(trace_dir))
            try:
                wall, rep = _run_rep(args, work, out, remaining(), *extra)
            except RepFailed as error:
                print(error, file=sys.stderr)
                crashed += 1
                if crashed > 1:
                    break
                continue
            rep["run_s"] = wall
            longest = max(longest, wall)
            if tracing:
                traced.append(rep)
                shutil.copyfile(
                    trace_dir / "trace.json",
                    traces / f"{args.workload}-seed{args.seed}-rep{len(traced)}.json",
                )
            else:
                plain.append(rep)
            if args.trace:
                enough = min(len(plain), len(traced)) >= TRACE_MIN_PAIRS
            else:
                enough = len(plain) >= min_reps
            if enough and time.perf_counter() - measured >= args.seconds:
                break
            if remaining() < 1.5 * longest:
                break
    except RepFailed as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        _clear(work)

    reps = plain + traced
    if not plain or (args.trace and not traced):
        print("too few repetitions completed", file=sys.stderr)
        return 1
    points = reps[0]["points"]
    reference = reps[0]["digest"]
    attempted = points * (len(reps) + crashed)
    failed = points * crashed
    for rep in reps:
        failed += points if rep["digest"] != reference else rep["invalid"]

    units = _units()
    median = statistics.median
    if args.trace == 0:
        metrics = {
            "setup_s": setup_s,
            "run_s": median(r["run_s"] for r in plain),
            "sweep_s": median(r["sweep_s"] for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
    else:
        metrics = {
            name: median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        sweep_s = median(r["sweep_s"] for r in traced)
        metrics["runner.worker_idle_frac"] = (
            1.0 - metrics["runner.worker_busy_s"] / (jobs * sweep_s) if jobs > 1 else 0.0
        )
        metrics["runner.engine_self_frac"] = metrics["runner.engine_self_s"] / sweep_s
        metrics["runner.import_s"] = median(r["import_s"] for r in traced)
        metrics["trace.overhead_s"] = median(r["run_s"] for r in traced) - median(
            r["run_s"] for r in plain
        )
        metrics.update(traced[0]["sim"])
        metrics["failed_frac"] = failed / attempted

    print(f"record digest {reference} ({points} points x {len(reps)} repetitions)")
    print("simulated statistics come from an unvalidated model: no error figure")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
