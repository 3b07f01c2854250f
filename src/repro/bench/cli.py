"""Scenario runner and CLI of the benchmark trajectory.

Each scenario executes ``python -m repro.runner <experiment>`` in a fresh
subprocess so the in-process memo of the artifact store can never leak
warmth between scenarios; what *is* warm is controlled
purely through the cache and store directories handed to each run:

==============  ============  ============  ====
scenario        result cache  artifacts     jobs
==============  ============  ============  ====
serial_cold     fresh         fresh         1
parallel_cold   fresh         fresh         N
warm_store      fresh         kept          1
fully_warm      kept          kept          1
service_warm    kept          kept          1
fleet_warm      fresh         kept          1
==============  ============  ============  ====

``warm_store`` is the headline scenario of the artifact store: every
simulation still runs (the result cache is empty) but workloads,
calibrations and decompositions load from disk instead of being
recomputed.

``service_warm`` measures the served path: a ``python -m repro.service``
subprocess owns the warm engine and the measurement is one client
end-to-end round trip — submit the experiment as a job, wait for it,
fetch every raw record — so the delta over ``fully_warm`` is the HTTP +
job-model overhead of sweep-as-a-service.

``fleet_warm`` measures the durable fabric: the served engine plus one
``python -m repro.service worker`` subprocess, with the result cache
wiped so every point actually simulates — on the worker, whose records
stream back through the lease/ingest protocol.  The delta over
``warm_store`` is the full remote-execution round trip (lease grants,
heartbeats, HTTP ingest, sqlite journaling) for a sweep of the same
computational cost.

Examples
--------
Append the SMALL trajectory to ``BENCH_sweep.json``::

    python -m repro.bench --scale small --jobs 4

CI smoke run: TINY scenarios appended, then gated against the committed
baseline via the ``compare`` subcommand (per-scenario speedup ratios,
exit 1 past the 2x budget)::

    python -m repro.bench --scale tiny --jobs 2 --profile
    python -m repro.bench compare --baseline benchmarks/bench_baseline.json

``--profile`` additionally runs each scenario under ``cProfile`` and
writes a top-25 cumulative stats dump next to the trajectory file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

#: Bump when the entry layout in ``BENCH_sweep.json`` changes.
BENCH_SCHEMA_VERSION = 1

#: Scenario execution order (``warm_store``/``fully_warm``/
#: ``service_warm`` reuse the directories the first cold run populated).
SCENARIOS = (
    "serial_cold",
    "parallel_cold",
    "warm_store",
    "fully_warm",
    "service_warm",
    "fleet_warm",
)

#: Default trajectory file, kept at the repository root.
DEFAULT_OUTPUT = "BENCH_sweep.json"

_STATS_RE = re.compile(
    r"(?P<points>\d+) points, (?P<hits>\d+) cache hits, "
    r"(?P<executed>\d+) simulated"
    r"(?:, (?P<store_hits>\d+) store hits, (?P<store_misses>\d+) store misses)?"
    r", (?P<sweep>[\d.]+)s wall-clock"
)


@dataclass(frozen=True)
class BenchResult:
    """One timed scenario, as appended to ``BENCH_sweep.json``.

    ``store_hits`` / ``store_misses`` are the engine's artifact store
    counters, pool workers' included (``None`` for runs without a store
    or from versions that predate the counters) — they distinguish
    warm-store scenarios (all hits) from cold ones (all misses) in the
    trajectory.
    """

    schema: int
    timestamp: str
    experiment: str
    scale: str
    scenario: str
    jobs: int
    wall_seconds: float
    sweep_seconds: float | None
    points: int | None
    cache_hits: int | None
    executed: int | None
    code_version: str
    python: str
    cpu_count: int
    store_hits: int | None = None
    store_misses: int | None = None


def _runner_command(
    experiment: str,
    scale: str,
    jobs: int,
    cache_dir: pathlib.Path,
    store_dir: pathlib.Path,
    profile_path: pathlib.Path | None = None,
) -> list[str]:
    command = [sys.executable]
    if profile_path is not None:
        command += ["-m", "cProfile", "-o", str(profile_path)]
    command += [
        "-m",
        "repro.runner",
        experiment,
        "--scale",
        scale,
        "--jobs",
        str(jobs),
        "--cache-dir",
        str(cache_dir),
        "--store-dir",
        str(store_dir),
        "--quiet",
    ]
    return command


def run_scenario(
    scenario: str,
    *,
    experiment: str = "fig7",
    scale: str = "small",
    jobs: int = 4,
    workdir: pathlib.Path,
    profile_path: pathlib.Path | None = None,
) -> BenchResult:
    """Time one scenario in a fresh subprocess.

    Parameters
    ----------
    scenario:
        One of :data:`SCENARIOS`.
    experiment:
        ``python -m repro.runner`` subcommand to time.
    scale:
        Experiment scale tier name.
    jobs:
        Worker count used by the ``parallel_cold`` scenario (the others
        run serial by design).
    workdir:
        Scratch directory holding the scenario-controlled ``cache`` and
        ``store`` subdirectories.  Cold scenarios wipe them; warm ones
        reuse whatever previous scenarios left behind.
    profile_path:
        When given, the runner subprocess executes under ``cProfile``
        and writes its raw stats here (wall-clock includes the profiler
        overhead — compare profiled runs only with profiled runs).
        Ignored by ``service_warm``, whose timed work happens in the
        service process.

    Returns
    -------
    BenchResult
        Wall-clock measurement plus the engine's own stats line.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    from .. import __version__

    cache_dir = workdir / "cache"
    store_dir = workdir / "store"
    if scenario in ("serial_cold", "parallel_cold"):
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(store_dir, ignore_errors=True)
    elif scenario in ("warm_store", "fleet_warm"):
        # A wiped result cache is what forces real simulations — for
        # fleet_warm, on the remote worker rather than in the server.
        shutil.rmtree(cache_dir, ignore_errors=True)

    if scenario in ("service_warm", "fleet_warm"):
        return _run_service_scenario(
            experiment=experiment,
            scale=scale,
            cache_dir=cache_dir,
            store_dir=store_dir,
            fleet=scenario == "fleet_warm",
        )

    scenario_jobs = jobs if scenario == "parallel_cold" else 1
    command = _runner_command(
        experiment, scale, scenario_jobs, cache_dir, store_dir, profile_path
    )
    start = time.perf_counter()
    completed = subprocess.run(
        command, capture_output=True, text=True, env=os.environ.copy()
    )
    wall = time.perf_counter() - start
    if completed.returncode != 0:
        raise RuntimeError(
            f"benchmark run failed ({' '.join(command)}):\n{completed.stderr}"
        )
    match = _STATS_RE.search(completed.stdout)

    def _stat(name: str) -> int | None:
        if match is None or match.group(name) is None:
            return None
        return int(match.group(name))

    return BenchResult(
        schema=BENCH_SCHEMA_VERSION,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        experiment=experiment,
        scale=scale,
        scenario=scenario,
        jobs=scenario_jobs,
        wall_seconds=round(wall, 3),
        sweep_seconds=float(match.group("sweep")) if match else None,
        points=_stat("points"),
        cache_hits=_stat("hits"),
        executed=_stat("executed"),
        code_version=__version__,
        python=platform.python_version(),
        cpu_count=os.cpu_count() or 1,
        store_hits=_stat("store_hits"),
        store_misses=_stat("store_misses"),
    )


def _await_line(
    process: subprocess.Popen, prefix: str, command: list[str], *, timeout: float = 120
) -> str:
    """Block until ``process`` prints a line starting with ``prefix``.

    readline() has no timeout of its own; a watchdog thread bounds a
    hung startup so CI fails fast instead of hitting job limits.
    """
    first_line: list[str] = []
    reader = threading.Thread(
        target=lambda: first_line.append(process.stdout.readline()), daemon=True
    )
    reader.start()
    reader.join(timeout=timeout)
    line = first_line[0].strip() if first_line else ""
    if not line.startswith(prefix):
        process.kill()
        tail = line + (process.stdout.read() or "")
        raise RuntimeError(f"subprocess never ready ({' '.join(command)}):\n{tail}")
    return line


def _run_service_scenario(
    *,
    experiment: str,
    scale: str,
    cache_dir: pathlib.Path,
    store_dir: pathlib.Path,
    fleet: bool = False,
) -> BenchResult:
    """Time one client round trip against a served engine.

    Boots ``python -m repro.service serve --port 0`` as a subprocess on
    the scenario directories, waits for its "serving on" line, then
    measures submit → wait → fetch-all-records from this process.
    Server boot time is excluded on purpose: the service is long-lived,
    the per-request path is what the trajectory tracks.

    The server runs with the production-hardening surface *enabled*
    (bearer-token auth + JSONL audit log + sqlite journal), so the
    measured round trip — and the CI gate on it — includes the
    per-request cost of auth checking, audit writes and journaling, not
    an artificially bare server.

    With ``fleet=True`` (the ``fleet_warm`` scenario) one ``python -m
    repro.service worker`` subprocess joins the server first, and the
    wiped result cache forces every simulation onto that worker — the
    measurement is the full lease/ingest round trip.
    """
    from .. import __version__
    from ..service.client import ServiceClient

    token = "bench-service-token"
    scenario = "fleet_warm" if fleet else "service_warm"
    command = [
        sys.executable,
        "-m",
        "repro.service",
        "serve",
        "--port",
        "0",
        "--cache-dir",
        str(cache_dir),
        "--store-dir",
        str(store_dir),
        "--auth-token",
        token,
        "--audit-log",
        str(cache_dir / "bench-audit.jsonl"),
        "--quiet",
    ]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=os.environ.copy(),
    )
    worker = None
    try:
        line = _await_line(process, "serving on ", command)
        url = line.split()[-1]
        if fleet:
            worker_command = [
                sys.executable,
                "-m",
                "repro.service",
                "worker",
                "--server",
                url,
                "--store-dir",
                str(store_dir),
                "--token",
                token,
                "--poll",
                "0.1",
                "--quiet",
            ]
            worker = subprocess.Popen(
                worker_command,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=os.environ.copy(),
            )
            _await_line(worker, "worker ", worker_command)
        client = ServiceClient(url, token=token)
        start = time.perf_counter()
        job = client.run(experiment, scale=scale, timeout=600.0)
        client.records_for(job)
        wall = time.perf_counter() - start
        progress = job["progress"]
        if worker is not None:
            worker.terminate()
            worker.wait(timeout=60)
        client.shutdown()
        process.wait(timeout=60)
        return BenchResult(
            schema=BENCH_SCHEMA_VERSION,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            experiment=experiment,
            scale=scale,
            scenario=scenario,
            jobs=1,
            wall_seconds=round(wall, 3),
            sweep_seconds=None,
            points=progress["points"],
            cache_hits=progress["cache_hits"],
            executed=progress["executed"],
            code_version=__version__,
            python=platform.python_version(),
            cpu_count=os.cpu_count() or 1,
        )
    finally:
        for child in (worker, process):
            if child is not None and child.poll() is None:
                child.kill()
                child.wait(timeout=10)


def append_results(results: list[BenchResult], output: pathlib.Path) -> None:
    """Append entries to the trajectory file (a JSON array), atomically."""
    entries: list[dict] = []
    if output.exists():
        try:
            entries = json.loads(output.read_text())
        except ValueError:
            entries = []
        if not isinstance(entries, list):
            entries = []
    entries.extend(asdict(result) for result in results)
    fd, tmp_name = tempfile.mkstemp(dir=output.parent or None, suffix=".tmp")
    with os.fdopen(fd, "w") as handle:
        json.dump(entries, handle, indent=1)
        handle.write("\n")
    os.replace(tmp_name, output)


def latest_entries(trajectory_path: pathlib.Path) -> dict[str, dict]:
    """The most recent trajectory entry per ``experiment/scale/scenario``."""
    entries = json.loads(trajectory_path.read_text())
    if not isinstance(entries, list):
        raise ValueError(f"{trajectory_path} is not a JSON array")
    latest: dict[str, dict] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        key = f"{entry.get('experiment')}/{entry.get('scale')}/{entry.get('scenario')}"
        latest[key] = entry
    return latest


def compare_trajectory(
    trajectory_path: pathlib.Path,
    baseline_path: pathlib.Path,
    *,
    factor: float = 2.0,
) -> tuple[list[str], list[str]]:
    """Diff the latest trajectory entries against the committed baseline.

    For every baseline key with a trajectory measurement, computes the
    speedup ratio (baseline over measured wall seconds — above 1.0 is
    faster than the baseline).  A measurement *fails* when it exceeds
    ``factor`` times its baseline; this is the CI regression gate.
    Trajectory keys without a baseline entry are listed but never fail
    (the trajectory may grow scenarios before the baseline does).

    Returns
    -------
    (lines, failures)
        Human-readable per-scenario ratio lines, and the subset that
        regressed past the budget.
    """
    baseline = {
        key: value
        for key, value in json.loads(baseline_path.read_text()).items()
        if isinstance(value, (int, float))  # skips the "_comment" entry
    }
    latest = latest_entries(trajectory_path)
    lines: list[str] = []
    failures: list[str] = []
    for key in sorted(baseline):
        reference = float(baseline[key])
        entry = latest.get(key)
        if entry is None or not isinstance(entry.get("wall_seconds"), (int, float)):
            lines.append(f"{key}: baseline {reference:.2f}s, no measurement")
            continue
        measured = float(entry["wall_seconds"])
        ratio = reference / measured if measured > 0 else float("inf")
        verdict = f"{ratio:.2f}x faster" if ratio >= 1 else f"{1 / ratio:.2f}x slower"
        line = f"{key}: {measured:.2f}s vs {reference:.2f}s baseline ({verdict})"
        if measured > reference * factor:
            line += f" REGRESSION (budget {reference * factor:.2f}s = {factor:g}x)"
            failures.append(line)
        lines.append(line)
    extra = sorted(set(latest) - set(baseline))
    for key in extra:
        wall = latest[key].get("wall_seconds")
        if isinstance(wall, (int, float)):
            lines.append(f"{key}: {float(wall):.2f}s (no baseline entry)")
    return lines, failures


def perf_markdown_table(trajectory_path: pathlib.Path) -> str:
    """Render the latest trajectory entries as a Markdown table.

    One row per ``experiment/scale/scenario`` (most recent entry wins),
    ordered by scale tier then scenario execution order.  The README's
    performance table is this exact output, pinned by a docs test —
    regenerate it after appending new measurements::

        python - <<'PY'
        import pathlib
        from repro.bench.cli import perf_markdown_table
        print(perf_markdown_table(pathlib.Path("BENCH_sweep.json")))
        PY
    """
    scale_order = {"tiny": 0, "small": 1, "paper": 2}
    scenario_order = {name: i for i, name in enumerate(SCENARIOS)}

    def sort_key(item: tuple[str, dict]) -> tuple:
        experiment, scale, scenario = item[0].split("/")
        return (
            experiment,
            scale_order.get(scale, len(scale_order)),
            scenario_order.get(scenario, len(scenario_order)),
        )

    lines = [
        "| Experiment | Scale | Scenario | Jobs | Wall (s) | Sweep (s) | Store hits/misses |",
        "|---|---|---|---|---|---|---|",
    ]
    for key, entry in sorted(latest_entries(trajectory_path).items(), key=sort_key):
        experiment, scale, scenario = key.split("/")
        sweep = entry.get("sweep_seconds")
        hits, misses = entry.get("store_hits"), entry.get("store_misses")
        lines.append(
            "| `{}` | {} | `{}` | {} | {:.2f} | {} | {} |".format(
                experiment,
                scale,
                scenario,
                entry.get("jobs", "—"),
                float(entry["wall_seconds"]),
                f"{float(sweep):.2f}" if isinstance(sweep, (int, float)) else "—",
                f"{hits}/{misses}" if hits is not None else "—",
            )
        )
    return "\n".join(lines)


def write_profile_summary(
    profiles: dict[str, pathlib.Path], summary_path: pathlib.Path, *, top: int = 25
) -> None:
    """Dump each profiled scenario's top-``top`` cumulative stats to a file."""
    import io
    import pstats

    buffer = io.StringIO()
    for scenario, path in profiles.items():
        buffer.write(f"==== {scenario} ({path.name}) ====\n")
        try:
            stats = pstats.Stats(str(path), stream=buffer)
        except (OSError, TypeError, EOFError):
            buffer.write("profile unavailable\n\n")
            continue
        stats.sort_stats("cumulative").print_stats(top)
        buffer.write("\n")
    summary_path.write_text(buffer.getvalue())


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.bench`` argument parser."""
    from ..experiments.common import SCALE_TIERS

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time canonical sweep scenarios and append BENCH_sweep.json.",
    )
    sub = parser.add_subparsers(dest="command")
    compare = sub.add_parser(
        "compare",
        help="diff the latest trajectory entries against a baseline",
        description=(
            "Print per-scenario speedup/regression ratios of the latest "
            "BENCH_sweep.json entries against the committed baseline; "
            "exit 1 on any regression past the factor budget."
        ),
    )
    compare.add_argument(
        "--trajectory",
        default=DEFAULT_OUTPUT,
        help="trajectory file to read (default: %(default)s)",
    )
    compare.add_argument(
        "--baseline",
        default="benchmarks/bench_baseline.json",
        help="baseline file (default: %(default)s)",
    )
    compare.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="regression budget multiplier (default: %(default)s)",
    )
    parser.add_argument(
        "--scale",
        choices=tuple(SCALE_TIERS),
        default="small",
        help="experiment scale tier (default: %(default)s)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=4,
        help="workers for the parallel_cold scenario (default: %(default)s)",
    )
    parser.add_argument(
        "--experiment",
        default="fig7",
        help="repro.runner subcommand to time (default: %(default)s)",
    )
    parser.add_argument(
        "--scenarios",
        default=",".join(SCENARIOS),
        help="comma-separated scenario subset, in order (default: all)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default=DEFAULT_OUTPUT,
        help="trajectory file to append to (default: %(default)s)",
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="scratch directory for scenario caches (default: a temp dir)",
    )
    parser.add_argument(
        "--no-append",
        action="store_true",
        help="print results without touching the trajectory file",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run each scenario under cProfile and write a top-25 "
            "cumulative stats dump next to the trajectory file"
        ),
    )
    return parser


def _cmd_compare(args: argparse.Namespace) -> int:
    trajectory = pathlib.Path(args.trajectory)
    baseline = pathlib.Path(args.baseline)
    for path in (trajectory, baseline):
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2
    lines, failures = compare_trajectory(trajectory, baseline, factor=args.factor)
    for line in lines:
        print(line)
    if failures:
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        return 1
    print(f"all measured scenarios within {args.factor:g}x of {baseline}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the selected scenarios; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
    scenarios = [name.strip() for name in args.scenarios.split(",") if name.strip()]
    unknown = [name for name in scenarios if name not in SCENARIOS]
    if unknown:
        print(f"unknown scenarios: {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.workdir is not None:
        workdir = pathlib.Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        cleanup = None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-bench-")
        workdir = pathlib.Path(cleanup.name)

    try:
        results = []
        profiles: dict[str, pathlib.Path] = {}
        for scenario in scenarios:
            profile_path = None
            if args.profile and scenario not in ("service_warm", "fleet_warm"):
                profile_path = workdir / f"{scenario}.prof"
            result = run_scenario(
                scenario,
                experiment=args.experiment,
                scale=args.scale,
                jobs=args.jobs,
                workdir=workdir,
                profile_path=profile_path,
            )
            if profile_path is not None and profile_path.exists():
                profiles[scenario] = profile_path
            results.append(result)
            store_part = ""
            if result.store_hits is not None:
                store_part = (
                    f", store {result.store_hits} hits"
                    f"/{result.store_misses} misses"
                )
            print(
                f"{result.experiment}/{result.scale}/{result.scenario} "
                f"(jobs={result.jobs}): {result.wall_seconds:.2f}s wall, "
                f"sweep {result.sweep_seconds}s, "
                f"{result.cache_hits}/{result.points} cache hits{store_part}"
            )
        if profiles:
            summary = pathlib.Path(args.output).with_name("bench_profile.txt")
            write_profile_summary(profiles, summary)
            print(f"wrote profile summary to {summary}")
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    if not args.no_append:
        append_results(results, pathlib.Path(args.output))
        print(f"appended {len(results)} entries to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
