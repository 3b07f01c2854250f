"""Command-line entry point for the parallel sweep engine.

Examples
--------
Run the Fig. 7 design-space exploration on 4 workers with the on-disk
cache (the second invocation is served almost entirely from cache)::

    python -m repro.runner fig7 --scale small --jobs 4

Other figures, any registered experiment, and a generic grid sweep::

    python -m repro.runner fig8 --jobs 4
    python -m repro.runner fig12
    python -m repro.runner exp table4 --scale tiny --jobs 4
    python -m repro.runner exp temporal --scale tiny
    python -m repro.runner sweep --model vgg16 --dataset cifar100 \
        --patterns 8,16,32,64 --jobs 4
    python -m repro.runner trace import dump.npz --name mytrace
    python -m repro.runner sweep --trace mytrace --patterns 16,32
    python -m repro.runner cache --clear
    python -m repro.runner store --clear
    python -m repro.runner validate-cache

``trace import`` registers recorded activations (an ``.npz`` with paired
``act:<layer>`` / ``weight:<layer>`` arrays) as a first-class store
artifact; ``sweep --trace`` then simulates the imported workload instead
of a generated one.

``exp`` accepts every name in the experiment registry
(:mod:`repro.experiments.registry`) and prints the experiment's report
section, the same Markdown as ``python -m repro.report --only <name>``;
the full multi-experiment report is ``python -m repro.report``.
``fig7`` and ``fig12`` are shorthands for ``exp fig7`` and ``exp fig12``.
``fig8`` is ``exp fig8`` over the seven default workloads (``--full``:
all twelve) at every tier, where ``exp fig8`` applies the tier's preset.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
import time

from .cache import ResultCache, default_cache_dir
from .engine import SweepEngine, SweepPoint, WorkloadSpec, progress_scope
from .store import KIND_TRACE, ArtifactStore, default_store_dir


def _scale(name: str):
    from ..experiments.common import SCALE_TIERS

    return SCALE_TIERS[name]


def _engine_from_args(args: argparse.Namespace) -> SweepEngine:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    store = None if args.no_store else ArtifactStore(args.store_dir)
    return SweepEngine(cache=cache, jobs=args.jobs, store=store)


def _print_progress(done: int, total: int, point: SweepPoint, origin: str) -> None:
    print(
        f"[{done}/{total}] {point.describe()} ({origin})", file=sys.stderr, flush=True
    )


def _progress(args: argparse.Namespace):
    """One ``[i/n] label (origin)`` stderr line per settled point, unless ``-q``."""
    if args.quiet:
        return contextlib.nullcontext()
    return progress_scope(_print_progress)


def _add_common(parser: argparse.ArgumentParser) -> None:
    from ..experiments.common import SCALE_TIERS

    parser.add_argument(
        "--scale",
        choices=tuple(SCALE_TIERS),
        default="small",
        help="experiment scale (default: small)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (default: 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=default_cache_dir(),
        help="result cache directory (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    parser.add_argument(
        "--store-dir",
        default=default_store_dir(),
        help="shared artifact store directory (default: %(default)s)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the shared workload/calibration store",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true", help="suppress progress output"
    )
    parser.add_argument(
        "--remote",
        default=None,
        metavar="URL",
        help=(
            "submit to a running `python -m repro.service serve` instead of "
            "simulating locally (e.g. http://127.0.0.1:8731)"
        ),
    )


def _report(engine: SweepEngine, elapsed: float) -> None:
    stats = engine.stats
    store_line = ""
    if engine.store is not None:
        store_line = (
            f", {engine.store.hits} store hits, {engine.store.misses} store misses"
        )
    print(
        f"\n{stats.requested} points, {stats.cache_hits} cache hits, "
        f"{stats.executed} simulated{store_line}, {elapsed:.2f}s wall-clock"
    )


def _run_remote(
    args: argparse.Namespace, name: str, overrides: dict | None = None
) -> int:
    """Execute a registered experiment on a remote sweep service.

    Submits ``(name, scale, overrides)`` as a job, waits for it, and
    renders the returned section payload — so the remote path produces
    the same Markdown as ``python -m repro.report --only <name>`` while
    all simulation happens in the service's warm engine.
    """
    from ..experiments.registry import get_experiment
    from ..report.emitters import section_markdown
    from ..service.client import ServiceClient, ServiceError

    client = ServiceClient(args.remote)
    start = time.perf_counter()
    try:
        job = client.submit(name, scale=args.scale, overrides=overrides or {})
        if not args.quiet and job.get("deduplicated"):
            print(f"joined in-flight job {job['id']}", file=sys.stderr)
        if job["status"] != "done":
            job = client.wait_for(job["id"])
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    print(section_markdown(get_experiment(name), job["payload"]))
    progress = job["progress"]
    print(
        f"\n{progress['points']} points via {args.remote} "
        f"(job {job['id']}): {progress['cache_hits']} cache hits, "
        f"{progress['executed']} simulated, "
        f"{progress['inflight_hits']} shared in-flight, "
        f"{elapsed:.2f}s wall-clock"
    )
    return 0


def _cmd_exp(args: argparse.Namespace, overrides: dict | None = None) -> int:
    from ..experiments.registry import get_experiment
    from ..report.emitters import build_payload, section_markdown

    if args.remote:
        return _run_remote(args, args.name, overrides)
    spec = get_experiment(args.name)
    with _engine_from_args(args) as engine, _progress(args):
        start = time.perf_counter()
        result = spec.run(args.scale, engine=engine, **(overrides or {}))
        elapsed = time.perf_counter() - start
    print(section_markdown(spec, build_payload(spec, result)))
    _report(engine, elapsed)
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from ..experiments.fig8 import DEFAULT_WORKLOADS, FULL_WORKLOADS

    # Always send the workload list: omitting it would let the registry's
    # per-tier presets pick a different (smaller) set.
    workloads = FULL_WORKLOADS if args.full else DEFAULT_WORKLOADS
    return _cmd_exp(args, {"workloads": [list(pair) for pair in workloads]})


def load_trace_npz(path: pathlib.Path | str, *, model: str) -> "ModelWorkload":
    """Parse a trace ``.npz`` dump into a :class:`ModelWorkload`.

    The archive must hold one ``act:<layer>`` binary activation matrix
    and one ``weight:<layer>`` weight matrix per recorded GEMM; layers
    keep the archive's order.  Any structural problem — unreadable
    archive, unpaired arrays, shape/K mismatches, non-binary activations
    — raises ``ValueError`` with the offending layer named.
    """
    import numpy as np

    from ..workloads.workload import LayerWorkload, ModelWorkload

    try:
        archive = np.load(path)
        files = list(archive.files)
    except Exception as error:
        raise ValueError(f"cannot read trace archive {path}: {error}") from error
    names = [key[len("act:"):] for key in files if key.startswith("act:")]
    if not names:
        raise ValueError(
            f"trace archive {path} holds no 'act:<layer>' arrays; expected "
            "paired 'act:<layer>' / 'weight:<layer>' entries"
        )
    expected = {f"act:{n}" for n in names} | {f"weight:{n}" for n in names}
    stray = sorted(set(files) - expected)
    missing = sorted(expected - set(files))
    if missing or stray:
        raise ValueError(
            f"trace archive {path} is malformed: "
            f"missing {missing or 'nothing'}, unexpected {stray or 'nothing'}"
        )
    workload = ModelWorkload(model_name=model, dataset_name="trace")
    for name in names:
        try:
            workload.add(
                LayerWorkload(
                    name=name,
                    activations=archive[f"act:{name}"],
                    weights=archive[f"weight:{name}"],
                )
            )
        except ValueError as error:
            raise ValueError(f"trace layer {name!r}: {error}") from error
    return workload


def _trace_summary(name: str, workload) -> str:
    from ..report.emitters import markdown_table

    rows = [
        {
            "layer": layer.name,
            "M": layer.m,
            "K": layer.k,
            "N": layer.n,
            "bit_density": round(layer.bit_density, 4),
        }
        for layer in workload
    ]
    header = (
        f"trace {name!r}: {len(workload)} layers, "
        f"model {workload.model_name!r}"
    )
    return header + "\n" + markdown_table(rows)


def _cmd_trace(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store_dir)
    if args.trace_command == "import":
        path = pathlib.Path(args.npz)
        name = args.name or path.stem
        try:
            workload = load_trace_npz(path, model=args.model or name)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        key = store.trace_key(name)
        store.put(KIND_TRACE, key, workload)
        stored = store.get(KIND_TRACE, key)
        if stored is None:
            print(
                f"error: trace {name!r} could not be persisted to {store.root}",
                file=sys.stderr,
            )
            return 1
        print(_trace_summary(name, stored))
        print(f"registered as {key} in {store.root}")
        return 0
    workload = store.get(KIND_TRACE, store.trace_key(args.name))
    if workload is None:
        print(
            f"error: trace {args.name!r} not found in {store.root}; "
            "register it with 'python -m repro.runner trace import <npz>'",
            file=sys.stderr,
        )
        return 1
    print(_trace_summary(args.name, workload))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from ..report.emitters import markdown_table

    if args.remote:
        print(
            "error: `sweep` builds ad-hoc grids and cannot run remotely; "
            "use a registered experiment (`exp <name> --remote URL`)",
            file=sys.stderr,
        )
        return 2
    scale = _scale(args.scale)
    pattern_counts = [int(q) for q in args.patterns.split(",") if q]
    if args.trace:
        if args.no_store:
            print(
                "error: --trace needs the artifact store (drop --no-store)",
                file=sys.stderr,
            )
            return 2
        spec = WorkloadSpec.from_trace(args.trace)
    else:
        spec = WorkloadSpec(
            model=args.model,
            dataset=args.dataset,
            batch_size=scale.batch_size,
            num_steps=scale.num_steps,
        )
    points = [
        SweepPoint(
            workload=spec,
            arch=scale.arch_config(num_patterns=q),
            phi=scale.phi_config(num_patterns=q),
            label=f"phi:{spec.key}:q={q}",
        )
        for q in pattern_counts
    ]
    with _engine_from_args(args) as engine, _progress(args):
        start = time.perf_counter()
        records = engine.run(points)
        elapsed = time.perf_counter() - start
    rows = [
        {
            "num_patterns": q,
            "total_cycles": record["total_cycles"],
            "throughput_gops": record["throughput_gops"],
            "energy_joules": record["energy_joules"],
            "dram_bytes": record["total_dram_bytes"],
        }
        for q, record in zip(pattern_counts, records)
    ]
    print(markdown_table(rows))
    _report(engine, elapsed)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached records from {cache.root}")
    else:
        print(f"{len(cache)} cached records in {cache.root}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store_dir)
    if args.clear:
        removed = store.clear()
        print(f"removed {removed} stored artifacts from {store.root}")
    else:
        print(f"{len(store)} stored artifacts in {store.root}")
    return 0


def _cmd_validate_cache(args: argparse.Namespace) -> int:
    from .engine import CACHE_SCHEMA_VERSION, validate_record

    cache = ResultCache(args.cache_dir)
    valid = legacy = skipped = total = 0
    problems: list[str] = []
    start = time.perf_counter()
    for path, record in cache.records(include_corrupt=True):
        total += 1
        if record is None:
            # The engine treats a corrupt file as a miss, but an auditor
            # must report it — silently passing defeats the point.
            problems.append(f"{path}: unreadable or corrupt JSON")
            continue
        if not isinstance(record, dict):
            problems.append(f"{path}: record is {type(record).__name__}, expected dict")
            continue
        if "schema" not in record:
            # Every sweep record since v3 embeds its own "schema" field,
            # so that — not any payload key a broken record might have
            # lost — is the sweep/section discriminator: schema-less
            # entries are pre-v3 sweep records (dead keys, counted as
            # legacy) or report-section payloads, which are validated by
            # the report pipeline, not the sweep schema.
            if "accelerator" in record:
                legacy += 1
            else:
                skipped += 1
            continue
        if record.get("schema") != CACHE_SCHEMA_VERSION:
            # Pre-v3 records hash to keys the engine can no longer
            # produce; they are dead weight, never a correctness risk.
            legacy += 1
            continue
        issues = validate_record(record)
        if issues:
            problems.append(f"{path}: " + "; ".join(issues))
        else:
            valid += 1
    elapsed = time.perf_counter() - start
    rate = total / elapsed if elapsed > 0 else float("inf")
    print(
        f"{valid} valid v{CACHE_SCHEMA_VERSION} records, {legacy} legacy "
        f"records ignored, {skipped} non-sweep entries skipped, "
        f"{len(problems)} invalid in {cache.root}"
    )
    print(f"validated {total} records in {elapsed:.2f}s ({rate:.0f} records/s)")
    for problem in problems:
        print(f"INVALID {problem}", file=sys.stderr)
    return 1 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.runner`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Parallel, cached sweeps over the Phi simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("fig7", "Fig. 7 design-space exploration (same as `exp fig7`)"),
        ("fig8", "Fig. 8 speedup / energy comparison"),
        ("fig12", "Fig. 12 memory-traffic comparison (same as `exp fig12`)"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        p.set_defaults(func=_cmd_fig8 if name == "fig8" else _cmd_exp, name=name)
        if name == "fig8":
            p.add_argument(
                "--full",
                action="store_true",
                help="run the paper's full 12-workload list",
            )

    p = sub.add_parser("exp", help="run any registered experiment by name")
    p.add_argument("name", help="experiment name (see python -m repro.report --list)")
    _add_common(p)
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("sweep", help="generic pattern-count grid sweep")
    _add_common(p)
    p.add_argument("--model", default="vgg16")
    p.add_argument("--dataset", default="cifar100")
    p.add_argument(
        "--patterns",
        default="8,16,32,64,128",
        help="comma-separated pattern counts (default: %(default)s)",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="NAME",
        help="sweep an imported trace instead of a generated model workload",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "trace", help="import or inspect recorded activation traces"
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    pi = trace_sub.add_parser(
        "import", help="register an .npz activation dump as a store artifact"
    )
    pi.add_argument("npz", help="archive with paired act:<layer>/weight:<layer> arrays")
    pi.add_argument("--name", default=None, help="trace name (default: npz stem)")
    pi.add_argument("--model", default=None, help="model label (default: trace name)")
    pi.add_argument("--store-dir", default=default_store_dir())
    pi.set_defaults(func=_cmd_trace)
    ps = trace_sub.add_parser("show", help="summarise a registered trace")
    ps.add_argument("name", help="trace name used at import time")
    ps.add_argument("--store-dir", default=default_store_dir())
    ps.set_defaults(func=_cmd_trace)

    p = sub.add_parser("cache", help="inspect or clear the result cache")
    p.add_argument("--cache-dir", default=default_cache_dir())
    p.add_argument("--clear", action="store_true", help="delete all cached records")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("store", help="inspect or clear the shared artifact store")
    p.add_argument("--store-dir", default=default_store_dir())
    p.add_argument("--clear", action="store_true", help="delete all stored artifacts")
    p.set_defaults(func=_cmd_store)

    p = sub.add_parser(
        "validate-cache",
        help="check every cached sweep record against the v3 schema",
    )
    p.add_argument("--cache-dir", default=default_cache_dir())
    p.set_defaults(func=_cmd_validate_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the selected subcommand."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
