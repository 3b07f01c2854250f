"""Command-line entry point of the reproduction-report pipeline.

Examples
--------
Build the full report at the tiny tier (CI smoke artifact)::

    python -m repro.report --scale tiny

Reproduce only two artifacts, four simulator workers wide; a second
invocation is served from the section and sweep caches::

    python -m repro.report --scale small --only fig7,table3 --jobs 4

List everything the registry knows how to reproduce::

    python -m repro.report --list
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from ..experiments.registry import REGISTRY, get_experiment, registry_markdown_table
from ..runner.cli import _add_common, _engine_from_args, _progress
from ..runner.engine import SweepEngine
from .artifact import (
    ReportArtifact,
    SectionRecord,
    load_section,
    section_cache_key,
    store_section,
)
from .emitters import HAVE_MATPLOTLIB, build_payload


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.report`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description=(
            "Run registered experiments and emit a content-addressed "
            "reproduction report (REPRODUCTION.md + data/ + figures/)."
        ),
    )
    _add_common(parser)
    parser.add_argument(
        "--only",
        default="",
        metavar="NAMES",
        help="comma-separated experiment subset (default: all registered)",
    )
    parser.add_argument(
        "--output",
        "-o",
        default="report",
        help="artifact output directory (default: %(default)s)",
    )
    parser.add_argument(
        "--no-figures",
        action="store_true",
        help="skip matplotlib figures even when matplotlib is available",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the experiment registry as a Markdown table and exit",
    )
    return parser


def _select_specs(only: str):
    if not only:
        return list(REGISTRY)
    return [get_experiment(name.strip()) for name in only.split(",") if name.strip()]


def main(argv: list[str] | None = None) -> int:
    """Run the report pipeline; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.list:
        print(registry_markdown_table())
        return 0

    specs = _select_specs(args.only)
    client = None
    if args.remote:
        from ..service.client import ServiceClient

        client = ServiceClient(args.remote)
        cache = None
        engine = SweepEngine()  # never run; sections come from the service
    else:
        engine = _engine_from_args(args)
        cache = engine.cache
    command = f"python -m repro.report --scale {args.scale}"
    if args.only:
        command += f" --only {args.only}"
    if args.remote:
        command += f" --remote {args.remote}"
    artifact = ReportArtifact(
        root=pathlib.Path(args.output),
        scale_name=args.scale,
        command=command,
    )
    if args.no_figures:
        artifact_figures = False
    else:
        artifact_figures = HAVE_MATPLOTLIB
        if not HAVE_MATPLOTLIB and not args.quiet:
            print(
                "note: matplotlib not installed; emitting tables and data "
                "only (pip install matplotlib to add figures)",
                file=sys.stderr,
            )

    start = time.perf_counter()
    with engine, _progress(args):
        for spec in specs:
            key = section_cache_key(spec, args.scale)
            section_start = time.perf_counter()
            if client is not None:
                from ..service.client import ServiceError

                try:
                    job = client.run(spec.name, scale=args.scale)
                except ServiceError as error:
                    print(f"error: [{spec.name}] {error}", file=sys.stderr)
                    return 1
                payload = job["payload"]
                origin = "remote"
            else:
                payload = load_section(cache, key)
                if payload is not None:
                    origin = "cache"
                else:
                    result = spec.run(args.scale, engine=engine)
                    payload = build_payload(spec, result)
                    store_section(cache, key, payload)
                    origin = "run"
            elapsed = time.perf_counter() - section_start
            if not args.quiet:
                print(f"[{spec.name}] {origin} in {elapsed:.2f}s", file=sys.stderr)
            if not artifact_figures:
                payload = dict(payload)
                payload["figure"] = None
            artifact.add_section(
                SectionRecord(
                    spec=spec, payload=payload, origin=origin, elapsed_seconds=elapsed
                )
            )

    report_path = artifact.write()
    total = time.perf_counter() - start
    if client is not None:
        print(
            f"wrote {report_path} ({len(specs)} experiments, {total:.2f}s; "
            f"all sections served by {args.remote})"
        )
        return 0
    stats = engine.stats
    print(
        f"wrote {report_path} ({len(specs)} experiments, {total:.2f}s; "
        f"sweep points: {stats.requested} requested, {stats.cache_hits} "
        f"cache hits, {stats.executed} simulated)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
