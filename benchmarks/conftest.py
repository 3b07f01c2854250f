"""Shared configuration for the benchmark harness.

Every benchmark reproduces one table or figure of the paper.  The
benchmark scale is kept modest so the whole suite runs in minutes on a
laptop; pass ``--phi-scale=paper`` to use the q=128 configuration.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import PAPER, ExperimentScale
from repro.experiments.registry import get_experiment
from repro.report.emitters import build_payload, section_markdown

#: Scale used by the benchmark suite: the default (SMALL) experiment scale,
#: which is large enough for the paper's qualitative results to emerge on
#: the scaled model zoo while keeping the whole suite in the minutes range.
BENCH = ExperimentScale()


def pytest_addoption(parser):
    parser.addoption(
        "--phi-scale",
        action="store",
        default="bench",
        choices=("bench", "paper"),
        help="Experiment scale used by the benchmark suite.",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "smoke: fast benchmark subset run in CI (pytest benchmarks -m smoke)",
    )


@pytest.fixture(scope="session")
def scale(request) -> ExperimentScale:
    """The experiment scale selected on the command line."""
    if request.config.getoption("--phi-scale") == "paper":
        return PAPER
    return BENCH


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_section(name: str, result) -> None:
    """Print a harness result as its ``REPRODUCTION.md`` section."""
    spec = get_experiment(name)
    print(section_markdown(spec, build_payload(spec, result)))
