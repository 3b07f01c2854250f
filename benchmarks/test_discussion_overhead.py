"""Benchmark: Section 6.1 — preprocessing cost vs accumulation savings."""

import pytest

from conftest import print_section, run_once

pytestmark = pytest.mark.smoke

from repro.experiments import run_discussion

WORKLOADS = (
    ("vgg16", "cifar100"),
    ("resnet18", "cifar100"),
    ("spikformer", "cifar100"),
)


def test_discussion_preprocessing_overhead(benchmark, scale):
    result = run_once(benchmark, run_discussion, scale, workloads=WORKLOADS)

    print_section("discussion", result)
    print(f"\n  average benefit/cost ratio: {result.average_ratio():.1f}x")

    # Preprocessing pays for itself many times over on every workload.
    for row in result.rows:
        assert row.benefit_cost_ratio > 1.0
    assert result.average_ratio() > 5.0
