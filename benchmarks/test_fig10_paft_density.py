"""Benchmark: Fig. 10 — element (Level 2) density with and without PAFT."""

from conftest import print_section, run_once

from repro.experiments import run_fig10

WORKLOADS = (
    ("spikformer", "cifar100"),
    ("sdt", "cifar100"),
    ("vgg16", "cifar10"),
    ("resnet18", "cifar100"),
)


def test_fig10_element_density(benchmark, scale):
    result = run_once(benchmark, run_fig10, scale, workloads=WORKLOADS)

    print_section("fig10", result)

    for pair in result.pairs:
        assert pair.density_with_paft <= pair.density_without_paft
        # Densities stay in the few-percent range reported by the paper.
        assert pair.density_without_paft < 0.15
