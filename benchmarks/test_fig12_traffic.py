"""Benchmark: Fig. 12 — memory-traffic reduction (compression + prefetch)."""

from conftest import print_section, run_once

from repro.experiments import run_fig12

WORKLOADS = (
    ("vgg16", "cifar100"),
    ("resnet18", "cifar100"),
    ("spikformer", "cifar100"),
    ("spikebert", "sst2"),
)


def test_fig12_memory_traffic(benchmark, scale):
    result = run_once(benchmark, run_fig12, scale, workloads=WORKLOADS)

    print_section("fig12", result)
    without, with_prefetch = result.geomean_weight_ratios()
    print(
        f"\n  geomean activation traffic vs dense: {result.geomean_activation_ratio():.2f}x"
    )
    print(f"  geomean weight traffic w/o prefetch: {without:.2f}x dense")
    print(f"  geomean weight traffic w/ prefetch:  {with_prefetch:.2f}x dense")

    # Shape of the paper's Fig. 12: the compact structure reduces activation
    # traffic below the uncompressed Phi representation, and the prefetcher
    # removes a large share of the PWP traffic.
    for row in result.rows:
        assert row.activation.phi_compressed < row.activation.phi_uncompressed
        # Tiny layers may use every calibrated pattern, in which case the
        # prefetcher cannot filter anything; it must never add traffic.
        assert row.weight.phi_with_prefetch <= row.weight.phi_without_prefetch
    assert with_prefetch < without
    assert result.geomean_activation_ratio() < 1.5
