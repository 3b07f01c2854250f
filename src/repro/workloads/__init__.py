"""Workload extraction: per-layer spike activation / weight matrices."""

from .generator import (
    cached_workload,
    extract_workload,
    generate_random_workload,
    generate_workload,
    paper_workload_specs,
)
from .temporal import split_timestep_name, temporal_density_profile, timestep_layer_name
from .workload import LayerWorkload, ModelWorkload

__all__ = [
    "LayerWorkload",
    "ModelWorkload",
    "extract_workload",
    "generate_workload",
    "cached_workload",
    "generate_random_workload",
    "paper_workload_specs",
    "temporal_density_profile",
    "timestep_layer_name",
    "split_timestep_name",
]
