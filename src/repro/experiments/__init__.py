"""Experiment harnesses: one module per table / figure of the paper.

The registry (:mod:`repro.experiments.registry`) enumerates every
harness with the paper artifact it reproduces; the report pipeline
(:mod:`repro.report`) runs any subset of it and emits ``REPRODUCTION.md``.
"""

from .common import PAPER, SMALL, TINY, ExperimentScale
from .registry import (
    REGISTRY,
    SCALES,
    ExperimentSpec,
    experiment_names,
    get_experiment,
    registry_markdown_table,
    resolve_scale,
)
from .discussion import run_discussion
from .fig1 import run_fig1
from .fig7 import (
    run_fig7,
    run_fig7_buffer_sweep,
    run_fig7_pattern_sweep,
    run_fig7_tile_sweep,
)
from .fig8 import run_fig8
from .fig9 import run_fig9
from .fig10 import run_fig10
from .fig11 import run_fig11
from .fig12 import run_fig12
from .table2 import run_table2
from .table3 import run_table3
from .table4 import run_table4

__all__ = [
    "ExperimentScale",
    "ExperimentSpec",
    "REGISTRY",
    "SCALES",
    "TINY",
    "SMALL",
    "PAPER",
    "experiment_names",
    "get_experiment",
    "registry_markdown_table",
    "resolve_scale",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_fig1",
    "run_fig7",
    "run_fig7_tile_sweep",
    "run_fig7_pattern_sweep",
    "run_fig7_buffer_sweep",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_discussion",
]
