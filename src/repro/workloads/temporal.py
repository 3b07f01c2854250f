"""Temporal workloads: naming and density helpers for per-step GEMMs.

The standard generator stacks a layer's recorded activations over time
(``record.stacked()``) into one tall GEMM, which erases *when* each spike
happened.  For recurrent models — whose sparsity structure varies step to
step as membrane state accumulates — that distinction is the whole point,
so :func:`~repro.workloads.generator.extract_workload` with
``temporal=True`` unrolls each recorded time step into its own
:class:`~repro.workloads.workload.LayerWorkload` whose name carries the
step index (``"rnn0.input@t2"``).  This module owns that naming scheme
and the per-step density profile read back from an unrolled workload.
The duplicate-layer-name guard in
:meth:`~repro.workloads.workload.ModelWorkload.add` is what keeps the
unrolling collision-free.
"""

from __future__ import annotations

from .workload import ModelWorkload

#: Separator between the base layer name and the time-step index.
TIMESTEP_SEPARATOR = "@t"


def timestep_layer_name(base_name: str, step: int) -> str:
    """Name of the unrolled GEMM of ``base_name`` at time step ``step``."""
    if step < 0:
        raise ValueError("step must be >= 0")
    return f"{base_name}{TIMESTEP_SEPARATOR}{step}"


def split_timestep_name(name: str) -> tuple[str, int | None]:
    """Split an unrolled layer name into ``(base_name, step)``.

    Returns ``(name, None)`` when the name carries no time-step suffix.
    """
    base, sep, suffix = name.rpartition(TIMESTEP_SEPARATOR)
    if sep and suffix.isdigit():
        return base, int(suffix)
    return name, None


def temporal_density_profile(workload: ModelWorkload) -> dict[int, float]:
    """Element-weighted activation bit density per time step.

    Layers without a time-step suffix are ignored; the result maps each
    step index to the density across every unrolled GEMM of that step.
    """
    ones: dict[int, int] = {}
    elements: dict[int, int] = {}
    for layer in workload:
        _, step = split_timestep_name(layer.name)
        if step is None:
            continue
        ones[step] = ones.get(step, 0) + layer.ones
        elements[step] = elements.get(step, 0) + int(layer.activations.size)
    return {
        step: (ones[step] / elements[step] if elements[step] else 0.0)
        for step in sorted(elements)
    }
