"""Reproduction-report pipeline: registry-driven, cached, self-documenting.

``python -m repro.report`` runs any subset of the experiment registry
(:mod:`repro.experiments.registry`) through the sweep engine, flattens
every result into a JSON section payload (:mod:`repro.report.emitters`),
memoises the payloads in the on-disk result cache, and writes a
content-addressed ``report/`` tree whose ``REPRODUCTION.md`` pairs each
figure/table with the paper's claim and the measured numbers
(:mod:`repro.report.artifact`).
"""

from .artifact import (
    REPORT_SCHEMA_VERSION,
    ReportArtifact,
    SectionRecord,
    section_cache_key,
)
from .emitters import (
    HAVE_MATPLOTLIB,
    PAYLOAD_BUILDERS,
    build_payload,
    markdown_table,
    render_figure,
    section_markdown,
)

__all__ = [
    "HAVE_MATPLOTLIB",
    "PAYLOAD_BUILDERS",
    "REPORT_SCHEMA_VERSION",
    "ReportArtifact",
    "SectionRecord",
    "build_payload",
    "markdown_table",
    "render_figure",
    "section_cache_key",
    "section_markdown",
]
