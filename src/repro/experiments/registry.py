"""Declarative registry of every reproduced figure and table.

Each paper artifact (figure, table, or discussion analysis) is described
by one :class:`ExperimentSpec`: what it reproduces, the claim being
checked, how to run it at each scale tier, and whether it takes a
:class:`~repro.runner.SweepEngine`.  The
registry is what makes experiments *enumerable*: the report pipeline
(:mod:`repro.report`), the runner CLI and the consistency tests all
iterate over :data:`REGISTRY` instead of hand-importing harness modules.

Registering a new experiment means adding one spec here (and an emitter
in :mod:`repro.report.emitters` if it should appear in the report).

No harness touches an accelerator model directly: those that simulate
submit :class:`~repro.runner.SweepPoint` grids to the engine and read
the canonical cache-schema-v3 records the engine flattens from
:class:`~repro.hw.pipeline.RunResult` — the same record shape for Phi
and every baseline, so per-accelerator glue does not exist at this
layer (a structural test in ``tests/test_pipeline.py`` enforces it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Mapping

from .common import SCALE_TIERS, SMALL, ExperimentScale

#: Scale tiers by CLI name, in increasing fidelity order (the single
#: mapping defined in :mod:`repro.experiments.common`).
SCALES: dict[str, ExperimentScale] = SCALE_TIERS


def resolve_scale(scale: str | ExperimentScale) -> tuple[str, ExperimentScale]:
    """Normalise a scale argument to a ``(name, ExperimentScale)`` pair.

    Parameters
    ----------
    scale:
        Either a tier name (``"tiny"``, ``"small"``, ``"paper"``) or an
        :class:`ExperimentScale` instance.  Instances that are not one of
        the named tiers resolve to the name ``"custom"``.

    Returns
    -------
    tuple of (str, ExperimentScale)
        The tier name and the scale object.
    """
    if isinstance(scale, str):
        try:
            return scale, SCALES[scale]
        except KeyError:
            raise ValueError(
                f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
            ) from None
    for name, tier in SCALES.items():
        if tier == scale:
            return name, scale
    return "custom", scale


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one reproduced figure/table.

    Parameters
    ----------
    name:
        Registry key, matching the harness module name (``fig7``,
        ``table2``, ``discussion``).
    kind:
        ``"figure"``, ``"table"`` or ``"analysis"``.
    paper_ref:
        The artifact reproduced, as cited in the paper ("Fig. 7",
        "Table 2", "Section 6.1").
    section:
        Paper section the artifact appears in.
    claim:
        The claim of the paper this experiment reproduces, in one or two
        sentences.  Quoted verbatim into ``REPRODUCTION.md``.
    module, entry_point:
        Dotted module path and function name of the harness; resolved
        lazily so importing the registry stays cheap.
    uses_engine:
        Whether the harness takes a :class:`~repro.runner.SweepEngine`,
        for its sweeps (which then benefit from ``--jobs`` and the
        on-disk result cache) or for its workload reads (served by the
        engine's artifact store).
    uses_scale:
        Whether the entry point takes an :class:`ExperimentScale` as its
        first argument (``table3`` does not — it is pure energy-model
        arithmetic).
    presets:
        Per-tier keyword overrides (keyed by tier name) applied when the
        experiment runs through :meth:`run` — e.g. fewer training epochs
        at the ``tiny`` tier.
    """

    name: str
    kind: str
    paper_ref: str
    section: str
    claim: str
    module: str
    entry_point: str
    uses_engine: bool = False
    uses_scale: bool = True
    presets: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("figure", "table", "analysis"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")

    def runner(self) -> Callable[..., Any]:
        """Import and return the harness entry-point callable."""
        return getattr(import_module(self.module), self.entry_point)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable export of this spec (the service's wire form).

        Everything a remote client needs to enumerate experiments and
        build requests: identity, claim, per-tier presets (tuples
        converted to lists) and the engine/scale capability flags.
        Round-trips through :meth:`from_dict`.
        """
        return {
            "name": self.name,
            "kind": self.kind,
            "paper_ref": self.paper_ref,
            "section": self.section,
            "claim": self.claim,
            "module": self.module,
            "entry_point": self.entry_point,
            "uses_engine": self.uses_engine,
            "uses_scale": self.uses_scale,
            "presets": _jsonify(self.presets),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from its :meth:`to_dict` export.

        Raises
        ------
        ValueError
            When ``payload`` carries unknown or missing fields — a
            deserialisation error surfaces here, never deeper in a
            worker.
        """
        fields = {
            "name",
            "kind",
            "paper_ref",
            "section",
            "claim",
            "module",
            "entry_point",
            "uses_engine",
            "uses_scale",
            "presets",
        }
        unknown = set(payload) - fields
        if unknown:
            raise ValueError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        missing = fields - set(payload)
        if missing:
            raise ValueError(f"missing ExperimentSpec fields: {sorted(missing)}")
        return cls(**{key: payload[key] for key in fields})

    def kwargs_for(self, scale_name: str) -> dict[str, Any]:
        """The preset keyword overrides for one scale tier."""
        return dict(self.presets.get(scale_name, {}))

    def run(
        self,
        scale: str | ExperimentScale = SMALL,
        *,
        engine: Any = None,
        **overrides: Any,
    ) -> Any:
        """Run the experiment at a scale tier with its presets applied.

        Parameters
        ----------
        scale:
            Tier name or :class:`ExperimentScale`.
        engine:
            :class:`~repro.runner.SweepEngine` forwarded to harnesses
            with ``uses_engine=True``; ignored otherwise.
        **overrides:
            Extra keyword arguments for the harness, overriding the
            tier presets.

        Returns
        -------
        Any
            The harness result object (``Fig7Result``, ``Table2Result``,
            ...).
        """
        scale_name, scale_obj = resolve_scale(scale)
        kwargs = self.kwargs_for(scale_name)
        kwargs.update(overrides)
        if self.uses_engine and engine is not None:
            kwargs["engine"] = engine
        runner = self.runner()
        if self.uses_scale:
            return runner(scale_obj, **kwargs)
        return runner(**kwargs)


def _jsonify(value: Any) -> Any:
    """Recursively convert tuples/mappings into JSON-native lists/dicts."""
    if isinstance(value, Mapping):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


def _spec(name: str, **kwargs: Any) -> ExperimentSpec:
    kwargs.setdefault("module", f"repro.experiments.{name}")
    kwargs.setdefault("entry_point", f"run_{name}")
    return ExperimentSpec(name=name, **kwargs)


#: Every reproduced artifact, in paper order.
REGISTRY: tuple[ExperimentSpec, ...] = (
    _spec(
        "fig1",
        kind="figure",
        paper_ref="Fig. 1",
        section="Section 1",
        claim=(
            "SNN spike activations form far tighter clusters than DNN "
            "activations or normally distributed data, which is what makes "
            "a small calibrated pattern set cover most activation rows."
        ),
        uses_engine=True,
        presets={"tiny": {"num_rows": 96, "tsne_iterations": 60}},
    ),
    _spec(
        "fig7",
        kind="figure",
        paper_ref="Fig. 7",
        section="Section 5.5",
        claim=(
            "Design-space exploration: a K partition size of 16 minimises "
            "the total (element + vector) density; more patterns per "
            "partition trade lower compute cycles against more PWP memory "
            "traffic; and the chosen buffer size balances DRAM power "
            "against buffer power and area."
        ),
        uses_engine=True,
    ),
    _spec(
        "fig8",
        kind="figure",
        paper_ref="Fig. 8",
        section="Section 5.2",
        claim=(
            "Phi outperforms Spiking Eyeriss, PTB, SATO, SpinalFlow and "
            "Stellar in speedup and energy across the SNN model zoo, and "
            "PAFT improves both further."
        ),
        uses_engine=True,
        presets={
            "tiny": {
                "workloads": (
                    ("vgg16", "cifar10"),
                    ("spikformer", "cifar10dvs"),
                    ("spikebert", "sst2"),
                )
            }
        },
    ),
    _spec(
        "fig9",
        kind="figure",
        paper_ref="Fig. 9",
        section="Section 5.4",
        claim=(
            "Training- and test-set activation patterns overlap strongly, "
            "and PAFT tightens activation clusters (fewer, denser "
            "clusters) rather than changing them wholesale."
        ),
        uses_engine=True,
        presets={"tiny": {"num_rows": 192}},
    ),
    _spec(
        "fig10",
        kind="figure",
        paper_ref="Fig. 10",
        section="Section 5.4",
        claim=(
            "PAFT lowers the Level 2 (element) density on every evaluated "
            "workload, shrinking the dominant runtime cost of the L2 "
            "processor."
        ),
        uses_engine=True,
    ),
    _spec(
        "fig11",
        kind="figure",
        paper_ref="Fig. 11",
        section="Section 5.4",
        claim=(
            "Phi without PAFT is accuracy-lossless (the decomposition is "
            "exact), and PAFT trades a small accuracy drop for the extra "
            "sparsity."
        ),
        presets={
            "tiny": {"workloads": (("vgg16", "cifar10"),), "train_epochs": 1},
        },
    ),
    _spec(
        "fig12",
        kind="figure",
        paper_ref="Fig. 12",
        section="Section 5.3",
        claim=(
            "Activation compression cuts activation DRAM traffic well "
            "below the uncompressed Phi format, and PWP prefetch filtering "
            "cuts pattern-weight traffic versus fetching all patterns."
        ),
        uses_engine=True,
    ),
    _spec(
        "table2",
        kind="table",
        paper_ref="Table 2",
        section="Section 5.2",
        claim=(
            "On VGG-16 / CIFAR100, Phi delivers the highest throughput, "
            "energy efficiency and area efficiency of all compared "
            "accelerators, from the smallest area."
        ),
        uses_engine=True,
    ),
    _spec(
        "table3",
        kind="table",
        paper_ref="Table 3",
        section="Section 5.3",
        claim=(
            "The Phi accelerator occupies about 0.663 mm^2 and draws about "
            "346.5 mW, with the on-chip buffer dominating both area and "
            "power."
        ),
        uses_scale=False,
    ),
    _spec(
        "table4",
        kind="table",
        paper_ref="Table 4",
        section="Section 5.6",
        claim=(
            "Hierarchical Phi sparsity pushes the online density far below "
            "the bit density on every SNN workload, yielding theoretical "
            "speedups over bit-sparse and dense execution; random matrices "
            "show the effect too, but much more weakly."
        ),
        uses_engine=True,
    ),
    _spec(
        "discussion",
        kind="analysis",
        paper_ref="Section 6.1",
        section="Section 6.1",
        claim=(
            "The pattern-matching preprocessing pays for itself: the "
            "accumulation energy it removes exceeds its own cost by well "
            "over an order of magnitude on every workload."
        ),
    ),
    _spec(
        "temporal",
        kind="analysis",
        paper_ref="Extension (temporal)",
        section="Section 6.2",
        claim=(
            "Phi's hierarchical sparsity advantage over Spiking Eyeriss, "
            "PTB, SATO, SpinalFlow and Stellar carries over to recurrent "
            "workloads unrolled per time step, where activation density "
            "rises step by step as membrane state accumulates."
        ),
        uses_engine=True,
        presets={"tiny": {"workloads": (("spikingrnn", "speechcmd"),)}},
    ),
)

_BY_NAME: dict[str, ExperimentSpec] = {spec.name: spec for spec in REGISTRY}
if len(_BY_NAME) != len(REGISTRY):  # pragma: no cover - guarded by tests
    raise RuntimeError("duplicate experiment names in REGISTRY")


def experiment_names() -> list[str]:
    """Registered experiment names, in paper order."""
    return [spec.name for spec in REGISTRY]


def get_experiment(name: str) -> ExperimentSpec:
    """Look up one experiment spec by name.

    Raises
    ------
    KeyError
        With the list of known names, when ``name`` is not registered.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {experiment_names()}"
        ) from None


def registry_json() -> list[dict[str, Any]]:
    """The full registry as JSON-serialisable spec dicts, in paper order.

    This is the payload of the service's ``GET /experiments`` endpoint;
    each entry round-trips through :meth:`ExperimentSpec.from_dict`.
    """
    return [spec.to_dict() for spec in REGISTRY]


def registry_markdown_table() -> str:
    """The registry as a Markdown table (used by README / REPRODUCTION.md)."""
    lines = [
        "| Experiment | Reproduces | Paper section | Sweep engine | Claim |",
        "|---|---|---|---|---|",
    ]
    for spec in REGISTRY:
        engine = "yes" if spec.uses_engine else "-"
        lines.append(
            f"| `{spec.name}` | {spec.paper_ref} | {spec.section} "
            f"| {engine} | {spec.claim} |"
        )
    return "\n".join(lines)
