"""Outside-in tracer for the benchmark's traced repetitions.

Nothing in ``src/`` knows about tracing.  :func:`install` wraps the public
entry point of each layer *at the name its caller looks up*: a module-level
function is replaced in every ``repro`` module that bound it by name
(calibration calls ``repro.core.calibration.cluster_partition``, the
simulator calls ``repro.hw.simulator.decompose_matrix``, ...), and a method
is replaced on the class that defines it.

``repro.runner.engine.simulate_point`` is never replaced: ``simulate_many``
only takes the batched Phi path while that seam is the original function,
so replacing it would trace a different (per-point) program.

Spans are kept in memory as ``(name, start, duration, self time, pid,
tid)`` tuples; a span's self time is its duration minus the durations of
the spans it directly encloses.  Forked pool workers inherit the wrappers;
each worker clears the state it inherited and appends its spans and
counts to ``worker-<pid>.jsonl`` after every pool task, and the parent
merges those files in :meth:`Tracer.collect`.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import sys
import threading
from collections import Counter
from time import perf_counter

#: Span names whose summed self time is reported as ``<name>_s``.
SELF_TIME_SPANS = (
    "workloads.generate",
    "core.calibrate",
    "core.kmeans",
    "core.paft_align",
    "core.decompose",
    "core.match_counts",
    "core.rebuild",
    "core.metrics",
    "hw.simulate_phi_many",
    "hw.plan_preprocess",
    "hw.pack_counts_batch",
    "hw.stage.tiling",
    "hw.stage.preprocess",
    "hw.stage.compute",
    "hw.stage.dram",
    "hw.stage.energy",
    "baselines.eyeriss",
    "baselines.ptb",
    "baselines.sato",
    "baselines.spinalflow",
    "baselines.stellar",
    "store.put",
    "store.get",
    "cache.get",
    "cache.put",
    "runner.summarize",
)

ENGINE_SPAN = "runner.engine_run"
POOL_TASK_SPAN = "runner.pool_task"


class Tracer:
    """In-memory span and counter recorder shared by every wrapper.

    Parameters
    ----------
    flush_dir:
        Directory where forked pool workers append their spans.
    """

    def __init__(self, flush_dir: pathlib.Path) -> None:
        self.flush_dir = pathlib.Path(flush_dir)
        self.main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked worker starts with the parent's buffers and open spans;
        # it must report only its own.
        self.events: list[tuple] = []
        self.counts: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, func, count=None):
        """``func`` recorded as a span.

        ``name`` is the span name, or a callable mapping the call's
        arguments to one.  ``count(counts, args, kwargs, result)``, when
        given, updates counters after a successful call.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                span = name if isinstance(name, str) else name(args)
                self.events.append(
                    (
                        span,
                        frame[0],
                        duration,
                        duration - frame[1],
                        os.getpid(),
                        threading.get_ident(),
                    )
                )
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def wrap_pool_task(self, func):
        """``func`` as a pool-task entry point: a span only inside workers.

        In the parent the same functions run inline (the serial path calls
        ``simulate_many`` directly), so there they stay untraced and their
        children attribute to the enclosing engine span.
        """
        task = self.wrap(POOL_TASK_SPAN, func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if os.getpid() == self.main_pid or self._stack():
                return func(*args, **kwargs)
            try:
                return task(*args, **kwargs)
            finally:
                self.counts["runner.pool_tasks"] += 1
                self.flush()

        return traced

    def flush(self) -> None:
        """Append this process's spans and counts to its worker file."""
        line = json.dumps({"events": self.events, "counts": dict(self.counts)})
        path = self.flush_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self.events = []
        self.counts = Counter()

    def collect(self) -> tuple[list[tuple], Counter]:
        """This process's spans and counts merged with every worker's."""
        events = list(self.events)
        counts = Counter(self.counts)
        for path in sorted(self.flush_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                chunk = json.loads(line)
                events += [tuple(event) for event in chunk["events"]]
                counts.update(chunk["counts"])
        return events, counts


def chrome_trace(events: list[tuple]) -> dict:
    """Chrome trace-event JSON (``chrome://tracing``, Perfetto) of ``events``."""
    origin = min((event[1] for event in events), default=0.0)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": duration * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"self_us": self_time * 1e6},
            }
            for name, start, duration, self_time, pid, tid in events
        ],
    }


def layer_metrics(events: list[tuple], counts: Counter) -> dict[str, float]:
    """Per-layer totals of one traced repetition (see the benchmark README)."""
    self_time: Counter = Counter()
    busy = 0.0
    for name, _start, duration, own, _pid, _tid in events:
        self_time[name] += own
        if name == POOL_TASK_SPAN:
            busy += duration
    metrics = {f"{name}_s": self_time[name] for name in SELF_TIME_SPANS}
    metrics["runner.engine_self_s"] = self_time[ENGINE_SPAN]
    metrics["runner.worker_busy_s"] = busy
    metrics["runner.pool_tasks"] = counts["runner.pool_tasks"]
    rows = counts["core.kmeans_rows"]
    metrics["core.kmeans_calls"] = counts["core.kmeans_calls"]
    metrics["core.kmeans_rows"] = rows
    metrics["core.kmeans_iters"] = counts["core.kmeans_iters"]
    metrics["core.kmeans_unique_frac"] = (
        counts["core.kmeans_unique_rows"] / rows if rows else 0.0
    )
    metrics["core.decompose_rows"] = counts["core.decompose_rows"]
    metrics["workloads.generate_calls"] = counts["workloads.generate_calls"]
    metrics["hw.pack_jobs"] = counts["hw.pack_jobs"]
    metrics["hw.layers"] = counts["hw.layers"]
    hits, misses = counts["store.hits"], counts["store.misses"]
    metrics["store.hits"] = hits
    metrics["store.misses"] = misses
    metrics["store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["store.read_mb"] = counts["store.read_bytes"] / 1e6
    metrics["store.write_mb"] = counts["store.write_bytes"] / 1e6
    return metrics


# --------------------------------------------------------------------- #
# Counters
# --------------------------------------------------------------------- #
def _count_generate(counts, args, kwargs, result):
    counts["workloads.generate_calls"] += 1


def _count_kmeans(counts, args, kwargs, result):
    rows = args[0]
    unique = kwargs.get("unique_rows")
    counts["core.kmeans_calls"] += 1
    counts["core.kmeans_rows"] += rows.shape[0]
    counts["core.kmeans_unique_rows"] += (
        unique.shape[0] if unique is not None else rows.shape[0]
    )
    counts["core.kmeans_iters"] += result.iterations


def _count_decompose(counts, args, kwargs, result):
    counts["core.decompose_rows"] += result.num_rows


def _count_pack(counts, args, kwargs, result):
    counts["hw.pack_jobs"] += len(args[0])


def _count_layer(counts, args, kwargs, result):
    counts["hw.layers"] += 1


def _count_store_get(counts, args, kwargs, result):
    counts["store.misses" if result is None else "store.hits"] += 1


def _count_store_read(counts, args, kwargs, result):
    if result is not None:
        counts["store.read_bytes"] += result.nbytes


def _count_store_write(counts, args, kwargs, result):
    store, _kind, key = args[:3]
    try:
        counts["store.write_bytes"] += store.path_for(key).stat().st_size
    except OSError:
        pass  # an unwritable store persists nothing


def _replace_everywhere(func, wrapper) -> int:
    """Rebind ``func`` to ``wrapper`` in every loaded ``repro`` module."""
    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                setattr(module, attr, wrapper)
                rebound += 1
    return rebound


def install(flush_dir: pathlib.Path) -> Tracer:
    """Wrap every traced layer entry point and return the recorder."""
    import repro.runner.engine as engine
    from repro.baselines.base import BaselineAccelerator
    from repro.core import kmeans, metrics, sparsity
    from repro.core.calibration import PhiCalibrator
    from repro.core.paft import ActivationAligner
    from repro.core.patterns import PatternSet
    from repro.hw import preprocessor, simulator
    from repro.runner.cache import ResultCache
    from repro.runner.store import ArtifactStore
    from repro.workloads import generator

    tracer = Tracer(flush_dir)
    functions = [
        (generator.generate_workload, "workloads.generate", _count_generate),
        (kmeans.binary_kmeans, "core.kmeans", _count_kmeans),
        (sparsity.decompose_matrix, "core.decompose", _count_decompose),
        (sparsity.rebuild_decomposition, "core.rebuild", None),
        (metrics.decomposition_metrics, "core.metrics", None),
        (metrics.sparsity_breakdown, "core.metrics", None),
        (metrics.operation_counts, "core.metrics", None),
        (simulator.simulate_phi_many, "hw.simulate_phi_many", None),
        (simulator.plan_preprocess, "hw.plan_preprocess", None),
        (preprocessor.pack_counts_batch, "hw.pack_counts_batch", _count_pack),
        (engine.summarize_run, "runner.summarize", None),
    ]
    for func, name, count in functions:
        if not _replace_everywhere(func, tracer.wrap(name, func, count)):
            raise RuntimeError(f"no caller of {func.__qualname__} found to trace")
    for func in (engine.simulate_many, engine._simulate_with_shared, engine._seed_workload):
        _replace_everywhere(func, tracer.wrap_pool_task(func))

    stage_classes = (
        simulator.PhiTilingStage,
        simulator.PhiPreprocessStage,
        simulator.PhiComputeStage,
        simulator.PhiDramStage,
        simulator.PhiEnergyStage,
    )
    methods = [
        (PhiCalibrator, "calibrate_model", "core.calibrate", None),
        (PatternSet, "match_counts", "core.match_counts", None),
        (ActivationAligner, "align_layer", "core.paft_align", None),
        (ArtifactStore, "get", "store.get", _count_store_get),
        (ArtifactStore, "put", "store.put", _count_store_write),
        (ResultCache, "get", "cache.get", None),
        (ResultCache, "put", "cache.put", None),
        (engine.SweepEngine, "run", ENGINE_SPAN, None),
        (
            BaselineAccelerator,
            "simulate",
            lambda args: f"baselines.{args[0].name}",
            None,
        ),
    ]
    methods += [
        (cls, "run", f"hw.stage.{cls.name}", _count_layer if cls.name == "tiling" else None)
        for cls in stage_classes
    ]
    for cls, attr, name, count in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), count))
    # Mapped bytes of every disk read; the time is inside ``store.get``.
    load_payload = ArtifactStore.load_payload

    @functools.wraps(load_payload)
    def counted_load(*args, **kwargs):
        result = load_payload(*args, **kwargs)
        _count_store_read(tracer.counts, args, kwargs, result)
        return result

    ArtifactStore.load_payload = counted_load

    if engine.simulate_point is not engine._REAL_SIMULATE_POINT:
        raise RuntimeError("the simulate_point seam must stay the original function")
    return tracer
