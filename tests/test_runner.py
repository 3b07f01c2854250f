"""Tests for the parallel sweep engine and its on-disk result cache."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments.common import TINY
from repro.runner import ResultCache, SweepEngine, SweepPoint, WorkloadSpec, cache_key
from repro.runner import engine as engine_module


def tiny_spec(model: str = "vgg16", dataset: str = "cifar10") -> WorkloadSpec:
    return WorkloadSpec(model=model, dataset=dataset, batch_size=2, num_steps=2)


def tiny_point(**overrides) -> SweepPoint:
    params = {
        "workload": tiny_spec(),
        "arch": TINY.arch_config(),
        "phi": TINY.phi_config(),
    }
    params.update(overrides)
    return SweepPoint(**params)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1.5})
        assert cache.get("ab" * 32) == {"x": 1.5}
        assert len(cache) == 1

    def test_put_writes_the_canonical_json_bytes(self, tmp_path):
        # The record file is byte-for-byte ``json.dumps(record,
        # sort_keys=True)``: nested keys sorted, floats in repr form,
        # non-ASCII escaped.
        record = {
            "z": [1, 2.5, {"b": None, "a": True}],
            "a": {"y": 0.1 + 0.2, "x": -3e-12, "label": "fig7:q=16 µ"},
            "n": 12345678901234567890,
        }
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, record)
        written = cache.path_for("ab" * 32).read_bytes()
        assert written == json.dumps(record, sort_keys=True).encode("ascii")

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("cd" * 32) is None

    def test_corrupt_record_counts_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, {"x": 1})
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" + "0" * 62, {"i": i})
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_cache_key_is_canonical(self):
        assert cache_key({"a": 1, "b": 2}) == cache_key({"b": 2, "a": 1})
        assert cache_key({"a": 1}) != cache_key({"a": 2})


class TestSweepPoint:
    def test_label_does_not_change_key(self):
        assert (
            tiny_point(label="x").cache_key() == tiny_point(label="y").cache_key()
        )

    def test_config_change_changes_key(self):
        base = tiny_point()
        other = tiny_point(phi=TINY.phi_config(num_patterns=8))
        assert base.cache_key() != other.cache_key()
        arch_other = tiny_point(arch=TINY.arch_config(tile_m=128))
        assert base.cache_key() != arch_other.cache_key()

    def test_workload_seed_changes_key(self):
        seeded = tiny_point(
            workload=WorkloadSpec("vgg16", "cifar10", batch_size=2, num_steps=2, seed=7)
        )
        assert tiny_point().cache_key() != seeded.cache_key()

    def test_payload_carries_schema_version(self):
        payload = tiny_point().cache_payload()
        assert payload["schema"] == engine_module.CACHE_SCHEMA_VERSION

    def test_unknown_accelerator_rejected(self):
        with pytest.raises(ValueError, match="unknown accelerator"):
            tiny_point(accelerator="tpu")

    def test_phi_accelerator_requires_config(self):
        with pytest.raises(ValueError, match="needs a PhiConfig"):
            SweepPoint(workload=tiny_spec(), arch=TINY.arch_config(), phi=None)


class TestSweepEngineCaching:
    @pytest.fixture()
    def counted_simulate(self, monkeypatch):
        """Stub ``simulate_point`` with an invocation counter."""
        calls: list[SweepPoint] = []

        def fake_simulate(point: SweepPoint) -> dict:
            calls.append(point)
            return {"total_cycles": 123.0, "key": point.cache_key()}

        monkeypatch.setattr(engine_module, "simulate_point", fake_simulate)
        return calls

    def test_second_run_hits_cache_with_zero_invocations(
        self, tmp_path, counted_simulate
    ):
        point = tiny_point()
        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        first = engine.run_one(point)
        assert len(counted_simulate) == 1

        rerun_engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        second = rerun_engine.run_one(point)
        assert len(counted_simulate) == 1, "cached point must not re-simulate"
        assert second == first
        assert rerun_engine.stats.cache_hits == 1
        assert rerun_engine.stats.executed == 0

    def test_config_change_invalidates_cache(self, tmp_path, counted_simulate):
        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        engine.run_one(tiny_point())
        engine.run_one(tiny_point(phi=TINY.phi_config(num_patterns=8)))
        assert len(counted_simulate) == 2, "changed config hash must recompute"

    def test_no_cache_always_recomputes(self, counted_simulate):
        engine = SweepEngine(cache=None, jobs=1)
        point = tiny_point()
        engine.run_one(point)
        engine.run_one(point)
        assert len(counted_simulate) == 2

    def test_duplicate_points_in_one_batch_dedupe_via_cache(
        self, tmp_path, counted_simulate
    ):
        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        records = engine.run([tiny_point(), tiny_point(label="same-key")])
        assert len(counted_simulate) == 2 - 1
        assert records[0] == records[1]

    def test_records_preserve_input_order(self, tmp_path, counted_simulate):
        points = [
            tiny_point(),
            tiny_point(phi=TINY.phi_config(num_patterns=8)),
            tiny_point(phi=TINY.phi_config(num_patterns=4)),
        ]
        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        records = engine.run(points)
        assert [r["key"] for r in records] == [p.cache_key() for p in points]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepEngine(jobs=0)


class TestSweepEngineExecution:
    def test_real_point_and_cached_record_agree(self, tmp_path):
        """A real (tiny) simulation round-trips exactly through the cache."""
        point = tiny_point()
        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        record = engine.run_one(point)
        assert record["accelerator"] == "phi"
        assert record["total_cycles"] > 0
        assert record["layers"], "phi records carry per-layer metrics"
        cached = ResultCache(tmp_path).get(point.cache_key())
        assert cached == json.loads(json.dumps(record)), "records are JSON-stable"

    def test_paft_spec_is_honoured_for_every_accelerator(self):
        """A PAFT workload spec changes the record for all accelerator kinds."""
        import dataclasses

        engine = SweepEngine(jobs=1)
        paft_spec = dataclasses.replace(tiny_spec(), paft_strength=0.9)
        for accelerator in ("phi", "eyeriss", engine_module.DECOMPOSITION):
            base = engine.run_one(tiny_point(accelerator=accelerator))
            paft = engine.run_one(
                tiny_point(workload=paft_spec, accelerator=accelerator)
            )
            assert base != paft, f"{accelerator} ignored paft_strength"

    def test_paft_baseline_without_phi_config_is_rejected(self):
        import dataclasses

        point = tiny_point(
            workload=dataclasses.replace(tiny_spec(), paft_strength=0.5),
            accelerator="eyeriss",
            phi=None,
        )
        with pytest.raises(ValueError, match="PAFT workloads need a PhiConfig"):
            engine_module.simulate_point(point)

    def test_parallel_results_match_serial(self, tmp_path):
        points = [
            tiny_point(),
            tiny_point(accelerator="eyeriss", phi=None),
            tiny_point(
                accelerator=engine_module.DECOMPOSITION,
                phi=TINY.phi_config(num_patterns=8),
            ),
        ]
        serial = SweepEngine(jobs=1).run(points)
        parallel = SweepEngine(jobs=2).run(points)
        assert json.loads(json.dumps(serial)) == json.loads(json.dumps(parallel))


class TestRecordSchemaV3:
    """Cache schema v3: canonical records, validation, v2 invalidation."""

    def test_every_accelerator_record_is_valid_and_uniform(self):
        phi = engine_module.simulate_point(tiny_point())
        baseline = engine_module.simulate_point(
            tiny_point(accelerator="eyeriss", phi=None)
        )
        for record in (phi, baseline):
            assert record["schema"] == engine_module.CACHE_SCHEMA_VERSION
            assert engine_module.validate_record(record) == []
            assert record["layers"], "v3 records carry per-layer entries"
        # The baseline record now exposes the same aggregate surface as Phi.
        baseline_only = set(phi) - set(baseline)
        assert baseline_only == {"operation_counts", "breakdown"}, (
            "only the Phi-specific decomposition aggregates may differ"
        )

    def test_decomposition_record_is_valid(self):
        record = engine_module.simulate_point(
            tiny_point(accelerator=engine_module.DECOMPOSITION)
        )
        assert record["schema"] == engine_module.CACHE_SCHEMA_VERSION
        assert engine_module.validate_record(record) == []

    def test_validate_record_flags_missing_keys(self):
        record = engine_module.simulate_point(tiny_point())
        del record["total_cycles"]
        del record["layers"][0]["operations"]
        problems = engine_module.validate_record(record)
        assert any("total_cycles" in p for p in problems)
        assert any("layers[0]" in p for p in problems)

    def test_validate_record_flags_incomplete_energy_split(self):
        record = engine_module.simulate_point(tiny_point())
        record["energy"] = {"core": 1.0, "buffer": 2.0, "total": 3.0}  # no dram
        problems = engine_module.validate_record(record)
        assert any("energy" in p for p in problems)

    def test_validate_record_reports_stale_schema(self):
        problems = engine_module.validate_record({"accelerator": "phi", "schema": 2})
        assert problems == ["schema is 2, expected 3"]

    def test_v2_entries_are_ignored_not_crashed_on(self, tmp_path, monkeypatch):
        """A cache dir with pre-v3 entries stays usable: old records are
        dead keys, never hits, and validate-cache counts them as legacy."""
        from repro.runner.cli import main

        cache = ResultCache(tmp_path)
        # A v2-era record under its old key: no "schema" field, baseline
        # records had no layers.
        cache.put(
            "ab" * 32,
            {"accelerator": "eyeriss", "total_cycles": 1.0, "throughput_gops": 2.0},
        )

        calls = []

        def fake_simulate(point):
            calls.append(point)
            # No "schema" / "accelerator" keys: the stub's record reads
            # as a non-sweep cache entry, so validate-cache audits only
            # the v2 record this test actually plants.
            return {"x": 1}

        monkeypatch.setattr(engine_module, "simulate_point", fake_simulate)
        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        engine.run_one(tiny_point(accelerator="eyeriss", phi=None))
        assert len(calls) == 1, "stale v2 entry must not satisfy a v3 key"
        assert engine.stats.cache_hits == 0

        assert main(["validate-cache", "--cache-dir", str(tmp_path)]) == 0

    def test_validate_cache_cli_fails_on_invalid_v3_record(self, tmp_path, capsys):
        from repro.runner.cli import main

        cache = ResultCache(tmp_path)
        cache.put(
            "cd" * 32,
            {"schema": engine_module.CACHE_SCHEMA_VERSION, "accelerator": "phi"},
        )
        assert main(["validate-cache", "--cache-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "INVALID" in captured.err

    def test_validate_cache_cli_passes_on_real_records(self, tmp_path, capsys):
        from repro.runner.cli import main

        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        engine.run([tiny_point(), tiny_point(accelerator="sato", phi=None)])
        assert main(["validate-cache", "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "2 valid v3 records" in captured.out


class TestEngineReentrancy:
    """run() shared by concurrent threads: exactly-once, thread-local hooks."""

    def test_concurrent_runs_simulate_each_point_exactly_once(
        self, tmp_path, monkeypatch
    ):
        calls: list[str] = []
        lock = threading.Lock()

        def slow_simulate(point):
            with lock:
                calls.append(point.cache_key())
            time.sleep(0.2)  # hold the point in flight so runs overlap
            return {"schema": 3, "key": point.cache_key()}

        monkeypatch.setattr(engine_module, "simulate_point", slow_simulate)
        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        points = [
            tiny_point(),
            tiny_point(phi=TINY.phi_config(num_patterns=8)),
        ]
        runners = 4
        barrier = threading.Barrier(runners)
        results: list[list | None] = [None] * runners

        def run(i: int) -> None:
            barrier.wait()
            results[i] = engine.run(points)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(runners)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(calls) == len(points), "a point was simulated more than once"
        assert all(result == results[0] for result in results)
        stats = engine.stats
        assert stats.requested == runners * len(points)
        assert stats.executed == len(points)
        assert stats.cache_hits + stats.inflight_hits == (runners - 1) * len(points)
        assert engine._inflight == {}, "in-flight table must drain"

    def test_failed_owner_does_not_strand_waiters(self, tmp_path, monkeypatch):
        attempts: list[str] = []
        lock = threading.Lock()
        fail_first = threading.Event()

        def flaky_simulate(point):
            with lock:
                attempts.append(point.cache_key())
            time.sleep(0.1)
            if not fail_first.is_set():
                fail_first.set()
                raise RuntimeError("synthetic worker death")
            return {"schema": 3, "key": point.cache_key()}

        monkeypatch.setattr(engine_module, "simulate_point", flaky_simulate)
        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        point = tiny_point()
        barrier = threading.Barrier(2)
        outcomes: list[object] = [None, None]

        def run(i: int) -> None:
            barrier.wait()
            try:
                outcomes[i] = engine.run([point])[0]
            except RuntimeError as error:
                outcomes[i] = error

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "waiter deadlocked on a dead owner"

        errors = [o for o in outcomes if isinstance(o, RuntimeError)]
        records = [o for o in outcomes if isinstance(o, dict)]
        assert len(errors) == 1 and len(records) == 1, outcomes
        assert records[0]["key"] == point.cache_key()
        assert engine._inflight == {}

    def test_dead_owner_without_cache_makes_waiters_recompute(
        self, monkeypatch
    ):
        """Cacheless dead-owner fallback: every waiter recomputes.

        With a cache, the first waiter to recover re-caches the record
        for the others.  Without one, the degraded-but-correct contract
        is that each waiter falls back to its own (deterministic)
        simulation — counted as ``executed``, never ``inflight_hits``,
        and the in-flight table still drains.
        """
        calls: list[str] = []
        lock = threading.Lock()
        fail_first = threading.Event()

        def flaky_simulate(point):
            with lock:
                calls.append(point.cache_key())
            first = not fail_first.is_set()
            fail_first.set()
            if first:
                time.sleep(0.3)  # hold the claim until the waiters join
                raise RuntimeError("synthetic owner death")
            return {"schema": 3, "key": point.cache_key()}

        monkeypatch.setattr(engine_module, "simulate_point", flaky_simulate)
        engine = SweepEngine(jobs=1)  # no result cache
        point = tiny_point()
        runners = 3
        barrier = threading.Barrier(runners)
        outcomes: list[object] = [None] * runners

        def run(i: int) -> None:
            barrier.wait()
            try:
                outcomes[i] = engine.run([point])[0]
            except RuntimeError as error:
                outcomes[i] = error

        threads = [threading.Thread(target=run, args=(i,)) for i in range(runners)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "waiter wedged on a dead owner"

        errors = [o for o in outcomes if isinstance(o, RuntimeError)]
        records = [o for o in outcomes if isinstance(o, dict)]
        assert len(errors) == 1 and len(records) == 2, outcomes
        assert all(r["key"] == point.cache_key() for r in records)
        assert len(calls) == 3, "each waiter must recompute once"
        assert engine.stats.executed == 2
        assert engine.stats.inflight_hits == 0
        assert engine.stats.cache_hits == 0
        assert engine._inflight == {}, "in-flight table must drain"

    def test_inflight_wait_counts_hit_even_without_cache(self, monkeypatch):
        calls: list[str] = []
        lock = threading.Lock()

        def slow_simulate(point):
            with lock:
                calls.append(point.cache_key())
            time.sleep(0.2)
            return {"schema": 3, "key": point.cache_key()}

        monkeypatch.setattr(engine_module, "simulate_point", slow_simulate)
        engine = SweepEngine(jobs=1)  # no result cache
        point = tiny_point()
        barrier = threading.Barrier(2)
        results: list[object] = [None, None]

        def run(i: int) -> None:
            barrier.wait()
            results[i] = engine.run([point])[0]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        assert len(calls) == 1, "the waiter must reuse the owner's record"
        assert results[0] == results[1]
        assert engine.stats.executed == 1
        assert engine.stats.inflight_hits == 1
        assert engine._inflight == {}

    def test_progress_scope_hooks_are_thread_local(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            engine_module,
            "simulate_point",
            lambda point: {"schema": 3, "key": point.cache_key()},
        )
        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        grids = {
            "a": [tiny_point()],
            "b": [
                tiny_point(phi=TINY.phi_config(num_patterns=8)),
                tiny_point(phi=TINY.phi_config(num_patterns=4)),
            ],
        }
        seen: dict[str, list] = {"a": [], "b": []}
        barrier = threading.Barrier(2)

        def run(name: str) -> None:
            hook = lambda done, total, point, origin: seen[name].append(
                (done, total, origin)
            )
            barrier.wait()
            with engine_module.progress_scope(hook):
                engine.run(grids[name])

        threads = [
            threading.Thread(target=run, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert [event[:2] for event in seen["a"]] == [(1, 1)]
        assert [event[:2] for event in sorted(seen["b"])] == [(1, 2), (2, 2)]
        assert getattr(engine_module._PROGRESS, "hook", None) is None


class TestFigureSubcommands:
    """``fig7``/``fig12`` print exactly what ``exp`` prints, ``fig8`` keeps
    its default-workload grid, and every footer parses for ``repro.bench``."""

    FLAGS = ["--scale", "tiny", "-q", "--no-cache", "--no-store"]

    def _run(self, capsys, *command):
        """(stdout above the footer, footer match) of one CLI call."""
        from repro.bench.cli import _STATS_RE
        from repro.runner.cli import main

        assert main([*command, *self.FLAGS]) == 0
        body, _, footer = capsys.readouterr().out.rstrip("\n").rpartition("\n")
        match = _STATS_RE.fullmatch(footer)
        assert match, footer
        return body, match

    @pytest.mark.parametrize("name", ["fig7", "fig12"])
    def test_shorthand_prints_the_exp_section(self, capsys, name):
        body, stats = self._run(capsys, name)
        exp_body, exp_stats = self._run(capsys, "exp", name)
        assert body == exp_body
        assert body.startswith("### ") and f"`{name}`" in body
        assert stats["points"] == exp_stats["points"]

    def test_fig8_runs_the_default_workloads(self, capsys):
        from repro.experiments.fig8 import ACCELERATORS, DEFAULT_WORKLOADS

        body, stats = self._run(capsys, "fig8")
        assert int(stats["points"]) == 49 == len(DEFAULT_WORKLOADS) * len(ACCELERATORS)
        for model, dataset in DEFAULT_WORKLOADS:
            assert f"| {model}/{dataset} |" in body


class TestProgressLines:
    """Both CLIs print one ``[i/n] label (origin)`` stderr line per settled
    point through ``progress_scope``; ``-q`` silences them."""

    LINE = re.compile(r"\[(\d+)/(\d+)\] \S+ \((run|cache|inflight)\)")

    @pytest.mark.parametrize("quiet", [False, True])
    @pytest.mark.parametrize("cli", ["runner", "report"])
    def test_one_stderr_line_per_point_unless_quiet(self, capsys, tmp_path, cli, quiet):
        from repro.report.cli import main as report_main
        from repro.runner.cli import main as runner_main

        flags = ["--scale", "tiny", "--no-cache", "--no-store"]
        flags += ["-q"] if quiet else []
        if cli == "runner":
            assert runner_main(["fig12", *flags]) == 0
            pattern = r"(\d+) points, "
        else:
            assert report_main(["--only", "fig12", "-o", str(tmp_path), *flags]) == 0
            pattern = r"sweep points: (\d+) requested"
        out, err = capsys.readouterr()
        requested = int(re.search(pattern, out)[1])
        lines = [line for line in err.splitlines() if self.LINE.match(line)]
        assert requested > 0
        assert not self.LINE.search(out)
        if quiet:
            assert lines == []
            return
        assert len(lines) == requested
        assert all(self.LINE.fullmatch(line) for line in lines)
        done, total = self.LINE.match(lines[-1]).group(1, 2)
        assert done == total


class TestValidateCacheSubprocess:
    """The CLI contract: non-zero exit whenever any record fails validation.

    Regression for two silent-pass holes: a v3 record that lost its
    ``accelerator`` key used to be skipped as a report-section payload,
    and corrupt JSON files were not reported at all.  Asserted through a
    real ``python -m repro.runner`` subprocess, exit code included.
    """

    def _validate(self, cache_dir):
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.runner",
                "validate-cache",
                "--cache-dir",
                str(cache_dir),
            ],
            capture_output=True,
            text=True,
        )

    def test_record_missing_required_keys_exits_nonzero(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(
            "ab" * 32,
            {"schema": engine_module.CACHE_SCHEMA_VERSION, "accelerator": "phi"},
        )
        completed = self._validate(tmp_path)
        assert completed.returncode == 1
        assert "INVALID" in completed.stderr

    def test_record_missing_accelerator_key_exits_nonzero(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(
            "cd" * 32,
            {"schema": engine_module.CACHE_SCHEMA_VERSION, "model": "vgg16"},
        )
        completed = self._validate(tmp_path)
        assert completed.returncode == 1
        assert "missing key 'accelerator'" in completed.stderr

    def test_corrupt_record_file_exits_nonzero(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ef" * 32, {"schema": engine_module.CACHE_SCHEMA_VERSION})
        cache.path_for("ef" * 32).write_text('{"schema": 3, "torn":')
        completed = self._validate(tmp_path)
        assert completed.returncode == 1
        assert "unreadable or corrupt JSON" in completed.stderr

    def test_valid_real_records_exit_zero(self, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path), jobs=1)
        engine.run_one(tiny_point())
        completed = self._validate(tmp_path)
        assert completed.returncode == 0, completed.stderr
        assert "1 valid v3 records" in completed.stdout
