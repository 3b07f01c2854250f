"""Fault-injection suite: the service under hostile and unlucky clients.

Each test injects one concrete failure mode from the hardening contract
(DESIGN.md, "Service architecture") and asserts the exactly-once and
byte-identical-records guarantees hold through it:

* a slow-loris client trickling bytes cannot pin a handler thread,
* a half-written request body is a clean 400, never a hang,
* a client that vanishes mid-response kills only its own connection,
* a full result cache (ENOSPC) degrades to compute-without-persist
  with identical payloads and no torn cache files,
* a SIGKILL during drain loses no committed state: the restarted
  service serves the same bytes, the cache validates, the audit log
  parses, and
* a connection reset after ``POST /jobs`` succeeded server-side is
  absorbed by retry + in-flight dedup without a second simulation.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
import repro.runner.engine as engine_module
from repro.experiments.common import TINY
from repro.experiments.fig7 import run_fig7
from repro.experiments.registry import get_experiment
from repro.runner import ArtifactStore, ResultCache, SweepEngine, validate_record
from repro.service import (
    DONE,
    AuditLog,
    JobService,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    serve,
)

FAST_RETRY = RetryPolicy(attempts=4, base_delay=0.01, max_delay=0.05, jitter=0.0)


@contextmanager
def served(tmp_path, *, cache=None, name="svc", request_timeout=60.0, audit=None):
    """A live in-process service, optionally over an injected cache."""
    engine = SweepEngine(
        cache=ResultCache(tmp_path / f"{name}-cache") if cache is None else cache,
        store=ArtifactStore(tmp_path / f"{name}-store"),
    )
    service = JobService(engine, workers=2, audit=audit)
    server = serve(service, request_timeout=request_timeout)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(server.url, retry=FAST_RETRY), service, server
    finally:
        service.drain()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def canonical(records: dict[str, dict]) -> dict[str, bytes]:
    """Records as canonical JSON bytes, for byte-identity comparisons."""
    return {
        key: json.dumps(record, sort_keys=True).encode()
        for key, record in records.items()
    }


def no_tmp_files(root: Path) -> bool:
    """Whether ``root`` holds no half-written ``*.tmp*`` cache files."""
    return not [p for p in root.rglob("*") if ".tmp" in p.name]


class TestSlowLoris:
    def test_trickling_client_is_cut_off_and_others_unaffected(self, tmp_path):
        with served(tmp_path, request_timeout=1.0) as (client, service, server):
            loris = socket.create_connection(("127.0.0.1", server.port), timeout=30)
            try:
                # Trickle an eternally unfinished request: headers never
                # complete, then silence.  Without the per-connection
                # timeout this pins a handler thread forever.
                loris.sendall(b"POST /jobs HTTP/1.1\r\nHost: x\r\nConte")
                # While the loris stalls, normal clients are served.
                for _ in range(3):
                    assert client.health()["status"] == "ok"
                # The server cuts the connection once the socket timeout
                # elapses: our read sees EOF (or a reset), not a hang.
                loris.settimeout(10)
                try:
                    leftover = loris.recv(4096)
                except ConnectionResetError:
                    leftover = b""  # an RST closes the connection too
                except TimeoutError:
                    pytest.fail("server never cut off the slow-loris client")
                assert leftover == b"" or b"HTTP/1.1" in leftover
            finally:
                loris.close()
            # The handler thread is free again and the service healthy.
            assert client.health()["status"] == "ok"

    def test_slow_body_trickle_is_bounded_too(self, tmp_path):
        with served(tmp_path, request_timeout=1.0) as (client, service, server):
            loris = socket.create_connection(("127.0.0.1", server.port), timeout=30)
            try:
                loris.sendall(
                    b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 1000\r\n\r\n"
                )
                loris.sendall(b'{"experiment"')  # then stall mid-body
                start = time.monotonic()
                loris.settimeout(15)
                chunks = b""
                try:
                    while True:
                        chunk = loris.recv(4096)
                        if not chunk:
                            break
                        chunks += chunk
                except (ConnectionResetError, TimeoutError):
                    pass
                # Cut off within a couple of timeout windows, not 1000
                # bytes' worth of patience.
                assert time.monotonic() - start < 10
            finally:
                loris.close()
            assert client.health()["status"] == "ok"
            assert service.counts()["queued"] + service.counts()["running"] == 0


class TestHalfWrittenBody:
    def test_truncated_body_is_a_400_mentioning_the_byte_counts(self, tmp_path):
        with served(tmp_path) as (client, service, server):
            raw = socket.create_connection(("127.0.0.1", server.port), timeout=30)
            try:
                raw.sendall(
                    b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 50\r\n\r\n"
                    b'{"experime'  # 10 of the promised 50 bytes
                )
                raw.shutdown(socket.SHUT_WR)  # client gave up mid-body
                raw.settimeout(15)
                response = b""
                while True:
                    chunk = raw.recv(4096)
                    if not chunk:
                        break
                    response += chunk
            finally:
                raw.close()
            head, _, body = response.partition(b"\r\n\r\n")
            assert b" 400 " in head.split(b"\r\n")[0]
            decoded = json.loads(body)
            assert "truncated" in decoded["error"]
            assert "50" in decoded["error"] and "10" in decoded["error"]
            # The desynced connection was closed, no job was accepted,
            # and the handler thread survived to serve real requests.
            assert service.counts()["queued"] + service.counts()["running"] == 0
            assert client.health()["status"] == "ok"


class TestMidResponseDrop:
    def test_vanishing_clients_never_kill_the_server(self, tmp_path):
        with served(tmp_path) as (client, service, server):
            for _ in range(5):
                rude = socket.create_connection(
                    ("127.0.0.1", server.port), timeout=30
                )
                rude.sendall(b"GET /experiments HTTP/1.1\r\nHost: x\r\n\r\n")
                # Vanish without reading the (large) response: the
                # server's write hits a dead socket sooner or later.
                rude.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),  # RST instead of FIN on close
                )
                rude.close()
            # Every drop closed only its own connection.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.health()["status"] == "ok":
                    break
            job = client.run("fig12", scale="tiny", timeout=600)
            assert job["status"] == DONE


class FullCache(ResultCache):
    """A result cache whose writes fail like a full disk (ENOSPC)."""

    def __init__(self, root):
        super().__init__(root)
        self.full = True

    def put(self, key, record):
        if self.full:
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        return super().put(key, record)


class TestStoreFull:
    def test_engine_warns_once_and_still_computes(self, tmp_path):
        cache = FullCache(tmp_path / "full-cache")
        spec = get_experiment("fig12")
        with SweepEngine(
            cache=cache, store=ArtifactStore(tmp_path / "store")
        ) as engine:
            with pytest.warns(RuntimeWarning, match="unwritable"):
                result = spec.run("tiny", engine=engine)
            assert result is not None
            # Warned exactly once per engine, not once per point.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                spec.run("tiny", engine=engine)
            assert not [
                w for w in caught if "unwritable" in str(w.message)
            ]
        assert len(cache) == 0
        assert no_tmp_files(tmp_path / "full-cache")

    # The dispatcher thread's one-time warning cannot be caught from
    # the test thread; it is asserted separately in the engine test.
    @pytest.mark.filterwarnings("ignore:result cache")
    def test_job_completes_with_identical_payload_and_heals(self, tmp_path):
        cache = FullCache(tmp_path / "full-cache")
        with served(tmp_path, cache=cache, name="full") as (client, service, server):
            starved = client.run("fig12", scale="tiny", timeout=600)
            assert starved["status"] == DONE
            assert starved["progress"]["executed"] == starved["progress"]["points"]
            # Nothing persisted, nothing torn.
            assert len(cache) == 0
            assert no_tmp_files(tmp_path / "full-cache")
            # Records cannot be served while the disk is full...
            with pytest.raises(ServiceError) as err:
                client.records_for(starved)
            assert err.value.status == 404

            # ...but the computed payload is byte-identical to a healthy
            # service's: persistence failures never change results.
            with served(tmp_path, name="healthy") as (healthy_client, _, _):
                healthy = healthy_client.run("fig12", scale="tiny", timeout=600)
            assert json.dumps(starved["payload"], sort_keys=True) == json.dumps(
                healthy["payload"], sort_keys=True
            )

            # The disk frees up: the same service persists and serves
            # records again without a restart.
            cache.full = False
            healed = client.run("fig12", scale="tiny", timeout=600)
            assert healed["status"] == DONE
            assert len(cache) == healed["progress"]["points"]
            records = client.records_for(healed)
            assert set(records) == set(healed["record_keys"])
            assert no_tmp_files(tmp_path / "full-cache")


class TestDedupUnderRetry:
    def test_connection_reset_after_accepted_submit_never_runs_twice(
        self, tmp_path, monkeypatch
    ):
        """The POST /jobs retry contract: a submission whose *response*
        is lost lands on the same job when replayed, because the service
        deduplicates identical in-flight requests — asserted the hard
        way, by counting real ``simulate_point`` calls."""
        calls: list[str] = []
        lock = threading.Lock()
        real_simulate = engine_module.simulate_point

        def counting_simulate(point):
            with lock:
                calls.append(point.cache_key())
            return real_simulate(point)

        monkeypatch.setattr(engine_module, "simulate_point", counting_simulate)

        class FlakyClient(ServiceClient):
            """Drops the connection after the first POST /jobs commits."""

            dropped = False

            def _open(self, request, timeout):
                response = super()._open(request, timeout)
                if (
                    request.get_method() == "POST"
                    and request.selector == "/jobs"
                    and not FlakyClient.dropped
                ):
                    FlakyClient.dropped = True
                    # The server accepted the job; the response dies on
                    # the wire before the client can read it.
                    response.read()
                    response.close()
                    raise ConnectionResetError("injected: response lost")
                return response

        audit = AuditLog(tmp_path / "audit.jsonl")
        with served(tmp_path, audit=audit) as (_, service, server):
            flaky = FlakyClient(server.url, retry=FAST_RETRY)
            job = flaky.run("fig7", scale="tiny", timeout=600)
            assert FlakyClient.dropped, "fault was never injected"
            assert job["status"] == DONE
            # Exactly one job exists and the retry deduplicated onto it.
            assert len(service.jobs()) == 1
            # Exactly-once simulation: every point key is unique.
            assert len(calls) == len(set(calls))
            assert len(calls) == job["progress"]["executed"]

        events = [entry["event"] for entry in audit.entries()]
        assert events.count("job.submitted") == 1
        assert events.count("job.deduplicated") == 1
        assert events.count("job.done") == 1


@pytest.mark.slow
class TestKillDuringDrain:
    """SIGKILL a draining service; restart must lose nothing committed."""

    def _spawn(self, cache_dir, store_dir, audit_log, tmp_path):
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "serve",
                "--port",
                "0",
                "--jobs",
                "1",
                "--cache-dir",
                str(cache_dir),
                "--store-dir",
                str(store_dir),
                "--audit-log",
                str(audit_log),
                "--quiet",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=str(tmp_path),
            env={
                **os.environ,
                "PYTHONUNBUFFERED": "1",
                # The suite's PYTHONPATH may be relative to the repo
                # root; the subprocess runs from tmp_path.
                "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
            },
        )
        try:
            for line in process.stdout:
                if line.startswith("serving on "):
                    return process, line.split()[-1]
            raise AssertionError(
                f"service never reported its URL (rc={process.poll()})"
            )
        except BaseException:
            process.kill()
            process.wait()
            raise

    def test_restart_after_kill_preserves_committed_state(self, tmp_path):
        cache_dir = tmp_path / "cache"
        store_dir = tmp_path / "store"
        audit_log = tmp_path / "audit.jsonl"

        process, url = self._spawn(cache_dir, store_dir, audit_log, tmp_path)
        try:
            client = ServiceClient(url, retry=FAST_RETRY)
            done = client.run("fig12", scale="tiny", timeout=600)
            assert done["status"] == DONE
            # Leave a bigger job mid-flight, start a graceful drain,
            # then murder the process mid-drain.
            client.submit("fig7", scale="tiny")
            client.shutdown()
            time.sleep(0.3)
        finally:
            process.kill()
            process.wait(timeout=30)

        # Whatever the kill interrupted, nothing committed is torn: every
        # committed record parses and passes the schema.  A kill between
        # ``mkstemp`` and ``os.replace`` in ``ResultCache.put`` may leave a
        # ``*.tmp`` file behind; one is planted so the check that readers
        # skip it does not depend on where the kill landed.
        committed = sorted(cache_dir.glob("*/*.json"))
        assert committed
        for path in committed:
            assert validate_record(json.loads(path.read_text())) == [], path
        (committed[0].parent / f"{committed[0].stem}torn.tmp").write_text('{"sch')
        cache = ResultCache(cache_dir)
        assert len(cache) == len(committed)
        assert sorted(cache.snapshot()) == [path.stem for path in committed]
        for entry in AuditLog(audit_log).entries():
            assert "event" in entry  # every surviving line parses

        process, url = self._spawn(cache_dir, store_dir, audit_log, tmp_path)
        try:
            client = ServiceClient(url, retry=FAST_RETRY)
            # The finished job's points replay entirely from cache.
            again = client.run("fig12", scale="tiny", timeout=600)
            assert again["status"] == DONE
            assert again["progress"]["executed"] == 0
            assert again["progress"]["cache_hits"] == again["progress"]["points"]
            # The interrupted fig7 completes, and its records are
            # byte-identical to a from-scratch serial run's.
            fig7 = client.run("fig7", scale="tiny", timeout=600)
            assert fig7["status"] == DONE
            records = canonical(client.records_for(fig7))
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)

        serial_cache = ResultCache(tmp_path / "serial-cache")
        with SweepEngine(
            cache=serial_cache, store=ArtifactStore(tmp_path / "serial-store")
        ) as serial_engine:
            run_fig7(TINY, engine=serial_engine)
        serial = canonical(serial_cache.snapshot())
        assert records == {key: serial[key] for key in records}
        assert set(records) == set(serial)

        # The surviving cache passes the schema audit wholesale.
        audit_cmd = subprocess.run(
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
            timeout=120,
        )
        assert audit_cmd.returncode == 0, audit_cmd.stdout + audit_cmd.stderr

        # The audit trail across both lives replays the whole story.
        events = [entry["event"] for entry in AuditLog(audit_log).entries()]
        assert events.count("service.draining") >= 1
        assert "job.submitted" in events and "job.done" in events


class TestWorkerVanishesMidLease:
    """A fleet worker leases a unit and silently dies (in-process).

    The fast counterpart of the subprocess ``kill -9`` test in
    ``test_fabric.py``: the lease must expire at TTL, and with the fleet
    then empty the unit falls back to local simulation — the job
    completes as if the worker had never existed.
    """

    def test_job_completes_via_local_fallback(self, tmp_path):
        engine = SweepEngine(
            cache=ResultCache(tmp_path / "cache"),
            store=ArtifactStore(tmp_path / "store"),
        )
        service = JobService(engine, workers=2, lease_ttl=0.4)
        server = serve(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url, retry=FAST_RETRY)
            worker_id = client.register_worker()["worker_id"]
            submitted = client.submit("fig12", scale="tiny")

            # Steal a lease for the job's first unit, then vanish: no
            # heartbeat, no ingest, no failure report.
            grant = None
            deadline = time.monotonic() + 30
            while grant is None and time.monotonic() < deadline:
                grant = client.lease(worker_id)
                if grant is None:
                    time.sleep(0.02)
            assert grant is not None, "the worker never got a lease"

            job = client.wait_for(submitted["id"], timeout=300)
            assert job["status"] == DONE
            assert job["record_keys"]
            # Nothing was ever ingested: every record ran locally.
            assert engine.stats.remote_hits == 0
            counts = service.fleet.counts()
            assert counts["leases_expired"] >= 1
            assert counts["units_completed"] == 0
        finally:
            service.drain()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
