"""Sweep-as-a-service: a concurrent job service over the artifact store.

``python -m repro.service serve`` turns the one-shot CLI stack into a
long-lived front-end: one warm :class:`~repro.runner.SweepEngine` (result
cache + artifact store + worker pool) owned by a single process, serving
sweep/experiment/report requests from many simultaneous clients over
HTTP+JSON.  Work is deduplicated at three levels before any simulation
runs — identical *requests* collapse onto one in-flight job, identical
*points* collapse inside the re-entrant engine, and previously computed
points load from the :class:`~repro.runner.ResultCache` (with workloads,
calibrations and decompositions shared through the
:class:`~repro.runner.ArtifactStore` below that).

The package is stdlib-only on top of the existing runner layer:

* :mod:`repro.service.jobs` — the job model (submit → queued → running →
  done/failed) and the dispatcher that executes jobs on the shared engine.
* :mod:`repro.service.http` — the ``ThreadingHTTPServer`` front-end and
  its JSON request/response handling.
* :mod:`repro.service.client` — the thin ``urllib`` client used by
  ``python -m repro.runner ... --remote URL`` and
  ``python -m repro.report --remote URL``, with retry/backoff for
  transient failures and restart-surviving job waits.
* :mod:`repro.service.cli` — the ``serve`` / ``worker`` entry points
  with graceful drain/shutdown.
* :mod:`repro.service.schemas` — the protocol version embedded in every
  request/response.
* :mod:`repro.service.ratelimit` — per-client rolling-window rate
  limiting (429 + ``Retry-After``).
* :mod:`repro.service.audit` — the append-only JSONL audit log of every
  job/record mutation, with optional size-based rotation.
* :mod:`repro.service.db` — the WAL-mode sqlite journal that makes the
  job queue durable: jobs, worker registrations and lease events
  survive a SIGKILL and are recovered on boot.
* :mod:`repro.service.fleet` — the lease coordinator distributing
  ``(workload, config)`` units to registered workers, with heartbeat
  TTLs, automatic requeue of dead owners' leases and local fallback.
* :mod:`repro.service.worker` — the ``python -m repro.service worker``
  loop: register, lease, simulate, ingest, survive restarts.

See DESIGN.md ("Service architecture" and "Durable fabric") for the
job lifecycle, the lease state machine and the concurrency/recovery
guarantees the test suite locks down.
"""

from .audit import AuditLog
from .client import (
    NO_RETRY,
    JobNotFound,
    RetryPolicy,
    ServiceClient,
    ServiceError,
)
from .db import SCHEMA_VERSION, SchemaMismatch, ServiceDB
from .fleet import FleetCoordinator, FleetError, UnknownWorker
from .http import ServiceServer, serve
from .jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobRequest,
    JobService,
    RequestError,
    ServiceUnavailable,
)
from .ratelimit import RateLimiter
from .schemas import PROTOCOL_VERSION
from .worker import FleetWorker

__all__ = [
    "DONE",
    "FAILED",
    "NO_RETRY",
    "PROTOCOL_VERSION",
    "SCHEMA_VERSION",
    "AuditLog",
    "FleetCoordinator",
    "FleetError",
    "FleetWorker",
    "Job",
    "JobNotFound",
    "JobRequest",
    "JobService",
    "QUEUED",
    "RUNNING",
    "RateLimiter",
    "RequestError",
    "RetryPolicy",
    "SchemaMismatch",
    "ServiceClient",
    "ServiceDB",
    "ServiceError",
    "ServiceServer",
    "ServiceUnavailable",
    "UnknownWorker",
    "serve",
]
