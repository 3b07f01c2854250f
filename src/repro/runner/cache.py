"""Content-addressed on-disk cache for sweep results.

Every sweep point is summarised into a JSON-serialisable record; the cache
key is the SHA-256 hash of the point's canonical JSON payload (algorithm
config, architecture config, workload spec, package version and schema
version), so any configuration change yields a different key and an
automatic invalidation.  Simulator *code* changes are covered only by the
package version / schema version fields — a change that alters results
without bumping either must bump ``CACHE_SCHEMA_VERSION`` (see
``engine.py``), which is why the golden regression suite pins simulator
outputs: it turns silent semantic drift into a test failure.  Records are stored one file per key, fanned
out over 256 two-hex-digit subdirectories, and written atomically so a
killed worker can never leave a half-written record behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Mapping


def default_cache_dir() -> pathlib.Path:
    """The default on-disk cache location.

    ``REPRO_CACHE_DIR`` overrides it; otherwise results live under the
    XDG cache home so repeated sweeps share work across checkouts.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "phi-repro" / "sweeps"


def cache_key(payload: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``.

    Parameters
    ----------
    payload:
        Any JSON-serialisable mapping; key order does not matter (keys
        are sorted before hashing).

    Returns
    -------
    str
        64-character lowercase hex digest.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of content-addressed JSON records.

    Parameters
    ----------
    root:
        Cache directory (created lazily on the first ``put``); defaults
        to :func:`default_cache_dir`.  Both the sweep engine's point
        records and the report pipeline's section payloads live here,
        under disjoint content-hash keys.
    """

    def __init__(self, root: pathlib.Path | str | None = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> pathlib.Path:
        """File that stores (or would store) the record for ``key``."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The cached record for ``key``, or ``None`` on miss.

        A corrupt or unreadable file counts as a miss: sweeps recompute and
        overwrite rather than fail.
        """
        path = self.path_for(key)
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def put(self, key: str, record: Mapping[str, Any]) -> None:
        """Atomically persist ``record`` under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            # ``json.dumps`` takes CPython's C encoder; ``json.dump`` to a
            # file never does, and encodes the same bytes about half as fast.
            text = json.dumps(record, sort_keys=True)
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def record_paths(self) -> list[pathlib.Path]:
        """All cached record files, sorted — the single traversal that
        :meth:`records` and :meth:`__len__` share."""
        if not self.root.exists():
            return []
        return sorted(self.root.glob("*/*.json"))

    def records(self, *, include_corrupt: bool = False):
        """Yield ``(path, record)`` for every cached JSON record.

        Unreadable or corrupt files are skipped by default, mirroring
        :meth:`get`'s miss semantics; with ``include_corrupt=True`` they
        are yielded as ``(path, None)`` instead, so auditors
        (``python -m repro.runner validate-cache``) can report them
        rather than silently pass.
        """
        for path in self.record_paths():
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                if include_corrupt and path.exists():
                    yield path, None
                continue
            yield path, record

    def snapshot(self) -> dict[str, dict]:
        """A point-in-time ``{key: record}`` view of every readable record.

        Safe under concurrent writers: the directory listing is taken
        once, files that vanish or are mid-replace read as misses (all
        writes are atomic ``os.replace``), and the returned mapping never
        mutates afterwards.  The key is recovered from the file name, so
        ``snapshot()[k] == get(k)`` for every returned key.
        """
        return {path.stem: record for path, record in self.records()}

    def __len__(self) -> int:
        return len(self.record_paths())

    def clear(self) -> int:
        """Delete every cached record; returns the number removed."""
        removed = 0
        for path in self.record_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
