"""The benchmark tracer's contract with ``src/``.

``perfbench/tracer.py`` wraps engine, simulator and store entry points at
the names their callers look up; a traced benchmark repetition that
cannot install its wrappers counts every point as failed.  Installing
the tracer in a fresh interpreter, exactly as a traced repetition does,
must therefore keep working whenever ``src/`` renames or deletes code.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

INSTALL = """
import pathlib, sys
import repro.runner
import tracer
tracer.install(pathlib.Path(sys.argv[1]))
"""


def test_tracer_installs_in_a_fresh_interpreter(tmp_path):
    completed = subprocess.run(
        [sys.executable, "-c", INSTALL, str(tmp_path)],
        cwd=ROOT / "perfbench",
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


KMEANS_COUNTS = """
import json, pathlib, sys
import numpy as np
import repro.runner
import tracer
recorder = tracer.install(pathlib.Path(sys.argv[1]))
from repro.core.kmeans import cluster_partition
rng = np.random.default_rng(0)
distinct = (rng.random((20, 16)) < 0.5).astype(np.uint8)
cluster_partition(distinct[rng.integers(0, 20, size=200)], 4)
print(json.dumps(recorder.collect()[1]))
"""


def test_kmeans_unique_row_counter_sees_duplicates(tmp_path):
    # core.kmeans_unique_frac reads the distinct-row count from the
    # ``unique_rows=`` keyword that cluster_partition passes to
    # binary_kmeans; without it the fraction silently reads 1.0.
    completed = subprocess.run(
        [sys.executable, "-c", KMEANS_COUNTS, str(tmp_path)],
        cwd=ROOT / "perfbench",
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    counts = json.loads(completed.stdout.splitlines()[-1])
    assert counts["core.kmeans_calls"] == 1
    assert counts["core.kmeans_rows"] == 200
    assert 0 < counts["core.kmeans_unique_rows"] < counts["core.kmeans_rows"]
