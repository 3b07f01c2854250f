"""The benchmark tracer's contract with ``src/``.

``perfbench/tracer.py`` wraps engine, simulator and store entry points at
the names their callers look up; a traced benchmark repetition that
cannot install its wrappers counts every point as failed.  Installing
the tracer in a fresh interpreter, exactly as a traced repetition does,
must therefore keep working whenever ``src/`` renames or deletes code.
"""

from __future__ import annotations

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
