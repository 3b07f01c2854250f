"""Docstring enforcement for the public API (runner, report, service, hw,
baselines, core, workloads, analysis, datasets).

A lightweight, dependency-free stand-in for ``pydocstyle``/``ruff``'s D
rules (CI additionally runs ``ruff check --select D`` — see ruff.toml):
every public module, class, function and method in the packages below
must carry a docstring, and every experiment result dataclass must
document itself.  Private names (leading underscore) and dunders are
exempt.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Files whose entire public surface must be documented.
CHECKED_FILES = sorted(
    list((SRC / "runner").glob("*.py"))
    + list((SRC / "report").glob("*.py"))
    + list((SRC / "service").glob("*.py"))
    + list((SRC / "hw").glob("*.py"))
    + list((SRC / "baselines").glob("*.py"))
    + list((SRC / "core").glob("*.py"))
    + list((SRC / "workloads").glob("*.py"))
    + list((SRC / "analysis").glob("*.py"))
    + list((SRC / "datasets").glob("*.py"))
    + [SRC / "experiments" / "registry.py", SRC / "experiments" / "common.py"]
)

#: Experiment harness files: their public *classes* (the FigN/TableN
#: result dataclasses) must be documented.
HARNESS_FILES = sorted((SRC / "experiments").glob("*.py"))


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_docstrings(path: pathlib.Path, *, functions: bool) -> list[str]:
    tree = ast.parse(path.read_text())
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{path.name}: module")

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and _is_public(child.name):
                if ast.get_docstring(child) is None:
                    missing.append(f"{path.name}: class {prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.")
            elif (
                functions
                and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _is_public(child.name)
            ):
                if ast.get_docstring(child) is None:
                    missing.append(f"{path.name}: def {prefix}{child.name}")

    visit(tree, "")
    return missing


@pytest.mark.parametrize("path", CHECKED_FILES, ids=lambda p: str(p.relative_to(SRC)))
def test_public_api_is_documented(path):
    assert _missing_docstrings(path, functions=True) == []


@pytest.mark.parametrize("path", HARNESS_FILES, ids=lambda p: str(p.relative_to(SRC)))
def test_result_dataclasses_are_documented(path):
    assert _missing_docstrings(path, functions=False) == []
