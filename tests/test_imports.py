"""Every ``src/`` module uses what it imports.

A dependency-free stand-in for ``ruff check --select F401`` (CI also runs
ruff): each non-``__init__`` module under ``src/repro`` is parsed with
``ast``, and every name an import statement binds must be read somewhere
in the module — as a name, the root of an attribute chain, a string
annotation or an ``__all__`` entry.  Package ``__init__`` modules are
exempt: their imports are the package's re-exports.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line number."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotation_names(annotation: ast.expr | None) -> set[str]:
    """Names read by an annotation, including quoted (forward) ones."""
    names = set()
    if annotation is None:
        return names
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _annotation_names(ast.parse(node.value, mode="eval").body)
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return names


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every imported name the module never reads."""
    tree = ast.parse(source)
    read = _read_names(tree)
    return sorted(
        (line, name) for name, line in _imported_names(tree).items() if name not in read
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_uses_its_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "def f(x: 'Mapping[str, int]') -> int:\n"
        "    return np.size(x)\n"
    )
    assert _unused_imports(source) == [(2, "os"), (4, "Sequence")]
