"""Invariants of the package source itself."""

import ast
import importlib
from pathlib import Path

import linestrata

SOURCE = Path(__file__).resolve().parents[1] / "src" / "linestrata"


def test_no_assert_statements():
    # python -O strips assert statements, so internal checks raise
    # AssertionError explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SOURCE.glob("*.py")), SOURCE
    assert not found, found


def test_exports_resolve():
    # a name left in __all__ after its definition moved away fails here
    modules = [linestrata] + [
        importlib.import_module(f"linestrata.{path.stem}")
        for path in sorted(SOURCE.glob("*.py"))
        if path.stem != "__init__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 5
    assert not missing, missing
