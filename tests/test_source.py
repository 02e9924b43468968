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


def _top_level_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        name.id
        for target in targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
    ]


def test_private_names_are_used():
    # a helper left behind when its last caller goes is dead code: every
    # module-level _name is loaded somewhere outside its own definition
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = _top_level_names(node)
            for name in own:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, []).append(path.name)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    loaded = sub.id
                elif isinstance(sub, ast.alias):
                    loaded = sub.name
                else:
                    continue
                if loaded not in own:
                    used.add(loaded)
    assert "_enum_fiber" in defined
    unused = sorted(
        f"{path}:{name}"
        for name, paths in defined.items()
        if name not in used
        for path in paths
    )
    assert not unused, unused


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """The names a module's import statements bind, with their lines,
    leaving out explicit re-exports (``from m import x as x``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [
                (a.asname or a.name, node.lineno) for a in node.names if a.asname != a.name
            ]
    return found


def _exported_names(tree: ast.Module) -> set[str]:
    return {
        element.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for element in ast.walk(node.value)
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    }


def test_imports_are_used():
    # an import left behind when its last use goes is dead code: every name
    # a module imports is loaded in that module or exported by its __all__
    unused = []
    checked = 0
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        } | _exported_names(tree)
        for name, line in _imported_names(tree):
            checked += 1
            if name not in loaded:
                unused.append(f"{path.name}:{line}:{name}")
    assert checked > 20, checked
    assert not unused, unused
