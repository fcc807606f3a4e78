"""Tooling guards: every module's ``__all__`` names what it defines, no more
and no less, so removing a function or class cannot leave a stale export;
and every definition in the package is used by the package, so code kept
only for the tests cannot stay unnoticed."""

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path
from typing import Iterator

import pytest

import pivotlab

MODULES = [pivotlab] + [
    importlib.import_module(f"pivotlab.{info.name}")
    for info in pkgutil.iter_modules(pivotlab.__path__)
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def module_id(module) -> str:
    return module.__name__


@pytest.mark.parametrize("module", EXPORTING, ids=module_id)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


# ``cli`` is the command line: its entry points are not a library API
@pytest.mark.parametrize(
    "module", [m for m in EXPORTING if m.__name__ != "pivotlab.cli"], ids=module_id
)
def test_every_public_definition_is_exported(module):
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    unexported = sorted(defined - set(module.__all__))
    assert not unexported, f"{module.__name__} defines but does not export {unexported}"


# ---------------------------------------------------------------------------
# no test-only code in the package
# ---------------------------------------------------------------------------

SRC = Path(pivotlab.__file__).parent

# names kept in the package although no package code reads them, with why
UNREFERENCED_ALLOWED = {
    "geometry.solve_exact": "the benchmark tracer wraps it by name",
    "geometry.flip_tail_sign": "fault injection for the checker-sensitivity criterion",
    "grid_uso.flip_top_pair_out": "fault injection for the checker-sensitivity criterion",
}


def _definitions(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.AST]]:
    """``(qualified name, node)`` of every function, class and method under
    ``node``, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child
            yield from _definitions(child, f"{prefix}.{child.name}")
        else:
            yield from _definitions(child, prefix)


def _references(node: ast.AST) -> Counter:
    """How often each name is read in ``node``: as a variable, an attribute
    or an imported name.  ``__all__`` holds strings, so it counts none."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def unreferenced_definitions(src: Path) -> list[str]:
    """The qualified name of each non-dunder definition under ``src`` whose
    name appears nowhere in ``src`` outside the definitions of that name.
    The check is by name: one use keeps every definition sharing it."""
    trees = {
        ".".join(path.relative_to(src).with_suffix("").parts): ast.parse(path.read_text())
        for path in sorted(src.rglob("*.py"))
    }
    total: Counter = Counter()
    for tree in trees.values():
        total += _references(tree)
    defined: dict[str, list[tuple[str, ast.AST]]] = {}
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined.setdefault(node.name, []).append((qualname, node))
    unreferenced = []
    for name, defs in defined.items():
        inside = sum(_references(node)[name] for _, node in defs)
        if total[name] <= inside:
            unreferenced.extend(qualname for qualname, _ in defs)
    return sorted(unreferenced)


def test_no_definition_is_referenced_only_by_tests():
    found = set(unreferenced_definitions(SRC))
    unexpected = sorted(found - set(UNREFERENCED_ALLOWED))
    assert not unexpected, f"defined in src/ but used only outside it: {unexpected}"
    stale = sorted(set(UNREFERENCED_ALLOWED) - found)
    assert not stale, f"allowlisted but now referenced in src/: {stale}"
