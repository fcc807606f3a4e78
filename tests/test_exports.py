"""Tooling guards: every module's ``__all__`` names what it defines, no more
and no less, so removing a function or class cannot leave a stale export;
every definition in the package is used by the package, so code kept only
for the tests cannot stay unnoticed, unless the benchmark's tracer wraps it
by name; and every module-level import is read,
so a removal cannot leave its import behind."""

import ast
import importlib
import importlib.util
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
    "geometry.is_pierced_subset": "the benchmark tracer wraps it by name",
    "grid_uso.out_neighbors": "the benchmark tracer wraps it by name",
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


def _trees(src: Path) -> dict[str, ast.Module]:
    """The parsed modules under ``src``, by dotted name."""
    return {
        ".".join(path.relative_to(src).with_suffix("").parts): ast.parse(path.read_text())
        for path in sorted(src.rglob("*.py"))
    }


def unreferenced_definitions(src: Path) -> list[str]:
    """The qualified name of each non-dunder definition under ``src`` whose
    name appears nowhere in ``src`` outside the definitions of that name.
    The check is by name: one use keeps every definition sharing it."""
    trees = _trees(src)
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


def test_every_allowlisted_name_is_traced():
    """A name stays unreferenced in the package only while the benchmark's
    tracer wraps it, so code the tests alone call cannot come back under
    another reason."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {f"{mod}.{fn}" for mod, fns in tracer.TRACED.items() for fn in fns}
    untraced = sorted(set(UNREFERENCED_ALLOWED) - traced)
    assert not untraced, f"allowlisted but not wrapped by the tracer: {untraced}"


# ---------------------------------------------------------------------------
# no default that only tests override
# ---------------------------------------------------------------------------

# defaulted parameters that no package call sets, as ``module.function(params)``
# (a class stands for its ``__init__``), with why they stay
UNSET_DEFAULTS_ALLOWED = {
    "cli.dispatch(argv)": "the tests and the benchmark pass a command line; the console "
    "script reads sys.argv",
    "process.ProcessConfig(start, count_terminal_step)": "the benchmark's workloads set "
    "them",
    "analysis.verify_lemmas(point_set)": "fault injection for the checker-sensitivity "
    "criterion",
}


def _defaulted(node: ast.AST, offset: int) -> dict[str, int | None]:
    """The defaulted parameters of a function, each with its position in a
    call (``None`` if keyword-only), ``offset`` counting the bound
    ``self``."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = {a.arg: i - offset for i, a in enumerate(positional) if i >= first}
    found.update(
        (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    )
    return found


def _callables(tree: ast.AST, module: str) -> Iterator[tuple[str, str, dict]]:
    """``(qualified name, called name, defaulted parameters)`` of every
    function and method, a class standing for its ``__init__``."""
    methods = {
        id(sub) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for sub in cls.body
    }
    for qualname, node in _definitions(tree, module):
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
                    yield qualname, node.name, _defaulted(sub, 1)
        elif not node.name.startswith("__"):
            bound = id(node) in methods and not any(
                ast.unparse(d) == "staticmethod" for d in node.decorator_list
            )
            yield qualname, node.name, _defaulted(node, int(bound))


def _set_by(call: ast.Call, params: dict[str, int | None]) -> set[str]:
    """The parameters among ``params`` that ``call`` sets; a starred
    argument may set any positional one, ``**`` any of them."""
    keywords = {k.arg for k in call.keywords}
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return {
        name
        for name, position in params.items()
        if name in keywords
        or None in keywords
        or position is not None and (starred or position < len(call.args))
    }


def unset_defaults(src: Path) -> list[str]:
    """``module.function(params)`` for each definition under ``src`` with a
    defaulted parameter that no call under ``src`` sets.  Calls are matched
    by the called name, as in :func:`unreferenced_definitions`."""
    trees = _trees(src)
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(sub)
    unset = []
    for module, tree in trees.items():
        for qualname, name, params in _callables(tree, module):
            left = set(params)
            for call in calls.get(name, []):
                left -= _set_by(call, params)
            if left:
                ordered = [p for p in params if p in left]
                unset.append(f"{qualname}({', '.join(ordered)})")
    return sorted(unset)


def test_no_default_is_set_only_by_tests():
    found = set(unset_defaults(SRC))
    unexpected = sorted(found - set(UNSET_DEFAULTS_ALLOWED))
    assert not unexpected, f"defaulted in src/ but set only outside it: {unexpected}"
    stale = sorted(set(UNSET_DEFAULTS_ALLOWED) - found)
    assert not stale, f"allowlisted but now set in src/: {stale}"


# ---------------------------------------------------------------------------
# no unread import
# ---------------------------------------------------------------------------


def unread_imports(src: Path) -> list[str]:
    """``module.name`` for each name a module-level import under ``src``
    binds that its module never reads.  A name listed in the module's
    ``__all__`` counts as read: that is how a package re-exports."""
    unread = []
    for module, tree in _trees(src).items():
        read = {
            sub.id
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                read |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unread += [f"{module}.{name}" for name in names if name not in read]
    return sorted(unread)


def test_no_import_is_left_unread():
    assert unread_imports(SRC) == []


def test_an_unread_import_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from operator import and_, ne\n"
        "from .errors import Kept\n"
        "__all__ = ['Kept']\n"
        "def f(x):\n"
        "    return and_(x, math.pi)\n"
    )
    assert unread_imports(tmp_path) == ["mod.ne", "mod.os"]
