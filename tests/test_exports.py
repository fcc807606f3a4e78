"""Tooling guard: every module's ``__all__`` names what it defines, no more
and no less, so removing a function or class cannot leave a stale export."""

import importlib
import inspect
import pkgutil

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
