"""Documentation coverage: every public module, class and function in
the library carries a docstring."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.rsplit(".", 1)[-1].startswith("_")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-exports documented at their origin
        if not inspect.getdoc(obj):
            missing.append(name)
    assert not missing, f"{module_name}: missing docstrings on {missing}"


def test_public_methods_of_core_classes_documented():
    from repro.core import RTLFixer, RTLFixerConfig
    from repro.agents import ReActAgent, OneShotAgent
    from repro.sim import Simulator, Logic
    from repro.dataset import GenerationModel, ErrorInjector

    for cls in (RTLFixer, RTLFixerConfig, ReActAgent, OneShotAgent,
                Simulator, Logic, GenerationModel, ErrorInjector):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert inspect.getdoc(member), f"{cls.__name__}.{name} undocumented"


def test_every_all_name_resolves():
    """Every name a module lists in ``__all__`` is an attribute of it, so
    pruning a definition cannot leave a dangling export behind."""
    dangling = []
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            if not hasattr(module, export):
                dangling.append(f"{name}.{export}")
    assert not dangling, f"__all__ names that do not resolve: {dangling}"
