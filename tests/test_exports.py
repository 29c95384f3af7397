"""Every public name resolves, star imports work, and removed names stay gone."""

import importlib
import inspect
import pkgutil

import pytest

import ancsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(ancsim.__path__) if not m.name.startswith("_"))
REMOVED = (
    "HybridLoopState",
    "AdaptiveState",
    "initial_adaptive_state",
    "sdfx_lms_step",
    "static_gain",
    "scaled",
    "dtft",
    "write_run_csv",
    "write_comparison_csv",
    "fh_step",
    "freq_response",
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves_and_star_imports(name):
    module = importlib.import_module(f"ancsim.{name}")
    assert module.__all__, name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    namespace = {}
    exec(f"from ancsim.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_package_names_come_from_module_all():
    """``ancsim`` re-exports every public module's ``__all__`` but the command line's."""
    public = set().union(*(importlib.import_module(f"ancsim.{name}").__all__
                           for name in MODULES if name != "cli"))
    exported = {n for n, v in vars(ancsim).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert exported == public, (sorted(exported - public), sorted(public - exported))


def test_removed_names_are_gone():
    modules = [ancsim] + [importlib.import_module(f"ancsim.{name}") for name in MODULES]
    left = [f"{m.__name__}.{n}" for m in modules for n in REMOVED if hasattr(m, n)]
    assert not left, left
