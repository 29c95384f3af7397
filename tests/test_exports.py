"""Every public name resolves, star imports work, removed names stay gone, and
the package loads each module on the first use of its names."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

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
    "u_spectrum",
    "zoh_frequency_response",
    "FastSampler",
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
    """``ancsim.__all__`` and ``dir(ancsim)`` list every public module's ``__all__``
    but the command line's, and each name is its module's object."""
    owner = {n: module for module in (importlib.import_module(f"ancsim.{name}")
                                      for name in MODULES if name != "cli") for n in module.__all__}
    assert sorted(ancsim.__all__) == sorted(owner)
    listed = {n for n in dir(ancsim) if not n.startswith("_") and not inspect.ismodule(getattr(ancsim, n))}
    assert listed == owner.keys(), (sorted(listed - owner.keys()), sorted(owner.keys() - listed))
    wrong = [n for n, module in owner.items() if getattr(ancsim, n) is not getattr(module, n)]
    assert not wrong, wrong


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ancsim.no_such_name
    with pytest.raises(ImportError, match="'no_such_name'"):
        exec("from ancsim import no_such_name", {})


def fresh_ancsim_modules(code, also=()):
    """Run ``code`` in a fresh interpreter; return the sorted list of ancsim modules
    it loaded, and of the modules named in ``also``."""
    script = code + f"\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'ancsim' or m in {set(also)}))\n"
    src = os.path.dirname(os.path.dirname(ancsim.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


LOOP = ["ancsim", "ancsim.config", "ancsim.lifting", "ancsim.signals", "ancsim.statespace"]


@pytest.mark.parametrize("code, lazy", [
    ("from ancsim import SimConfig, HybridLoop, discretize_lifted\n"
     "config = SimConfig()\n"
     "HybridLoop(config.secondary(), config.primary(), config.make_generator(), config.h, config.L)\n"
     "discretize_lifted(config.secondary(), config.h, 1)", ["_pcg64"]),
    ("from ancsim import TOL", ["tolerances"]),
    ("from ancsim import adaptive", ["adaptive", "tolerances"]),
    ("import ancsim\nancsim.runner", ["_tables", "adaptive", "runner", "tolerances"]),
    ("from ancsim import cli", ["cli"]),
    ("from ancsim import cli\ncli.main(['run', '--seed', 'x'])", ["cli"]),
    ("from ancsim import spectral_bound", ["adaptive", "spectrum", "tolerances"]),
], ids=["loop", "TOL", "adaptive", "runner", "cli", "cli-rejected", "spectral_bound"])
def test_modules_load_on_first_use(code, lazy):
    """``import ancsim`` loads the modules that build a configuration and its
    loop; any other module loads with its first name or as a submodule, alone."""
    assert fresh_ancsim_modules(code) == str(sorted(LOOP + [f"ancsim.{m}" for m in lazy]))


def test_default_loop_leaves_numpy_random_unloaded():
    """The default noise phases are drawn in-package (``ancsim._pcg64``), so
    building the default loop imports no ``numpy.random``."""
    code = ("from ancsim import SimConfig, HybridLoop\n"
            "config = SimConfig()\n"
            "HybridLoop(config.secondary(), config.primary(), config.make_generator(), config.h, config.L)")
    assert "numpy.random" not in fresh_ancsim_modules(code, also=["numpy.random"])
    assert "numpy.random" in fresh_ancsim_modules("import numpy.random", also=["numpy.random"])


def test_removed_names_are_gone():
    modules = [ancsim] + [importlib.import_module(f"ancsim.{name}") for name in MODULES]
    left = [f"{m.__name__}.{n}" for m in modules for n in REMOVED if hasattr(m, n)]
    assert not left, left
