"""Sampled-data filtered-x adaptive noise control.

Exact lifted discretization of hold-driven plants, the quadratic design
problem for the cancellation filter with direct and gradient solvers, the
online blocked update with its convergence-condition checker, spectral
stability bounds, and a hybrid closed-loop experiment harness.
"""

import importlib as _importlib
import os as _os
import sys as _sys

# The anc-sim command (its script, or ``python -m ancsim``, whose argv[0]
# reads "-m" while this package loads) runs BLAS on one thread unless its
# environment sets a count. ancsim's products are far too small for BLAS
# workers to pay off, and a process that runs them does not fork its table
# writer (see ``runner.run_to_csv``). The count is read when numpy loads.
_argv0 = (getattr(_sys, "argv", None) or [""])[0]
if _argv0 == "-m" or _os.path.splitext(_os.path.basename(_argv0))[0] == "anc-sim":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, "1")

# Each module's __all__ is its one export list. The modules that build a
# configuration and its loop load with the package; the analysis and run
# modules in _LAZY load when one of their names is first used (``__getattr__``
# below). Without bytecode caches a process compiles every module it loads,
# so one that only builds a loop compiles half the package. The loop modules
# stay eager: every process that builds a loop needs them, so deferring them
# too saved no set-up time and only moved their compile after whatever the
# caller had loaded (scipy, in perfbench), where the heap it leaves moves
# the caller's peak RSS.
from .config import *
from .lifting import *
from .signals import *
from .statespace import *

__version__ = "0.1.0"

# Searched in this order for a name, each loaded when the search reaches it.
# Each needs only modules before it, but runner needs no spectrum: spectrum
# goes first as the smaller one to load in passing.
_LAZY = ("tolerances", "adaptive", "spectrum", "runner")
_EAGER = ("config", "lifting", "signals", "statespace")


def __getattr__(name):
    """A submodule, loaded alone, or the first lazy module's value of ``name``."""
    # no __all__ holds a private name: probes such as ``__wrapped__`` load nothing
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name == "__all__":
        value = [n for m in _EAGER + _LAZY for n in __getattr__(m).__all__]
    else:
        try:
            return _importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        for module in map(__getattr__, _LAZY):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
