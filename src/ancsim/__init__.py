"""Sampled-data filtered-x adaptive noise control.

Exact lifted discretization of hold-driven plants, the quadratic design
problem for the cancellation filter with direct and gradient solvers, the
online blocked update with its convergence-condition checker, spectral
stability bounds, and a hybrid closed-loop experiment harness.
"""

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

# Each module's __all__ is its one export list.
from .adaptive import *
from .config import *
from .lifting import *
from .runner import *
from .signals import *
from .spectrum import *
from .statespace import *
from .tolerances import *

__version__ = "0.1.0"
