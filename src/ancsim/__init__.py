"""Sampled-data filtered-x adaptive noise control.

Exact lifted discretization of hold-driven plants, the quadratic design
problem for the cancellation filter with direct and gradient solvers, the
online blocked update with its convergence-condition checker, spectral
stability bounds, and a hybrid closed-loop experiment harness.
"""

from .adaptive import (
    FirFilter,
    LmsConditionReport,
    SingularGramError,
    WienerProblem,
    build_wiener,
    check_lms_conditions,
    gradient,
    j_value,
    sd_run,
    wiener_solve,
)
from .config import ConfigError, SimConfig
from .lifting import (
    ExogenousRecord,
    FastSampler,
    HybridLoop,
    LiftedDiscretization,
    SimTrace,
    discretize_lifted,
    fh_step,
    l2_norm,
)
from .runner import (
    ComparisonResult,
    SingleRunResult,
    SweepResult,
    SweepRow,
    emit_bode,
    load_u_blocks,
    run_comparison,
    run_mu_sweep,
    run_single,
    write_bode_csv,
    write_comparison_csv,
    write_run_csv,
    write_sweep_csv,
)
from .signals import AutonomousGenerator, HeldWaveform
from .spectrum import (
    ParsevalReport,
    SpectralBound,
    parseval_check,
    spectral_bound,
    u_spectrum,
    zoh_frequency_response,
)
from .statespace import (
    ContinuousStateSpace,
    DimensionError,
    PlantSpecificationError,
    VanLoanResult,
    expm,
    freq_response,
    freq_response_grid,
    from_second_order_bank,
    parallel,
    series,
    vanloan,
)
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"
