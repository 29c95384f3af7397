"""Sampled-data filtered-x adaptive noise control.

Exact lifted discretization of hold-driven plants, the quadratic design
problem for the cancellation filter with direct and gradient solvers, the
online blocked update with its convergence-condition checker, spectral
stability bounds, and a hybrid closed-loop experiment harness.
"""

from .adaptive import (
    AdaptiveState,
    FirFilter,
    LmsConditionReport,
    SingularGramError,
    WienerProblem,
    build_wiener,
    check_lms_conditions,
    gradient,
    initial_adaptive_state,
    j_value,
    sd_run,
    sdfx_lms_step,
    wiener_solve,
)
from .config import ConfigError, SimConfig
from .conventional import ConventionalRun, run_conventional_fxlms
from .lifting import (
    FastSampler,
    HybridLoop,
    HybridLoopState,
    IntervalRecord,
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
    dtft,
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
    scaled,
    series,
    static_gain,
    vanloan,
)
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"
