"""Central record of the numerical tolerances used across the package.

Library code and the verification suite both import ``TOL`` so that every
threshold lives in one place. Values are grouped by the layer they guard.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TOL", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    # state-space / matrix exponential layer
    expm_inverse: float = 1e-10         # exp(M) @ exp(-M) == I (relative)
    semigroup: float = 1e-10            # exp(M(s+t)) == exp(Ms) exp(Mt) (relative)
    vanloan_quadrature: float = 1e-9    # integral blocks vs adaptive quadrature (absolute)

    # lifted discretization layer
    lifted_vs_ode: float = 1e-7         # end-of-interval states vs high-order ODE oracle
    block_refinement: float = 1e-12     # sum of refined block rows vs coarse rows
    telescoping: float = 1e-10          # row sums vs one-period integrals
    linearity: float = 1e-12            # superposition of lifted responses
    exogenous_blocked: float = 1e-13    # chunked exogenous record vs period by period, per array (measured
                                        # <= 4.2e-14 for undamped sources over 2000 periods, else <= 2.6e-15)
    arm_maps: float = 1e-13             # arm loop through per-period maps vs the single-arm loop, per array
                                        # relative to its largest finite entry (measured <= 1.8e-15 for
                                        # stable arms, <= 5.4e-15 for diverging ones, <= 3.8e-16 per map)

    # adaptive layer
    matrix_symmetry: float = 1e-10      # accepted asymmetry of Gram matrices (relative)
    psd_slack: float = 1e-10            # eigenvalue floor for PSD checks (relative)
    condition_limit: float = 1e12       # above this the quadratic problem counts as singular
    wiener_residual: float = 1e-8       # relative residual of the direct solve
    gradient_fd: float = 1e-5           # analytic gradient vs central differences
    wiener_oracle: float = 2e-3         # blocked Gram/cross vs fine-grid quadrature
    direction_recompute: float = 1e-10  # recursive direction vs from-scratch quadrature
    baseline_match: float = 1e-12       # lifted L=1 loop vs independent baseline, per sample
    sd_convergence: float = 1e-6        # steepest-descent terminal distance to optimum
    sd_closed_form: float = 1e-13       # closed-form descent vs recursion, per row (measured <= 5.6e-14)
    gram_lags: float = 1e-13            # lag-product Gram values vs per-period lag matrices (measured <= 2.2e-15)

    # spectral layer
    alias_truncation: float = 1e-6      # gap of the 32-alias sum to the exact (relative)
    parseval: float = 1e-2              # Gram entry vs spectrum integral (relative)


TOL = Tolerances()
