"""Independent numerical references used by the test suite.

The independent references do not go through the package's own matrix
exponential, lifting, or update recursions. Matrix exponentials come from SciPy,
integrals from adaptive quadrature, interval propagation from a high order
Runge-Kutta solver, and gradients from central differences. Agreement
between these references and the package is the point of the tests, so the
two sides must stay independent.

:func:`run_conventional_fxlms` is the textbook one-sample filtered-x LMS
loop, coded from SciPy exponentials alone; at one cell per period the
package's blocked loop must reproduce it.

:func:`fh_step` advances a lifted plant one period, and
:func:`freq_response` evaluates a transfer function at one frequency by one
linear solve; the package steps and evaluates whole stacks instead.

The other references are earlier, slower forms of package code, kept to
check the rewrites that replaced them: :func:`reference_discretize_lifted`
differences cumulative integrals from one ``vanloan`` per cell endpoint, and
:func:`reference_cell_maps` takes each cell map from its own SciPy
exponential where the package multiplies one one-cell propagator;
:func:`reference_step` walks the cells of a period one by one on SciPy
propagators, advancing the exogenous and the anti-noise half of the loop
together; :func:`reference_exogenous` computes the exogenous record one
period per Python iteration, where the package computes a chunk of periods
per product;
:func:`reference_run_arm` runs one adaptive arm a period per Python
iteration through the single-arm :func:`reference_loop_step` and
:func:`sdfx_lms_step`, in the arithmetic the arm loop had before its
per-period maps (the next state as A zeta + b y, the fold as V e); :func:`reference_build_wiener` sums one delayed copy
of the record per lag pair and :func:`reference_check_lms_conditions` builds the Gram increment
of each period in a Python loop; :func:`reference_condition_series`
decomposes every running Gram matrix and every increment of a record, so
one pair of series serves each truncation, on the lag stack that
:func:`reference_lagged_chunks` fills one lag at a time (the package gathers
its Gram matrices from lag products instead, within ``TOL.gram_lags``);
:func:`reference_wiener_solve` solves the
quadratic problem by Cholesky factorization plus one refinement step;
:func:`reference_sd_run` is the sequential descent recursion, one step per
Python iteration, that the package's closed form over the eigenmodes is
checked against (at ``TOL.sd_closed_form``), and :func:`exact_sd_run` the
same recursion in rational arithmetic, each recorded iterate rounded once to
a double; the
``reference_write_*`` functions write every CSV table row by row through a
per-value formatter;
:func:`dtft` evaluates a record's transform by Horner's rule and
:func:`dtft_dense` as one dense matrix product; and
:func:`reference_spectral_bound` folds the aliased energy density over the
whole grid, with the Horner transform and one :func:`u_spectrum` per alias
term, truncated at ``n_alias`` aliases on each side. The package sums every
alias at once from a period Gramian; :func:`held_tone_energy` integrates the
same period energy by adaptive quadrature. :func:`reference_l2_norm` screens
a signal through ``isfinite`` and ``abs``, where the package screens by its
largest and smallest sample, and :func:`reference_cli_parser` builds every
subcommand's options, where the command line builds only the one it names.
"""

from __future__ import annotations

import argparse
import functools
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.integrate import quad, quad_vec, solve_ivp

from ancsim.adaptive import LmsConditionReport, WienerProblem, check_lms_conditions
from ancsim.lifting import ExogenousRecord, LiftedDiscretization, SimTrace
from ancsim.reports import emit_bode
from ancsim.runner import SingleRunResult
from ancsim.signals import AutonomousGenerator, HeldWaveform
from ancsim.spectrum import SpectralBound
from ancsim.statespace import DimensionError, freq_response_grid, vanloan


def expm_ref(m: np.ndarray) -> np.ndarray:
    return scipy.linalg.expm(np.asarray(m, dtype=float))


def sample_grid(gen, dt: float, count: int) -> np.ndarray:
    """Output samples of an autonomous generator at t = 0, dt, ..., (count-1) dt."""
    step = expm_ref(gen.A * dt)
    out = np.empty(count)
    x = gen.x0.copy()
    for i in range(count):
        out[i] = gen.C @ x
        x = step @ x
    return out


def transition_integrals(a, b, c, t, tol=1e-12):
    """Quadrature references for the one-interval transition blocks.

    Returns (gamma, lam, theta) with

        gamma = int_0^t exp(a s) b ds
        lam   = int_0^t c exp(a s) ds
        theta = int_0^t (t - s) c exp(a s) b ds

    each evaluated by scipy.integrate.quad_vec on the single-integral form.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    gamma = quad_vec(lambda s: expm_ref(a * s) @ b, 0.0, t, epsabs=tol, epsrel=tol)[0]
    lam = quad_vec(lambda s: c @ expm_ref(a * s), 0.0, t, epsabs=tol, epsrel=tol)[0]
    theta = quad_vec(
        lambda s: (t - s) * (c @ expm_ref(a * s) @ b), 0.0, t, epsabs=tol, epsrel=tol
    )[0]
    return gamma, lam, theta


def held_states_rk(sys, x_held, h, rtol=1e-11, atol=1e-13):
    """End-of-period states of dx/dt = A x + B u with u held per period.

    Starts from the zero state and integrates each period with DOP853.
    Returns an array of shape (len(x_held), nu): row n is the state at
    t = (n + 1) h.
    """
    a = np.asarray(sys.A, dtype=float)
    b = np.asarray(sys.B, dtype=float).reshape(-1)
    x_held = np.asarray(x_held, dtype=float).reshape(-1)
    state = np.zeros(a.shape[0])
    out = np.empty((x_held.size, a.shape[0]))
    for n, u in enumerate(x_held):
        sol = solve_ivp(
            lambda _, y: a @ y + b * u,
            (0.0, h),
            state,
            method="DOP853",
            rtol=rtol,
            atol=atol,
        )
        state = sol.y[:, -1]
        out[n] = state
    return out


def held_cell_integrals_rk(sys, x_held, h, cells, rtol=1e-11, atol=1e-13):
    """Per-cell output integrals of the held-input response, via dense RK.

    For each period the interval [0, h) is split into ``cells`` equal
    subintervals and int c x(t) dt is evaluated over each by adaptive
    quadrature on the solver's dense output. Returns shape
    (len(x_held), cells).
    """
    a = np.asarray(sys.A, dtype=float)
    b = np.asarray(sys.B, dtype=float).reshape(-1)
    c = np.asarray(sys.C, dtype=float).reshape(-1)
    x_held = np.asarray(x_held, dtype=float).reshape(-1)
    state = np.zeros(a.shape[0])
    out = np.empty((x_held.size, cells))
    edges = np.linspace(0.0, h, cells + 1)
    for n, u in enumerate(x_held):
        sol = solve_ivp(
            lambda _, y: a @ y + b * u,
            (0.0, h),
            state,
            method="DOP853",
            rtol=rtol,
            atol=atol,
            dense_output=True,
        )
        for j in range(cells):
            out[n, j] = quad(
                lambda t: float(c @ sol.sol(t)),
                edges[j],
                edges[j + 1],
                epsabs=1e-12,
                epsrel=1e-12,
            )[0]
        state = sol.y[:, -1]
    return out


def fd_gradient(fun, x, eps=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        g[i] = (fun(x + step) - fun(x - step)) / (2.0 * eps)
    return g


def scratch_direction(u_blocks, e_blocks, n_taps, upto):
    """Update direction accumulated from scratch, no recursion.

    delta[k] = sum over the first ``upto`` periods n of the inner product
    of the error block at period n with the regressor block lagged by k
    periods (missing history counts as zero).
    """
    U = np.asarray(u_blocks, dtype=float)
    E = np.asarray(e_blocks, dtype=float)
    delta = np.zeros(n_taps)
    for n in range(upto):
        for k in range(n_taps):
            m = n - k
            if m >= 0:
                delta[k] += float(E[n] @ U[m])
    return delta


def _lagged(blocks: np.ndarray, k: int) -> np.ndarray:
    """Block record delayed by k periods, zero prehistory."""
    if k == 0:
        return blocks
    out = np.zeros_like(blocks)
    out[k:] = blocks[:-k]
    return out


def reference_build_wiener(u_blocks, d_fast, n_taps, horizon, h, L) -> WienerProblem:
    """``ancsim.build_wiener`` as one delayed copy of the record per lag.

    Every Gram entry and cross-vector entry is its own ``np.sum`` over the
    whole record. Inputs are assumed valid.
    """
    U = np.asarray(u_blocks, dtype=float)
    n_steps = U.shape[0]
    D = np.asarray(d_fast, dtype=float).reshape(n_steps, L)

    lags = [_lagged(U, k) for k in range(n_taps)]
    Phi = np.empty((n_taps, n_taps))
    beta = np.empty(n_taps)
    for k in range(n_taps):
        beta[k] = float(np.sum(D * lags[k]))
        for l in range(k, n_taps):
            Phi[k, l] = Phi[l, k] = (L / h) * float(np.sum(lags[k] * lags[l]))
    d_energy = (h / L) * float(np.sum(D * D))
    return WienerProblem(Phi=Phi, beta=beta, horizon=horizon, d_energy=d_energy)


def reference_wiener_solve(problem: WienerProblem) -> np.ndarray:
    """``ancsim.wiener_solve`` as a Cholesky solve plus one refinement step.

    Returns the taps. The problem is assumed positive definite; the
    singular and condition checks are the package's own.
    """
    factor = scipy.linalg.cho_factor(problem.Phi, lower=True)
    alpha = scipy.linalg.cho_solve(factor, problem.beta)
    residual = problem.beta - problem.Phi @ alpha
    return alpha + scipy.linalg.cho_solve(factor, residual)


def reference_sd_run(problem: WienerProblem, alpha0, mu: float, n_steps: int, record_every: int = 1) -> np.ndarray:
    """``ancsim.sd_run`` as the sequential recursion, one copy appended per record.

    Inputs are assumed valid.
    """
    alpha = np.asarray(alpha0, dtype=float).reshape(-1).copy()
    out = [alpha.copy()]
    for k in range(1, n_steps + 1):
        alpha += mu * (problem.beta - problem.Phi @ alpha)
        if k % record_every == 0 or k == n_steps:
            out.append(alpha.copy())
    return np.asarray(out)


def exact_sd_run(problem: WienerProblem, alpha0, mu: float, n_steps: int, record_every: int = 1) -> np.ndarray:
    """``reference_sd_run`` in exact rational arithmetic on the float inputs.

    Each recorded iterate is rounded once to the nearest double. Meant for a
    few taps and a few dozen steps: the denominators grow with every step.
    """
    Phi = [[Fraction(float(v)) for v in row] for row in problem.Phi]
    beta = [Fraction(float(v)) for v in problem.beta]
    alpha = [Fraction(float(v)) for v in np.asarray(alpha0, dtype=float).reshape(-1)]
    step = Fraction(float(mu))
    out = [[float(v) for v in alpha]]
    for k in range(1, n_steps + 1):
        residual = [b - sum(p * a for p, a in zip(row, alpha)) for row, b in zip(Phi, beta)]
        alpha = [a + step * g for a, g in zip(alpha, residual)]
        if k % record_every == 0 or k == n_steps:
            out.append([float(v) for v in alpha])
    return np.array(out)


def reference_check_lms_conditions(u_blocks, mu, n_taps, h, eps_threshold=0.5) -> LmsConditionReport:
    """``ancsim.check_lms_conditions`` as one pass per period.

    Each period rebuilds its lag matrix column by column and takes the top
    eigenvalue of its increment and of the running Gram matrix. Inputs are
    assumed valid.
    """
    U = np.asarray(u_blocks, dtype=float)
    n_steps, L = U.shape

    # V_n[j, k] = regressor integral of lag k, cell j, period n;
    # Phi[n] grows by the PSD increment (L/h) V_n^T V_n each period.
    Phi = np.zeros((n_taps, n_taps))
    lam_max = 0.0
    inc_max = 0.0
    for n in range(n_steps):
        V = np.zeros((L, n_taps))
        for k in range(min(n_taps, n + 1)):
            V[:, k] = U[n - k]
        inc = (L / h) * (V.T @ V)
        Phi += inc
        lam_inc = float(np.linalg.eigvalsh(inc)[-1])
        inc_max = max(inc_max, lam_inc)
        lam_max = max(lam_max, float(np.linalg.eigvalsh(Phi)[-1]))

    degenerate = lam_max == 0.0
    gamma = lam_max
    mu_limit = float("inf") if degenerate else 2.0 / lam_max
    eps_realized = mu * inc_max
    return LmsConditionReport(
        n_intervals=n_steps,
        n_taps=n_taps,
        mu=mu,
        gamma=gamma,
        lambda_max=lam_max,
        mu_limit=mu_limit,
        eps_realized=eps_realized,
        eps_threshold=float(eps_threshold),
        degenerate=degenerate,
        bounded_ok=bool(np.isfinite(gamma)),
        step_ok=bool(degenerate or mu < mu_limit),
        slow_ok=bool(eps_realized <= eps_threshold),
    )


# periods a chunk of the reference lag stack: a chunk's edge sits inside the
# Gram test records, which the package's lag sums must not notice
REFERENCE_CHUNK_PERIODS = 128


def reference_lagged_chunks(U: np.ndarray, n_taps: int):
    """``(start, V)`` with ``V[n - start, :, k] = U[n - k]``, zero before U, in
    chunks of ``REFERENCE_CHUNK_PERIODS`` periods, filled one lag at a time."""
    n_steps, L = U.shape
    for start in range(0, n_steps, REFERENCE_CHUNK_PERIODS):
        stop = min(start + REFERENCE_CHUNK_PERIODS, n_steps)
        V = np.zeros((stop - start, L, n_taps))
        for k in range(min(n_taps, stop)):
            lo = max(start, k)
            V[lo - start:, :, k] = U[lo - k:stop - k]
        yield start, V


def reference_condition_series(U: np.ndarray, n_taps: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """lambda_max(Phi[n]) and the prefix maxima of the increment lambda_max.

    Entry n of each (n_steps + 1,) series covers the first n periods of the
    record (entry 0 is 0), so one series serves every truncation of it: a
    run that stopped early reads the entry at its last update. The chunks
    start at period 0 whatever the length, so a truncated record gives the
    same entries bit for bit.
    """
    n_steps, L = U.shape
    lam, inc = np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    # Phi[n] grows by the PSD increment (L/h) V_n^T V_n each period; the
    # in-place cumsum turns a chunk's increments into its running sums.
    Phi = np.zeros((n_taps, n_taps))
    for start, V in reference_lagged_chunks(U, n_taps):
        stop = start + V.shape[0]
        running = (L / h) * (V.transpose(0, 2, 1) @ V)
        inc[start + 1:stop + 1] = np.linalg.eigvalsh(running)[:, -1]
        running[0] += Phi
        np.cumsum(running, axis=0, out=running)
        lam[start + 1:stop + 1] = np.linalg.eigvalsh(running)[:, -1]
        Phi = running[-1]
    return lam, np.maximum.accumulate(inc)


class DampedSines:
    """Closed-form sum of exponentially damped sinusoids.

    u(t) = sum_i amp_i exp(-sigma_i t) sin(omega_i t + phase_i) for t >= 0,
    zero for t < 0. Point values and exact integrals over arbitrary
    windows come from the complex antiderivative, so no quadrature error
    enters the reference.
    """

    def __init__(self, amps, sigmas, omegas, phases):
        self.coef = np.asarray(amps, dtype=float) * np.exp(1j * np.asarray(phases, dtype=float))
        self.pole = -np.asarray(sigmas, dtype=float) + 1j * np.asarray(omegas, dtype=float)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        live = t >= 0.0
        tt = np.where(live, t, 0.0)
        v = np.imag(np.exp(np.multiply.outer(tt, self.pole)) @ self.coef)
        return np.where(live, v, 0.0)

    def integral(self, a, b):
        """Exact int_a^b u(t) dt (the integrand is zero below t = 0)."""
        a = max(float(a), 0.0)
        b = max(float(b), 0.0)
        if b <= a:
            return 0.0
        ends = (np.exp(self.pole * b) - np.exp(self.pole * a)) / self.pole
        return float(np.imag(ends @ self.coef))

    def cell_integrals(self, h, cells, n_periods):
        out = np.empty((n_periods, cells))
        dt = h / cells
        for n in range(n_periods):
            for j in range(cells):
                t0 = n * h + j * dt
                out[n, j] = self.integral(t0, t0 + dt)
        return out

    def samples(self, h, cells, n_periods):
        t = np.arange(n_periods * cells) * (h / cells)
        return self.value(t).reshape(n_periods, cells)


def lag_product_integral(u: DampedSines, k, l, h, horizon, tol=1e-11):
    """int_0^horizon u(t - k h) u(t - l h) dt by adaptive quadrature."""
    lo = max(k, l) * h
    if lo >= horizon:
        return 0.0
    val = quad(
        lambda t: float(u.value(t - k * h) * u.value(t - l * h)),
        lo,
        horizon,
        epsabs=tol,
        epsrel=tol,
        limit=400,
    )[0]
    return val


def cross_product_integral(u: DampedSines, d: DampedSines, k, h, horizon, tol=1e-11):
    """int_0^horizon d(t) u(t - k h) dt by adaptive quadrature."""
    lo = k * h
    if lo >= horizon:
        return 0.0
    return quad(
        lambda t: float(d.value(t) * u.value(t - k * h)),
        lo,
        horizon,
        epsabs=tol,
        epsrel=tol,
        limit=400,
    )[0]


def zoh_discretize_ref(a, b, dt):
    """SciPy-based zero-order-hold discretization of (a, b)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(a.shape[0], -1)
    n, m = b.shape
    block = np.zeros((n + m, n + m))
    block[:n, :n] = a
    block[:n, n:] = b
    big = scipy.linalg.expm(block * dt)
    return big[:n, :n], big[:n, n:]


def fh_step(lift: LiftedDiscretization, eta: np.ndarray, x_d: float):
    """One period of the blocked recursion of a lifted plant: returns (eta_next, U).

    ``U[l]`` is the exact integral of the plant response over cell l of the
    current period given state ``eta`` and the held input sample ``x_d``.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (lift.nstates,):
        raise DimensionError(f"state must have shape ({lift.nstates},), got {eta.shape}")
    return lift.Ah @ eta + lift.Bh * x_d, lift.Ch @ eta + lift.Dh * x_d


def freq_response(sys, omega: float) -> complex:
    """Transfer function ``C (jw I - A)^-1 B`` at one real frequency, by one solve."""
    shifted = 1j * omega * np.eye(sys.nstates) - sys.A
    return complex((sys.C @ np.linalg.solve(shifted, sys.B))[0, 0])


def reference_cell_maps(sys, h: float, L: int):
    """Sample rows, sample input map and state input map of a lifted plant.

    From SciPy alone: one exponential e^{A k dt} per lag k = 0 .. L-1 (no
    power of a one-cell propagator) and Gamma(dt) from the zero-order-hold
    block, dt = h / L. Row l of the sample rows is C e^{A l dt}; entry (l, i)
    of the sample input map is C e^{A (l-1-i) dt} Gamma(dt) for i < l and 0
    otherwise; column i of the state input map is e^{A (L-1-i) dt} Gamma(dt).
    """
    dt = h / L
    props = np.array([expm_ref(sys.A * (k * dt)) for k in range(L)])
    gamma = zoh_discretize_ref(sys.A, sys.B, dt)[1][:, 0]
    responses = props @ gamma                       # (L, n): e^{A k dt} Gamma
    sample_rows = sys.C[0] @ props                  # (L, n)
    lagged = np.append(responses @ sys.C[0], 0.0)   # entry k: C e^{A k dt} Gamma, then 0
    lags = np.arange(L)[:, None] - 1 - np.arange(L)[None, :]
    sample_input = lagged[np.where(lags >= 0, lags, L)]
    state_input = responses[::-1].T
    return sample_rows, sample_input, state_input


def reference_discretize_lifted(sys, h: float, L: int):
    """Lifted blocks from cumulative Van Loan integrals at every cell endpoint.

    Runs ``vanloan`` at each endpoint l h / L and differences the cumulative
    output integrals, L exponentials where the package uses two; the cell
    maps are :func:`reference_cell_maps`.
    """
    nu = sys.nstates
    Ch = np.empty((L, nu))
    Dh = np.empty(L)
    lam_prev = np.zeros(nu)
    theta_prev = 0.0
    for l in range(1, L + 1):
        vl = vanloan(sys, l * h / L)
        Ch[l - 1] = vl.Lambda[0] - lam_prev
        Dh[l - 1] = vl.Theta[0, 0] - theta_prev
        lam_prev, theta_prev = vl.Lambda[0], vl.Theta[0, 0]
    sample_rows, sample_input, state_input = reference_cell_maps(sys, h, L)
    return LiftedDiscretization(Ah=vl.Phi, Bh=vl.Gamma[:, 0], Ch=Ch, Dh=Dh, h=h, L=L,
                                sample_rows=sample_rows, sample_input=sample_input,
                                state_input=state_input)


def dtft(samples, omegas, h: float) -> np.ndarray:
    """Transform of a sampled sequence: sum_n x[n] e^{-j w n h}.

    Evaluated as a polynomial in e^{-j w h} by Horner's rule, so memory stays
    at one value per frequency whatever the record length. NaN or infinite
    samples are rejected.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    om = np.asarray(omegas, dtype=float).reshape(-1)
    if x.size == 0:
        raise ValueError("empty sample record")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample record contains non-finite values")
    return np.polynomial.polynomial.polyval(np.exp(-1j * om * h), x)


def dtft_dense(samples, omegas, h: float) -> np.ndarray:
    """sum_n x[n] e^{-j w n h} as one dense (frequencies x samples) product."""
    x = np.asarray(samples, dtype=float).reshape(-1)
    om = np.asarray(omegas, dtype=float).reshape(-1)
    return np.exp(-1j * np.outer(om, np.arange(x.size) * h)) @ x


def zoh_frequency_response(omegas, h: float) -> np.ndarray:
    """Frequency response of the zero-order hold, (1 - e^{-jwh}) / (jw).

    Evaluated in product form so w = 0 gives exactly h. Zeros fall at the
    nonzero multiples of the sampling frequency 2 pi / h.
    """
    om = np.asarray(omegas, dtype=float)
    return h * np.exp(-0.5j * om * h) * np.sinc(om * h / (2.0 * np.pi))


def u_spectrum(secondary, xd_spectrum, omegas, h: float) -> np.ndarray:
    """Continuous-time transform of the regressor at the given frequencies.

    ``xd_spectrum`` is the value of the reference sequence transform at the
    same frequencies (scalar or array broadcastable against ``omegas``).
    """
    om = np.asarray(omegas, dtype=float).ravel()
    resp = freq_response_grid(secondary, om)
    return resp * zoh_frequency_response(om, h) * np.asarray(xd_spectrum)


def reference_spectral_bound(
    secondary, xd_samples, h: float, grid_size: int = 4096, n_alias: int = 64
) -> SpectralBound:
    """Aliased energy density on the whole grid, one ``u_spectrum`` per alias.

    The alias sum is truncated at ``n_alias`` aliases on each side of the
    base band, so it approaches the package's exact sum from below. The
    record transform is the Horner-rule :func:`dtft` at every grid point.
    """
    if not h > 0.0:
        raise ValueError(f"period must be positive, got {h}")
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if n_alias < 0:
        raise ValueError("n_alias must be nonnegative")

    spacing = 2.0 * np.pi / h / grid_size
    om = -np.pi / h + (np.arange(grid_size) + 0.5) * spacing
    xd = dtft(xd_samples, om, h)

    folded = np.zeros(grid_size)
    for k in range(-n_alias, n_alias + 1):
        folded += np.abs(u_spectrum(secondary, 1.0, om + 2.0 * np.pi * k / h, h)) ** 2
    values = np.abs(xd) ** 2 / h * folded

    peak = float(values.max())
    mu_limit = float("inf") if peak == 0.0 else 2.0 / peak
    return SpectralBound(omegas=om, values=values, peak=peak, mu_limit=mu_limit, h=float(h))


def held_tone_energy(sys, omega: float, h: float) -> float:
    """Energy over one period of the steady response to the held tone e^{jwnh}.

    The state at each period start is v = (zI - Phi)^{-1} Gamma, z = e^{jwh};
    within the period the output is C (e^{A t} v + Gamma(t)), integrated in
    squared modulus over [0, h) by adaptive quadrature. Phi, Gamma(t) and
    e^{A t} come from SciPy exponentials of [[A, B], [0, 0]] t.
    """
    n = sys.nstates
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = sys.A
    aug[:n, n:] = sys.B

    def maps(t):
        e = expm_ref(aug * t)
        return e[:n, :n], e[:n, n]

    phi, gamma = maps(h)
    v = np.linalg.solve(np.exp(1j * omega * h) * np.eye(n) - phi, gamma)

    def integrand(t):
        e_t, gamma_t = maps(t)
        return float(np.abs(sys.C[0] @ (e_t @ v + gamma_t)) ** 2)

    return quad(integrand, 0.0, h, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def held_output_fine(sys, x_held, h, refine):
    """Output samples of the held-input response on a grid of h / refine.

    Uses SciPy's matrix exponential for the cell stepping. Returns the
    flat array of y at t = j h / refine for j = 0 .. len(x_held) * refine
    (inclusive of the final instant).
    """
    a = np.asarray(sys.A, dtype=float)
    b = np.asarray(sys.B, dtype=float).reshape(-1, 1)
    c = np.asarray(sys.C, dtype=float).reshape(-1)
    ad, bd = zoh_discretize_ref(a, b, h / refine)
    n_fast = len(x_held) * refine
    y = np.empty(n_fast + 1)
    state = np.zeros(a.shape[0])
    for j in range(n_fast):
        y[j] = float(c @ state)
        state = ad @ state + bd[:, 0] * x_held[j // refine]
    y[n_fast] = float(c @ state)
    return y


@dataclass(frozen=True)
class ReferenceLoopState:
    """Full state of the per-cell loop at a period boundary.

    Besides the tap-dependent part (``zeta_F``, ``xd_hist``) it carries
    what the package's exogenous pass keeps to itself: the primary-path
    state ``zeta_P``, the noise-generator state ``gen_state`` and the
    regressor state ``eta``.
    """

    zeta_F: np.ndarray
    zeta_P: np.ndarray
    gen_state: np.ndarray
    eta: np.ndarray
    xd_hist: np.ndarray
    n: int


@dataclass(frozen=True)
class ReferencePeriod:
    """Signals of one period of the per-cell loop (fast arrays: cell left endpoints)."""

    x_d: float
    y_d: float
    e_block: np.ndarray
    u_block: np.ndarray
    x_fast: np.ndarray
    d_fast: np.ndarray
    w_fast: np.ndarray
    u_fast: np.ndarray


def reference_initial_state(loop, n_taps: int) -> ReferenceLoopState:
    """The per-cell loop at rest, with the generator at its initial state."""
    held = isinstance(loop.generator, HeldWaveform)
    return ReferenceLoopState(
        zeta_F=np.zeros(loop.secondary.nstates),
        zeta_P=np.zeros(loop.primary.nstates),
        gen_state=np.zeros(0) if held else loop.generator.x0.copy(),
        eta=np.zeros(loop.secondary.nstates),
        xd_hist=np.zeros(n_taps),
        n=0,
    )


@functools.lru_cache(maxsize=4)  # one loop per test; bounded so loops do not outlive it
def _reference_maps(loop) -> dict:
    """SciPy one-cell and one-period propagators of ``loop``'s plants.

    The secondary path is discretized with its output integral appended as
    a last state (``[[A, 0], [c, 0]]``), so one hold discretization gives
    the cell propagator, its input integral and the per-cell integral of
    the output. The source and the primary path step as one joint state:
    the generator (none for a held waveform) first, then the primary path.
    """
    dt, sec, pri, gen = loop.h / loop.L, loop.secondary, loop.primary, loop.generator
    n = sec.nstates
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n], aug[n, :n] = sec.A, sec.C[0]
    maps = {
        "f_cell": zoh_discretize_ref(aug, np.vstack([sec.B, [[0.0]]]), dt),
        "f_period": zoh_discretize_ref(sec.A, sec.B, loop.h),
    }
    if isinstance(gen, HeldWaveform):
        maps["z_cell"] = zoh_discretize_ref(pri.A, pri.B, dt)
    else:
        ng, npr = gen.nstates, pri.nstates
        joint = np.zeros((ng + npr, ng + npr))
        joint[:ng, :ng], joint[ng:, ng:] = gen.A, pri.A
        joint[ng:, :ng] = pri.B @ gen.C.reshape(1, -1)
        maps["z_cell"] = (expm_ref(joint * dt), np.zeros((ng + npr, 1)))
        maps["z_period"] = expm_ref(joint * loop.h)
    return maps


def reference_step(loop, state: ReferenceLoopState, taps) -> tuple[ReferenceLoopState, ReferencePeriod]:
    """One period of ``loop`` advanced cell by cell (the per-cell loop).

    Advances both halves of the loop together, the way the package did
    before it split them at the taps. Every propagator comes from SciPy
    (:func:`_reference_maps`); of the loop it reads only the plants, the
    source and the grid.
    """
    taps = np.asarray(taps, dtype=float).reshape(-1)
    if taps.size != state.xd_hist.size:
        raise DimensionError(
            f"taps length {taps.size} does not match delay line length {state.xd_hist.size}"
        )
    n, L, gen = state.n, loop.L, loop.generator
    held = isinstance(gen, HeldWaveform)
    maps = _reference_maps(loop)

    if held:
        if (n + 1) * L > len(gen):
            raise ValueError(
                f"held waveform exhausted: period {n} needs samples up to {(n + 1) * L}"
            )
        x_d = float(gen.values[n * L])
    else:
        x_d = float(gen.C @ state.gen_state)

    xd_hist = np.empty_like(state.xd_hist)
    xd_hist[0] = x_d
    xd_hist[1:] = state.xd_hist[:-1]
    y_d = float(taps @ xd_hist)

    x_fast, d_fast, w_fast, u_fast, u_block = (np.empty(L) for _ in range(5))
    c_f, c_p, ng = loop.secondary.C[0], loop.primary.C[0], state.gen_state.size
    (phi_a, gamma_a), (phi_z, gamma_z) = maps["f_cell"], maps["z_cell"]
    phi_f, gamma_f = phi_a[:-1, :-1], gamma_a[:-1, 0]
    z = np.concatenate([state.gen_state, state.zeta_P])
    zf, eta = state.zeta_F, state.eta
    for l in range(L):
        x_fast[l] = gen.values[n * L + l] if held else gen.C @ z[:ng]
        d_fast[l] = c_p @ z[ng:]
        w_fast[l] = c_f @ zf
        u_fast[l] = c_f @ eta
        z = phi_z @ z + gamma_z[:, 0] * (x_fast[l] if held else 0.0)
        zf = phi_f @ zf + gamma_f * y_d
        eta_int = phi_a @ np.append(eta, 0.0) + gamma_a[:, 0] * x_d
        eta, u_block[l] = eta_int[:-1], eta_int[-1]
    if not held:
        z = maps["z_period"] @ np.concatenate([state.gen_state, state.zeta_P])

    ad, bd = maps["f_period"]
    new_state = ReferenceLoopState(
        zeta_F=ad @ state.zeta_F + bd[:, 0] * y_d,
        zeta_P=z[ng:],
        gen_state=z[:ng],
        eta=ad @ state.eta + bd[:, 0] * x_d,
        xd_hist=xd_hist,
        n=n + 1,
    )
    record = ReferencePeriod(
        x_d=x_d,
        y_d=y_d,
        e_block=d_fast - w_fast,
        u_block=u_block,
        x_fast=x_fast,
        d_fast=d_fast,
        w_fast=w_fast,
        u_fast=u_fast,
    )
    return new_state, record


def reference_exogenous(loop, n_steps: int) -> ExogenousRecord:
    """``loop``'s exogenous record one period per Python iteration, each plant's
    period map (outputs and next state) applied to its state in one product."""
    L, held = loop.L, loop._held
    x_d = np.empty(n_steps)
    x, d, u, u_blocks = (np.empty((n_steps, L)) for _ in range(4))
    z = np.zeros(loop.primary.nstates)
    if held is None:
        z = np.concatenate([loop.generator.x0, z])
    eta_x = np.zeros(loop.secondary.nstates + 1)  # [eta, x_d] of the current period
    for n in range(n_steps):
        if held is None:
            out = loop._z_period @ z
            x[n], d[n], z = out[:L], out[L:2 * L], out[2 * L:]
        else:
            x[n] = held.values[n * L:(n + 1) * L]
            out = loop._z_period @ np.concatenate([z, x[n]])
            d[n], z = out[:L], out[L:]
        eta_x[-1] = x_d[n] = x[n, 0]
        out = loop._u_period @ eta_x
        u[n], u_blocks[n], eta_x[:-1] = out[:L], out[L:2 * L], out[2 * L:]
    return ExogenousRecord(x_d=x_d, x=x, d=d, u=u, u_blocks=u_blocks)


@dataclass(frozen=True)
class HybridLoopState:
    """Tap-dependent state of one arm of the loop at a period boundary."""

    zeta_F: np.ndarray
    xd_hist: np.ndarray
    n: int


def initial_arm_state(loop, n_taps: int) -> HybridLoopState:
    if n_taps < 1:
        raise ValueError("the FIR filter needs at least one tap")
    return HybridLoopState(zeta_F=np.zeros(loop.secondary.nstates), xd_hist=np.zeros(n_taps), n=0)


def reference_loop_step(loop, state: HybridLoopState, taps, x_d: float) -> tuple[HybridLoopState, float, np.ndarray]:
    """One arm's anti-noise path over one period: filter output, anti-noise and next state."""
    taps = np.asarray(taps, dtype=float).reshape(-1)
    if taps.size != state.xd_hist.size:
        raise DimensionError(
            f"taps length {taps.size} does not match delay line length {state.xd_hist.size}"
        )
    xd_hist = np.empty_like(state.xd_hist)
    xd_hist[0] = x_d
    xd_hist[1:] = state.xd_hist[:-1]
    y_d = float(taps @ xd_hist)

    w_fast = loop._f_rows @ state.zeta_F
    gains = loop._gains[:, 0]  # on cells 1 .. L-1, then on the next state
    w_fast[1:] += gains[:loop.L - 1] * y_d
    new_state = HybridLoopState(
        zeta_F=loop.lift.Ah @ state.zeta_F + gains[loop.L - 1:] * y_d,
        xd_hist=xd_hist,
        n=state.n + 1,
    )
    return new_state, y_d, w_fast


@dataclass(frozen=True)
class AdaptiveState:
    """One arm's online update at a period boundary: committed taps, direction
    and the last n_taps regressor blocks (row k from k periods ago)."""

    alpha: np.ndarray
    delta: np.ndarray
    U_hist: np.ndarray
    n: int


def initial_adaptive_state(n_taps: int, L: int, alpha0=None) -> AdaptiveState:
    """Zero direction and regressor history for ``n_taps`` taps and ``L`` cells."""
    if n_taps < 1:
        raise ValueError("need at least one tap")
    if L < 1:
        raise ValueError(f"need at least one cell per period, got {L}")
    if alpha0 is None:
        alpha = np.zeros(n_taps)
    else:
        alpha = np.asarray(alpha0, dtype=float).reshape(-1).copy()
        if alpha.size != n_taps:
            raise DimensionError(f"alpha0 must have {n_taps} entries, got {alpha.size}")
    return AdaptiveState(alpha=alpha, delta=np.zeros(n_taps), U_hist=np.zeros((n_taps, L)), n=0)


def sdfx_lms_step(state: AdaptiveState, mu: float, e_block, u_block) -> AdaptiveState:
    """One period of one arm's online update.

    Commits the tap update with the direction accumulated so far, shifts the
    regressor block into the history, then folds the blocked inner products
    (fast error samples against lagged regressor integrals) into the direction.
    """
    L = state.U_hist.shape[1]
    e = np.asarray(e_block, dtype=float).reshape(-1)
    if e.size != L:
        raise DimensionError(f"e_block must have L = {L} samples, got {e.size}")
    U = np.asarray(u_block, dtype=float).reshape(-1)
    if U.size != L:
        raise DimensionError(f"u_block must have L = {L} cells, got {U.size}")
    if mu < 0.0:
        raise ValueError(f"step size must be nonnegative, got {mu}")

    alpha_next = state.alpha + mu * state.delta
    U_hist_next = np.empty_like(state.U_hist)
    U_hist_next[0] = U
    U_hist_next[1:] = state.U_hist[:-1]
    delta_next = state.delta + U_hist_next @ e
    return AdaptiveState(alpha=alpha_next, delta=delta_next, U_hist=U_hist_next, n=state.n + 1)


def reference_run_arm(config, machine, record, algorithm_cells) -> SingleRunResult:
    """One adaptive arm on a shared loop, one period per Python iteration."""
    L, N, n_taps = config.L, config.n_steps, config.n_taps
    L_alg = L if algorithm_cells is None else int(algorithm_cells)
    if L_alg < 1 or L % L_alg != 0:
        raise ValueError(f"algorithm_cells must divide L = {L}, got {L_alg}")
    stride = L // L_alg
    # stride 1 passes the blocks through: a one-term sum would print -0.0 as 0
    u_alg = record.u_blocks if stride == 1 else record.u_blocks.reshape(N, L_alg, stride).sum(axis=2)

    astate = initial_adaptive_state(n_taps, L_alg)
    lstate = initial_arm_state(machine, n_taps)
    y_d = np.empty(N)
    w, e = np.empty((N, L)), np.empty((N, L))
    alpha_hist, delta_hist = np.empty((N, n_taps)), np.empty((N, n_taps))
    n_completed, diverged = N, False

    for n in range(N):
        taps = astate.alpha + config.mu * astate.delta
        delta_hist[n] = astate.delta
        alpha_hist[n] = taps
        lstate, y_d[n], w[n] = reference_loop_step(machine, lstate, taps, record.x_d[n])
        e[n] = record.d[n] - w[n]
        if not np.all(np.isfinite(e[n])) or float(np.max(np.abs(e[n]))) > config.divergence_cutoff:
            n_completed, diverged = n + 1, True
            break
        astate = sdfx_lms_step(astate, config.mu, e[n, ::stride], u_alg[n])

    k = n_completed
    fast = {name: a[:k].reshape(-1) for name, a in
            dict(x=record.x, d=record.d, w=w, e=e, u=record.u).items()}
    trace = SimTrace(h=config.h, L=L, x_d=record.x_d[:k], y_d=y_d[:k],
                     u_blocks=record.u_blocks[:k], **fast)
    error_norm = float("inf") if diverged else trace.norm("e")
    u_alg = u_alg[:k - 1 if diverged else k]  # the diverging period made no update
    report = None
    if config.mu > 0.0 and u_alg.shape[0] > 0:
        report = check_lms_conditions(
            u_alg, config.mu, n_taps, config.h, config.eps_threshold
        )
    return SingleRunResult(
        trace=trace,
        alpha_hist=alpha_hist[:k],
        delta_hist=delta_hist[:k],
        final_alpha=astate.alpha.copy(),
        final_delta=astate.delta.copy(),
        u_alg_blocks=u_alg,
        algorithm_cells=L_alg,
        mu=config.mu,
        error_norm=error_norm,
        d_norm=trace.norm("d"),
        w_norm=trace.norm("w"),
        diverged=diverged,
        n_completed=n_completed,
        lms_report=report,
    )


@dataclass(frozen=True)
class ConventionalRun:
    """Per-period records of one baseline run (row n describes period n)."""

    x_samples: np.ndarray
    d_samples: np.ndarray
    w_samples: np.ndarray
    e_samples: np.ndarray
    y_samples: np.ndarray
    u_integrals: np.ndarray
    alpha_hist: np.ndarray
    delta_hist: np.ndarray
    final_alpha: np.ndarray
    final_delta: np.ndarray


def run_conventional_fxlms(
    secondary,
    primary,
    generator,
    h: float,
    n_taps: int,
    mu: float,
    n_steps: int,
    alpha0=None,
) -> ConventionalRun:
    """Textbook discrete-time filtered-x LMS at one cell per period.

    Independent of the lifting module: discrete models come from SciPy
    exponentials of the hold-equivalent augmented matrices, the regressor
    is the period integral of the secondary path response obtained from an
    integrator-augmented model, and the update is written in plain
    shift-register style. Only autonomous noise generators are supported.

    Period n: sample the reference x, disturbance d and secondary output w
    at t = nh, form e = d - w, apply the taps alpha + mu * delta to the
    reference delay line, accumulate e times the lagged regressor integrals
    into delta, commit the taps, then advance all continuous blocks by one
    period. Matches the blocked algorithm's ordering convention exactly.
    """
    if not isinstance(generator, AutonomousGenerator):
        raise TypeError("the baseline supports autonomous generators only")
    if h <= 0.0 or n_taps < 1 or n_steps < 0 or mu < 0.0:
        raise ValueError("bad run parameters")

    Af, Bf = secondary.A, secondary.B
    cf = secondary.C[0]
    nf = secondary.nstates
    Ad, Bd = zoh_discretize_ref(Af, Bf, h)
    bd = Bd[:, 0]

    # Integrator-augmented secondary model: the extra state q integrates the
    # output, so its one-period increment is the regressor integral.
    Aa = np.zeros((nf + 1, nf + 1))
    Aa[:nf, :nf] = Af
    Aa[nf, :nf] = cf
    Ba = np.vstack([Bf, np.zeros((1, 1))])
    Ada, Bda = zoh_discretize_ref(Aa, Ba, h)
    int_row = Ada[nf, :nf]
    int_feed = float(Bda[nf, 0])

    # Generator and primary path cascade into one autonomous block.
    ng, npr = generator.nstates, primary.nstates
    Aj = np.zeros((ng + npr, ng + npr))
    Aj[:ng, :ng] = generator.A
    Aj[ng:, ng:] = primary.A
    Aj[ng:, :ng] = primary.B @ generator.C.reshape(1, -1)
    Phij = scipy.linalg.expm(Aj * h)
    cg = generator.C
    cp = primary.C[0]

    z = np.concatenate([generator.x0, np.zeros(npr)])
    zeta = np.zeros(nf)
    reg = np.zeros(nf)
    xbuf = np.zeros(n_taps)
    ubuf = np.zeros(n_taps)
    alpha = np.zeros(n_taps) if alpha0 is None else np.asarray(alpha0, dtype=float).copy()
    delta = np.zeros(n_taps)

    xs = np.empty(n_steps)
    ds = np.empty(n_steps)
    ws = np.empty(n_steps)
    es = np.empty(n_steps)
    ys = np.empty(n_steps)
    us = np.empty(n_steps)
    ah = np.empty((n_steps, n_taps))
    dh = np.empty((n_steps + 1, n_taps))

    for n in range(n_steps):
        x = float(cg @ z[:ng])
        d = float(cp @ z[ng:])
        w = float(cf @ zeta)
        e = d - w

        xbuf = np.roll(xbuf, 1)
        xbuf[0] = x
        dh[n] = delta
        taps = alpha + mu * delta
        y = float(taps @ xbuf)

        u_int = float(int_row @ reg) + int_feed * x
        ubuf = np.roll(ubuf, 1)
        ubuf[0] = u_int
        delta = delta + e * ubuf
        alpha = taps

        xs[n], ds[n], ws[n], es[n], ys[n], us[n] = x, d, w, e, y, u_int
        ah[n] = taps

        z = Phij @ z
        zeta = Ad @ zeta + bd * y
        reg = Ad @ reg + bd * x

    dh[n_steps] = delta
    return ConventionalRun(
        x_samples=xs,
        d_samples=ds,
        w_samples=ws,
        e_samples=es,
        y_samples=ys,
        u_integrals=us,
        alpha_hist=ah,
        delta_hist=dh,
        final_alpha=alpha,
        final_delta=delta,
    )


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_csv_rows(path: str, header: list[str], rows) -> None:
    """Row-wise CSV writer: every value through ``_fmt``, one join per row."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def t_fast(trace: SimTrace) -> np.ndarray:
    """The fast grid of a trace, the t column of its fast.csv: cell left endpoints."""
    return np.arange(trace.n_steps * trace.L) * trace.dt


def reference_write_run_csv(result, out_dir: str, prefix: str = "") -> list[str]:
    """The run tables of ``ancsim.run_to_csv``, written by ``write_csv_rows``."""
    os.makedirs(out_dir, exist_ok=True)
    tr = result.trace
    paths = []

    def p(name: str) -> str:
        path = os.path.join(out_dir, prefix + name)
        paths.append(path)
        return path

    t = t_fast(tr)
    write_csv_rows(
        p("fast.csv"),
        ["t", "x", "d", "w", "e", "u"],
        zip(t, tr.x, tr.d, tr.w, tr.e, tr.u),
    )
    n_idx = np.arange(tr.n_steps)
    write_csv_rows(
        p("discrete.csv"),
        ["n", "t", "x_d", "y_d"],
        zip(n_idx, n_idx * tr.h, tr.x_d, tr.y_d),
    )
    n_taps = result.alpha_hist.shape[1] if result.alpha_hist.size else 0
    header = ["n"] + [f"alpha_{k}" for k in range(n_taps)] + [f"delta_{k}" for k in range(n_taps)]
    write_csv_rows(
        p("taps.csv"),
        header,
        (
            [n, *result.alpha_hist[n], *result.delta_hist[n]]
            for n in range(result.alpha_hist.shape[0])
        ),
    )
    write_csv_rows(
        p("u_blocks.csv"),
        ["n"] + [f"u_{l}" for l in range(result.algorithm_cells)],
        ([n, *row] for n, row in enumerate(result.u_alg_blocks)),
    )

    rep = result.lms_report
    items = [
        ("mu", result.mu),
        ("algorithm_cells", result.algorithm_cells),
        ("n_completed", result.n_completed),
        ("diverged", result.diverged),
        ("error_l2", result.error_norm),
        ("disturbance_l2", result.d_norm),
        ("antinoise_l2", result.w_norm),
    ]
    if rep is not None:
        items += [
            ("gram_norm_bound", rep.gamma),
            ("gram_lambda_max", rep.lambda_max),
            ("mu_limit", rep.mu_limit),
            ("eps_realized", rep.eps_realized),
            ("eps_threshold", rep.eps_threshold),
            ("cond_bounded", rep.bounded_ok),
            ("cond_step", rep.step_ok),
            ("cond_slow", rep.slow_ok),
        ]
    write_csv_rows(p("report.csv"), ["key", "value"], items)
    return paths


def reference_write_comparison_csv(result, out_dir: str) -> list[str]:
    """The tables of ``ancsim.run_to_csv(..., compare=True)``, written by ``write_csv_rows``."""
    paths = reference_write_run_csv(result.proposed, out_dir, prefix="proposed_")
    paths += reference_write_run_csv(result.conventional, out_dir, prefix="conventional_")
    path = os.path.join(out_dir, "comparison.csv")
    write_csv_rows(
        path,
        ["key", "value"],
        [
            ("error_l2_proposed", result.proposed.error_norm),
            ("error_l2_conventional", result.conventional.error_norm),
            ("ratio", result.ratio),
        ],
    )
    paths.append(path)
    return paths


def reference_write_sweep_csv(result, out_dir: str) -> list[str]:
    """The tables of ``ancsim.write_sweep_csv``, written by ``write_csv_rows``."""
    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, "sweep.csv")
    write_csv_rows(
        rows_path,
        [
            "mu",
            "error_l2_proposed", "error_l2_conventional",
            "diverged_proposed", "diverged_conventional",
            "step_ok_proposed", "step_ok_conventional",
        ],
        (
            [r.mu, r.error_proposed, r.error_conventional,
             r.diverged_proposed, r.diverged_conventional,
             r.step_ok_proposed, r.step_ok_conventional]
            for r in result.rows
        ),
    )
    summary_path = os.path.join(out_dir, "sweep_summary.csv")
    write_csv_rows(
        summary_path,
        ["key", "value"],
        [
            ("threshold", result.threshold),
            ("mu_max_proposed", result.mu_max_proposed),
            ("mu_max_conventional", result.mu_max_conventional),
            ("widening", result.widening),
        ],
    )
    return [rows_path, summary_path]


def reference_write_bode_csv(config, out_dir: str) -> str:
    """The table of ``ancsim.write_bode_csv``, written by ``write_csv_rows``."""
    os.makedirs(out_dir, exist_ok=True)
    cols = emit_bode(config)
    path = os.path.join(out_dir, "bode.csv")
    write_csv_rows(path, list(cols.keys()), zip(*cols.values()))
    return path


def reference_l2_norm(samples, dt: float) -> float:
    """sqrt(dt * sum of squares), inf for a non-finite sample or one whose square overflows."""
    arr = np.asarray(samples, dtype=float).ravel()
    if not np.all(np.isfinite(arr)) or float(np.max(np.abs(arr))) >= 1e150:
        return float("inf")
    total = float(np.einsum("i,i->", arr, arr))
    return float("inf") if total > 1e300 else float(np.sqrt(dt * total))


def reference_cli_parser() -> argparse.ArgumentParser:
    """The ``anc-sim`` parser with every subcommand's options, one block each."""
    parser = argparse.ArgumentParser(
        prog="anc-sim",
        description="Sampled-data filtered-x adaptive noise control experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, mu_key: str = "adapt.mu") -> None:
        p.add_argument("--config", help="path to a key = value config file")
        for flag, key in (("--out", "output.dir"), ("--seed", "sim.seed"), ("--mu", mu_key),
                          ("--L", "sim.L"), ("--threshold", "sweep.threshold")):
            p.add_argument(flag, dest=key, help=f"set {key} over the config file")

    add_common(sub.add_parser("run", help="single adaptive run"))
    add_common(sub.add_parser("compare", help="proposed vs conventional blocking"))
    add_common(sub.add_parser("sweep", help="step-size sweep of both arms"), "adapt.mu_list")
    add_common(sub.add_parser("bode", help="plant frequency-response table"))
    p_chk = sub.add_parser("check", help="convergence conditions on a recorded trace")
    add_common(p_chk)
    p_chk.add_argument("--trace", required=True, help="path to a u_blocks.csv recorded with adapt.mu")
    return parser
