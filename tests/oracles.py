"""Independent numerical references used by the test suite.

Nothing in this module goes through the package's own matrix exponential,
lifting, or update recursions. Matrix exponentials come from SciPy,
integrals from adaptive quadrature, interval propagation from a high order
Runge-Kutta solver, and gradients from central differences. Agreement
between these references and the package is the point of the tests, so the
two sides must stay independent.

Two references are earlier, slower forms of package code, kept to check
the rewrites that replaced them: :func:`reference_step` walks the cells of
a period one by one with the loop's own one-cell propagators, and
:func:`reference_write_run_csv` / :func:`reference_write_comparison_csv`
write the CSV tables row by row through a per-value formatter.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.linalg
from scipy.integrate import quad, quad_vec, solve_ivp

from ancsim.lifting import HybridLoopState, IntervalRecord
from ancsim.statespace import DimensionError


def expm_ref(m: np.ndarray) -> np.ndarray:
    return scipy.linalg.expm(np.asarray(m, dtype=float))


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


def reference_step(loop, state: HybridLoopState, taps) -> tuple[HybridLoopState, IntervalRecord]:
    """One period of ``loop`` advanced cell by cell (the per-cell loop).

    Uses the loop's one-cell propagators and lifted blocks; the loop's
    precomputed cell-output maps are not used.
    """
    taps = np.asarray(taps, dtype=float).reshape(-1)
    if taps.size != state.xd_hist.size:
        raise DimensionError(
            f"taps length {taps.size} does not match delay line length {state.xd_hist.size}"
        )
    n, L = state.n, loop.L
    held = loop._held

    if held is None:
        x_d = float(loop._c_g @ state.gen_state)
    else:
        base = n * L
        if base + L > len(held):
            raise ValueError(
                f"held waveform exhausted: period {n} needs samples up to {base + L}"
            )
        x_d = float(held.values[base])

    xd_hist = np.empty_like(state.xd_hist)
    xd_hist[0] = x_d
    xd_hist[1:] = state.xd_hist[:-1]
    y_d = float(taps @ xd_hist)

    u_block = loop.lift.Ch @ state.eta + loop.lift.Dh * x_d

    x_fast = np.empty(L)
    d_fast = np.empty(L)
    w_fast = np.empty(L)
    u_fast = np.empty(L)
    zf = state.zeta_F
    eta = state.eta
    if held is None:
        z = np.concatenate([state.gen_state, state.zeta_P])
        for l in range(L):
            x_fast[l] = loop._c_g @ z[:loop._ng]
            d_fast[l] = loop._c_p @ z[loop._ng:]
            w_fast[l] = loop._c_f @ zf
            u_fast[l] = loop._c_f @ eta
            z = loop._phi_joint_cell @ z
            zf = loop._phi_f @ zf + loop._gamma_f * y_d
            eta = loop._phi_f @ eta + loop._gamma_f * x_d
        z_end = loop._phi_joint_period @ np.concatenate([state.gen_state, state.zeta_P])
        gen_next = z_end[:loop._ng]
        zeta_p_next = z_end[loop._ng:]
    else:
        zp = state.zeta_P
        for l in range(L):
            xv = held.values[n * L + l]
            x_fast[l] = xv
            d_fast[l] = loop._c_p @ zp
            w_fast[l] = loop._c_f @ zf
            u_fast[l] = loop._c_f @ eta
            zp = loop._phi_p @ zp + loop._gamma_p * xv
            zf = loop._phi_f @ zf + loop._gamma_f * y_d
            eta = loop._phi_f @ eta + loop._gamma_f * x_d
        gen_next = state.gen_state
        zeta_p_next = zp

    new_state = HybridLoopState(
        zeta_F=loop.lift.Ah @ state.zeta_F + loop.lift.Bh * y_d,
        zeta_P=zeta_p_next,
        gen_state=gen_next,
        eta=loop.lift.Ah @ state.eta + loop.lift.Bh * x_d,
        xd_hist=xd_hist,
        n=n + 1,
    )
    record = IntervalRecord(
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


def reference_write_run_csv(result, out_dir: str, prefix: str = "") -> list[str]:
    """The run tables of ``ancsim.write_run_csv``, written by ``write_csv_rows``."""
    os.makedirs(out_dir, exist_ok=True)
    tr = result.trace
    paths = []

    def p(name: str) -> str:
        path = os.path.join(out_dir, prefix + name)
        paths.append(path)
        return path

    t = tr.t_fast
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
    """The tables of ``ancsim.write_comparison_csv``, written by ``write_csv_rows``."""
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
