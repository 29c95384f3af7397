"""Quadratic problem assembly, direct solve, descent, and the online update."""

import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

import oracles
from ancsim import (
    ContinuousStateSpace,
    DimensionError,
    FirFilter,
    LmsConditionReport,
    SingularGramError,
    WienerProblem,
    adaptive,
    build_wiener,
    check_lms_conditions,
    discretize_lifted,
    gradient,
    j_value,
    run_comparison,
    run_mu_sweep,
    run_single,
    sd_run,
    wiener_solve,
)
from ancsim.adaptive import _condition_maxima, _lag_windows
from ancsim.config import SimConfig
from ancsim.tolerances import TOL


def integrator_lift(L=2):
    integ = ContinuousStateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]])
    return discretize_lifted(integ, 1.0, L)


def spd_problem(seed=0, n=4, eigs=(1.0, 0.6, 0.25, 0.1)):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    phi = q @ np.diag(eigs) @ q.T
    phi = 0.5 * (phi + phi.T)
    alpha_true = rng.normal(size=n)
    beta = phi @ alpha_true
    d_energy = float(beta @ alpha_true) + 0.5
    return WienerProblem(Phi=phi, beta=beta, horizon=float(n), d_energy=d_energy), alpha_true


# ---------------------------------------------------------------------------
# containers


def test_fir_filter_validation():
    f = FirFilter(taps=[0.5, -0.5])
    assert f.taps.shape == (2,)
    with pytest.raises(ValueError):
        FirFilter(taps=np.array([np.nan]))
    with pytest.raises(ValueError):
        FirFilter(taps=np.array([]))


def test_wiener_problem_validation():
    phi_bad = np.array([[1.0, 0.2], [0.0, 1.0]])
    with pytest.raises(ValueError):
        WienerProblem(Phi=phi_bad, beta=np.zeros(2), horizon=1.0)
    indefinite = np.array([[1.0, 0.0], [0.0, -1e-3]])
    with pytest.raises(ValueError):
        WienerProblem(Phi=indefinite, beta=np.zeros(2), horizon=1.0)
    with pytest.raises(DimensionError):
        WienerProblem(Phi=np.eye(2), beta=np.zeros(3), horizon=1.0)
    with pytest.raises(ValueError):
        WienerProblem(Phi=np.eye(2), beta=np.zeros(2), horizon=0.0)


@pytest.mark.parametrize(
    "field, phi, beta, d_energy",
    [
        ("Phi", [[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0),
        ("Phi", [[1.0, np.inf], [np.inf, 1.0]], [0.0, 0.0], 0.0),
        ("beta", np.eye(2), [np.inf, 0.0], 0.0),
        ("d_energy", np.eye(2), [0.0, 0.0], np.inf),
    ],
    ids=["nan-Phi", "inf-Phi", "inf-beta", "inf-d_energy"],
)
def test_wiener_problem_rejects_non_finite(field, phi, beta, d_energy):
    """Non-finite input is named before any arithmetic on it can warn."""
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        WienerProblem(Phi=phi, beta=beta, horizon=1.0, d_energy=d_energy)


# ---------------------------------------------------------------------------
# problem assembly


def staircase_record(seed=5, n_steps=60, L=4, h=1.0):
    """Record whose underlying u really is piecewise constant on cells."""
    rng = np.random.default_rng(seed)
    cells = rng.normal(size=(n_steps, L))
    u_blocks = (h / L) * cells
    d_fast = cells.copy()
    return u_blocks, d_fast


def test_staircase_cross_vector_equals_gram_column():
    """With d == u and u constant per cell, beta equals the lag-0 Gram column."""
    u_blocks, d_fast = staircase_record()
    problem = build_wiener(u_blocks, d_fast, n_taps=4, horizon=60.0, h=1.0, L=4)
    col0 = problem.Phi[:, 0]
    assert np.abs(problem.beta - col0).max() < 1e-12 * max(1.0, np.abs(col0).max())


def test_staircase_identity_solution():
    """d == u forces the optimal filter to a unit first tap."""
    u_blocks, d_fast = staircase_record(seed=6)
    problem = build_wiener(u_blocks, d_fast, n_taps=4, horizon=60.0, h=1.0, L=4)
    alpha = wiener_solve(problem).taps
    want = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.abs(alpha - want).max() < 1e-10
    # and the optimum has zero residual energy: J(alpha) ~ 0
    assert abs(j_value(problem, alpha)) < 1e-10 * problem.d_energy


def test_gram_matrix_structure():
    u_blocks, d_fast = staircase_record(seed=7)
    problem = build_wiener(u_blocks, d_fast, n_taps=5, horizon=60.0, h=1.0, L=4)
    assert np.abs(problem.Phi - problem.Phi.T).max() == 0.0
    assert np.linalg.eigvalsh(problem.Phi)[0] > -TOL.psd_slack


def test_build_wiener_shape_checks():
    u_blocks, d_fast = staircase_record()
    with pytest.raises(DimensionError):
        build_wiener(u_blocks.ravel(), d_fast, 4, 60.0, 1.0, 4)
    with pytest.raises(DimensionError):
        build_wiener(u_blocks, d_fast[:, :2], 4, 60.0, 1.0, 4)
    with pytest.raises(ValueError):
        build_wiener(u_blocks, d_fast, 4, 59.0, 1.0, 4)
    with pytest.raises(ValueError):
        build_wiener(u_blocks, d_fast, 0, 60.0, 1.0, 4)
    for h in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="period h"):
            build_wiener(u_blocks, d_fast, 4, 60.0, h, 4)


def test_blocked_assembly_approximates_continuous_integrals():
    """Smooth slow signals: blocked sums track the true inner products."""
    h, L, n_steps = 1.0, 128, 40
    horizon = float(n_steps) * h
    u = oracles.DampedSines(
        amps=[1.0, 0.6], sigmas=[0.04, 0.07], omegas=[0.35, 0.6], phases=[0.2, 1.3]
    )
    d = oracles.DampedSines(
        amps=[0.8, 0.5], sigmas=[0.05, 0.03], omegas=[0.45, 0.3], phases=[0.9, 0.4]
    )
    u_blocks = u.cell_integrals(h, L, n_steps)
    d_fast = d.samples(h, L, n_steps)
    n_taps = 3
    problem = build_wiener(u_blocks, d_fast, n_taps, horizon, h, L)

    phi_ref = np.empty((n_taps, n_taps))
    beta_ref = np.empty(n_taps)
    for k in range(n_taps):
        beta_ref[k] = oracles.cross_product_integral(u, d, k, h, horizon)
        for l in range(k, n_taps):
            phi_ref[k, l] = phi_ref[l, k] = oracles.lag_product_integral(u, k, l, h, horizon)

    phi_scale = np.abs(phi_ref).max()
    beta_scale = np.abs(beta_ref).max()
    assert np.abs(problem.Phi - phi_ref).max() / phi_scale < TOL.wiener_oracle
    assert np.abs(problem.beta - beta_ref).max() / beta_scale < TOL.wiener_oracle


# ---------------------------------------------------------------------------
# solve, gradient, cost


def test_wiener_solve_recovers_known_taps():
    problem, alpha_true = spd_problem(seed=8)
    alpha = wiener_solve(problem).taps
    assert np.abs(alpha - alpha_true).max() < 1e-12
    g = gradient(problem, alpha)
    assert np.abs(g).max() <= TOL.wiener_residual * max(1.0, np.abs(problem.beta).max())


# wiener_solve against the Cholesky reference, relative to the reference taps
# and per unit condition number. Both solves are backward stable, so they
# differ by a small multiple of eps * cond(Phi); the worst seen over 2200
# random problems of 2-16 taps was 0.4 eps * cond(Phi) = 8.5e-17 * cond(Phi).
SOLVE_REFERENCE_REL_PER_COND = 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_wiener_solve_matches_cholesky_reference(seed):
    rng = np.random.default_rng(100 + seed)
    for cond in np.logspace(0, 10, 11):
        n = int(rng.integers(2, 17))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        phi = q @ np.diag(np.logspace(0, -np.log10(cond), n)) @ q.T
        problem = WienerProblem(
            Phi=0.5 * (phi + phi.T), beta=rng.standard_normal(n), horizon=1.0
        )
        want = oracles.reference_wiener_solve(problem)
        got = wiener_solve(problem).taps
        tol = SOLVE_REFERENCE_REL_PER_COND * cond * np.linalg.norm(want)
        assert np.linalg.norm(got - want) <= tol, cond


def test_wiener_solve_matches_cholesky_reference_on_recorded_run(default_config, benchmark_run):
    c, trace = default_config, benchmark_run.trace
    problem = build_wiener(trace.u_blocks, trace.d, c.n_taps, c.T, c.h, c.L)
    want = oracles.reference_wiener_solve(problem)
    got = wiener_solve(problem).taps
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_wiener_solve_rejects_singular():
    phi = np.zeros((2, 2))
    problem = WienerProblem(Phi=phi, beta=np.zeros(2), horizon=1.0)
    with pytest.raises(SingularGramError):
        wiener_solve(problem)


def test_gradient_matches_central_differences():
    problem, _ = spd_problem(seed=9)
    rng = np.random.default_rng(10)
    for _ in range(3):
        alpha = rng.normal(size=problem.n_taps)
        want = oracles.fd_gradient(lambda a: j_value(problem, a), alpha)
        got = gradient(problem, alpha)
        assert np.abs(got - want).max() < TOL.gradient_fd


def test_cost_difference_identity():
    """J(alpha) - J(opt) equals the Gram quadratic form of the offset."""
    problem, alpha_true = spd_problem(seed=11)
    rng = np.random.default_rng(12)
    for _ in range(4):
        alpha = rng.normal(size=problem.n_taps)
        off = alpha - alpha_true
        lhs = j_value(problem, alpha) - j_value(problem, alpha_true)
        rhs = float(off @ problem.Phi @ off)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_dimension_checks_on_taps():
    problem, _ = spd_problem()
    with pytest.raises(DimensionError):
        gradient(problem, np.zeros(2))
    with pytest.raises(DimensionError):
        j_value(problem, np.zeros(2))


# ---------------------------------------------------------------------------
# steepest descent


def test_sd_zero_step_freezes():
    problem, _ = spd_problem(seed=13)
    alpha0 = np.ones(problem.n_taps)
    hist = sd_run(problem, alpha0, mu=0.0, n_steps=5)
    assert np.all(hist == 1.0)


def test_sd_single_step_closed_form():
    problem, _ = spd_problem(seed=14)
    hist = sd_run(problem, np.zeros(problem.n_taps), mu=0.3, n_steps=1)
    assert np.abs(hist[1] - 0.3 * problem.beta).max() < 1e-15


def test_sd_converges_to_direct_solution():
    problem, alpha_true = spd_problem(seed=15)
    lam = np.linalg.eigvalsh(problem.Phi)
    hist = sd_run(problem, np.zeros(problem.n_taps), mu=1.0 / lam[-1], n_steps=400)
    solved = wiener_solve(problem).taps
    assert np.abs(hist[-1] - solved).max() < TOL.sd_convergence
    assert np.abs(hist[-1] - alpha_true).max() < TOL.sd_convergence


def test_sd_error_contracts_monotonically():
    problem, alpha_true = spd_problem(seed=16)
    lam = np.linalg.eigvalsh(problem.Phi)
    hist = sd_run(problem, np.zeros(problem.n_taps), mu=1.9 / lam[-1], n_steps=60)
    errs = np.linalg.norm(hist - alpha_true, axis=1)
    assert np.all(np.diff(errs) <= 1e-14)


def test_sd_diverges_beyond_limit():
    problem, _ = spd_problem(seed=17)
    lam = np.linalg.eigvalsh(problem.Phi)
    hist = sd_run(problem, np.zeros(problem.n_taps), mu=2.5 / lam[-1], n_steps=80)
    assert np.linalg.norm(hist[-1]) > 1e3


def test_sd_recording_and_validation():
    problem, _ = spd_problem(seed=18)
    hist = sd_run(problem, np.zeros(problem.n_taps), mu=0.1, n_steps=10, record_every=4)
    # records: start, steps 4 and 8, and the forced final step 10
    assert hist.shape == (4, problem.n_taps)
    full = sd_run(problem, np.zeros(problem.n_taps), mu=0.1, n_steps=10)
    assert np.allclose(hist[-1], full[-1], atol=0.0)
    for mu in (-0.1, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="mu"):
            sd_run(problem, np.zeros(problem.n_taps), mu=mu, n_steps=5)
    with pytest.raises(ValueError):
        sd_run(problem, np.zeros(problem.n_taps), mu=0.1, n_steps=5, record_every=0)
    with pytest.raises(TypeError):
        sd_run(problem, np.zeros(problem.n_taps), mu=0.1, n_steps=2.5)
    with pytest.raises(TypeError):
        sd_run(problem, np.zeros(problem.n_taps), mu=0.1, n_steps=5, record_every=2.0)
    with pytest.raises(DimensionError):
        sd_run(problem, np.zeros(2), mu=0.1, n_steps=5)
    assert sd_run(problem, np.zeros(problem.n_taps), 0.1, np.int64(10), np.int32(4)).shape == hist.shape


def assert_rows_within(got, want, tol):
    """Each row of ``got`` within ``tol`` of its row of ``want``, relative to
    that row's largest absolute value."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want).max(axis=1) <= tol * np.abs(want).max(axis=1))


@pytest.mark.parametrize("n_steps, record_every", [(0, 1), (0, 7), (1, 1), (50, 1), (49, 7), (56, 7), (3, 7)])
@pytest.mark.parametrize("mu", [0.0, 0.3, 40.0])
def test_sd_iterates_equal_list_loop(n_steps, record_every, mu):
    """The closed-form iterates against the sequential recursion: shape, dtype,
    row 0 and every row of a mu = 0 run byte for byte, the other rows within
    ``TOL.sd_closed_form``; every record spacing, no steps, a last step off
    the record spacing, and a diverging mu."""
    problem, _ = spd_problem(seed=19, n=6, eigs=(3.0, 1.0, 0.6, 0.25, 0.1, 0.01))
    alpha0 = np.linspace(-1.0, 1.0, problem.n_taps)
    got = sd_run(problem, alpha0, mu, n_steps, record_every)
    want = oracles.reference_sd_run(problem, alpha0, mu, n_steps, record_every)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got[0].tobytes() == alpha0.tobytes()
    if mu == 0.0:
        assert got.tobytes() == np.tile(alpha0, (len(got), 1)).tobytes()
    assert_rows_within(got, want, TOL.sd_closed_form)
    assert np.array_equal(alpha0, np.linspace(-1.0, 1.0, problem.n_taps))  # the start is not written


# Four taps whose Gram matrix has the eigenvectors of a 4 x 4 Hadamard matrix:
# Phi = H diag(eigs) H^T is exact in floating point for dyadic eigenvalues.
_HADAMARD = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], float)
_BETA = np.array([0.3, -0.7, 0.45, 0.9])
_ALPHA0 = np.array([0.2, 0.1, -0.4, 0.6])

SD_EXACT_CASES = {
    # name: (eigenvalues, diagonal Phi, beta, alpha0, mu, n_steps, record_every)
    "singular": ((1.0, 0.5, 0.25, 0.0), False, _BETA, _ALPHA0, 0.5, 60, 1),
    "singular-exact-zero": ((1.0, 0.5, 0.25, 0.0), True, _BETA, _ALPHA0, 0.5, 60, 1),
    "negative-at-psd-slack": ((1.0, 0.5, 0.25, -TOL.psd_slack), True, _BETA, _ALPHA0, 0.9, 60, 1),
    "oscillating": ((1.0, 0.5, 0.25, 0.125), False, _BETA, _ALPHA0, 1.5, 60, 1),
    "diverging": ((1.0, 0.5, 0.25, 0.125), False, _BETA, _ALPHA0, 2.5, 60, 1),
    "slow-1e-9": ((1.0, 0.5, 0.25, 1e-9), False, _HADAMARD[:, 3], np.zeros(4), 1.0, 60, 1),
    "off-spacing": ((1.0, 0.5, 0.25, 0.125), False, _BETA, _ALPHA0, 0.7, 59, 7),
    "no-steps": ((1.0, 0.5, 0.25, 0.125), False, _BETA, _ALPHA0, 0.7, 0, 1),
}


@pytest.mark.parametrize("case", list(SD_EXACT_CASES))
def test_sd_closed_form_and_recursion_match_exact_iterates(case):
    """The closed form and the sequential recursion each lie within
    ``TOL.sd_closed_form`` of the exactly rounded iterates: a singular Gram
    matrix (as decomposed, and with an exact zero eigenvalue), an eigenvalue
    at the accepted PSD slack, 1 < mu lam < 2, mu lam > 2, mu lam ~ 1e-9 with
    only that mode excited, a last step off the record spacing, no steps."""
    eigs, diagonal, beta, alpha0, mu, n_steps, record_every = SD_EXACT_CASES[case]
    phi = np.diag(eigs) if diagonal else _HADAMARD @ np.diag(eigs) @ _HADAMARD.T
    problem = WienerProblem(Phi=phi, beta=beta, horizon=1.0)
    lam = np.linalg.eigvalsh(problem.Phi)
    if case == "singular-exact-zero":
        assert 0.0 in lam
    exact = oracles.exact_sd_run(problem, alpha0, mu, n_steps, record_every)
    got = sd_run(problem, alpha0, mu, n_steps, record_every)
    assert got[0].tobytes() == exact[0].tobytes()
    assert_rows_within(got, exact, TOL.sd_closed_form)
    assert_rows_within(oracles.reference_sd_run(problem, alpha0, mu, n_steps, record_every), exact, TOL.sd_closed_form)


def test_sd_diverging_rows_turn_nonfinite_without_warnings():
    """Past the float range the rows are inf or nan, and nothing warns; the
    rows before it follow the recursion."""
    problem, _ = spd_problem(seed=19, n=6, eigs=(3.0, 1.0, 0.6, 0.25, 0.1, 0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hist = sd_run(problem, np.zeros(6), mu=40.0, n_steps=200)
    finite = np.isfinite(hist).all(axis=1)
    n_finite = int(finite.sum())
    assert 0 < n_finite < len(hist) and finite[:n_finite].all()
    assert not np.isfinite(hist[-1]).any()
    want = oracles.reference_sd_run(problem, np.zeros(6), 40.0, n_finite - 1)
    assert_rows_within(hist[:n_finite], want, TOL.sd_closed_form)


# ---------------------------------------------------------------------------
# online update


def test_online_update_scripted_three_periods():
    """Hand-worked three periods of the single-arm update on the integrator.

    The update is the oracle's; the package's arm loop equals it bit for bit
    (tests/test_runner.py::test_arm_loop_matches_single_arm_reference).
    """
    lift = integrator_lift(L=2)
    state = oracles.initial_adaptive_state(n_taps=2, L=2)
    mu = 0.1
    xs = [1.0, -0.5, 2.0]
    es = [np.array([1.0, -1.0]), np.array([0.5, 0.25]), np.array([-2.0, 1.0])]

    # the regressor blocks the loop traces: integrator cell integrals
    eta, U = oracles.fh_step(lift, np.zeros(1), xs[0])
    assert np.allclose(U, [0.125, 0.375], atol=1e-15)
    assert np.allclose(eta, [1.0], atol=1e-15)
    state = oracles.sdfx_lms_step(state, mu, es[0], U)
    assert np.allclose(state.alpha, [0.0, 0.0], atol=1e-15)
    assert np.allclose(state.delta, [-0.25, 0.0], atol=1e-15)
    assert np.allclose(state.U_hist, [[0.125, 0.375], [0.0, 0.0]], atol=1e-15)

    eta, U = oracles.fh_step(lift, eta, xs[1])
    assert np.allclose(U, [0.4375, 0.3125], atol=1e-15)
    assert np.allclose(eta, [0.5], atol=1e-15)
    state = oracles.sdfx_lms_step(state, mu, es[1], U)
    assert np.allclose(state.alpha, [-0.025, 0.0], atol=1e-15)
    assert np.allclose(state.delta, [0.046875, 0.15625], atol=1e-15)
    assert np.allclose(state.U_hist, [[0.4375, 0.3125], [0.125, 0.375]], atol=1e-15)

    eta, U = oracles.fh_step(lift, eta, xs[2])
    assert np.allclose(U, [0.5, 1.0], atol=1e-15)
    assert np.allclose(eta, [2.5], atol=1e-15)
    state = oracles.sdfx_lms_step(state, mu, es[2], U)
    assert np.allclose(state.alpha, [-0.0203125, 0.015625], atol=1e-15)
    assert np.allclose(state.delta, [0.046875, -0.40625], atol=1e-15)
    assert np.allclose(state.U_hist, [[0.5, 1.0], [0.4375, 0.3125]], atol=1e-15)
    assert state.n == 3


def test_online_update_validation():
    config = short_config()
    with pytest.raises(ValueError, match="nonnegative"):
        run_mu_sweep(config, mu_values=[0.1, -0.1])
    with pytest.raises(ValueError, match="divide"):
        run_single(config, algorithm_cells=3)
    with pytest.raises(ValueError, match="divide"):
        run_single(config, algorithm_cells=0)


def test_initial_adaptive_state():
    """Every arm starts at rest: zero taps, zero direction, no anti-noise."""
    for cells in (None, 1):
        result = run_single(short_config(), algorithm_cells=cells)
        assert np.all(result.alpha_hist[0] == 0.0)
        assert np.all(result.delta_hist[0] == 0.0)
        assert result.trace.y_d[0] == 0.0
        assert np.all(result.trace.w[:short_config().L] == 0.0)
        assert result.u_alg_blocks.shape == (result.n_completed, result.algorithm_cells)


def short_config(**overrides):
    base = dict(T=20.0, L=4, n_taps=4, mu=0.1)
    base.update(overrides)
    return SimConfig().with_overrides(**base)


def test_direction_matches_scratch_accumulation():
    """Recursive direction equals the double-loop recomputation at checkpoints."""
    config = short_config()
    result = run_single(config)
    L_alg = result.algorithm_cells
    e_alg = result.trace.e.reshape(-1, config.L)[:, :: config.L // L_alg]
    for n in (1, 3, 7, 12, 19):
        want = oracles.scratch_direction(result.u_alg_blocks, e_alg, config.n_taps, n)
        got = result.delta_hist[n]
        assert np.abs(got - want).max() < TOL.direction_recompute * max(1.0, np.abs(want).max())
    full = oracles.scratch_direction(result.u_alg_blocks, e_alg, config.n_taps, result.n_completed)
    assert np.abs(result.final_delta - full).max() < TOL.direction_recompute * max(
        1.0, np.abs(full).max()
    )


def test_single_cell_path_equals_independent_baseline():
    """L = 1 blocked loop reproduces the separately coded discrete algorithm."""
    config = short_config(L=1, T=30.0)
    result = run_single(config)
    ref = oracles.run_conventional_fxlms(
        secondary=config.secondary(),
        primary=config.primary(),
        generator=config.make_generator(),
        h=config.h,
        n_taps=config.n_taps,
        mu=config.mu,
        n_steps=config.n_steps,
    )
    n = result.n_completed
    assert np.abs(result.alpha_hist - ref.alpha_hist[:n]).max() < TOL.baseline_match
    assert np.abs(result.delta_hist - ref.delta_hist[:n]).max() < TOL.baseline_match
    assert np.abs(result.final_delta - ref.final_delta).max() < TOL.baseline_match
    assert np.abs(result.trace.e - ref.e_samples[:n]).max() < TOL.baseline_match
    assert np.abs(result.u_alg_blocks[:, 0] - ref.u_integrals[:n]).max() < TOL.baseline_match
    assert np.abs(result.trace.w - ref.w_samples[:n]).max() < TOL.baseline_match


# ---------------------------------------------------------------------------
# convergence conditions


def test_checker_single_cell_hand_values():
    report = check_lms_conditions(np.array([[1.0]]), mu=0.5, n_taps=1, h=1.0)
    assert report.lambda_max == 1.0
    assert report.mu_limit == 2.0
    assert report.eps_realized == 0.5
    assert report.bounded_ok and report.step_ok and report.slow_ok
    assert report.all_ok


def test_checker_two_periods_hand_values():
    # lag-structured Gram from two unit pulses, one period apart
    u = np.array([[1.0], [1.0]])
    report = check_lms_conditions(u, mu=0.5, n_taps=2, h=1.0)
    # after period 2 the Gram is [[2, 1], [1, 1]]; top eigenvalue (3+sqrt(5))/2
    want = (3.0 + np.sqrt(5.0)) / 2.0
    assert abs(report.lambda_max - want) < 1e-12
    assert abs(report.mu_limit - 2.0 / want) < 1e-12


def test_checker_degenerate_record():
    report = check_lms_conditions(np.zeros((4, 2)), mu=0.3, n_taps=2, h=1.0)
    assert report.degenerate
    assert report.mu_limit == np.inf
    assert report.all_ok


def test_checker_flags_large_step():
    u = np.array([[1.0], [0.5], [0.25]])
    report = check_lms_conditions(u, mu=10.0, n_taps=2, h=1.0)
    assert not report.step_ok
    assert not report.all_ok


def test_checker_input_validation():
    with pytest.raises(DimensionError):
        check_lms_conditions(np.zeros(3), mu=0.1, n_taps=1, h=1.0)
    with pytest.raises(ValueError):
        check_lms_conditions(np.array([[np.nan]]), mu=0.1, n_taps=1, h=1.0)
    with pytest.raises(ValueError):
        check_lms_conditions(np.array([[1.0]]), mu=0.0, n_taps=1, h=1.0)
    # a record with energy: an infinite period once read as a degenerate one
    for h in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="period h"):
            check_lms_conditions(np.ones((8, 4)), mu=0.1, n_taps=4, h=h)


GRAM_RECORDS = [
    (0, 3, 4), (4, 3, 8), (127, 1, 8), (128, 32, 8), (129, 3, 8), (300, 1, 4),
    (300, 3, 8), (300, 32, 8), (129, 32, 1),
]


def _assert_reports_close(got, want):
    """Every field equal, but the Gram-derived values, which are within
    ``TOL.gram_lags``: the lag products sum each Gram entry in another order
    than the per-period lag matrices."""
    for field in fields(LmsConditionReport):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if field.name in ("gamma", "lambda_max", "mu_limit", "eps_realized"):
            assert g == pytest.approx(w, rel=TOL.gram_lags, abs=0.0), field.name
        else:
            assert g == w, field.name


@pytest.mark.parametrize("n_steps, L, n_taps", GRAM_RECORDS)
def test_checker_matches_per_period_loop(n_steps, L, n_taps):
    """Chunk edges, records shorter than the taps, and the empty record."""
    rng = np.random.default_rng(n_steps + 7 * L + n_taps)
    u = rng.normal(size=(n_steps, L)) * np.exp(rng.normal(size=(n_steps, 1)))
    for mu, h in ((0.1, 1.0), (2.5, 0.3)):
        got = check_lms_conditions(u, mu=mu, n_taps=n_taps, h=h)
        _assert_reports_close(got, oracles.reference_check_lms_conditions(u, mu, n_taps, h))


def test_checker_bound_survives_cancellation():
    """The first periods' increments are about 1e8 times the rest. A running
    sum of squared lag products, differenced, would lose the later windows'
    norms to rounding; the direct window sums bound every increment's
    eigenvalue from above, within rounding of its Frobenius norm, and the
    checker returns the reference's maxima at every read."""
    rng = np.random.default_rng(29)
    u = rng.normal(size=(400, 4))
    u[:20] *= 1e4
    k = 8
    for start, G, _ in adaptive._lag_sums(u, k, 1.0):
        bounds = adaptive._increment_bounds(G)
        M = adaptive._toeplitz(G, range(k, len(G)))
        tops = np.linalg.eigvalsh(M)[:, -1]
        norms = np.sqrt(np.einsum("mij,mij->m", M, M))
        assert np.all(bounds >= tops) and np.all(bounds <= norms * (1.0 + 1e-12))
    lam, inc = oracles.reference_condition_series(u, k, 1.0)
    reads = (1, 20, 21, 100, 301, 400)
    got = _condition_maxima(u, k, 1.0, reads)
    for n in reads:
        assert got[n] == pytest.approx((lam[n], inc[n]), rel=TOL.gram_lags, abs=0.0)
    _assert_reports_close(check_lms_conditions(u, mu=1e-9, n_taps=k, h=1.0),
                          oracles.reference_check_lms_conditions(u, 1e-9, k, 1.0))


def test_checker_at_64_taps_matches_per_period_loop():
    """A 64-tap check on a 2000 x 8 record: the lag products of 64 chunks of
    64 periods, each carrying the 64 periods before it."""
    u = _decaying_broadband()
    _assert_reports_close(check_lms_conditions(u, mu=1e-3, n_taps=64, h=0.5),
                          oracles.reference_check_lms_conditions(u, 1e-3, 64, 0.5))


@pytest.mark.parametrize("n_steps, L, n_taps", [
    (0, 8, 4), (0, 1, 1), (5, 8, 8), (127, 1, 300), (128, 1, 8), (128, 8, 8), (128, 32, 8),
    (129, 32, 1), (300, 1, 4), (300, 8, 8), (300, 32, 8), (300, 8, 200), ("x_d", 1, 8),
])
def test_lagged_chunks_equal_per_lag_stack(n_steps, L, n_taps):
    """The oracle's lag stack, filled one lag at a time in chunks, is the arm
    loop's lag windows bit for bit; ``x_d`` is the reference delay line's
    (N, 1) form."""
    rng = np.random.default_rng(7 * L + n_taps)
    u = rng.normal(size=300)[:, None] if n_steps == "x_d" else rng.normal(size=(n_steps, L))
    u[:1, :1] = -0.0  # the windows keep the sign of zero
    chunks = list(oracles.reference_lagged_chunks(u, n_taps))
    assert [s for s, _ in chunks] == list(range(0, len(u), oracles.REFERENCE_CHUNK_PERIODS))
    if len(u):
        windows = _lag_windows(u, n_taps)
        assert np.concatenate([v for _, v in chunks]).tobytes() == windows.transpose(0, 2, 1).tobytes()


@pytest.mark.parametrize("n_steps, L, n_taps", [r for r in GRAM_RECORDS if r[0] > 0])
def test_build_wiener_matches_lag_loop_and_checker(n_steps, L, n_taps):
    """One Gram matrix: the design problem's is the checker's final one."""
    rng = np.random.default_rng(n_steps + 7 * L + n_taps)
    u = rng.normal(size=(n_steps, L))
    d = rng.normal(size=(n_steps, L))
    h = 0.3
    problem = build_wiener(u, d, n_taps, n_steps * h, h, L)
    ref = oracles.reference_build_wiener(u, d, n_taps, n_steps * h, h, L)
    assert np.abs(problem.Phi - ref.Phi).max() <= TOL.gram_lags * np.abs(ref.Phi).max()
    assert np.abs(problem.beta - ref.beta).max() <= TOL.gram_lags * np.abs(ref.beta).max()
    assert problem.d_energy == ref.d_energy
    assert np.array_equal(problem.Phi, problem.Phi.T)
    # the checker decomposes the same Phi[N], gathered from the same lag sums
    report = check_lms_conditions(u, mu=0.1, n_taps=n_taps, h=h)
    assert report.lambda_max == np.linalg.eigvalsh(problem.Phi)[-1]


def test_running_gram_top_eigenvalue_is_monotone():
    """Growing the record can only grow the top eigenvalue (PSD increments)."""
    rng = np.random.default_rng(19)
    u = rng.normal(size=(30, 3))
    h, L, n_taps = 1.0, 3, 4
    tops = []
    for n in range(1, 31):
        problem = build_wiener(u[:n], np.zeros((n, L)), n_taps, float(n), h, L)
        tops.append(np.linalg.eigvalsh(problem.Phi)[-1])
    assert np.all(np.diff(tops) > -1e-12)


def _maxima_records():
    """(U, n_taps, h): the Gram records plus the shapes that stress the
    pruning of ``_condition_maxima`` (ties, plateaus, zeros, one spike)."""
    out = []
    for n_steps, L, n_taps in GRAM_RECORDS:
        rng = np.random.default_rng(n_steps + 7 * L + n_taps)
        u = rng.normal(size=(n_steps, L)) * np.exp(rng.normal(size=(n_steps, 1)))
        out += [pytest.param(u, n_taps, h, id=f"gram-{n_steps}-{L}-{n_taps}-h{h}") for h in (1.0, 0.3)]
    rng = np.random.default_rng(41)
    tail = rng.normal(size=(300, 4))
    tail[140:] = 0.0
    head = rng.normal(size=(300, 4))
    head[:150] = 0.0
    # from period ~340 the top eigenvalue moves by rounding, up and down, and
    # after ~400 the increments no longer change the running sums at all
    decay = rng.normal(size=(500, 2)) * np.exp(-0.05 * np.arange(500))[:, None]
    spike = rng.normal(size=(300, 3))
    spike[170] *= 1e6
    # exact periods: every increment is one of a few. With one cell and a
    # period of n_taps, the lag vectors are rotations of one another, so the
    # increments tie in exact arithmetic, their eigenvalues equal their
    # Frobenius norms, and rounding alone orders them
    rotations = [np.tile(np.random.default_rng(1).normal(size=(n, 1)), (200 // n + 1, 1))[:200] for n in (6, 8)]
    blocks = np.tile(rng.normal(size=(5, 3)), (60, 1))
    out += [
        pytest.param(np.zeros((200, 4)), 8, 1.0, id="zero"),
        pytest.param(tail, 8, 1.0, id="zero-tail"),
        pytest.param(head, 8, 1.0, id="zero-head"),
        pytest.param(decay, 8, 1.0, id="plateau"),
        pytest.param(spike, 8, 0.5, id="spike"),
        pytest.param(rotations[0], 6, 1.0, id="periodic-rotations-6"),
        pytest.param(rotations[1], 8, 1.0, id="periodic-rotations-8"),
        pytest.param(blocks, 4, 1.0, id="periodic-blocks"),
        pytest.param(rng.normal(size=(5, 3)), 8, 1.0, id="taps-beyond-record"),
        # increments below the smallest normal double: their squares underflow
        pytest.param(rng.normal(size=(300, 3)) * 1e-158, 8, 1.0, id="subnormal"),
    ]
    return out


@pytest.mark.parametrize("u, n_taps, h", _maxima_records())
def test_condition_maxima_equal_full_series_at_every_truncation(u, n_taps, h):
    """The full per-period series within ``TOL.gram_lags`` of its largest
    value, and read alone at each n the same bits as all at once.

    lambda_max(Phi[n]) is read at n itself: PSD increments make it the
    prefix maximum (Weyl's inequality), up to rounding."""
    lam, inc = oracles.reference_condition_series(u, n_taps, h)
    prefix = np.maximum.accumulate(lam)
    assert np.all(prefix - lam <= 1e-14 * prefix)
    together = _condition_maxima(u, n_taps, h, range(u.shape[0] + 1))
    assert sorted(together) == list(range(u.shape[0] + 1))
    got = np.array([together[n] for n in range(u.shape[0] + 1)])
    for series, want in zip(got.T, (lam, inc)):
        assert np.all(np.abs(series - want) <= TOL.gram_lags * np.abs(want).max())
        assert np.array_equal(series == 0.0, want == 0.0)
    for n in range(u.shape[0] + 1):
        assert np.array(_condition_maxima(u, n_taps, h, [n])[n]).tobytes() == np.array(together[n]).tobytes(), n


def _decaying_broadband(n_steps=2000, L=8):
    rng = np.random.default_rng(2)
    return rng.standard_normal((n_steps, L)) * np.exp(-0.002 * np.arange(n_steps))[:, None]


def test_checker_decomposes_few_matrices(monkeypatch):
    """Bounds leave most increments undecomposed, and a read decomposes its
    running Gram matrix alone (the full series took 2 T = 4000). On the
    default noise at T = 2000, L = 32 the top eigenvalue stalls within
    rounding over the last few hundred periods, and a compare there still
    decomposes only a handful."""
    counted = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        counted.append(int(np.prod(np.shape(a)[:-2])))
        return real(a, *args, **kwargs)

    u = _decaying_broadband()
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    check_lms_conditions(u, mu=0.02, n_taps=8, h=1.0)
    assert 0 < sum(counted) <= 200
    counted.clear()
    comparison = run_comparison(SimConfig().with_overrides(T=2000.0, L=32))
    assert comparison.proposed.lms_report is not None and comparison.conventional.lms_report is not None
    assert 0 < sum(counted) <= 16


def test_checker_memory_stays_at_one_chunk():
    """No full-horizon (T, n_taps, n_taps) stack: it alone would be 1 MiB here."""
    u = _decaying_broadband()
    tracemalloc.start()
    try:
        check_lms_conditions(u, mu=0.02, n_taps=8, h=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 << 10


@pytest.mark.parametrize("values", [1, 200, 1000, 5000])
def test_condition_maxima_keep_their_bits_in_smaller_chunks(values, monkeypatch):
    """A smaller value budget shrinks the lag sums' chunks, down to n_taps
    periods, and every read keeps its bits: each period's lag products are
    one product whatever the chunk, and cumsum adds in period order."""
    rng = np.random.default_rng(23)
    spike = rng.normal(size=(300, 3))
    spike[170] *= 1e6
    records = [(rng.normal(size=(300, 3)), 8, 1.0), (spike, 8, 0.5), (_decaying_broadband(400, 4), 5, 0.3)]
    want = [_condition_maxima(u, n_taps, h, range(len(u) + 1)) for u, n_taps, h in records]
    starts = []
    real = adaptive._lag_sums

    def recording(*args):
        for chunk in real(*args):
            starts.append(chunk[0])
            yield chunk

    monkeypatch.setattr(adaptive, "_GRAM_VALUES", values)
    monkeypatch.setattr(adaptive, "_lag_sums", recording)
    for (u, n_taps, h), w in zip(records, want):
        assert _condition_maxima(u, n_taps, h, range(len(u) + 1)) == w
    assert starts == [s for u, n_taps, _ in records
                      for s in range(0, len(u), max(n_taps, values // n_taps - n_taps))]


def test_checker_memory_is_bounded_at_many_taps():
    """At 300 taps one Gram matrix is 720 KB: the lag sums keep one row of
    300 values a period and the peak under 20 MiB, where 60 running Gram
    matrices in one chunk took 42 MiB."""
    u = _decaying_broadband(60, 4)
    tracemalloc.start()
    try:
        report = check_lms_conditions(u, mu=1e-4, n_taps=300, h=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_reports_close(report, oracles.reference_check_lms_conditions(u, 1e-4, 300, 1.0))
    assert peak <= 20 << 20
