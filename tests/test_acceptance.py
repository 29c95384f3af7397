"""Acceptance gate: one test per release criterion, numbered 01 to 10.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. Each test pins its tolerances and runtime budgets as
module constants below; fixtures come from conftest and the independent
reference implementations in oracles.py.
"""

import filecmp
import os
import time

import numpy as np
import pytest

import oracles
from conftest import random_stable_siso
from ancsim import (
    SimConfig,
    WienerProblem,
    build_wiener,
    check_lms_conditions,
    discretize_lifted,
    gradient,
    j_value,
    parseval_check,
    run_comparison,
    run_mu_sweep,
    run_single,
    sd_run,
    spectral_bound,
    wiener_solve,
)
from ancsim.cli import main as cli_main

# The BUDGET_*_S values are CPU seconds of this process (time.process_time),
# so a loaded host does not fail them.

# criterion 01: blocked discretization against independent references
N_PLANTS = 20
N_PERIODS = 100
TOL_TRAJECTORY_REL = 1e-7
TOL_MATRICES = 1e-9
BUDGET_LIFT_S = 10.0

# criterion 02: optimality of the closed-form tap solution
N_WIENER_PROBLEMS = 10
TOL_GRADIENT_REL = 1e-8
N_PERTURBATIONS = 100
PERTURBATION_SIZE = 1e-3

# criterion 03: steepest-descent stability boundary
N_SD_PROBLEMS = 10
TOL_SD_CONVERGED = 1e-6
SD_STEP_BUDGET = 100_000
DIVERGENCE_NORM = 1e6
DIVERGENCE_STEP_BUDGET = 10_000

# criterion 04: Gram eigenvalues under the aliased-spectrum supremum
N_BOUND_SIGNALS = 10
EIG_SLACK = 1e-6
HORIZONS = (50, 100, 200)

# criterion 05: lag-zero Gram entry against the spectrum integral
TOL_PARSEVAL_REL = 1e-2

# criterion 06: benchmark error ratio, blocked vs conventional arm
RATIO_LIMIT = 0.85
BUDGET_BENCH_S = 60.0

# criterion 07: usable step-size range widening in the sweep
WIDENING_MIN = 1.2
SWEEP_POINTS = 20
BUDGET_SWEEP_S = 600.0

# criterion 08: update-direction bookkeeping
N_CHECKPOINTS = 10
TOL_DIRECTION = 1e-10
TOL_BASELINE = 1e-12

# criterion 09 reuses the configured thresholds; criterion 10 is exact.


def _report(num: int, detail: str) -> None:
    print(f"acceptance {num:02d}: PASS ({detail})")


def _record_u(secondary, xd_samples, h, L):
    """Open-loop regressor block record for a given reference sequence."""
    lift = discretize_lifted(secondary, h, L)
    eta = np.zeros(secondary.nstates)
    out = np.empty((len(xd_samples), L))
    for n, x in enumerate(xd_samples):
        eta, out[n] = oracles.fh_step(lift, eta, x)
    return out


def _damped_bank(rng, h, n_steps, decay_low, decay_high):
    """Random damped-sinusoid reference sampled on the period grid."""
    t = np.arange(n_steps) * h
    n_terms = int(rng.integers(3, 6))
    x = np.zeros(n_steps)
    for _ in range(n_terms):
        a = rng.uniform(0.5, 1.5)
        w = rng.uniform(0.2, 2.8)
        s = rng.uniform(decay_low, decay_high)
        p = rng.uniform(0.0, 2.0 * np.pi)
        x += a * np.exp(-s * t) * np.cos(w * t + p)
    return x


def test_criterion_01_lifting_matches_ode_and_quadrature():
    """Blocked recursion reproduces a fine RK integration and the matrices
    match adaptive quadrature, for 20 randomized stable plants."""
    rng = np.random.default_rng(2026_08_01)
    h, L = 0.5, 4
    t0 = time.process_time()
    worst_traj = 0.0
    worst_mat = 0.0
    for _ in range(N_PLANTS):
        plant = random_stable_siso(rng)
        lift = discretize_lifted(plant, h, L)
        xd = rng.standard_normal(N_PERIODS)

        eta = np.zeros(plant.nstates)
        states = np.empty((N_PERIODS, plant.nstates))
        for n, x in enumerate(xd):
            eta, _ = oracles.fh_step(lift, eta, x)
            states[n] = eta
        ref_states = oracles.held_states_rk(plant, xd, h)
        c_row = plant.C.reshape(-1)
        for got, ref in ((states, ref_states), (states @ c_row, ref_states @ c_row)):
            rel = np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-30)
            worst_traj = max(worst_traj, rel)

        lam_prev = np.zeros(plant.nstates)
        theta_prev = 0.0
        for l in range(L):
            tau = (l + 1) * h / L
            gam, lam, theta = oracles.transition_integrals(plant.A, plant.B, plant.C, tau)
            for got, ref in (
                (lift.Ch[l], lam[0] - lam_prev),
                (np.atleast_1d(lift.Dh[l]), np.atleast_1d(theta[0, 0] - theta_prev)),
            ):
                err = np.abs(got - ref).max() / max(1.0, np.abs(ref).max())
                worst_mat = max(worst_mat, err)
            lam_prev = lam[0].copy()
            theta_prev = theta[0, 0]
            if l == L - 1:
                for got, ref in (
                    (lift.Ah, oracles.expm_ref(plant.A * h)),
                    (lift.Bh, gam[:, 0]),
                ):
                    err = np.abs(got - ref).max() / max(1.0, np.abs(ref).max())
                    worst_mat = max(worst_mat, err)
    cpu = time.process_time() - t0

    assert worst_traj <= TOL_TRAJECTORY_REL
    assert worst_mat <= TOL_MATRICES
    assert cpu < BUDGET_LIFT_S
    _report(1, f"trajectory {worst_traj:.2e}, matrices {worst_mat:.2e}, {cpu:.2f} s CPU")


def test_criterion_02_tap_solution_is_stationary_minimum():
    """Closed-form taps zero the gradient and beat 100 nearby tap vectors
    on 10 random quadratic problems."""
    rng = np.random.default_rng(2026_08_02)
    worst_grad = 0.0
    for _ in range(N_WIENER_PROBLEMS):
        n = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = np.exp(rng.uniform(np.log(1e-2), np.log(10.0), n))
        phi = q @ np.diag(eigs) @ q.T
        phi = 0.5 * (phi + phi.T)
        beta = rng.standard_normal(n)
        alpha_star = np.linalg.solve(phi, beta)
        problem = WienerProblem(
            Phi=phi, beta=beta, horizon=50.0, d_energy=float(beta @ alpha_star) + 0.5
        )

        alpha_hat = wiener_solve(problem).taps
        grad_rel = np.linalg.norm(gradient(problem, alpha_hat)) / np.linalg.norm(beta)
        worst_grad = max(worst_grad, grad_rel)

        j_opt = j_value(problem, alpha_hat)
        for _ in range(N_PERTURBATIONS):
            step = rng.standard_normal(n)
            step *= PERTURBATION_SIZE / np.linalg.norm(step)
            assert j_opt <= j_value(problem, alpha_hat + step)
    assert worst_grad <= TOL_GRADIENT_REL
    _report(2, f"worst gradient ratio {worst_grad:.2e}")


def _random_sd_problem(rng):
    """Quadratic problem from an open-loop record plus its spectrum peak."""
    plant = random_stable_siso(rng)
    h, L, n_steps = 1.0, 8, 200
    n_taps = int(rng.integers(3, 9))
    xd = _damped_bank(rng, h, n_steps, 0.02, 0.06)
    blocks = _record_u(plant, xd, h, L)
    base = build_wiener(blocks, np.zeros((n_steps, L)), n_taps, n_steps * h, h, L)
    alpha_true = rng.standard_normal(n_taps)
    beta = base.Phi @ alpha_true
    problem = WienerProblem(
        Phi=base.Phi,
        beta=beta,
        horizon=float(n_steps) * h,
        d_energy=float(beta @ alpha_true) + 1.0,
    )
    s_inf = spectral_bound(plant, xd, h).peak
    return problem, alpha_true, s_inf


def test_criterion_03_steepest_descent_stability_boundary():
    """Step 1.8 over the spectrum peak converges to the optimum; step 2.5
    over the top Gram eigenvalue diverges, on 10 randomized problems."""
    rng = np.random.default_rng(2026_08_03)
    worst_err = 0.0
    for _ in range(N_SD_PROBLEMS):
        problem, alpha_true, s_inf = _random_sd_problem(rng)
        lam_max = float(np.linalg.eigvalsh(problem.Phi)[-1])
        assert lam_max <= s_inf + EIG_SLACK

        hist = sd_run(
            problem,
            np.zeros(problem.n_taps),
            1.8 / s_inf,
            SD_STEP_BUDGET,
            record_every=SD_STEP_BUDGET,
        )
        err = float(np.linalg.norm(hist[-1] - alpha_true))
        worst_err = max(worst_err, err)

        n_div = 400
        assert n_div <= DIVERGENCE_STEP_BUDGET
        hist_div = sd_run(
            problem, np.zeros(problem.n_taps), 2.5 / lam_max, n_div, record_every=n_div
        )
        assert float(np.linalg.norm(hist_div[-1])) > DIVERGENCE_NORM
    assert worst_err <= TOL_SD_CONVERGED
    _report(3, f"worst converged error {worst_err:.2e}, all divergent runs blew past 1e6")


def test_criterion_04_gram_eigenvalues_under_spectrum_peak():
    """Top Gram eigenvalue stays below the aliased-spectrum supremum and
    the residual gap shrinks monotonically as the horizon doubles."""
    rng = np.random.default_rng(2026_08_04)
    h, L = 1.0, 8
    for _ in range(N_BOUND_SIGNALS):
        plant = random_stable_siso(rng)
        xd = _damped_bank(rng, h, max(HORIZONS), 0.04, 0.08)
        blocks = _record_u(plant, xd, h, L)
        s_inf = spectral_bound(plant, xd, h).peak
        gaps = []
        for horizon in HORIZONS:
            problem = build_wiener(
                blocks[:horizon], np.zeros((horizon, L)), 8, float(horizon), h, L
            )
            lam_max = float(np.linalg.eigvalsh(problem.Phi)[-1])
            assert lam_max <= s_inf + EIG_SLACK
            gaps.append(s_inf - lam_max)
        assert gaps[0] > gaps[1] > gaps[2]
    _report(4, f"bound held with slack {EIG_SLACK} and the gap shrank for all signals")


def test_criterion_05_lag_zero_energy_matches_spectrum_integral():
    """Gram entry (0, 0) matches the spectrum integral within 1e-2 on the
    default grids, and refining every grid improves the match."""
    config = SimConfig().with_overrides(noise_decay_rates=(0.15,) * 4)
    sec = config.secondary()
    xd = oracles.sample_grid(config.make_generator(), config.h, config.n_steps)
    rels = []
    for grid_size, L in ((4096, 8), (16384, 16)):
        blocks = _record_u(sec, xd, config.h, L)
        problem = build_wiener(
            blocks, np.zeros((config.n_steps, L)), 8, config.T, config.h, L
        )
        bound = spectral_bound(sec, xd, config.h, grid_size=grid_size)
        rels.append(parseval_check(problem, bound).entry00_rel)
    assert rels[0] < TOL_PARSEVAL_REL
    assert rels[1] < rels[0]
    _report(5, f"default grids {rels[0]:.2e}, refined {rels[1]:.2e}")


def test_criterion_06_benchmark_error_ratio():
    """Blocked arm beats the conventional arm by the required margin on the
    default benchmark, inside the runtime budget."""
    t0 = time.process_time()
    result = run_comparison(SimConfig())
    cpu = time.process_time() - t0
    assert not result.proposed.diverged
    assert not result.conventional.diverged
    assert result.ratio < RATIO_LIMIT
    assert cpu < BUDGET_BENCH_S
    _report(6, f"ratio {result.ratio:.4f}, {cpu:.2f} s CPU")


def test_criterion_07_step_size_range_widening():
    """Largest stable step size of the blocked arm exceeds the conventional
    arm by the required factor over the default 20-point sweep."""
    config = SimConfig()
    assert len(config.mu_list) == SWEEP_POINTS
    t0 = time.process_time()
    result = run_mu_sweep(config)
    cpu = time.process_time() - t0
    assert np.isfinite(result.mu_max_proposed)
    assert np.isfinite(result.mu_max_conventional)
    assert result.widening >= WIDENING_MIN
    assert cpu < BUDGET_SWEEP_S
    _report(
        7,
        f"widening {result.widening:.2f} "
        f"({result.mu_max_proposed} vs {result.mu_max_conventional}), {cpu:.2f} s CPU",
    )


def test_criterion_08_update_direction_integrity(benchmark_run, default_config):
    """Recursive update direction equals a from-scratch recomputation at 10
    checkpoints, and the single-cell path equals the independent baseline."""
    config = default_config
    result = benchmark_run
    e_alg = result.trace.e.reshape(result.n_completed, config.L)
    checkpoints = list(range(10, result.n_completed, 10))[: N_CHECKPOINTS - 1]
    for n in checkpoints:
        want = oracles.scratch_direction(result.u_alg_blocks, e_alg, config.n_taps, n)
        diff = np.abs(result.delta_hist[n] - want).max()
        assert diff <= TOL_DIRECTION * max(1.0, np.abs(want).max())
    want = oracles.scratch_direction(
        result.u_alg_blocks, e_alg, config.n_taps, result.n_completed
    )
    assert np.abs(result.final_delta - want).max() <= TOL_DIRECTION * max(
        1.0, np.abs(want).max()
    )
    assert len(checkpoints) + 1 == N_CHECKPOINTS

    single = config.with_overrides(L=1)
    got = run_single(single)
    ref = oracles.run_conventional_fxlms(
        secondary=single.secondary(),
        primary=single.primary(),
        generator=single.make_generator(),
        h=single.h,
        n_taps=single.n_taps,
        mu=single.mu,
        n_steps=single.n_steps,
    )
    n = got.n_completed
    assert n == single.n_steps
    assert np.abs(got.alpha_hist - ref.alpha_hist[:n]).max() <= TOL_BASELINE
    assert np.abs(got.trace.e - ref.e_samples[:n]).max() <= TOL_BASELINE
    assert np.abs(got.trace.w - ref.w_samples[:n]).max() <= TOL_BASELINE
    assert np.abs(got.u_alg_blocks[:, 0] - ref.u_integrals[:n]).max() <= TOL_BASELINE
    _report(8, f"{N_CHECKPOINTS} checkpoints and {n} baseline periods matched")


def test_criterion_09_condition_checker_splits_runs(benchmark_run, default_config):
    """Converging benchmark run passes all three conditions; an oversized
    step size fails the step condition on its own diverging run."""
    report = benchmark_run.lms_report
    assert report is not None
    assert not benchmark_run.diverged
    assert report.bounded_ok and report.step_ok and report.slow_ok
    assert report.all_ok
    assert report.eps_threshold == default_config.eps_threshold

    bad = run_single(default_config.with_overrides(mu=100.0, T=40.0))
    assert bad.diverged
    assert bad.lms_report is not None
    assert not bad.lms_report.step_ok
    assert not bad.lms_report.all_ok
    _report(
        9,
        f"converging mu {benchmark_run.mu} passed, diverging mu {bad.mu} "
        "failed the step condition",
    )


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    """Two harness invocations with the same config and seed write byte
    identical CSV files."""
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text("sim.seed = 424242\nsim.T = 100\n")
    dirs = [str(tmp_path / "first"), str(tmp_path / "second")]
    for out_dir in dirs:
        code = cli_main(["run", "--config", str(cfg), "--out", out_dir])
        assert code == 0
    capsys.readouterr()
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    assert mismatch == [] and errors == []
    assert sorted(match) == names
    _report(10, f"{len(names)} files byte-identical across reruns")
