"""Blocked discretization, the hybrid loop's exogenous record and its per-period arm maps."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import ancsim
import oracles
from conftest import random_stable_siso
from ancsim import (
    AutonomousGenerator,
    ContinuousStateSpace,
    DimensionError,
    HeldWaveform,
    HybridLoop,
    SimTrace,
    discretize_lifted,
    l2_norm,
    vanloan,
)
from ancsim import adaptive, lifting, statespace
from ancsim.tolerances import TOL


def lag(pole=1.0):
    return ContinuousStateSpace(A=[[-pole]], B=[[1.0]], C=[[1.0]])


def integrator():
    return ContinuousStateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]])


# ---------------------------------------------------------------------------
# blocked discretization


def test_lifted_integrator_closed_form():
    lift = discretize_lifted(integrator(), 1.0, 2)
    assert abs(lift.Ah[0, 0] - 1.0) < 1e-15
    assert abs(lift.Bh[0] - 1.0) < 1e-14
    assert np.allclose(lift.Ch[:, 0], [0.5, 0.5], atol=1e-14)
    assert np.allclose(lift.Dh, [0.125, 0.375], atol=1e-14)


def test_lifted_lag_closed_form():
    lift = discretize_lifted(lag(1.0), 1.0, 1)
    e1 = np.exp(-1.0)
    assert abs(lift.Ah[0, 0] - e1) < 1e-14
    assert abs(lift.Bh[0] - (1.0 - e1)) < 1e-14
    assert abs(lift.Ch[0, 0] - (1.0 - e1)) < 1e-14
    assert abs(lift.Dh[0] - e1) < 1e-14


def test_row_sums_telescope_to_one_period():
    rng = np.random.default_rng(41)
    sys = random_stable_siso(rng, max_states=7)
    h = 0.8
    lift = discretize_lifted(sys, h, 5)
    vl = vanloan(sys, h)
    assert np.abs(lift.Ch.sum(axis=0) - vl.Lambda[0]).max() < TOL.telescoping
    assert abs(lift.Dh.sum() - vl.Theta[0, 0]) < TOL.telescoping


def test_refining_cells_preserves_coarse_rows():
    rng = np.random.default_rng(42)
    sys = random_stable_siso(rng, max_states=6)
    coarse = discretize_lifted(sys, 1.0, 4)
    fine = discretize_lifted(sys, 1.0, 8)
    paired_c = fine.Ch[0::2] + fine.Ch[1::2]
    paired_d = fine.Dh[0::2] + fine.Dh[1::2]
    scale = max(1.0, np.abs(coarse.Ch).max())
    assert np.abs(paired_c - coarse.Ch).max() < TOL.block_refinement * scale
    assert np.abs(paired_d - coarse.Dh).max() < TOL.block_refinement


@pytest.mark.parametrize("L", [1, 2, 8, 32, 512])
def test_discretize_matches_per_endpoint_reference(L):
    """The one-cell construction reproduces the differenced cumulative integrals.

    The reference loses digits when it differences integrals that grow with
    the cell index, so the stated tolerance is TOL.block_refinement * L,
    relative to each block's largest entry.
    """
    rng = np.random.default_rng(500 + L)
    for _ in range(20):
        sys = random_stable_siso(rng, max_states=8)
        h = float(rng.uniform(0.3, 1.5))
        got = discretize_lifted(sys, h, L)
        want = oracles.reference_discretize_lifted(sys, h, L)
        for name in ("Ah", "Bh", "Ch", "Dh"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape, name
            assert np.abs(a - b).max() <= TOL.block_refinement * L * np.abs(b).max(), name


@pytest.mark.parametrize("L", [1, 3, 8, 32])
def test_cell_maps_match_scipy_reference(L):
    """Sample rows, sample input map and state input map equal the oracle's,
    built from one SciPy exponential per lag, at TOL.block_refinement * L
    relative to each map's largest entry."""
    rng = np.random.default_rng(900 + L)
    for _ in range(20):
        sys = random_stable_siso(rng, max_states=8)
        h = float(rng.uniform(0.3, 1.5))
        got = discretize_lifted(sys, h, L)
        want = oracles.reference_cell_maps(sys, h, L)
        for name, b in zip(("sample_rows", "sample_input", "state_input"), want):
            a = getattr(got, name)
            assert a.shape == b.shape, name
            assert np.abs(a - b).max() <= TOL.block_refinement * L * np.abs(b).max(), name
        assert not got.sample_input[np.triu_indices(L)].any()


@pytest.mark.parametrize("h, L", [(0.0, 4), (-1.0, 4), (np.nan, 4), (np.inf, 4),
                                  (1.0, 0), (1.0, 4.5), (1.0, np.nan), (1.0, np.inf)])
def test_period_and_cells_rejected(h, L):
    """A period that is not positive and finite, or a cell count that is not a
    positive integer, raises one ValueError naming it, without a warning."""
    sec, pri, gen = bench_small()
    name = "period h" if L == 4 else "cells per period L"
    with pytest.raises(ValueError, match=name):
        discretize_lifted(sec, h, L)
    with pytest.raises(ValueError, match=name):
        HybridLoop(sec, pri, gen, h=h, L=L)


def test_whole_float_cell_count_accepted():
    sec, pri, gen = bench_small()
    loop = HybridLoop(sec, pri, gen, h=2, L=4.0)
    assert loop.L == 4 and type(loop.L) is int and type(loop.h) is float
    lift = discretize_lifted(sec, 2, 4.0)
    assert lift.L == 4 and type(lift.L) is int and type(lift.h) is float
    record = loop.exogenous(2)
    trace = SimTrace(h=loop.h, L=loop.L, x_d=record.x_d, y_d=np.zeros(2), x=record.x.ravel(),
                     d=record.d.ravel(), w=np.zeros(8), e=record.d.ravel(), u=record.u.ravel(),
                     u_blocks=record.u_blocks)
    assert oracles.t_fast(trace).tobytes() == (np.arange(8) * 0.5).tobytes()


def _count_expm(monkeypatch) -> list:
    calls = []

    def counting(m):
        calls.append(np.shape(m))
        return real_expm(m)

    real_expm = statespace.expm
    monkeypatch.setattr(statespace, "expm", counting)
    monkeypatch.setattr(lifting, "expm", counting)
    return calls


def test_discretize_runs_two_exponentials(monkeypatch):
    calls = _count_expm(monkeypatch)
    discretize_lifted(lag(), 1.0, 16)
    assert len(calls) == 2


@pytest.mark.parametrize("kind", ["autonomous", "held"])
@pytest.mark.parametrize("L", [1, 8, 32])
def test_loop_build_runs_four_exponentials(kind, L, monkeypatch):
    """One exponential per plant at the cell width and one at the period, at every L."""
    sec, pri, gen = bench_small()
    if kind == "held":
        gen = HeldWaveform(values=np.zeros(4 * L), dt=1.0 / L)
    calls = _count_expm(monkeypatch)
    HybridLoop(sec, pri, gen, h=1.0, L=L)
    assert len(calls) == 4


def test_state_matrix_spectrum_maps_poles():
    rng = np.random.default_rng(43)
    sys = random_stable_siso(rng)
    h = 0.6
    lift = discretize_lifted(sys, h, 3)
    got = np.sort_complex(np.linalg.eigvals(lift.Ah))
    want = np.sort_complex(np.exp(h * sys.poles))
    assert np.abs(got - want).max() < 1e-10
    assert np.abs(got).max() < 1.0


def test_discretize_rejects_bad_plants():
    """A plant with feedthrough or two inputs never reaches the lifting: the
    plant type refuses it when it is built."""
    with pytest.raises(TypeError):
        discretize_lifted(
            ContinuousStateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]]), 1.0, 2
        )
    with pytest.raises(DimensionError):
        discretize_lifted(ContinuousStateSpace(A=-np.eye(2), B=np.eye(2), C=[[1.0, 0.0]]), 1.0, 2)


# ---------------------------------------------------------------------------
# blocked recursion


def test_fh_step_zero_everything():
    lift = discretize_lifted(lag(), 1.0, 3)
    eta, U = oracles.fh_step(lift, np.zeros(1), 0.0)
    assert np.all(eta == 0.0) and np.all(U == 0.0)


def test_fh_step_rejects_wrong_state_shape():
    lift = discretize_lifted(lag(), 1.0, 3)
    with pytest.raises(DimensionError):
        oracles.fh_step(lift, np.zeros(2), 0.0)


def test_fh_step_linearity():
    rng = np.random.default_rng(44)
    sys = random_stable_siso(rng, max_states=5)
    lift = discretize_lifted(sys, 1.0, 4)
    eta1 = rng.normal(size=sys.nstates)
    eta2 = rng.normal(size=sys.nstates)
    x1, x2 = 0.7, -1.3
    n1, u1 = oracles.fh_step(lift, eta1, x1)
    n2, u2 = oracles.fh_step(lift, eta2, x2)
    n3, u3 = oracles.fh_step(lift, 2.0 * eta1 - eta2, 2.0 * x1 - x2)
    assert np.abs(2.0 * n1 - n2 - n3).max() < TOL.linearity * max(1.0, np.abs(n3).max())
    assert np.abs(2.0 * u1 - u2 - u3).max() < TOL.linearity * max(1.0, np.abs(u3).max())


def test_blocks_match_dense_rk_quadrature():
    """Per-cell integrals of the held response equal the oracle's quadrature."""
    rng = np.random.default_rng(45)
    sys = random_stable_siso(rng, max_states=5)
    h, L, n_periods = 1.0, 4, 5
    x_held = rng.normal(size=n_periods)
    lift = discretize_lifted(sys, h, L)
    eta = np.zeros(sys.nstates)
    got = np.empty((n_periods, L))
    for n in range(n_periods):
        eta, got[n] = oracles.fh_step(lift, eta, x_held[n])
    want = oracles.held_cell_integrals_rk(sys, x_held, h, L)
    assert np.abs(got - want).max() < 1e-8


def test_states_match_rk_oracle():
    rng = np.random.default_rng(46)
    for _ in range(3):
        sys = random_stable_siso(rng, max_states=6)
        h = float(rng.uniform(0.3, 1.2))
        lift = discretize_lifted(sys, h, 2)
        x_held = rng.normal(size=40)
        eta = np.zeros(sys.nstates)
        states = np.empty((40, sys.nstates))
        for n in range(40):
            eta, _ = oracles.fh_step(lift, eta, x_held[n])
            states[n] = eta
        want = oracles.held_states_rk(sys, x_held, h)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(states - want).max() / scale < TOL.lifted_vs_ode


# ---------------------------------------------------------------------------
# hybrid closed loop


def bench_small():
    """Small plants and a two-tone source for quick loop tests."""
    sec = ContinuousStateSpace(
        A=[[-0.4, 1.5], [-1.5, -0.4]], B=[[0.0], [1.0]], C=[[1.0, 0.0]]
    )
    pri = ContinuousStateSpace(
        A=[[-0.6, 2.2], [-2.2, -0.6]], B=[[0.0], [1.0]], C=[[1.3, 0.2]]
    )
    gen = AutonomousGenerator.damped_sinusoids(
        amplitudes=[1.0, 0.5],
        frequencies=[0.9, 2.3],
        decay_rates=[0.02, 0.05],
        phases=[0.3, 1.1],
    )
    return sec, pri, gen


def delay_line(x_d, n: int, n_taps: int) -> np.ndarray:
    """The FIR filter's input at period n, newest first (zero before the record)."""
    return np.array([x_d[n - k] if n >= k else 0.0 for k in range(n_taps)])


def step(loop, zeta, taps, xd_hist):
    """One period of the anti-noise path as the arm loop runs it, for (A, n)
    states, (A, n_taps) taps and an (n_taps,) delay line: the filter outputs
    from the stacked tap product, the next states from the state rows of an
    ``arm_maps`` map and the anti-noise from ``anti_noise``. Returns the next
    states (A, n), the filter outputs (A,) and the anti-noise (A, L)."""
    A, n = zeta.shape
    v = np.zeros((A, n + 2, 1))
    np.matmul(np.asarray(taps, dtype=float)[:, None, :], xd_hist[:, None], out=v[:, :1])
    v[:, 1:n + 1, 0], v[:, n + 1] = zeta, 1.0
    maps = loop.arm_maps(np.zeros((1, 1, loop.L)), np.zeros((1, loop.L)), 0, np.empty((1, n + 2, n + 2)))
    y, w, e = np.empty((A, 1, 1)), np.empty((A, loop.L, 1)), np.empty((A, loop.L, 1))
    loop.anti_noise(v, 0.0, y, w, e)
    return (maps[0] @ v)[:, :n, 0], y[:, 0, 0], w[:, :, 0]


def test_open_loop_error_equals_disturbance():
    sec, pri, gen = bench_small()
    loop = HybridLoop(sec, pri, gen, h=1.0, L=4)
    record = loop.exogenous(6)
    zeta = np.zeros((2, sec.nstates))
    for n in range(6):
        zeta, y_d, w_fast = step(loop, zeta, np.zeros((2, 3)), delay_line(record.x_d, n, 3))
        assert np.all(y_d == 0.0)
        assert np.all(w_fast == 0.0) and w_fast.shape == (2, 4)
        assert np.allclose(record.d[n] - w_fast, record.d[n], atol=0.0)


def test_open_loop_disturbance_matches_ivp_oracle():
    """Fast d samples agree with an independent stiff-free ODE solve."""
    sec, pri, gen = bench_small()
    h, L, n_steps = 1.0, 4, 8
    loop = HybridLoop(sec, pri, gen, h=h, L=L)
    record = loop.exogenous(n_steps)
    d_got = record.d.ravel()
    x_got = record.x.ravel()

    ng = gen.nstates
    joint_a = np.zeros((ng + pri.nstates, ng + pri.nstates))
    joint_a[:ng, :ng] = gen.A
    joint_a[ng:, ng:] = pri.A
    joint_a[ng:, :ng] = pri.B @ gen.C.reshape(1, -1)
    z0 = np.concatenate([gen.x0, np.zeros(pri.nstates)])
    t_eval = np.arange(n_steps * L) * (h / L)
    sol = solve_ivp(
        lambda _, y: joint_a @ y,
        (0.0, t_eval[-1] + 1e-9),
        z0,
        t_eval=t_eval,
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    d_want = (pri.C @ sol.y[ng:]).ravel()
    x_want = (gen.C @ sol.y[:ng]).ravel()
    assert np.abs(d_got - d_want).max() < 1e-9
    assert np.abs(x_got - x_want).max() < 1e-9
    assert np.array_equal(record.x_d, record.x[:, 0])


def test_silent_generator_keeps_everything_zero():
    sec, pri, _ = bench_small()
    loop = HybridLoop(sec, pri, AutonomousGenerator.silent(), h=1.0, L=2)
    record = loop.exogenous(4)
    zeta = np.zeros((1, sec.nstates))
    for n in range(4):
        zeta, _, w_fast = step(loop, zeta, np.array([[0.4, -0.2]]), delay_line(record.x_d, n, 2))
        assert record.x_d[n] == 0.0
        assert np.all(record.d[n] - w_fast == 0.0)
    assert not np.any(record.u_blocks) and not np.any(record.u)


def test_identity_paths_cancel_with_unit_tap():
    """Period-held waveform through matched paths cancels with tap [1, 0]."""
    sec, _, _ = bench_small()
    h, L, n_steps = 1.0, 4, 30
    rng = np.random.default_rng(47)
    xd = rng.normal(size=n_steps)
    wave = HeldWaveform(values=np.repeat(xd, L), dt=h / L)
    loop = HybridLoop(sec, sec, wave, h=h, L=L)
    record = loop.exogenous(n_steps)
    assert np.array_equal(record.x_d, xd)
    zeta = np.zeros((1, sec.nstates))
    taps = np.array([[1.0, 0.0]])
    worst = 0.0
    for n in range(n_steps):
        zeta, _, w_fast = step(loop, zeta, taps, delay_line(record.x_d, n, 2))
        worst = max(worst, float(np.abs(record.d[n] - w_fast).max()))
    assert worst < 1e-10


def _random_source(rng, kind, h, L, n_periods):
    if kind == "autonomous":
        k = int(rng.integers(1, 4))
        return AutonomousGenerator.damped_sinusoids(
            amplitudes=rng.uniform(0.2, 2.0, k),
            frequencies=rng.uniform(0.2, 3.0, k),
            decay_rates=rng.uniform(0.0, 0.05, k),
            phases=rng.uniform(0.0, 2.0 * np.pi, k),
        )
    return HeldWaveform(values=rng.normal(size=n_periods * L), dt=h / L)


@pytest.mark.parametrize("kind", ["autonomous", "held"])
@pytest.mark.parametrize("L", [1, 2, 8, 32])
def test_step_matches_per_cell_reference(kind, L):
    """The exogenous pass plus the step reproduce the per-cell loop over 200 periods,
    for two arms on one stack."""
    n_periods, n_taps, h = 200, 4, 0.7
    rng = np.random.default_rng(1000 + 7 * L + (kind == "held"))
    sec = random_stable_siso(rng, max_states=6)
    pri = random_stable_siso(rng, max_states=6)
    loop = HybridLoop(sec, pri, _random_source(rng, kind, h, L, n_periods), h=h, L=L)
    record = loop.exogenous(n_periods)
    zeta = np.zeros((2, sec.nstates))
    want = [oracles.reference_initial_state(loop, n_taps) for _ in range(2)]
    fields = {}
    for n in range(n_periods):
        taps = rng.normal(scale=0.5, size=(2, n_taps))
        zeta, y_d, w_fast = step(loop, zeta, taps, delay_line(record.x_d, n, n_taps))
        for arm in range(2):
            want[arm], ref = oracles.reference_step(loop, want[arm], taps[arm])
            pairs = [
                ("x_d", record.x_d[n], ref.x_d),
                ("y_d", y_d[arm], ref.y_d),
                ("e_block", record.d[n] - w_fast[arm], ref.e_block),
                ("u_block", record.u_blocks[n], ref.u_block),
                ("x_fast", record.x[n], ref.x_fast),
                ("d_fast", record.d[n], ref.d_fast),
                ("w_fast", w_fast[arm], ref.w_fast),
                ("u_fast", record.u[n], ref.u_fast),
                ("state.zeta_F", zeta[arm], want[arm].zeta_F),
            ]
            for name, a, b in pairs:
                assert np.shape(a) == np.shape(b), name
                fields.setdefault(name, []).append((np.ravel(a), np.ravel(b)))
    for name, rows in fields.items():
        a = np.concatenate([r[0] for r in rows])
        b = np.concatenate([r[1] for r in rows])
        scale = float(np.abs(b).max())
        assert scale > 0.0, name
        assert float(np.abs(a - b).max()) <= TOL.baseline_match * scale, name


@pytest.mark.parametrize("kind", ["autonomous", "undamped", "held"])
@pytest.mark.parametrize("L", [1, 2, 8, 32])
def test_exogenous_matches_period_by_period_reference(kind, L):
    """The record, computed K periods a product, equals the period-by-period
    pass within ``TOL.exogenous_blocked`` of each array's largest entry, over
    0, 1, K - 1, K, K + 1 and 2000 periods; an undamped source runs the
    longest without decay. ``x_d`` is ``x[:, 0]`` and a held record's ``x``
    the waveform, bit for bit."""
    h, rng = 0.7, np.random.default_rng(2000 + 7 * L + len(kind))
    sec, pri = random_stable_siso(rng, max_states=6), random_stable_siso(rng, max_states=6)
    if kind == "undamped":
        source = AutonomousGenerator.damped_sinusoids(
            amplitudes=rng.uniform(0.2, 2.0, 3), frequencies=rng.uniform(0.2, 3.0, 3),
            decay_rates=np.zeros(3), phases=rng.uniform(0.0, 2.0 * np.pi, 3))
    else:
        source = _random_source(rng, kind, h, L, 4000)
    loop = HybridLoop(sec, pri, source, h=h, L=L)
    K = loop._chunk_maps(10**6)[0].shape[1] // L
    assert K > 1
    horizons = [0, 1, K - 1, K, K + 1, 2000]
    want = oracles.reference_exogenous(loop, max(horizons))
    for n_steps in horizons:
        got = loop.exogenous(n_steps)
        for name in got._fields:
            a, b = getattr(got, name), getattr(want, name)[:n_steps]
            assert a.shape == b.shape, (n_steps, name)
            if n_steps:
                assert np.abs(a - b).max() <= TOL.exogenous_blocked * np.abs(b).max(), (n_steps, name)
        assert np.array_equal(got.x_d, got.x[:, 0])
        if kind == "held":
            assert np.array_equal(got.x.ravel(), source.values[:n_steps * L])


def test_exogenous_record_is_read_only():
    sec, pri, gen = bench_small()
    record = HybridLoop(sec, pri, gen, h=1.0, L=4).exogenous(3)
    assert record.x_d.shape == (3,)
    for name in ("x_d", "x", "d", "u", "u_blocks"):
        arr = getattr(record, name)
        assert arr.shape[0] == 3 and arr.shape[1:] in ((), (4,)), name
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_exogenous_rejects_bad_period_count():
    sec, pri, gen = bench_small()
    loop = HybridLoop(sec, pri, gen, h=1.0, L=4)
    with pytest.raises(ValueError, match="n_steps"):
        loop.exogenous(-1)
    with pytest.raises(TypeError):
        loop.exogenous(2.5)
    assert loop.exogenous(np.int64(0)).x.shape == (0, 4)


def test_held_waveform_must_match_fast_grid():
    sec, pri, _ = bench_small()
    wave = HeldWaveform(values=np.zeros(16), dt=0.3)
    with pytest.raises(ValueError):
        HybridLoop(sec, pri, wave, h=1.0, L=4)


def test_held_waveform_exhaustion():
    sec, pri, _ = bench_small()
    wave = HeldWaveform(values=np.zeros(4), dt=0.25)
    loop = HybridLoop(sec, pri, wave, h=1.0, L=4)
    assert loop.exogenous(1).x.shape == (1, 4)
    with pytest.raises(ValueError, match="exhausted"):
        loop.exogenous(2)


def test_generator_type_checked():
    sec, pri, _ = bench_small()
    with pytest.raises(TypeError):
        HybridLoop(sec, pri, np.zeros(8), h=1.0, L=4)


@pytest.mark.parametrize("kind", ["autonomous", "held"])
@pytest.mark.parametrize("L, cells", [(1, 1), (2, 2), (8, 8), (8, 2), (8, 1), (32, 4)])
def test_arm_maps_match_reference_loop_step(kind, L, cells):
    """Map n of ``arm_maps`` takes an arm's [y; zeta; 1] to [next zeta; 1;
    V (d - w)]: the next state and the anti-noise w of ``reference_loop_step``
    (one arm's period as the loop ran it before the maps), and the fold of
    the error on the blocking's cells with the period's lag window V. Each
    part is within ``TOL.arm_maps`` of its largest entry over 40 periods,
    built as two chunks; a chunk's maps do not depend on where it starts."""
    n_periods, n_taps, h = 40, 5, 0.7
    rng = np.random.default_rng(2000 + 7 * L + cells + (kind == "held"))
    sec = random_stable_siso(rng, max_states=6)
    pri = random_stable_siso(rng, max_states=6)
    loop = HybridLoop(sec, pri, _random_source(rng, kind, h, L, n_periods), h=h, L=L)
    record = loop.exogenous(n_periods)
    windows = adaptive._lag_windows(record.u_blocks.reshape(n_periods, cells, L // cells).sum(axis=2), n_taps)
    n = sec.nstates
    maps = np.concatenate([loop.arm_maps(windows, record.d, start, np.empty((k, n + 1 + n_taps, n + 2)))
                           for start, k in ((0, 17), (17, 23))])
    assert maps.shape == (n_periods, n + 1 + n_taps, n + 2)
    assert maps[5:9].tobytes() == loop.arm_maps(windows, record.d, 5, np.empty((4, *maps.shape[1:]))).tobytes()
    state = oracles.initial_arm_state(loop, n_taps)
    got, want = [], []
    for p in range(n_periods):
        zeta = state.zeta_F
        state, y_d, w_fast = oracles.reference_loop_step(loop, state, rng.normal(size=n_taps), record.x_d[p])
        got.append(maps[p] @ np.concatenate([[y_d], zeta, [1.0]]))
        want.append(np.concatenate([state.zeta_F, [1.0], windows[p] @ (record.d[p] - w_fast)[::L // cells]]))
    got, want = np.array(got), np.array(want)
    for part in (slice(0, n), slice(n, n + 1), slice(n + 1, None)):
        scale = np.abs(want[:, part]).max()
        assert scale > 0.0
        assert np.abs(got[:, part] - want[:, part]).max() <= TOL.arm_maps * scale


def test_anti_noise_of_stacked_arms_equals_each_arm_alone():
    """``anti_noise`` on a stack of arm states, with any leading axes, gives
    each arm the bits it gets alone: filter output, anti-noise and error."""
    rng = np.random.default_rng(21)
    sec, pri, gen = bench_small()
    loop = HybridLoop(sec, pri, gen, h=1.0, L=8)
    v, d = rng.normal(size=(3, 4, sec.nstates + 6, 1)), rng.normal(size=(3, 1, 8, 1))
    out = np.empty((3, 4, 1, 1)), np.empty((3, 4, 8, 1)), np.empty((3, 4, 8, 1))
    assert loop.anti_noise(v, d, *out) is out[2]
    assert np.array_equal(out[2], d - out[1])
    for p in range(3):
        for arm in range(4):
            alone = np.empty((1, 1)), np.empty((8, 1)), np.empty((8, 1))
            loop.anti_noise(v[p, arm], d[p, 0], *alone)
            for g, a in zip(out, alone):
                assert g[p, arm].tobytes() == a.tobytes()


# ---------------------------------------------------------------------------
# norms


def test_l2_norm_constant_signal():
    assert abs(l2_norm(np.ones(8), 0.5) - 2.0) < 1e-15


def test_l2_norm_edge_cases():
    with pytest.raises(ValueError):
        l2_norm(np.array([]), 0.1)
    with pytest.raises(ValueError):
        l2_norm(np.ones(3), 0.0)
    for dt in (np.inf, np.nan):
        for samples in (np.zeros(3), np.ones(3)):
            with pytest.raises(ValueError, match="sample spacing"):
                l2_norm(samples, dt)
    assert l2_norm(np.array([1.0, np.nan]), 0.1) == np.inf
    assert l2_norm(np.array([1e200, 1e200]), 0.1) == np.inf
    # the screen reads the smallest sample as well as the largest
    assert l2_norm(np.array([1.0, -1e200]), 0.1) == np.inf
    assert l2_norm(np.array([1.0, -np.inf, 2.0]), 0.1) == np.inf
    assert l2_norm(np.array([-3.0, -1.0, np.nan, -2.0]), 0.1) == np.inf
    # a square of 1e150 is finite and its sum under 1e300: only the screen makes these infinite
    for edge in (1e150, -1e150):
        assert l2_norm(np.array([0.5, edge]), 1.0) == np.inf
        below = np.nextafter(edge, 0.0)
        assert l2_norm(np.array([below]), 1e-300) == np.sqrt(1e-300 * (below * below))
    # each square is finite, the sum of squares passes 1e300
    assert l2_norm(np.full(10_000, 1e149), 1.0) == np.inf


def test_stacked_norms_equal_the_screen_they_replace():
    """Each row's norm of one stacked pass equals the isfinite-and-abs screen's bit
    for bit, whatever the other rows hold, and unlisted rows are not summed."""
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((9, 16_000))
    for row, (where, value) in zip(rows[1:], [(7, np.nan), (0, -np.inf), (-1, np.inf), (3, -1e200),
                                             (5, 1e150), (9, -1e150), (2, np.nextafter(-1e150, 0.0))]):
        row[where] = value
    rows[8] = 0.0
    rows[-2, ::2] = -rows[-2, ::2]
    which = [8, 0, 2, 7, 4, 1, 6, 3, 5]
    for dt in (1.0 / 32, 0.7):
        got = lifting._l2_norms(rows, dt, which)
        assert [g.hex() for g in got] == [oracles.reference_l2_norm(rows[i], dt).hex() for i in which]
        assert lifting._l2_norms(rows, dt, [3]) == [got[which.index(3)]]
    assert lifting._l2_norms(rows, 1.0, []) == []
    with pytest.raises(ValueError, match="sample spacing"):
        lifting._l2_norms(rows, 0.0, [0])


def test_l2_norm_bytes_do_not_depend_on_blas_threads():
    """The same 64000-sample traces give the same norms under one and two BLAS threads."""
    script = (
        "import numpy as np\n"
        "from ancsim import l2_norm\n"
        "for seed in range(8):\n"
        "    print(repr(l2_norm(np.random.default_rng(seed).standard_normal(64000), 1.0 / 32)))\n"
    )
    src = os.path.dirname(os.path.dirname(ancsim.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        outputs.append(proc.stdout.strip())
    assert outputs[0] == outputs[1]


def test_generator_sample_grid_matches_closed_form():
    """The loop's held reference samples the generator exactly, as does the oracle's grid."""
    sec, pri, _ = bench_small()
    gen = AutonomousGenerator.damped_sinusoids(
        amplitudes=[2.0], frequencies=[1.7], decay_rates=[0.3], phases=[0.6]
    )
    t = np.arange(12) * 0.25
    want = 2.0 * np.exp(-0.3 * t) * np.cos(1.7 * t + 0.6)
    got = HybridLoop(sec, pri, gen, h=0.25, L=2).exogenous(12).x_d
    assert np.abs(got - want).max() < 1e-12
    assert np.abs(oracles.sample_grid(gen, 0.25, 12) - want).max() < 1e-12


def test_held_waveform_validation():
    with pytest.raises(ValueError):
        HeldWaveform(values=np.zeros(4), dt=0.0)
    for dt in (np.inf, np.nan):
        with pytest.raises(ValueError, match="cell width"):
            HeldWaveform(values=np.zeros(4), dt=dt)
    with pytest.raises(ValueError):
        HeldWaveform(values=np.array([1.0, np.inf]), dt=0.1)
    with pytest.raises(ValueError):
        HeldWaveform(values=np.array([]), dt=0.1)
    wave = HeldWaveform(values=np.zeros((2, 2)), dt=0.1)
    assert len(wave) == 4 and wave.values.shape == (4,)
