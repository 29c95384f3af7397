"""Closed-loop runner, comparison, sweep, and CSV output."""

import dataclasses
import filecmp
import itertools
import os
import sys
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import _frozen
import oracles
from ancsim import _tables, adaptive, reports, runner
from ancsim import (
    ComparisonResult,
    HybridLoop,
    SimTrace,
    SweepRow,
    check_lms_conditions,
    discretize_lifted,
    emit_bode,
    load_u_blocks,
    run_comparison,
    run_mu_sweep,
    run_single,
    spectral_bound,
    write_bode_csv,
    write_sweep_csv,
)
from ancsim.config import ConfigError, SimConfig
from ancsim.tolerances import TOL


def short_config(**overrides):
    base = dict(T=20.0, L=4, n_taps=4, mu=0.1)
    base.update(overrides)
    return SimConfig().with_overrides(**base)


# ---------------------------------------------------------------------------
# single runs


@pytest.mark.parametrize("L,cells", [(2, 1), (8, 1), (32, 1), (8, 2)])
def test_summed_cell_blocks_match_coarse_lifting(L, cells):
    """The algorithm's coarse blocks (sums of traced cell integrals) equal an
    open-loop coarse lifting driven by the traced reference."""
    config = short_config(L=L)
    result = run_single(config, algorithm_cells=cells)
    lift = discretize_lifted(config.secondary(), config.h, cells)
    eta = np.zeros(lift.nstates)
    want = np.empty((result.n_completed, cells))
    for n, x in enumerate(result.trace.x_d):
        eta, want[n] = oracles.fh_step(lift, eta, x)
    got = result.u_alg_blocks
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOL.block_refinement * np.abs(want).max()


def test_zero_step_error_equals_disturbance():
    result = run_single(short_config(mu=0.0))
    assert result.w_norm == 0.0
    assert abs(result.error_norm - result.d_norm) < 1e-14 * result.d_norm
    assert np.all(result.alpha_hist == 0.0)
    assert result.lms_report is None


def test_run_shapes_and_flags():
    config = short_config()
    result = run_single(config)
    n, L, N = config.n_steps, config.L, config.n_taps
    assert result.n_completed == n
    assert not result.diverged
    assert result.trace.e.shape == (n * L,)
    assert result.trace.x_d.shape == (n,)
    assert result.alpha_hist.shape == (n, N)
    assert result.delta_hist.shape == (n, N)
    assert result.u_alg_blocks.shape == (n, L)
    assert result.algorithm_cells == L
    assert result.lms_report is not None and result.lms_report.n_intervals == n


def test_adaptation_reduces_error_energy():
    # band-limited source: everything is cancelable, so adaptation must win
    config = short_config(
        T=60.0,
        mu=0.2,
        noise_amplitudes=(1.0, 1.0, 1.0, 1.0),
        noise_frequencies=(0.05, 0.12, 0.2, 0.3),
        noise_decay_rates=(0.01, 0.01, 0.01, 0.01),
    )
    adapted = run_single(config)
    frozen = run_single(config.with_overrides(mu=0.0))
    assert adapted.error_norm < 0.6 * frozen.error_norm


def test_error_energy_triangle_bound():
    result = run_single(short_config())
    assert result.error_norm <= result.d_norm + result.w_norm + 1e-12


def test_divergence_sentinel():
    config = short_config(T=40.0, mu=100.0)
    result = run_single(config)
    assert result.diverged
    assert result.error_norm == np.inf
    assert result.n_completed < config.n_steps
    # the recorded trace stays finite: the aborting period is not committed
    assert np.all(np.isfinite(result.trace.e))


def test_algorithm_cells_subsampling():
    """Coarse algorithm grid rides on the same fine simulation."""
    config = short_config(L=8)
    full = run_single(config)
    half = run_single(config, algorithm_cells=4)
    one = run_single(config, algorithm_cells=1)
    assert half.u_alg_blocks.shape == (config.n_steps, 4)
    assert one.u_alg_blocks.shape == (config.n_steps, 1)
    # same physical disturbance in all three (algorithm choice cannot change d)
    assert np.abs(full.trace.d - half.trace.d).max() == 0.0
    assert np.abs(full.trace.d - one.trace.d).max() == 0.0
    with pytest.raises(ValueError):
        run_single(config, algorithm_cells=3)
    with pytest.raises(ValueError):
        run_single(config, algorithm_cells=16)


def test_block_aggregation_consistency():
    """1-cell algorithm blocks equal the sum of the 8-cell blocks."""
    config = short_config(L=8, mu=0.0)
    full = run_single(config)
    one = run_single(config, algorithm_cells=1)
    want = full.u_alg_blocks.sum(axis=1)
    assert np.abs(one.u_alg_blocks[:, 0] - want).max() < 1e-12 * max(
        1.0, np.abs(want).max()
    )


# ---------------------------------------------------------------------------
# benchmark regressions (frozen values)


def test_benchmark_norms_frozen(benchmark_comparison):
    comp = benchmark_comparison
    assert comp.proposed.d_norm == pytest.approx(_frozen.BENCH_D_NORM, rel=1e-9)
    assert comp.proposed.error_norm == pytest.approx(_frozen.BENCH_E_PROPOSED, rel=1e-9)
    assert comp.conventional.error_norm == pytest.approx(
        _frozen.BENCH_E_CONVENTIONAL, rel=1e-9
    )
    assert comp.ratio == pytest.approx(_frozen.BENCH_RATIO, rel=1e-9)


def test_benchmark_conditions_frozen(benchmark_run, default_config):
    rep = benchmark_run.lms_report
    assert rep.lambda_max == pytest.approx(_frozen.BENCH_LAMBDA_MAX, rel=1e-9)
    assert rep.mu_limit == pytest.approx(_frozen.BENCH_MU_LIMIT, rel=1e-9)
    assert rep.eps_realized == pytest.approx(_frozen.BENCH_EPS_REALIZED, rel=1e-9)
    assert rep.all_ok
    bound = spectral_bound(
        default_config.secondary(), benchmark_run.trace.x_d, default_config.h
    )
    assert bound.peak == pytest.approx(_frozen.BENCH_S_INF, rel=1e-9)
    assert rep.lambda_max <= bound.peak


def test_bandlimited_source_nearly_ties():
    """Without beyond-Nyquist content the one-cell arm is nearly as good."""
    config = SimConfig().with_overrides(
        noise_amplitudes=(1.0, 1.0, 1.0, 1.0),
        noise_frequencies=(0.05, 0.12, 0.2, 0.3),
        noise_decay_rates=(0.01, 0.01, 0.01, 0.01),
    )
    comp = run_comparison(config)
    assert comp.ratio == pytest.approx(_frozen.BAND_RATIO, rel=1e-9)
    assert 0.8 < comp.ratio < 1.05


# ---------------------------------------------------------------------------
# sweep


def test_sweep_structure_and_edges():
    config = short_config(T=30.0, threshold=5.0)
    sweep = run_mu_sweep(config, mu_values=[0.4, 0.1, 6.0])
    mus = [row.mu for row in sweep.rows]
    assert mus == sorted(mus)
    assert sweep.threshold == 5.0
    for row in sweep.rows:
        if row.diverged_proposed:
            assert row.error_proposed == np.inf
            assert not row.step_ok_proposed
    # edge is the last mu of the contiguous stable prefix
    stable = [r.mu for r in sweep.rows if np.isfinite(r.error_proposed) and r.error_proposed < 5.0]
    if stable and stable[0] == mus[0]:
        assert sweep.mu_max_proposed >= stable[0]


def test_sweep_zero_step_row_passes_the_step_check():
    """A mu = 0 arm takes no update, so it has no report and its step check passes."""
    sweep = run_mu_sweep(short_config(T=10.0), mu_values=[0.0, 0.1])
    zero = sweep.rows[0]
    assert zero.mu == 0.0
    assert zero.step_ok_proposed and zero.step_ok_conventional
    assert zero.error_proposed == zero.error_conventional


def test_silent_comparison_has_ratio_one():
    comp = run_comparison(short_config(T=10.0, noise_amplitudes=(0.0,) * 4))
    assert comp.proposed.error_norm == comp.conventional.error_norm == 0.0
    assert comp.ratio == 1.0


def test_sweep_requires_steps():
    with pytest.raises(ValueError):
        run_mu_sweep(short_config(), mu_values=[])


# ---------------------------------------------------------------------------
# arms sharing one exogenous record


def _flat(obj, prefix=""):
    """Leaves of nested result dataclasses, tuples and lists, keyed by their
    dotted path (an entry of a tuple or list by its index)."""
    if isinstance(obj, (tuple, list)):
        items = enumerate(obj)
    elif dataclasses.is_dataclass(obj):
        items = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    else:
        return {prefix: obj}
    out = {}
    for name, value in items:
        out.update(_flat(value, f"{prefix}.{name}" if prefix else str(name)))
    return out


def _assert_identical(got, want):
    """Same fields, shapes, dtypes and bytes (so -0.0 and nan count too)."""
    got, want = _flat(got), _flat(want)
    assert got.keys() == want.keys()
    for key, b in want.items():
        a = got[key]
        if b is None:
            assert a is None, key
            continue
        a, b = np.asarray(a), np.asarray(b)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), key
        assert a.tobytes() == b.tobytes(), key


def _assert_close(got, want, tol):
    """Same fields, shapes and dtypes; integer and boolean fields equal; every
    float field within ``tol`` of the largest finite entry of its ``want``
    array, with its non-finite entries in the same places and equal."""
    got, want = _flat(got), _flat(want)
    assert got.keys() == want.keys()
    for key, b in want.items():
        a = got[key]
        if b is None:
            assert a is None, key
            continue
        a, b = np.asarray(a), np.asarray(b)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), key
        if b.dtype != float:
            assert np.array_equal(a, b), key
            continue
        finite = np.isfinite(b)
        assert np.array_equal(np.isfinite(a), finite), key
        assert np.array_equal(a[~finite], b[~finite], equal_nan=True), key
        scale = np.abs(b[finite]).max(initial=0.0)
        assert np.abs(a[finite] - b[finite]).max(initial=0.0) <= tol * scale, key


@pytest.mark.parametrize("overrides", [dict(L=8), dict(T=40.0, mu=100.0)])
def test_comparison_arms_equal_single_runs(overrides):
    config = short_config(**overrides)
    comp = run_comparison(config)
    _assert_identical(comp.proposed, run_single(config))
    _assert_identical(comp.conventional, run_single(config, algorithm_cells=1))


@pytest.mark.parametrize("T,mus", [(100.0, [0.0, 0.5, 9.0, 9.3, 9.6, 12.0, 40.0]), (2000.0, [0.0, 0.1, 9.6])])
def test_stacked_arm_norms_equal_each_arms_own(T, mus):
    """The norms of one pass over every arm's histories equal ``l2_norm`` of each
    arm's own slice bit for bit: arms of both blockings that run the full
    horizon, one at mu = 0, one that diverges in the last period and arms
    that stop in different periods (T = 2000 gives 16000 samples an arm)."""
    config = SimConfig(T=T)
    results = _arm_results(config, *runner._setup(config), [(mu, cells) for cells in (None, 1) for mu in mus])
    N = config.n_steps
    stops = {r.n_completed for r in results if r.diverged and r.n_completed < N}
    assert len(stops) >= (5 if T == 100.0 else 1)
    assert {r.algorithm_cells for r in results if not r.diverged and r.mu > 0.0} == {1, config.L}
    assert T != 100.0 or any(r.diverged and r.n_completed == N for r in results)
    for r in results:
        trace = r.trace
        want = {"e": np.inf if r.diverged else oracles.reference_l2_norm(trace.e, trace.dt),
                "w": oracles.reference_l2_norm(trace.w, trace.dt),
                "d": oracles.reference_l2_norm(trace.d, trace.dt)}
        got = {"e": r.error_norm, "w": r.w_norm, "d": r.d_norm}
        assert {k: v.hex() for k, v in got.items()} == {k: float(v).hex() for k, v in want.items()}, r.mu
        assert r.w_norm == trace.norm("w")
        assert r.diverged or r.error_norm == trace.norm("e")


def test_sweep_rows_equal_standalone_comparisons():
    config = short_config(T=30.0, threshold=5.0)
    sweep = run_mu_sweep(config, mu_values=[0.1, 0.4, 100.0])
    assert sweep.rows[-1].diverged_proposed
    for row in sweep.rows:
        comp = run_comparison(replace(config, mu=row.mu))
        p, c = comp.proposed, comp.conventional
        want = SweepRow(
            mu=row.mu,
            error_proposed=p.error_norm,
            error_conventional=c.error_norm,
            diverged_proposed=p.diverged,
            diverged_conventional=c.diverged,
            step_ok_proposed=not p.diverged and (p.lms_report is None or p.lms_report.step_ok),
            step_ok_conventional=not c.diverged and (c.lms_report is None or c.lms_report.step_ok),
        )
        _assert_identical(row, want)


def test_sweep_builds_no_per_arm_result(monkeypatch):
    """A sweep reads the stacked record's columns only: with every per-arm
    trace and result made to fail, it returns what it returns without."""
    want = run_mu_sweep(SimConfig())

    def fail(*args, **kwargs):
        raise AssertionError("a sweep built a per-arm result")

    for name in ("SimTrace", "SingleRunResult"):
        monkeypatch.setattr(runner, name, fail)
    got = run_mu_sweep(SimConfig())
    assert len(got.rows) == 20
    _assert_identical(got, want)


def _arm_cases(tmp_path):
    """(config, arms) pairs: compare at the defaults and at L = 1, a held
    waveform, a sweep with arms that diverge mid-run next to stable ones, and
    a sweep whose arms all diverge in their first period. Period 0 runs
    under zero taps in every arm, so first-period divergence is all or none."""
    wave = tmp_path / "wave.txt"
    np.savetxt(wave, np.random.default_rng(5).standard_normal(60 * 4), fmt="%.17g")
    held = SimConfig().with_overrides(T=60.0, L=4, mu=0.05, waveform_path=str(wave))
    three = [(mu, cells) for mu in (0.0, 0.1, 0.9, 2.5, 40.0, 1e6, 1e9) for cells in (None, 1, 2)]
    return [
        (SimConfig(), [(0.1, None), (0.1, 1)]),
        (SimConfig().with_overrides(L=1), [(0.1, None), (0.1, 1)]),
        (held, [(0.05, None), (0.05, 1)]),
        (short_config(T=40.0, L=4), three),
        (short_config(divergence_cutoff=1e-9), [(0.1, None), (0.5, 1)]),
    ]


def _arm_results(config, machine, record, arms) -> list:
    """Every arm of one ``runner._run_arms`` call as its own ``SingleRunResult``."""
    stacked = runner._run_arms(config, machine, record, arms)
    return [runner._result(stacked, a) for a in range(len(arms))]


# each column of ``runner._Arms`` and the SingleRunResult field it fills
_ARM_COLUMNS = ("mu", "algorithm_cells", "n_completed", "diverged", "error_norm", "w_norm", "d_norm", "lms_report")


def _assert_arms_match_reference(config, arms) -> list:
    """Run ``arms`` on one loop; each matches the single-arm loop field by
    field: the divergence period, the divergence flag and the convergence
    report exactly, every other float within ``TOL.arm_maps``. Every column
    of the stacked record equals, value and type, the field of each arm's
    own result that it fills."""
    machine, record = runner._setup(config)
    stacked = runner._run_arms(config, machine, record, arms)
    got = [runner._result(stacked, a) for a in range(len(arms))]
    assert stacked._fields[:len(_ARM_COLUMNS)] == _ARM_COLUMNS
    for name in _ARM_COLUMNS:
        column = getattr(stacked, name)
        assert len(column) == len(arms), name
        for value, result in zip(column, got):
            field = getattr(result, name)
            assert (type(value), value) == (type(field), field), name
    for (mu, cells), result in zip(arms, got):
        want = oracles.reference_run_arm(replace(config, mu=mu), machine, record, cells)
        assert (result.n_completed, result.diverged) == (want.n_completed, want.diverged)
        assert result.lms_report == want.lms_report
        _assert_close(result, want, TOL.arm_maps)
    return got


def test_arm_loop_matches_single_arm_reference(tmp_path):
    """Every arm of one batched run matches the single-arm loop, field by field."""
    seen = set()
    for config, arms in _arm_cases(tmp_path):
        for result in _assert_arms_match_reference(config, arms):
            k, N = result.n_completed, config.n_steps
            seen.add("stable" if not result.diverged else "first" if k == 1 else "mid-run")
            if result.diverged and k == 1:
                assert result.lms_report is None
            assert 1 <= k <= N
    assert seen == {"stable", "mid-run", "first"}


@pytest.mark.parametrize("every", [1, 3])
def test_arm_loop_matches_reference_in_blocks_of(every, tmp_path, monkeypatch):
    """The arm loop tests the cutoff once per block of ``_FastWriter.every``
    periods and reruns a block that crossed it period by period: in blocks
    shorter than the default 64 every arm of every case still matches the
    single-arm loop."""
    monkeypatch.setattr(_tables._FastWriter, "every", every)
    for config, arms in _arm_cases(tmp_path):
        _assert_arms_match_reference(config, arms)


def test_arm_loop_bits_do_not_depend_on_block_length(tmp_path, monkeypatch):
    """Blocks of 1, 3 and 64 periods, with their different reruns and chunk
    edges, give every arm of every case the same bits."""
    cases = _arm_cases(tmp_path)
    runs = {}
    for every in (1, 3, 64):
        monkeypatch.setattr(_tables._FastWriter, "every", every)
        runs[every] = [_arm_results(config, *runner._setup(config), arms) for config, arms in cases]
    for every in (1, 3):
        for got, want in zip(runs[every], runs[64]):
            for result, expected in zip(got, want):
                _assert_identical(result, expected)


@pytest.mark.parametrize("every", [3, 64])
def test_stable_arm_keeps_its_bits_when_another_crosses(every, monkeypatch):
    """An arm whose neighbour crosses the cutoff mid-run, which reruns the
    block, keeps the bits of its run alone: both passes share one arithmetic."""
    monkeypatch.setattr(_tables._FastWriter, "every", every)
    config = short_config(T=100.0, L=4)
    machine, record = runner._setup(config)
    stable, crossing = _arm_results(config, machine, record, [(0.1, None), (20.0, None)])
    assert crossing.diverged and 1 < crossing.n_completed < config.n_steps and not stable.diverged
    assert crossing.n_completed > every  # the rerun block is not the first
    [alone] = _arm_results(config, machine, record, [(0.1, None)])
    _assert_identical(stable, alone)


@pytest.mark.parametrize("every, spike, where", [
    (1, 5, "first and last"),
    (3, 9, "first"),
    (3, 11, "last"),
    (3, 150, "short last block"),
    (64, 64, "first"),
    (64, 127, "last"),
    (64, 140, "short last block"),
])
def test_divergence_at_block_edges(every, spike, where, tmp_path, monkeypatch):
    """A spike in a held waveform diverges every running arm in period
    ``spike`` of 151: a block's first or last period, or one of a short last
    block, in a block that starts after an arm with a huge step size
    diverged. Every arm equals the single-arm loop, field by field."""
    monkeypatch.setattr(_tables._FastWriter, "every", every)
    N, L = 151, 4
    start = spike - spike % every
    assert where == ("short last block" if start + every > N else
                     {(True, True): "first and last", (True, False): "first",
                      (False, True): "last"}.get((spike == start, spike == start + every - 1)))
    wave = np.random.default_rng(11).standard_normal(N * L)
    wave[spike * L] = 1e8
    np.savetxt(tmp_path / "wave.txt", wave, fmt="%.17g")
    config = SimConfig().with_overrides(T=float(N), L=L, n_taps=4, divergence_cutoff=1e4,
                                        waveform_path=str(tmp_path / "wave.txt"))
    got = _assert_arms_match_reference(config, [(1e6, None), (0.0, None), (0.01, 1), (0.05, 2)])
    assert all(result.diverged for result in got)
    assert (got[0].n_completed - 1) // every < start // every
    assert [result.n_completed for result in got[1:]] == [spike + 1] * 3


def test_blocks_without_crossing_step_once(monkeypatch):
    """A default run that crosses no cutoff builds each period's map and
    forms each period's anti-noise once: no block runs twice. The caller's
    floating-point error state is left as it was."""
    maps, outputs = [], []
    real_maps, real_outputs = HybridLoop.arm_maps, HybridLoop.anti_noise

    def counting_maps(self, windows, d, start, out):
        maps.extend(range(start, start + len(out)))
        return real_maps(self, windows, d, start, out)

    def counting_outputs(self, v, *args):
        outputs.append(len(v))
        return real_outputs(self, v, *args)

    monkeypatch.setattr(HybridLoop, "arm_maps", counting_maps)
    monkeypatch.setattr(HybridLoop, "anti_noise", counting_outputs)
    before = np.geterr(), np.geterrcall()
    result = run_single(SimConfig())
    assert (np.geterr(), np.geterrcall()) == before
    assert not result.diverged and maps == list(range(SimConfig().n_steps)) and SimConfig().n_steps == 100
    assert sum(outputs) == 100 and len(outputs) == 2  # one product a chunk: periods 0-63, then 64-99


@pytest.mark.parametrize("overrides, n_arms", [({}, 1), ({}, 40), (dict(n_taps=300), 2), (dict(L=32), 2)])
def test_one_period_map_holds_its_values(overrides, n_arms, monkeypatch):
    """One period's map takes [y; zeta; 1] to [next zeta; 1; Delta]: it holds
    (n_s + 1 + n_taps)(n_s + 2) values, and the maps of a chunk, those of
    every blocking together, stay within 128 KiB."""
    shapes, first = [], []
    real = HybridLoop.arm_maps

    def recording(self, windows, d, start, out):
        shapes.append(out.shape)
        if start == 0:
            first.append(out.shape)
        return real(self, windows, d, start, out)

    monkeypatch.setattr(HybridLoop, "arm_maps", recording)
    config = SimConfig().with_overrides(T=20.0, **overrides)
    machine, record = runner._setup(config)
    runner._run_arms(config, machine, record, [(0.1, None), (0.1, 1)] * (n_arms // 2) or [(0.1, None)])
    n_s, n_taps = machine.secondary.nstates, config.n_taps
    assert shapes and all(shape[1:] == (n_s + 1 + n_taps, n_s + 2) for shape in shapes)
    assert len(first) == n_arms  # the arms alternate blockings: one run of arms each
    assert sum(np.prod(shape) for shape in first) * 8 <= 128 * 1024


def test_floating_point_conditions_reach_the_caller():
    """A condition the caller's error state does not ignore (here underflow,
    which numpy ignores by default) is recorded by the first pass over a
    block, which then reruns under the caller's state: ``raise`` stops the
    loop with ``FloatingPointError`` and ``warn`` warns, with the numbers of
    a run that ignores it."""
    config = short_config(mu=1e-306)
    machine, record = runner._setup(config)
    arms = [(config.mu, None)]
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError, match="underflow"):
            runner._run_arms(config, machine, record, arms)
        assert np.geterr()["under"] == "raise"
    with np.errstate(under="warn"), pytest.warns(RuntimeWarning, match="underflow"):
        [warned] = _arm_results(config, machine, record, arms)
    [quiet] = _arm_results(config, machine, record, arms)
    assert not quiet.diverged
    _assert_identical(warned, quiet)


def test_arm_whose_fold_would_overflow_diverges_quietly():
    """With no cutoff, an arm diverges where folding its error into the
    direction could overflow; the arms beside it run on, each equal to its
    run alone, with no floating-point exception anywhere in the loop."""
    config = short_config(L=8, n_taps=8, divergence_cutoff=float("inf"),
                          noise_amplitudes=(1e100,) * 4, f_gains=(1e50,) * 4)
    arms = [(mu, cells) for cells in (None, 1) for mu in (1e-300, 1e-200)]
    machine, record = runner._setup(config)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _arm_results(config, machine, record, arms)
        alone = [_arm_results(config, machine, record, [arm])[0] for arm in arms]
    assert [(r.diverged, r.n_completed) for r in got] == [(False, 20), (True, 2), (False, 20), (True, 3)]
    bound = sys.float_info.max / (2.0 * config.n_steps * config.L) / np.abs(record.u_blocks).max()
    for result, solo in zip(got, alone):
        _assert_identical(result, solo)
        top = np.abs(result.trace.e.reshape(result.n_completed, -1)).max(axis=1)
        assert (top[:-1] <= bound).all() and result.diverged == (top[-1] > bound)


def test_sweep_folds_each_blocking_once_per_period(monkeypatch):
    """The default sweep's 20 step sizes reach the arm loop as two runs of
    arms with one blocking, so each period forms its filter outputs in one
    product and folds the update in 2 products of its maps, not one per arm."""
    arm_lists, products = [], []
    real = runner._run_arms

    def recording(config, machine, record, arms, stream=None):
        arm_lists.append(list(arms))
        return real(config, machine, record, arms, stream)

    class CountingNumpy:  # runner's numpy: its matmuls are the filter outputs and the map products
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, *args, **kwargs):
            products.append((args[0].shape, args[1].shape))
            return np.matmul(*args, **kwargs)

    monkeypatch.setattr(runner, "_run_arms", recording)
    monkeypatch.setattr(runner, "np", CountingNumpy())
    config = SimConfig()
    sweep = run_mu_sweep(config)
    [arms] = arm_lists
    assert len(config.mu_list) == 20 and len(arms) == 40
    assert arms == [(mu, cells) for cells in (None, 1) for mu in config.mu_list]
    assert not any(row.diverged_proposed or row.diverged_conventional for row in sweep.rows)
    n_s = config.secondary().nstates
    map_shape, arms_shape = (n_s + 1 + config.n_taps, n_s + 2), (20, n_s + 2, 1)
    assert products.count((map_shape, arms_shape)) == 2 * config.n_steps  # one per blocking
    assert products.count(((40, 1, config.n_taps), (config.n_taps, 1))) == config.n_steps
    assert len(products) == 3 * config.n_steps


def test_sweep_reads_every_arm_of_a_blocking_in_one_call(monkeypatch):
    """One maxima call per blocking serves arms that diverge in one chunk, in
    different chunks and right after their first update; mu = 0 arms read
    nothing. Every field equals the single-arm loop's, and every report is
    within ``TOL.gram_lags`` of the full per-period series' values."""
    config = short_config(T=300.0, L=4)
    arms = [(mu, cells) for mu in (0.0, 0.5, 13.0, 16.0, 30.0, 1e15) for cells in (None, 1, 2)]
    calls = []
    real = runner._condition_maxima

    def recording(U, n_taps, h, reads):
        calls.append((U.shape[1], sorted(reads)))
        return real(U, n_taps, h, reads)

    monkeypatch.setattr(runner, "_condition_maxima", recording)
    # chunks of the lag sums of 120 periods, so that the reads fall across and within them
    monkeypatch.setattr(adaptive, "_GRAM_VALUES", 1024)
    periods = 1024 // config.n_taps - config.n_taps
    machine, record = runner._setup(config)
    got = _arm_results(config, machine, record, arms)

    assert sorted(b for b, _ in calls) == [1, 2, 4]
    for _, reads in calls:
        assert len(reads) == 5  # one per arm with mu > 0: none diverged alike
        chunks = [(n - 1) // periods for n in reads]
        assert len(set(chunks)) >= 2 and len(set(chunks)) < len(chunks)
    assert sum(reads[0] == 1 for _, reads in calls) == 2  # mu = 1e15 at 4 and 2 cells

    series = {}
    for (mu, cells), result in zip(arms, got):
        want = oracles.reference_run_arm(replace(config, mu=mu), machine, record, cells)
        assert (result.n_completed, result.diverged) == (want.n_completed, want.diverged)
        assert result.lms_report == want.lms_report
        _assert_close(result, want, TOL.arm_maps)
        n_up = result.u_alg_blocks.shape[0]
        if mu == 0.0:
            assert result.lms_report is None and not result.diverged
            continue
        b = result.algorithm_cells
        if b not in series:
            u_alg = record.u_blocks if b == config.L else \
                record.u_blocks.reshape(config.n_steps, b, config.L // b).sum(axis=2)
            series[b] = oracles.reference_condition_series(u_alg, config.n_taps, config.h)
        lam, inc = series[b][0][n_up], series[b][1][n_up]
        report = result.lms_report
        assert report.n_intervals == n_up
        want = pytest.approx((lam, mu * inc), rel=TOL.gram_lags, abs=0.0)
        assert (report.lambda_max, report.eps_realized) == want


def test_shared_trace_arrays_are_read_only():
    comp = run_comparison(short_config())
    p, c = comp.proposed, comp.conventional
    shared = ("x_d", "x", "d", "u", "u_blocks")
    for name in shared:
        assert np.shares_memory(getattr(p.trace, name), getattr(c.trace, name)), name
    for arr in [getattr(r.trace, n) for r in (p, c) for n in shared] + [p.u_alg_blocks]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


# ---------------------------------------------------------------------------
# CSV output


def _write_run(result, out_dir, prefix=""):
    """A result's run tables, written by the functions ``run_to_csv`` writes them with."""
    os.makedirs(out_dir, exist_ok=True)
    tr = result.trace
    paths = [os.path.join(out_dir, prefix + name)
             for name in ("fast.csv", *_tables._PERIOD_TABLES, "report.csv")]
    t = oracles.t_fast(tr)
    fast = [(paths[0], list("txdweu"), list(range(6)))]
    assert not _tables._write_tables(fast, [t, tr.x, tr.d, tr.w, tr.e, tr.u], [[t.size]], _tables._FAST_CHUNK_VALUES)
    for name, path in zip(_tables._PERIOD_TABLES, paths[1:]):
        _tables._write_columns(path, *_tables._period_columns(
            name, tr.h, tr.x_d, tr.y_d, result.alpha_hist, result.delta_hist, result.u_alg_blocks))
    reports._write_report(result, paths[-1])
    return paths


def _write_comparison(result, out_dir):
    """Both arms' tables and comparison.csv, as ``run_to_csv`` writes them in this process."""
    paths = _write_run(result.proposed, out_dir, "proposed_")
    paths += _write_run(result.conventional, out_dir, "conventional_")
    return paths + [reports._write_ratio_table(result, out_dir)]


def test_run_csv_round_trip(tmp_path):
    result, files = reports.run_to_csv(short_config(), str(tmp_path))
    names = {os.path.basename(f) for f in files}
    assert {"fast.csv", "discrete.csv", "taps.csv", "u_blocks.csv", "report.csv"} <= names
    back = load_u_blocks(str(tmp_path / "u_blocks.csv"))
    # %.17g format reproduces doubles exactly
    assert np.array_equal(back, result.u_alg_blocks)
    report_text = (tmp_path / "report.csv").read_text()
    assert "error_l2" in report_text
    assert "\r" not in report_text


def test_run_csv_raises_a_failed_fast_table(tmp_path, monkeypatch):
    """A fast.csv that cannot be written fails the run, from the forked writer and in this process."""
    forks = _counting_fork(monkeypatch)
    for where in ("forked", "here"):
        if where == "here":
            monkeypatch.setattr(_tables, "_thread_count", lambda: 2)
        (tmp_path / where / "fast.csv").mkdir(parents=True)
        with pytest.raises(OSError, match="fast.csv"):
            reports.run_to_csv(short_config(T=10.0), str(tmp_path / where))
    assert forks == [1]


def test_fast_csv_columns(tmp_path):
    config = short_config()
    result, _ = reports.run_to_csv(config, str(tmp_path))
    header = (tmp_path / "fast.csv").read_text().splitlines()[0]
    assert header.split(",") == ["t", "x", "d", "w", "e", "u"]
    data = np.loadtxt(tmp_path / "fast.csv", delimiter=",", skiprows=1)
    assert data.shape == (config.n_steps * config.L, 6)
    assert np.array_equal(data[:, 4], result.trace.e)


def test_comparison_csv(tmp_path):
    _, files = reports.run_to_csv(short_config(T=10.0), str(tmp_path), compare=True)
    names = {os.path.basename(f) for f in files}
    assert "comparison.csv" in names
    assert any(n.startswith("proposed_") for n in names)
    assert any(n.startswith("conventional_") for n in names)
    text = (tmp_path / "comparison.csv").read_text()
    assert "ratio" in text


def test_sweep_csv(tmp_path):
    sweep = run_mu_sweep(short_config(T=10.0), mu_values=[0.1, 0.2])
    write_sweep_csv(sweep, str(tmp_path))
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0].split(",")[0] == "mu"
    assert len(rows) == 3
    summary = (tmp_path / "sweep_summary.csv").read_text()
    assert "widening" in summary


def test_bode_table(tmp_path, default_config):
    cols = emit_bode(default_config)
    om = cols["omega_rad_s"]
    nyq = np.pi / default_config.h
    assert list(cols)[0] == "omega_rad_s" and len(om) == 401
    assert np.any(om == nyq)
    assert cols["at_nyquist"].sum() == 1.0
    path = write_bode_csv(default_config, str(tmp_path))
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (401, 6)
    # secondary path resonances sit near the configured frequencies
    mag = cols["secondary_mag"]
    for w0 in (1.0, 2.0, 3.0, 4.0):
        window = (om > 0.85 * w0) & (om < 1.15 * w0)
        peak_om = om[window][np.argmax(mag[window])]
        assert abs(peak_om - w0) < 0.15 * w0


SPECIAL = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, -1.5, 0.1])


def _with_specials(count: int, seed: int) -> np.ndarray:
    """``count`` ordinary values with each of ``SPECIAL`` repeated among them."""
    values = np.random.default_rng(seed).standard_normal(count) * 10.0 ** (np.arange(count) % 7 - 3)
    values[::53] = np.resize(SPECIAL, values[::53].size)
    return values


def _special_run(base, n=2):
    """``base`` with every table holding extreme and signed values.

    At two periods every value is one of ``SPECIAL``; at more, the tables
    run over several chunks of ordinary values with the specials inside.
    """
    L = 4
    special = SPECIAL if n == 2 else _with_specials(n * L, n)
    fast = [np.roll(special, k) for k in range(5)]
    trace = SimTrace(
        h=0.3, L=L, x_d=special[:n], y_d=special[-n:], x=fast[0], d=fast[1], w=fast[2],
        e=fast[3], u=fast[4], u_blocks=special.reshape(n, L),
    )
    return replace(
        base, trace=trace, alpha_hist=special.reshape(n, L), delta_hist=special[::-1].reshape(n, L),
        u_alg_blocks=np.roll(special, 3).reshape(n, L), algorithm_cells=L, mu=5e-324,
        error_norm=np.inf, d_norm=np.nan, w_norm=-0.0, n_completed=n,
    )


def _assert_same_bytes(tmp_path, write, reference_write, result):
    new, old = tmp_path / "new", tmp_path / "old"
    paths = write(result, str(new))
    ref_paths = reference_write(result, str(old))
    assert [os.path.basename(p) for p in paths] == [os.path.basename(p) for p in ref_paths]
    assert sorted(os.listdir(new)) == sorted(os.listdir(old))
    for name in os.listdir(old):
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def _diverged_and_special():
    """A run that diverges in its first period, and its extreme-value twin."""
    diverged = run_single(short_config(divergence_cutoff=1e-9))
    assert diverged.diverged and diverged.u_alg_blocks.shape[0] == 0
    return diverged, _special_run(diverged)


def _assert_comparisons_match(tmp_path, benchmark_comparison, diverged, special):
    comparisons = {
        "cmp_default": benchmark_comparison,
        "cmp_special": ComparisonResult(proposed=special, conventional=diverged, ratio=np.nan),
    }
    for name, comp in comparisons.items():
        _assert_same_bytes(
            tmp_path / name, _write_comparison, oracles.reference_write_comparison_csv, comp
        )


def test_csv_writer_matches_row_wise_writer(
    tmp_path, benchmark_run, benchmark_comparison, default_config
):
    diverged, special = _diverged_and_special()
    empty = replace(
        diverged,
        trace=replace(diverged.trace, x_d=np.zeros(0), y_d=np.zeros(0), x=np.zeros(0), d=np.zeros(0),
                      w=np.zeros(0), e=np.zeros(0), u=np.zeros(0), u_blocks=np.zeros((0, 4))),
        alpha_hist=np.zeros((0, 4)), delta_hist=np.zeros((0, 4)), n_completed=0,
    )
    runs = {"default": benchmark_run, "diverged": diverged, "special": special, "empty": empty}
    for name, result in runs.items():
        _assert_same_bytes(tmp_path / name, _write_run, oracles.reference_write_run_csv, result)
    assert (tmp_path / "diverged" / "new" / "u_blocks.csv").read_text().count("\n") == 1
    for name in ("fast.csv", "discrete.csv", "taps.csv", "u_blocks.csv"):
        assert (tmp_path / "empty" / "new" / name).read_text().count("\n") == 1, name
    _assert_comparisons_match(tmp_path, benchmark_comparison, diverged, special)
    sweep = run_mu_sweep(short_config(T=30.0, threshold=5.0), mu_values=[0.1, 0.4, 100.0])
    assert sweep.rows[-1].diverged_proposed and sweep.rows[-1].error_proposed == np.inf
    special_row = SweepRow(-0.0, np.nan, 5e-324, True, False, False, True)
    sweeps = {
        "sweep": sweep,
        "sweep_special": replace(
            sweep, rows=(special_row,), threshold=1.7976931348623157e308,
            mu_max_proposed=-0.0, mu_max_conventional=0.0, widening=np.nan,
        ),
        "sweep_empty": replace(sweep, rows=()),
    }
    for name, result in sweeps.items():
        _assert_same_bytes(tmp_path / name, write_sweep_csv, oracles.reference_write_sweep_csv, result)
    _assert_same_bytes(
        tmp_path / "bode",
        lambda config, out: [write_bode_csv(config, out)],
        lambda config, out: [oracles.reference_write_bode_csv(config, out)],
        default_config,
    )


def _assert_streamed_tables_match(tmp_path, config, compare=True):
    """``run_to_csv``'s tables equal the row-wise writer's tables of its result."""
    result, paths = reports.run_to_csv(config, str(tmp_path / "new"), compare=compare)
    reference = oracles.reference_write_comparison_csv if compare else oracles.reference_write_run_csv
    ref_paths = reference(result, str(tmp_path / "old"))
    assert [os.path.basename(p) for p in paths] == [os.path.basename(p) for p in ref_paths]
    assert sorted(os.listdir(tmp_path / "new")) == sorted(os.listdir(tmp_path / "old"))
    for name in os.listdir(tmp_path / "old"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes(), name
    return result


def _counting_fork(monkeypatch):
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


@pytest.mark.parametrize("fork", ["missing", "failing", "threads"])
def test_comparison_writer_without_fork_matches_row_wise_writer(fork, tmp_path, monkeypatch):
    """Where os.fork does not exist or fails, or other OS threads run, the
    streamed run writes every table in this process, with the same bytes."""
    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    elif fork == "failing":
        monkeypatch.setattr(os, "fork", failing_fork)
    else:
        forks = _counting_fork(monkeypatch)
        monkeypatch.setattr(_tables, "_thread_count", lambda: 2)
    config = short_config(T=60.0, mu=2.0, divergence_cutoff=5.0)
    result = _assert_streamed_tables_match(tmp_path / "cmp", config)
    assert result.conventional.n_completed < result.proposed.n_completed
    _assert_streamed_tables_match(tmp_path / "run", config, compare=False)
    if fork == "threads":
        assert forks == []


def test_full_size_comparison_matches_row_wise_writer(tmp_path, monkeypatch):
    """At T = 2000, L = 32 each fast table holds 64000 rows: many full fast
    chunks through the reused buffers, then a short last one. The forked
    writer and this process (``_thread_count`` reads 2) write the bytes of
    the row-wise writer."""
    config = SimConfig().with_overrides(T=2000.0, L=32, seed=1234)
    forks = _counting_fork(monkeypatch)
    result, _ = reports.run_to_csv(config, str(tmp_path / "forked"), compare=True)
    rows = max(1, _tables._FAST_CHUNK_VALUES // 8)
    assert result.proposed.trace.x.size > 16 * rows and result.proposed.trace.x.size % rows
    oracles.reference_write_comparison_csv(result, str(tmp_path / "old"))
    monkeypatch.setattr(_tables, "_thread_count", lambda: 2)
    reports.run_to_csv(config, str(tmp_path / "here"), compare=True)
    assert forks == [1]
    names = sorted(os.listdir(tmp_path / "old"))
    for where in ("forked", "here"):
        assert sorted(os.listdir(tmp_path / where)) == names
        for name in names:
            assert (tmp_path / where / name).read_bytes() == (tmp_path / "old" / name).read_bytes(), name


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="no /proc/self/stat")
def test_thread_count_sees_other_threads():
    """This process runs one OS thread (BLAS is pinned), so runs fork; a second thread counts."""
    assert _tables._thread_count() == 1
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _tables._thread_count() == 2
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _assert_streamed_writes(tmp_path, monkeypatch, overrides, progress, stops, fast_chunk):
    monkeypatch.setattr(_tables._FastWriter, "every", progress)
    monkeypatch.setattr(_tables, "_CHUNK_VALUES", 50)
    monkeypatch.setattr(_tables, "_FAST_CHUNK_VALUES", fast_chunk)
    forks = _counting_fork(monkeypatch)
    config = SimConfig().with_overrides(**overrides)
    result = _assert_streamed_tables_match(tmp_path / "cmp", config)
    assert (result.proposed.n_completed, result.conventional.n_completed) == stops
    assert result.conventional.diverged
    single = _assert_streamed_tables_match(tmp_path / "run", config, compare=False)
    assert single.n_completed == stops[0]
    assert forks == [1, 1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("overrides,progress,stops", [
    (dict(T=60.0, mu=2.0, divergence_cutoff=5.0), 11, (60, 44)),  # on a progress edge
    (dict(T=60.0, mu=2.0, divergence_cutoff=5.0), 5, (60, 44)),   # inside a progress chunk
    (dict(T=40.0, mu=5.0, divergence_cutoff=5.0), 3, (22, 24)),   # both, in different chunks
    (dict(T=20.0, divergence_cutoff=1e-9), 4, (1, 1)),            # both in period 0
])
def test_streamed_tables_match_row_wise_writer(overrides, progress, stops, tmp_path, monkeypatch):
    """A forked writer streams the fast tables to the bytes of the row-wise
    writer wherever an arm stops (``stops``: each arm's periods), with small
    progress and CSV chunks."""
    _assert_streamed_writes(tmp_path, monkeypatch, overrides, progress, stops, 50)


@pytest.mark.parametrize("fast_chunk", [400, 104])
def test_streamed_chunks_meet_progress_messages(fast_chunk, tmp_path, monkeypatch):
    """Fast-table chunks larger and smaller than a progress message keep the bytes.

    Progress every 5 periods brings 40 rows a message (L = 8). A chunk of
    400 values holds 50 rows of the comparison (66 of the single run), more
    than a message brings, so each message is one short chunk; one of 104
    values holds 13 rows (17), so each message spans four chunks (three):
    all but the last end inside its rows, and the last is short.
    """
    _assert_streamed_writes(tmp_path, monkeypatch, dict(T=60.0, mu=2.0, divergence_cutoff=5.0),
                            5, (60, 44), fast_chunk)


def test_comparison_writer_reports_a_killed_child(tmp_path, monkeypatch):
    """A fast-table writer that dies without a message still fails the run, and is reaped."""
    parent, write = os.getpid(), _tables._write_tables

    def killed_in_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return write(*args)

    monkeypatch.setattr(_tables, "_write_tables", killed_in_child)
    with pytest.raises(OSError, match="fast table writer exited with code -9"):
        reports.run_to_csv(short_config(), str(tmp_path), compare=True)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (tmp_path / "comparison.csv").is_file()


def test_final_progress_message_is_sent_once(tmp_path, monkeypatch):
    """At N = 128, a multiple of the progress interval 64, the writer hears
    of 64 periods and then once of 128, the final message."""
    messages = []
    progress = _tables._FastWriter.progress

    def counting(self, periods, *args):
        messages.append(periods)
        return progress(self, periods, *args)

    monkeypatch.setattr(_tables._FastWriter, "progress", counting)
    reports.run_to_csv(short_config(T=128.0), str(tmp_path))
    assert messages == [64, 128]


DIVERGING = dict(T=60.0, mu=2.0, divergence_cutoff=5.0)


def _writer_claims_first(monkeypatch, writer_takes=None):
    """The forked writer claims ``writer_takes`` period tables (every one for
    None) before this process claims any; returns the list of this
    process's claims."""
    parent, claims, mine = os.getpid(), _tables._FastWriter._claims, []

    def held(self):
        if os.getpid() != parent:
            yield from itertools.islice(claims(self), writer_takes)
            return
        os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
        for job in claims(self):
            mine.append(job)
            yield job

    monkeypatch.setattr(_tables._FastWriter, "_claims", held)
    return mine


@pytest.mark.parametrize("split", ["writer", "main", "shared"])
def test_period_tables_from_either_writer_match_row_wise_writer(split, tmp_path, monkeypatch):
    """Each period table has the row-wise writer's bytes whichever process
    writes it: the forked writer takes every one, the main process takes
    every one (nothing forks), or the writer takes the largest and the main
    process the rest. The conventional arm of the comparison diverges."""
    forks = _counting_fork(monkeypatch)
    if split == "main":
        monkeypatch.setattr(_tables, "_thread_count", lambda: 2)
    else:
        mine = _writer_claims_first(monkeypatch, None if split == "writer" else 1)
    config = short_config(**DIVERGING)
    result = _assert_streamed_tables_match(tmp_path / "cmp", config)
    assert result.conventional.diverged and not result.proposed.diverged
    if split != "main":
        # job 3a + t is table t (discrete, taps, u_blocks) of arm a, claimed by
        # columns: the taps tables (9 each), proposed_u_blocks.csv (5), the
        # discrete tables (4 each), conventional_u_blocks.csv (2)
        assert mine == ([] if split == "writer" else [4, 2, 0, 3, 5])
        mine.clear()
    _assert_streamed_tables_match(tmp_path / "run", config, compare=False)
    if split != "main":
        assert mine == ([] if split == "writer" else [2, 0])
    assert forks == ([] if split == "main" else [1, 1])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("writer_state", ["written", "begun"])
def test_writer_abort_after_the_loop_leaves_no_table(writer_state, tmp_path, monkeypatch):
    """A run that fails after its arm loop, once the forked writer has
    written every period table or while it is inside one, leaves no table
    and removes the directory it made. Until the arms' results exist only
    the writer can have begun a table."""
    parent, write = os.getpid(), _tables._write_columns
    out = tmp_path / "out"
    table = out / "proposed_taps.csv"  # the first claimed
    if writer_state == "written":
        mine = _writer_claims_first(monkeypatch)
    else:
        def stuck(path, header, columns):
            if os.getpid() != parent:
                with open(path, "wb") as fh:
                    fh.write(b"n")
                time.sleep(60)  # killed long before
            return write(path, header, columns)

        monkeypatch.setattr(_tables, "_write_columns", stuck)
    writers = []
    start = _tables._FastWriter.start
    monkeypatch.setattr(_tables._FastWriter, "start", lambda self, *args: writers.append(self) or start(self, *args))

    def failing(*args):
        if writer_state == "written":
            os.waitid(os.P_PID, writers[0].pid, os.WEXITED | os.WNOWAIT)
            assert sorted(p.name for p in out.iterdir()) == sorted(
                prefix + name for prefix in ("proposed_", "conventional_")
                for name in ("fast.csv", *_tables._PERIOD_TABLES))
        else:
            deadline = time.monotonic() + 10
            while not (table.exists() and table.read_bytes() == b"n") and time.monotonic() < deadline:
                time.sleep(0.01)
            assert table.read_bytes() == b"n"  # begun, not finished
        raise MemoryError("no room for the Gram matrices")

    monkeypatch.setattr(runner, "_condition_maxima", failing)
    with pytest.raises(ConfigError, match="no room"):
        reports.run_to_csv(short_config(**DIVERGING), str(out), compare=True)
    assert not out.exists()
    if writer_state == "written":
        assert mine == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("where", ["writer", "main"])
def test_writer_failing_period_table_fails_the_run_naming_it(where, tmp_path, monkeypatch):
    """A period table that cannot be created (a directory is at its path)
    fails the run with ``OSError`` naming it, from the forked writer and
    from the main process, after every other table is written."""
    if where == "main":
        monkeypatch.setattr(_tables, "_thread_count", lambda: 2)
    else:
        _writer_claims_first(monkeypatch)
    config = short_config(**DIVERGING)
    out = tmp_path / "out"
    (out / "taps.csv").mkdir(parents=True)
    with pytest.raises(OSError, match="taps.csv") as failure:
        reports.run_to_csv(config, str(out))
    assert "fast" not in str(failure.value)
    reference = tmp_path / "old"
    oracles.reference_write_run_csv(run_single(config), str(reference))
    for name in ("fast.csv", "discrete.csv", "u_blocks.csv", "report.csv"):
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_library_writers_never_fork(tmp_path, monkeypatch, default_config):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    sweep = run_mu_sweep(short_config(T=6.0), mu_values=[0.1])
    assert len(write_sweep_csv(sweep, str(tmp_path / "sweep"))) == 2
    assert os.path.isfile(write_bode_csv(default_config, str(tmp_path / "bode")))


@pytest.mark.parametrize("chunk", [None, 7])
def test_special_values_inside_long_tables(tmp_path, monkeypatch, chunk):
    """-0.0, +-inf, nan, 5e-324 and the largest double keep their bytes inside long tables.

    At 400 periods taps.csv spans several chunks of the default
    ``_CHUNK_VALUES`` and fast.csv two of the default ``_FAST_CHUNK_VALUES``,
    so the array formatter meets the special values among ordinary ones; at
    7 values a chunk every row is a chunk of its own.
    """
    if chunk is not None:
        monkeypatch.setattr(_tables, "_CHUNK_VALUES", chunk)
        monkeypatch.setattr(_tables, "_FAST_CHUNK_VALUES", chunk)
    diverged = run_single(short_config(divergence_cutoff=1e-9))
    special = _special_run(diverged, n=400)
    assert special.trace.x.size * 6 > 3 * _tables._CHUNK_VALUES or chunk == 7
    assert special.trace.x.size * 6 > _tables._FAST_CHUNK_VALUES
    _assert_same_bytes(tmp_path / "run", _write_run, oracles.reference_write_run_csv, special)
    _assert_same_bytes(
        tmp_path / "cmp", _write_comparison, oracles.reference_write_comparison_csv,
        ComparisonResult(proposed=special, conventional=diverged, ratio=np.nan),
    )
    values = _with_specials(3 * 700, 700).reshape(700, 3)
    flags = np.random.default_rng(7).integers(0, 2, (700, 4)).astype(bool).tolist()
    rows = tuple(SweepRow(*v, *f) for v, f in zip(values.tolist(), flags))
    sweep = replace(run_mu_sweep(short_config(T=6.0), mu_values=[0.1]), rows=rows)
    _assert_same_bytes(tmp_path / "sweep", write_sweep_csv, oracles.reference_write_sweep_csv, sweep)


def test_csv_writer_streams_long_tables(tmp_path, monkeypatch):
    """Tables longer than one chunk come out whole and in order."""
    monkeypatch.setattr(_tables, "_CHUNK_VALUES", 7)
    monkeypatch.setattr(_tables, "_FAST_CHUNK_VALUES", 7)
    _assert_streamed_tables_match(tmp_path, short_config(), compare=False)


@pytest.mark.parametrize("n_float", [1, 32])
@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_csv_writer_chunk_boundaries(tmp_path, n_float, offset):
    """Narrow and wide tables at and around one chunk of rows keep their bytes.

    ``offset`` None writes an empty and a one-row table; otherwise the row
    count is the writer's rows per chunk plus ``offset``.
    """
    n_cols = 1 + n_float
    chunk = max(1, _tables._CHUNK_VALUES // n_cols)
    header = ["n"] + [f"v{j}" for j in range(n_float)]
    fmt = ",".join(["%d"] + ["%.17g"] * n_float) + "\n"
    rng = np.random.default_rng(n_cols)
    for n_rows in ([0, 1] if offset is None else [chunk + offset]):
        columns = [np.arange(n_rows)] + [rng.normal(size=n_rows) for _ in range(n_float)]
        path = tmp_path / f"t{n_rows}.csv"
        _tables._write_columns(str(path), header, columns)
        rows = zip(*[c.tolist() for c in columns])
        want = ",".join(header) + "\n" + "".join([fmt % row for row in rows])
        assert path.read_bytes() == want.encode(), n_rows


@pytest.mark.parametrize("chunk_values", [5, 7, 64])
def test_tables_sharing_columns_match_row_wise_rows(tmp_path, chunk_values):
    """Tables reading any columns of one pool, in any order, stopping at
    different rows over several messages, keep the row-wise writer's bytes:
    the table that reads every column in order is written from the shared
    fields, the others from selections."""
    rng = np.random.default_rng(chunk_values)
    columns = [np.arange(40), *rng.normal(size=(3, 40)), rng.integers(0, 2, 40).astype(bool)]
    tables = [(str(tmp_path / f"{i}"), [f"c{j}" for j in picks], picks)
              for i, picks in enumerate([[0, 3, 1], list(range(5)), [2], [4, 0]])]
    stops = [40, 40, 23, 9]
    ready = [[min(n, stop) for stop in stops] for n in (3, 9, 10, 31, 40)]
    assert not _tables._write_tables(tables, columns, ready, chunk_values)
    for (path, header, picks), stop in zip(tables, stops):
        oracles.write_csv_rows(str(tmp_path / "old"), header, zip(*[columns[j][:stop].tolist() for j in picks]))
        assert (tmp_path / path).read_bytes() == (tmp_path / "old").read_bytes(), path


def test_identical_runs_identical_bytes(tmp_path):
    config = short_config()
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        reports.run_to_csv(config, str(out))
        dirs.append(out)
    for fname in os.listdir(dirs[0]):
        assert filecmp.cmp(dirs[0] / fname, dirs[1] / fname, shallow=False), fname


def test_different_seed_different_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    reports.run_to_csv(short_config(), str(out_a))
    reports.run_to_csv(short_config(seed=77), str(out_b))
    assert not filecmp.cmp(out_a / "fast.csv", out_b / "fast.csv", shallow=False)


def test_report_contains_condition_summary(tmp_path):
    result, _ = reports.run_to_csv(short_config(), str(tmp_path))
    report = dict(
        line.split(",", 1)
        for line in (tmp_path / "report.csv").read_text().splitlines()[1:]
    )
    assert float(report["mu"]) == 0.1
    assert report["diverged"] == "0"
    got = check_lms_conditions(
        result.u_alg_blocks, mu=0.1, n_taps=4, h=1.0
    )
    assert float(report["gram_lambda_max"]) == got.lambda_max
    assert float(report["mu_limit"]) == got.mu_limit
    assert report["cond_step"] == "1"
