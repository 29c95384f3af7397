"""Closed-loop runner, comparison, sweep, and CSV output."""

import dataclasses
import filecmp
import os
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest

import _frozen
import oracles
from ancsim import _tables, runner
from ancsim import (
    ComparisonResult,
    SimTrace,
    SweepRow,
    check_lms_conditions,
    discretize_lifted,
    emit_bode,
    fh_step,
    load_u_blocks,
    run_comparison,
    run_mu_sweep,
    run_single,
    spectral_bound,
    write_bode_csv,
    write_comparison_csv,
    write_run_csv,
    write_sweep_csv,
)
from ancsim.config import SimConfig
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
        eta, want[n] = fh_step(lift, eta, x)
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


def test_sweep_requires_steps():
    with pytest.raises(ValueError):
        run_mu_sweep(short_config(), mu_values=[])


# ---------------------------------------------------------------------------
# arms sharing one exogenous record


def _flat(obj, prefix=""):
    """Leaves of nested result dataclasses, keyed by their dotted path."""
    if not dataclasses.is_dataclass(obj):
        return {prefix: obj}
    out = {}
    for f in dataclasses.fields(obj):
        out.update(_flat(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name))
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


@pytest.mark.parametrize("overrides", [dict(L=8), dict(T=40.0, mu=100.0)])
def test_comparison_arms_equal_single_runs(overrides):
    config = short_config(**overrides)
    comp = run_comparison(config)
    _assert_identical(comp.proposed, run_single(config))
    _assert_identical(comp.conventional, run_single(config, algorithm_cells=1))


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


def test_arm_loop_matches_single_arm_reference(tmp_path):
    """Every arm of one batched run equals the single-arm loop, field by field."""
    seen = set()
    for config, arms in _arm_cases(tmp_path):
        machine, record = runner._setup(config)
        got = runner._run_arms(config, machine, record, arms)
        for (mu, cells), result in zip(arms, got):
            want = oracles.reference_run_arm(replace(config, mu=mu), machine, record, cells)
            _assert_identical(result, want)
            assert result.lms_report == want.lms_report
            for name in ("alpha_hist", "delta_hist", "final_alpha", "final_delta", "u_alg_blocks"):
                assert np.array_equal(getattr(result, name), getattr(want, name)), name
            k, N = result.n_completed, config.n_steps
            seen.add("stable" if not result.diverged else "first" if k == 1 else "mid-run")
            if result.diverged and k == 1:
                assert result.lms_report is None
            assert 1 <= k <= N
    assert seen == {"stable", "mid-run", "first"}


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


def test_run_csv_round_trip(tmp_path):
    config = short_config()
    result = run_single(config)
    files = write_run_csv(result, str(tmp_path))
    names = {os.path.basename(f) for f in files}
    assert {"fast.csv", "discrete.csv", "taps.csv", "u_blocks.csv", "report.csv"} <= names
    back = load_u_blocks(str(tmp_path / "u_blocks.csv"))
    # %.17g format reproduces doubles exactly
    assert np.array_equal(back, result.u_alg_blocks)
    report_text = (tmp_path / "report.csv").read_text()
    assert "error_l2" in report_text
    assert "\r" not in report_text


def test_fast_csv_columns(tmp_path):
    config = short_config()
    result = run_single(config)
    write_run_csv(result, str(tmp_path))
    header = (tmp_path / "fast.csv").read_text().splitlines()[0]
    assert header.split(",") == ["t", "x", "d", "w", "e", "u"]
    data = np.loadtxt(tmp_path / "fast.csv", delimiter=",", skiprows=1)
    assert data.shape == (config.n_steps * config.L, 6)
    assert np.array_equal(data[:, 4], result.trace.e)


def test_comparison_csv(tmp_path):
    comp = run_comparison(short_config(T=10.0))
    files = write_comparison_csv(comp, str(tmp_path))
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
    om, cols = emit_bode(default_config, n_points=200)
    nyq = np.pi / default_config.h
    assert np.any(om == nyq)
    assert cols["at_nyquist"].sum() == 1.0
    path = write_bode_csv(default_config, str(tmp_path), n_points=200)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[1] == 6
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
            tmp_path / name, write_comparison_csv, oracles.reference_write_comparison_csv, comp
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
        _assert_same_bytes(tmp_path / name, write_run_csv, oracles.reference_write_run_csv, result)
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
    result, paths = runner.run_to_csv(config, str(tmp_path / "new"), compare=compare)
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
    monkeypatch.setattr(_tables._FastWriter, "every", progress)
    monkeypatch.setattr(_tables, "_CHUNK_VALUES", 50)
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


def test_comparison_writer_reports_a_killed_child(tmp_path, monkeypatch):
    """A fast-table writer that dies without a message still fails the run, and is reaped."""
    parent, write = os.getpid(), _tables._write_fast

    def killed_in_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return write(*args)

    monkeypatch.setattr(_tables, "_write_fast", killed_in_child)
    with pytest.raises(OSError, match="fast table writer exited with code -9"):
        runner.run_to_csv(short_config(), str(tmp_path), compare=True)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (tmp_path / "comparison.csv").is_file()


def test_library_writers_never_fork(tmp_path, monkeypatch, benchmark_run, benchmark_comparison,
                                    default_config):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    sweep = run_mu_sweep(short_config(T=6.0), mu_values=[0.1])
    assert len(write_run_csv(benchmark_run, str(tmp_path / "run"))) == 5
    assert len(write_comparison_csv(benchmark_comparison, str(tmp_path / "cmp"))) == 11
    assert len(write_sweep_csv(sweep, str(tmp_path / "sweep"))) == 2
    assert os.path.isfile(write_bode_csv(default_config, str(tmp_path / "bode"), n_points=8))


@pytest.mark.parametrize("chunk", [None, 7])
def test_special_values_inside_long_tables(tmp_path, monkeypatch, chunk):
    """-0.0, +-inf, nan, 5e-324 and the largest double keep their bytes inside long tables.

    At 400 periods fast.csv and taps.csv span several chunks of the default
    ``_CHUNK_VALUES``, so the array formatter meets the special values among
    ordinary ones; at 7 values a chunk every row is a chunk of its own.
    """
    if chunk is not None:
        monkeypatch.setattr(_tables, "_CHUNK_VALUES", chunk)
    diverged = run_single(short_config(divergence_cutoff=1e-9))
    special = _special_run(diverged, n=400)
    assert special.trace.x.size * 6 > 3 * _tables._CHUNK_VALUES or chunk == 7
    _assert_same_bytes(tmp_path / "run", write_run_csv, oracles.reference_write_run_csv, special)
    _assert_same_bytes(
        tmp_path / "cmp", write_comparison_csv, oracles.reference_write_comparison_csv,
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
    result = run_single(short_config())
    _assert_same_bytes(tmp_path, write_run_csv, oracles.reference_write_run_csv, result)


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


def test_identical_runs_identical_bytes(tmp_path):
    config = short_config()
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        result = run_single(config)
        write_run_csv(result, str(out))
        dirs.append(out)
    for fname in os.listdir(dirs[0]):
        assert filecmp.cmp(dirs[0] / fname, dirs[1] / fname, shallow=False), fname


def test_different_seed_different_bytes(tmp_path):
    a = run_single(short_config())
    b = run_single(short_config(seed=77))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    write_run_csv(a, str(out_a))
    write_run_csv(b, str(out_b))
    assert not filecmp.cmp(out_a / "fast.csv", out_b / "fast.csv", shallow=False)


def test_report_contains_condition_summary(tmp_path):
    result = run_single(short_config())
    write_run_csv(result, str(tmp_path))
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
