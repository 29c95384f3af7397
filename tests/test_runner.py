"""Closed-loop runner, comparison, sweep, and CSV output."""

import filecmp
import os
from dataclasses import replace

import numpy as np
import pytest

import _frozen
import oracles
from ancsim import (
    ComparisonResult,
    SimTrace,
    check_lms_conditions,
    emit_bode,
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


def short_config(**overrides):
    base = dict(T=20.0, L=4, n_taps=4, mu=0.1)
    base.update(overrides)
    return SimConfig().with_overrides(**base)


# ---------------------------------------------------------------------------
# single runs


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


def test_sweep_worker_pool_matches_serial():
    config = short_config(T=20.0)
    serial = run_mu_sweep(config, mu_values=[0.1, 0.3])
    parallel = run_mu_sweep(
        config.with_overrides(workers=4), mu_values=[0.1, 0.3]
    )
    for a, b in zip(serial.rows, parallel.rows):
        assert a == b
    assert serial.widening == parallel.widening


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


def _special_run(base):
    """``base`` with every table holding extreme and signed values."""
    special = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, -1.5, 0.1])
    n, L = 2, 4
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


def test_csv_writer_matches_row_wise_writer(tmp_path, benchmark_run, benchmark_comparison):
    diverged = run_single(short_config(divergence_cutoff=1e-9))
    assert diverged.diverged and diverged.u_alg_blocks.shape[0] == 0
    special = _special_run(diverged)
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
    comparisons = {
        "cmp_default": benchmark_comparison,
        "cmp_special": ComparisonResult(proposed=special, conventional=diverged, ratio=np.nan),
    }
    for name, comp in comparisons.items():
        _assert_same_bytes(
            tmp_path / name, write_comparison_csv, oracles.reference_write_comparison_csv, comp
        )


def test_csv_writer_streams_long_tables(tmp_path, monkeypatch):
    """Tables longer than one chunk come out whole and in order."""
    from ancsim import runner

    monkeypatch.setattr(runner, "_CHUNK_ROWS", 7)
    result = run_single(short_config())
    _assert_same_bytes(tmp_path, write_run_csv, oracles.reference_write_run_csv, result)


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
