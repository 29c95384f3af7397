"""What each table holds: the report, comparison, sweep and Bode tables, and
``run_to_csv``, which runs the arms of ``run`` and ``compare`` with their
table writer.

CSV files contain no timestamps and format floats with %.17g, so equal
configs give equal bytes; long tables are formatted by the array kernel of
``ancsim._g17``, with CPython's bytes. ``run_to_csv`` (the ``run`` and
``compare`` commands, the one writer of their tables) forks one writer right
after the exogenous record is built: it streams every fast.csv from the arm
loop's shared w and e histories while the arms run. After the loop it and
this process share the period tables (discrete.csv, taps.csv, u_blocks.csv,
laid out in ``ancsim._tables``), whichever is free taking the next, and
this process writes the report and comparison tables. Where forking is
missing, fails, or would copy a process with other OS threads (BLAS
workers; the command pins BLAS to one thread, see ``ancsim/__init__.py``),
this process writes every table after the loop instead (see ``_FastWriter``).
The numbers come from ``ancsim.runner``, loaded by ``run_to_csv`` when it
runs, so ``bode`` loads no run module.
"""

from __future__ import annotations

import os

import numpy as np

from ._tables import _PERIOD_TABLES, _FastWriter, _write_columns, _write_items, load_u_blocks
from .config import SimConfig
from .statespace import freq_response_grid

__all__ = ["run_to_csv", "emit_bode", "write_sweep_csv", "write_bode_csv", "load_u_blocks"]


def _write_report(result, path: str) -> None:
    """report.csv of one arm's ``SingleRunResult``."""
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
    _write_items(path, items)


def _write_ratio_table(result, out_dir: str) -> str:
    """comparison.csv of a ``ComparisonResult``."""
    path = os.path.join(out_dir, "comparison.csv")
    items = [
        ("error_l2_proposed", result.proposed.error_norm),
        ("error_l2_conventional", result.conventional.error_norm),
        ("ratio", result.ratio),
    ]
    _write_items(path, items)
    return path


def run_to_csv(config: SimConfig, out_dir: str, compare: bool = False):
    """``run_single`` (``run_comparison`` when ``compare``) and its tables in one pass.

    Writes fast, discrete, taps, u_blocks and report tables per arm
    (prefixed ``proposed_`` and ``conventional_`` when ``compare``, plus
    comparison.csv) and returns ``(result, paths)``. A forked process
    writes each arm's fast.csv while the arms run (see ``_FastWriter``);
    it and this one then share the period tables, and this one writes the
    report and comparison tables. A table that fails is raised as
    ``OSError`` naming the file after the other tables are written. The
    directory is made only once every array of the arm loop is held.
    """
    from .runner import _pair, _result, _run_arms, _setup

    prefixes = ("proposed_", "conventional_") if compare else ("",)
    machine, record = _setup(config)
    writer = _FastWriter(out_dir, prefixes, config.h, record)
    arms = None
    try:
        arms = _run_arms(config, machine, record, [(config.mu, None), (config.mu, 1)][:len(prefixes)], writer)
        writer.claim()
        result = _pair(arms) if compare else _result(arms, 0)
        paths = []
        for res, prefix in zip((result.proposed, result.conventional) if compare else (result,), prefixes):
            paths += [os.path.join(out_dir, prefix + name) for name in ("fast.csv", *_PERIOD_TABLES, "report.csv")]
            _write_report(res, paths[-1])
        if compare:
            paths.append(_write_ratio_table(result, out_dir))
    finally:
        # a run that stopped before its results leaves no fast tables behind
        failure = writer.close(abort=arms is None)
    if failure:
        raise OSError(failure)
    return result, paths


# SweepRow's fields in column order; the error columns are headed error_l2_*
_SWEEP_FIELDS = ("mu", "error_proposed", "error_conventional", "diverged_proposed",
                 "diverged_conventional", "step_ok_proposed", "step_ok_conventional")


def write_sweep_csv(result, out_dir: str) -> list[str]:
    """sweep.csv, one row per step size, and sweep_summary.csv of a ``SweepResult``."""
    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, "sweep.csv")
    _write_columns(rows_path, [name.replace("error", "error_l2") for name in _SWEEP_FIELDS],
                   [np.array([getattr(r, name) for r in result.rows]) for name in _SWEEP_FIELDS])
    summary_path = os.path.join(out_dir, "sweep_summary.csv")
    items = [
        ("threshold", result.threshold),
        ("mu_max_proposed", result.mu_max_proposed),
        ("mu_max_conventional", result.mu_max_conventional),
        ("widening", result.widening),
    ]
    _write_items(summary_path, items)
    return [rows_path, summary_path]


_BODE_POINTS = 400


def emit_bode(config: SimConfig) -> dict:
    """Magnitude/phase columns of both plants by name, the frequencies first: a
    log grid of ``_BODE_POINTS`` frequencies plus one exact row at the Nyquist
    frequency pi / h, flagged in the ``at_nyquist`` column."""
    nyq = np.pi / config.h
    om = np.geomspace(nyq * 1e-2, nyq * 1e2, _BODE_POINTS)
    om = np.unique(np.concatenate([om, [nyq]]))
    sec = freq_response_grid(config.secondary(), om)
    pri = freq_response_grid(config.primary(), om)
    return {
        "omega_rad_s": om,
        "secondary_mag": np.abs(sec),
        "secondary_phase_rad": np.unwrap(np.angle(sec)),
        "primary_mag": np.abs(pri),
        "primary_phase_rad": np.unwrap(np.angle(pri)),
        "at_nyquist": (om == nyq).astype(float),
    }


def write_bode_csv(config: SimConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    cols = emit_bode(config)
    path = os.path.join(out_dir, "bode.csv")
    _write_columns(path, list(cols.keys()), list(cols.values()))
    return path
