"""Experiment drivers: single runs, paired comparisons, step-size sweeps,
and frequency-response tables, plus deterministic CSV output.

The closed loop is always *traced* on the configured fast grid so that error
norms from different arms share one quadrature. The adaptive algorithm may
run on a coarser blocking of the same grid: the proposed arm uses all L
cells per period, the conventional arm collapses them to one cell (slow-rate
error samples and period-long regressor integrals). CSV files contain no
timestamps and format floats with %.17g, so equal configs give equal bytes.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .adaptive import (
    LmsConditionReport,
    check_lms_conditions,
    initial_adaptive_state,
    sdfx_lms_step,
)
from .config import SimConfig
from .lifting import HybridLoop, SimTrace, discretize_lifted, l2_norm
from .statespace import freq_response_grid

__all__ = [
    "SingleRunResult",
    "ComparisonResult",
    "SweepRow",
    "SweepResult",
    "run_single",
    "run_comparison",
    "run_mu_sweep",
    "emit_bode",
    "write_run_csv",
    "write_comparison_csv",
    "write_sweep_csv",
    "load_u_blocks",
]


@dataclass(frozen=True)
class SingleRunResult:
    """One closed-loop run and its summary numbers.

    ``alpha_hist[n]`` are the taps in effect during period n and
    ``delta_hist[n]`` the cumulative direction entering period n.
    ``u_alg_blocks`` are the regressor blocks seen by the algorithm
    (``algorithm_cells`` cells per period, one row per completed update).
    """

    trace: SimTrace
    alpha_hist: np.ndarray
    delta_hist: np.ndarray
    final_alpha: np.ndarray
    final_delta: np.ndarray
    u_alg_blocks: np.ndarray
    algorithm_cells: int
    mu: float
    error_norm: float
    d_norm: float
    w_norm: float
    diverged: bool
    n_completed: int
    lms_report: LmsConditionReport | None


@dataclass(frozen=True)
class ComparisonResult:
    proposed: SingleRunResult
    conventional: SingleRunResult
    ratio: float


@dataclass(frozen=True)
class SweepRow:
    mu: float
    error_proposed: float
    error_conventional: float
    diverged_proposed: bool
    diverged_conventional: bool
    step_ok_proposed: bool
    step_ok_conventional: bool


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    threshold: float
    mu_max_proposed: float
    mu_max_conventional: float
    widening: float


def run_single(config: SimConfig, algorithm_cells: int | None = None) -> SingleRunResult:
    """Run the adaptive loop for the configured horizon.

    ``algorithm_cells`` selects the blocking the *algorithm* sees; tracing
    always happens at config.L cells per period. It must divide config.L.
    """
    L = config.L
    L_alg = L if algorithm_cells is None else int(algorithm_cells)
    if L_alg < 1 or L % L_alg != 0:
        raise ValueError(f"algorithm_cells must divide L = {L}, got {L_alg}")
    stride = L // L_alg

    secondary = config.secondary()
    primary = config.primary()
    generator = config.make_generator()
    machine = HybridLoop(secondary, primary, generator, config.h, L)
    lift_alg = machine.lift if L_alg == L else discretize_lifted(secondary, config.h, L_alg)

    astate = initial_adaptive_state(lift_alg, config.n_taps)
    lstate = machine.initial_state(config.n_taps)

    xd, yd = [], []
    xf, df, wf, ef, uf = [], [], [], [], []
    ublocks_trace, ublocks_alg = [], []
    alpha_rows, delta_rows = [], []
    diverged = False

    for _ in range(config.n_steps):
        taps = astate.alpha + config.mu * astate.delta
        delta_rows.append(astate.delta.copy())
        alpha_rows.append(taps.copy())
        lstate, rec = machine.step(lstate, taps)

        xd.append(rec.x_d)
        yd.append(rec.y_d)
        xf.append(rec.x_fast)
        df.append(rec.d_fast)
        wf.append(rec.w_fast)
        ef.append(rec.e_block)
        uf.append(rec.u_fast)
        ublocks_trace.append(rec.u_block)

        bad = not np.all(np.isfinite(rec.e_block))
        if not bad:
            bad = float(np.max(np.abs(rec.e_block))) > config.divergence_cutoff
        if bad:
            diverged = True
            break

        astate = sdfx_lms_step(astate, lift_alg, config.mu, rec.e_block[::stride], rec.x_d)
        ublocks_alg.append(astate.U_hist[0].copy())

    n_completed = len(xd)
    trace = SimTrace(
        h=config.h,
        L=L,
        x_d=np.asarray(xd),
        y_d=np.asarray(yd),
        x=np.concatenate(xf) if xf else np.zeros(0),
        d=np.concatenate(df) if df else np.zeros(0),
        w=np.concatenate(wf) if wf else np.zeros(0),
        e=np.concatenate(ef) if ef else np.zeros(0),
        u=np.concatenate(uf) if uf else np.zeros(0),
        u_blocks=np.asarray(ublocks_trace).reshape(n_completed, L),
    )

    error_norm = float("inf") if diverged else trace.norm("e")
    u_alg = np.asarray(ublocks_alg).reshape(len(ublocks_alg), L_alg)
    report = None
    if config.mu > 0.0 and u_alg.shape[0] > 0:
        report = check_lms_conditions(
            u_alg, config.mu, config.n_taps, config.h, config.eps_threshold
        )
    return SingleRunResult(
        trace=trace,
        alpha_hist=np.asarray(alpha_rows).reshape(n_completed, config.n_taps),
        delta_hist=np.asarray(delta_rows).reshape(n_completed, config.n_taps),
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


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 1.0 if num == 0.0 else float("inf")
    if np.isinf(den):
        return 0.0 if np.isfinite(num) else float("nan")
    return num / den


def run_comparison(config: SimConfig) -> ComparisonResult:
    """Proposed (all cells) and conventional (one cell) arms, same loop."""
    proposed = run_single(config)
    conventional = run_single(config, algorithm_cells=1)
    return ComparisonResult(
        proposed=proposed,
        conventional=conventional,
        ratio=_ratio(proposed.error_norm, conventional.error_norm),
    )


def _step_ok(result: SingleRunResult) -> bool:
    # A diverged run is direct evidence the realized step size was outside
    # the usable range, whatever the a-priori check said.
    if result.diverged:
        return False
    if result.lms_report is None:
        return True
    return result.lms_report.step_ok


def run_mu_sweep(config: SimConfig, mu_values=None) -> SweepResult:
    """Comparison runs over a list of step sizes.

    Rows are ordered by mu regardless of worker scheduling. The stable
    range per arm is the contiguous prefix of step sizes whose error norm
    stays below the threshold; its upper end is reported per arm together
    with the widening factor proposed/conventional.
    """
    mus = tuple(sorted(float(m) for m in (mu_values if mu_values is not None else config.mu_list)))
    if not mus:
        raise ValueError("sweep needs at least one step size")

    def one(mu: float) -> ComparisonResult:
        return run_comparison(replace(config, mu=mu))

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(one, mus))
    else:
        results = [one(m) for m in mus]

    rows = []
    for mu, res in zip(mus, results):
        rows.append(SweepRow(
            mu=mu,
            error_proposed=res.proposed.error_norm,
            error_conventional=res.conventional.error_norm,
            diverged_proposed=res.proposed.diverged,
            diverged_conventional=res.conventional.diverged,
            step_ok_proposed=_step_ok(res.proposed),
            step_ok_conventional=_step_ok(res.conventional),
        ))

    def stable_edge(errors) -> float:
        edge = 0.0
        for mu, err in zip(mus, errors):
            if np.isfinite(err) and err < config.threshold:
                edge = mu
            else:
                break
        return edge

    mu_max_p = stable_edge([r.error_proposed for r in rows])
    mu_max_c = stable_edge([r.error_conventional for r in rows])
    return SweepResult(
        rows=tuple(rows),
        threshold=config.threshold,
        mu_max_proposed=mu_max_p,
        mu_max_conventional=mu_max_c,
        widening=_ratio(mu_max_p, mu_max_c),
    )


def emit_bode(config: SimConfig, n_points: int = 400):
    """Magnitude/phase table for both plants on a log frequency grid.

    The grid gets one exact row at the Nyquist frequency pi / h, flagged in
    the ``at_nyquist`` column. Returns (omegas, columns dict).
    """
    nyq = np.pi / config.h
    om = np.geomspace(nyq * 1e-2, nyq * 1e2, n_points)
    om = np.unique(np.concatenate([om, [nyq]]))
    sec = freq_response_grid(config.secondary(), om)[:, 0, 0]
    pri = freq_response_grid(config.primary(), om)[:, 0, 0]
    cols = {
        "omega_rad_s": om,
        "secondary_mag": np.abs(sec),
        "secondary_phase_rad": np.unwrap(np.angle(sec)),
        "primary_mag": np.abs(pri),
        "primary_phase_rad": np.unwrap(np.angle(pri)),
        "at_nyquist": (om == nyq).astype(float),
    }
    return om, cols


# ---------------------------------------------------------------------------
# CSV output


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_CHUNK_ROWS = 4096


def _write_columns(path: str, header: list[str], columns) -> None:
    """Write equal-length 1-D columns as CSV, streamed in row chunks.

    Integer and boolean columns print with %d, all others with %.17g, which
    gives the same bytes as ``_write_csv`` on the same values. Only one
    chunk of rows is ever held as Python objects.
    """
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join("%d" if c.dtype.kind in "iub" else "%.17g" for c in columns) + "\n"
    n_rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            chunk = [c[start:start + _CHUNK_ROWS].tolist() for c in columns]
            fh.write("".join([fmt % row for row in zip(*chunk)]))


def write_run_csv(result: SingleRunResult, out_dir: str, prefix: str = "") -> list[str]:
    """Write fast/discrete/taps/u_blocks/report tables; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    tr = result.trace
    paths = []

    def p(name: str) -> str:
        path = os.path.join(out_dir, prefix + name)
        paths.append(path)
        return path

    _write_columns(
        p("fast.csv"),
        ["t", "x", "d", "w", "e", "u"],
        [tr.t_fast, tr.x, tr.d, tr.w, tr.e, tr.u],
    )
    n_idx = np.arange(tr.n_steps)
    _write_columns(
        p("discrete.csv"),
        ["n", "t", "x_d", "y_d"],
        [n_idx, n_idx * tr.h, tr.x_d, tr.y_d],
    )
    n_taps = result.alpha_hist.shape[1] if result.alpha_hist.size else 0
    header = ["n"] + [f"alpha_{k}" for k in range(n_taps)] + [f"delta_{k}" for k in range(n_taps)]
    _write_columns(
        p("taps.csv"),
        header,
        [np.arange(result.alpha_hist.shape[0]), *result.alpha_hist.T, *result.delta_hist.T],
    )
    _write_columns(
        p("u_blocks.csv"),
        ["n"] + [f"u_{l}" for l in range(result.algorithm_cells)],
        [np.arange(result.u_alg_blocks.shape[0]), *result.u_alg_blocks.T],
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
    _write_csv(p("report.csv"), ["key", "value"], items)
    return paths


def write_comparison_csv(result: ComparisonResult, out_dir: str) -> list[str]:
    paths = write_run_csv(result.proposed, out_dir, prefix="proposed_")
    paths += write_run_csv(result.conventional, out_dir, prefix="conventional_")
    path = os.path.join(out_dir, "comparison.csv")
    _write_csv(
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


def write_sweep_csv(result: SweepResult, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, "sweep.csv")
    _write_csv(
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
    _write_csv(
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


def write_bode_csv(config: SimConfig, out_dir: str, n_points: int = 400) -> str:
    os.makedirs(out_dir, exist_ok=True)
    _, cols = emit_bode(config, n_points)
    path = os.path.join(out_dir, "bode.csv")
    _write_csv(path, list(cols.keys()), zip(*cols.values()))
    return path


def load_u_blocks(path: str) -> np.ndarray:
    """Read back a u_blocks.csv table (inverse of write_run_csv's writer)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: expected an index column plus block columns")
    return data[:, 1:]
