"""Experiment drivers: single runs, paired comparisons, step-size sweeps,
and frequency-response tables, plus deterministic CSV output.

The closed loop is always *traced* on the configured fast grid so that error
norms from different arms share one quadrature. The adaptive algorithm may
run on a coarser blocking of the same grid: the proposed arm uses all L
cells per period, the conventional arm collapses them to one cell (slow-rate
error samples and period-long regressor integrals). Either way the update
consumes the loop's traced cell integrals, summed over each algorithm cell.
The arms of one configuration (both arms of a comparison, every arm of a
sweep) share one loop and one exogenous record, so the plants, the
discretization, the reference, the disturbance and the regressor are
computed once; an arm only steps the anti-noise path under its own taps.
CSV files contain no timestamps and format floats with %.17g, so equal
configs give equal bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .adaptive import (
    LmsConditionReport,
    check_lms_conditions,
    initial_adaptive_state,
    sdfx_lms_step,
)
from .config import SimConfig
from .lifting import ExogenousRecord, HybridLoop, SimTrace
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


def _setup(config: SimConfig) -> tuple[HybridLoop, ExogenousRecord]:
    """The loop of one configuration and its exogenous record, shared by its arms."""
    machine = HybridLoop(config.secondary(), config.primary(), config.make_generator(), config.h, config.L)
    return machine, machine.exogenous(config.n_steps)


def run_single(config: SimConfig, algorithm_cells: int | None = None) -> SingleRunResult:
    """Run the adaptive loop for the configured horizon.

    ``algorithm_cells`` selects the blocking the *algorithm* sees; tracing
    always happens at config.L cells per period. It must divide config.L.
    Each algorithm cell covers ``config.L // algorithm_cells`` traced cells:
    its error sample is the first of them and its regressor integral their
    sum, which is exact because the traced cell integrals are.
    """
    return _run_arm(config, *_setup(config), algorithm_cells)


def _run_arm(config: SimConfig, machine: HybridLoop, record: ExogenousRecord,
             algorithm_cells: int | None) -> SingleRunResult:
    """One adaptive arm on a shared loop: only the anti-noise path is stepped."""
    L, N, n_taps = config.L, config.n_steps, config.n_taps
    L_alg = L if algorithm_cells is None else int(algorithm_cells)
    if L_alg < 1 or L % L_alg != 0:
        raise ValueError(f"algorithm_cells must divide L = {L}, got {L_alg}")
    stride = L // L_alg
    # stride 1 passes the blocks through: a one-term sum would print -0.0 as 0
    u_alg = record.u_blocks if stride == 1 else record.u_blocks.reshape(N, L_alg, stride).sum(axis=2)

    astate = initial_adaptive_state(n_taps, L_alg)
    lstate = machine.initial_state(n_taps)
    y_d = np.empty(N)
    w, e = np.empty((N, L)), np.empty((N, L))
    alpha_hist, delta_hist = np.empty((N, n_taps)), np.empty((N, n_taps))
    n_completed, diverged = N, False

    for n in range(N):
        taps = astate.alpha + config.mu * astate.delta
        delta_hist[n] = astate.delta
        alpha_hist[n] = taps
        lstate, y_d[n], w[n] = machine.step(lstate, taps, record.x_d[n])
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


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 1.0 if num == 0.0 else float("inf")
    if np.isinf(den):
        return 0.0 if np.isfinite(num) else float("nan")
    return num / den


def run_comparison(config: SimConfig) -> ComparisonResult:
    """Proposed (all cells) and conventional (one cell) arms, same loop."""
    return _compare(config, *_setup(config))


def _compare(config: SimConfig, machine: HybridLoop, record: ExogenousRecord) -> ComparisonResult:
    proposed = _run_arm(config, machine, record, None)
    conventional = _run_arm(config, machine, record, 1)
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

    Rows are ordered by mu. The stable range per arm is the contiguous
    prefix of step sizes whose error norm stays below the threshold; its
    upper end is reported per arm together with the widening factor
    proposed/conventional.
    """
    mus = tuple(sorted(float(m) for m in (mu_values if mu_values is not None else config.mu_list)))
    if not mus:
        raise ValueError("sweep needs at least one step size")

    machine, record = _setup(config)
    results = [_compare(replace(config, mu=mu), machine, record) for mu in mus]

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


_CHUNK_ROWS = 4096
_COLUMN_FORMATS = {"i": "%d", "u": "%d", "b": "%d", "U": "%s"}


def _write_columns(path: str, header: list[str], columns) -> None:
    """Write equal-length 1-D columns as CSV, streamed in row chunks.

    Integer and boolean columns print with %d, text columns with %s, all
    others with %.17g. Only one chunk of rows is ever held as Python objects.
    A key/value table passes ``zip(*items)``, so its values form one float64
    column; %.17g prints its counts and flags without a decimal point.
    """
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join(_COLUMN_FORMATS.get(c.dtype.kind, "%.17g") for c in columns) + "\n"
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
    _write_columns(p("report.csv"), ["key", "value"], zip(*items))
    return paths


def write_comparison_csv(result: ComparisonResult, out_dir: str) -> list[str]:
    paths = write_run_csv(result.proposed, out_dir, prefix="proposed_")
    paths += write_run_csv(result.conventional, out_dir, prefix="conventional_")
    path = os.path.join(out_dir, "comparison.csv")
    items = [
        ("error_l2_proposed", result.proposed.error_norm),
        ("error_l2_conventional", result.conventional.error_norm),
        ("ratio", result.ratio),
    ]
    _write_columns(path, ["key", "value"], zip(*items))
    paths.append(path)
    return paths


def write_sweep_csv(result: SweepResult, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, "sweep.csv")
    _write_columns(
        rows_path,
        [
            "mu",
            "error_l2_proposed", "error_l2_conventional",
            "diverged_proposed", "diverged_conventional",
            "step_ok_proposed", "step_ok_conventional",
        ],
        [np.array([getattr(r, f.name) for r in result.rows]) for f in fields(SweepRow)],
    )
    summary_path = os.path.join(out_dir, "sweep_summary.csv")
    items = [
        ("threshold", result.threshold),
        ("mu_max_proposed", result.mu_max_proposed),
        ("mu_max_conventional", result.mu_max_conventional),
        ("widening", result.widening),
    ]
    _write_columns(summary_path, ["key", "value"], zip(*items))
    return [rows_path, summary_path]


def write_bode_csv(config: SimConfig, out_dir: str, n_points: int = 400) -> str:
    os.makedirs(out_dir, exist_ok=True)
    _, cols = emit_bode(config, n_points)
    path = os.path.join(out_dir, "bode.csv")
    _write_columns(path, list(cols.keys()), list(cols.values()))
    return path


def load_u_blocks(path: str) -> np.ndarray:
    """Read back a u_blocks.csv table (inverse of write_run_csv's writer)."""
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    if not any(row.strip() for row in rows):
        raise ValueError(f"{path}: no periods recorded")
    data = np.loadtxt(rows, delimiter=",", dtype=float, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: expected an index column plus block columns")
    return data[:, 1:]
