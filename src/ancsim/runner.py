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
computed once. One arm loop runs them all: the arms sit on a leading arm
axis whose only per-arm state is the taps, the update direction and the
secondary-path state; the delay line and the regressor history are lag
windows of the shared record. Each period steps the anti-noise path of every
arm at once and folds the update once per run of arms with one blocking,
with stacked products that equal the single-arm ones bit for bit. A diverged
arm stays on the axis, frozen and unread, until every arm has diverged.
The convergence reports of a blocking's arms come from one checker call
that reads the running Gram matrix at each arm's last update.
CSV files contain no timestamps and format floats with %.17g, so equal
configs give equal bytes; long tables are formatted by the array kernel of
``ancsim._g17``, with CPython's bytes. ``run_to_csv`` (the ``run`` and
``compare`` commands, the one writer of their tables) forks one writer right
after the exogenous record is built: it streams every fast.csv from the arm
loop's shared w and e histories while the arms run, and this process writes
every other table. Where forking is missing, fails, or would copy a process
with other OS threads (BLAS workers; the command pins BLAS to one thread,
see ``ancsim/__init__.py``), this process writes the fast tables after the
loop instead (see ``_FastWriter``).
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from ._tables import _FastWriter, _write_columns
from .adaptive import LmsConditionReport, _condition_maxima, _lag_windows, _report_at
from .config import ConfigError, SimConfig
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
    "run_to_csv",
    "emit_bode",
    "write_sweep_csv",
    "write_bode_csv",
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


@contextlib.contextmanager
def _sized_by(key: str, what: str):
    """Raise numpy's failure to allocate arrays sized by ``key`` (a MemoryError,
    or a ValueError past the address space) as a ConfigError naming ``key``."""
    try:
        yield
    except (ConfigError, np.linalg.LinAlgError):
        raise
    except (MemoryError, ValueError) as exc:
        raise ConfigError(key, f"cannot hold {what}: {exc}") from None


def _setup(config: SimConfig) -> tuple[HybridLoop, ExogenousRecord]:
    """The loop of one configuration and its exogenous record, shared by its arms."""
    generator = config.make_generator()
    with _sized_by("sim.L", f"{config.L} cells per period"):  # the cell maps are (L, n) and (L, L)
        machine = HybridLoop(config.secondary(), config.primary(), generator, config.h, config.L)
    with _sized_by("sim.T", f"{config.T / config.h:.6g} periods"):
        return machine, machine.exogenous(config.n_steps)


def run_single(config: SimConfig, algorithm_cells: int | None = None) -> SingleRunResult:
    """Run the adaptive loop for the configured horizon.

    ``algorithm_cells`` selects the blocking the *algorithm* sees; tracing
    always happens at config.L cells per period. It must divide config.L.
    Each algorithm cell covers ``config.L // algorithm_cells`` traced cells:
    its error sample is the first of them and its regressor integral their
    sum, which is exact because the traced cell integrals are.
    """
    return _run_arms(config, *_setup(config), [(config.mu, algorithm_cells)])[0]


def _run_arms(config: SimConfig, machine: HybridLoop, record: ExogenousRecord,
              arms, stream: _FastWriter | None = None) -> list[SingleRunResult]:
    """Adaptive arms ``(mu, algorithm_cells)`` on a shared loop, stepped together.

    Row a of the arm axis is arm a; its taps, direction and secondary-path
    state are the only per-arm state. The delay line and the regressor
    history of each blocking are lag windows of the record. Each period steps
    the anti-noise path once for all arms and folds the update once per run
    of consecutive arms with one blocking. The cutoff also diverges an arm
    whose error the direction could not fold without overflow. A diverged
    arm stays on the axis with a nan step size and a nan state: all it
    computes later is quiet nans, which raise no floating-point warning and
    are never read. The loop stops once every arm has diverged. With a
    ``stream``, the w and e histories are the stream's, and it learns after
    every ``stream.every`` periods which rows are final.
    """
    L, N, n_taps, h = config.L, config.n_steps, config.n_taps, config.h
    cells = []
    for mu_a, algorithm_cells in arms:
        L_alg = L if algorithm_cells is None else int(algorithm_cells)
        if L_alg < 1 or L % L_alg != 0:
            raise ValueError(f"algorithm_cells must divide L = {L}, got {L_alg}")
        if mu_a < 0.0:
            raise ValueError(f"step size must be nonnegative, got {mu_a}")
        cells.append(L_alg)
    mu = np.array([float(mu_a) for mu_a, _ in arms])[:, None, None]
    # One comparison rejects nan, inf and the cutoff alike, even for an
    # infinite cutoff, and an error the direction cannot fold without
    # overflow: a fold adds at most L u_top |e| per tap (each algorithm cell
    # sums its traced cells), so N folds of errors within the bound stay
    # under half the largest double, which leaves room for their rounding.
    A, cutoff = len(arms), min(config.divergence_cutoff, sys.float_info.max)
    u_top = float(np.abs(record.u_blocks).max())
    if u_top > 0.0:
        cutoff = min(cutoff, sys.float_info.max / (2.0 * N * L) / u_top)
    # Every array a period touches carries the trailing unit axis that
    # ``matmul`` reads, so the shapes ``step`` takes are fixed here, once, and
    # a failure to allocate them names its key before any table is begun.
    # Row n of the taps and direction histories enters period n: row 0 is
    # zero and row N final.
    with _sized_by("sim.T", f"{N} periods of {A} arms"):
        # stride 1 passes the blocks through: a one-term sum would print -0.0 as 0
        u_alg = {b: record.u_blocks if b == L else record.u_blocks.reshape(N, b, L // b).sum(axis=2)
                 for b in set(cells)}
        with _sized_by("filter.taps", f"{n_taps} taps"):  # the only set-up arrays sized by the taps alone
            u_lags = {b: _lag_windows(u, n_taps) for b, u in u_alg.items()}
            xd_lags = _lag_windows(record.x_d[:, None], n_taps)
        alpha_hist, delta_hist = np.zeros((A, N + 1, 1, n_taps)), np.zeros((A, N + 1, 1, n_taps))
        y_d = np.empty((A, N, 1, 1))
        shape, d = (A, N, L, 1), record.d[:, :, None]
        w, e = stream.start(shape) if stream is not None else np.empty((2, *shape))
    zeta, spare = np.zeros((2, A, machine.secondary.nstates, 1))
    prod = np.empty((A, 1, n_taps))
    n_completed, diverged = np.full(A, N), np.zeros(A, dtype=bool)
    # per run of arms with one blocking: windows, rows, cell stride, its rows of ``prod`` as columns
    edges = [0, *(np.flatnonzero(np.diff(cells)) + 1).tolist(), A]
    folds = [(u_lags[cells[lo]], slice(lo, hi), L // cells[lo], prod[lo:hi].reshape(hi - lo, -1, 1))
             for lo, hi in zip(edges, edges[1:])]
    taps, delta = alpha_hist[:, 0], delta_hist[:, 0]

    for n in range(N):
        alpha, direction = taps, delta
        taps, delta = alpha_hist[:, n + 1], delta_hist[:, n + 1]
        y_n, w_n, e_n = y_d[:, n], w[:, n], e[:, n]
        # period n runs under the update committed with the direction through
        # t = n h; its error is folded into the direction after the step
        np.add(alpha, mu * direction, out=taps)
        zeta, spare = machine.step(zeta, taps, xd_lags[n], y_n, w_n, spare)[0], zeta
        np.subtract(d[n], w_n, out=e_n)
        if not abs(e_n).max() <= cutoff:
            out = ~diverged & ~(abs(e_n).max(axis=(1, 2)) <= cutoff)
            n_completed[out], diverged[out], mu[out] = n + 1, True, np.nan
            if diverged.all():
                break
            if out.any():
                # their error may be past what a fold holds: it folds as 0, into a
                # direction never read, and from their nan state on all is quiet nans
                zeta[out] = np.nan
                e_n = np.where(out[:, None, None], 0.0, e_n)
        for u_lag, rows, stride, prod_rows in folds:
            np.matmul(u_lag[n], e_n[rows, ::stride], out=prod_rows)
        np.add(direction, prod, out=delta)
        if stream is not None and (n + 1) % stream.every == 0:
            stream.progress(n + 1, n_completed)
    if stream is not None:
        stream.progress(N, n_completed)
    u_lags = xd_lags = folds = u_lag = None  # the lag windows are spent
    n_updates, reads = n_completed - diverged, {}  # the diverging period made no update
    for a, (mu_a, _) in enumerate(arms):
        if mu_a > 0.0 and n_updates[a] > 0:
            reads.setdefault(cells[a], []).append(int(n_updates[a]))
    with _sized_by("filter.taps", f"{n_taps} taps"):  # the Gram matrices, (n_taps, n_taps) each
        maxima = {b: _condition_maxima(u_alg[b], n_taps, h, ns) for b, ns in reads.items()}
    results, d_norms = [], {}  # arms that stop together share the disturbance's norm
    for a, (mu_a, _) in enumerate(arms):
        b, k, n_up = cells[a], int(n_completed[a]), int(n_updates[a])
        fast = {name: arr[:k].reshape(-1) for name, arr in
                dict(x=record.x, d=record.d, w=w[a], e=e[a], u=record.u).items()}
        trace = SimTrace(h=h, L=L, x_d=record.x_d[:k], y_d=y_d[a, :k, 0, 0],
                         u_blocks=record.u_blocks[:k], **fast)
        if k not in d_norms:
            d_norms[k] = trace.norm("d")
        report = (_report_at(maxima[b][n_up], n_up, n_taps, mu_a, config.eps_threshold)
                  if mu_a > 0.0 and n_up > 0 else None)
        results.append(SingleRunResult(
            trace=trace,
            alpha_hist=alpha_hist[a, 1:k + 1, 0],
            delta_hist=delta_hist[a, :k, 0],
            final_alpha=alpha_hist[a, n_up, 0],
            final_delta=delta_hist[a, n_up, 0],
            u_alg_blocks=u_alg[b][:n_up],
            algorithm_cells=b,
            mu=mu_a,
            error_norm=float("inf") if diverged[a] else trace.norm("e"),
            d_norm=d_norms[k],
            w_norm=trace.norm("w"),
            diverged=bool(diverged[a]),
            n_completed=k,
            lms_report=report,
        ))
    return results


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 1.0 if num == 0.0 else float("inf")
    if np.isinf(den):
        return 0.0 if np.isfinite(num) else float("nan")
    return num / den


def run_comparison(config: SimConfig) -> ComparisonResult:
    """Proposed (all cells) and conventional (one cell) arms, same loop."""
    return _comparisons(config, *_setup(config), [config.mu])[0]


def _comparisons(config: SimConfig, machine: HybridLoop, record: ExogenousRecord,
                 mus) -> list[ComparisonResult]:
    """Both arms at every step size in ``mus`` on one arm axis, each blocking's arms together."""
    results = _run_arms(config, machine, record, [(mu, cells) for cells in (None, 1) for mu in mus])
    return [_pair(p, c) for p, c in zip(results[:len(mus)], results[len(mus):])]


def _pair(proposed: SingleRunResult, conventional: SingleRunResult) -> ComparisonResult:
    return ComparisonResult(proposed=proposed, conventional=conventional,
                            ratio=_ratio(proposed.error_norm, conventional.error_norm))


def _step_ok(result: SingleRunResult) -> bool:
    # A diverged run is direct evidence the realized step size was outside
    # the usable range, whatever the a-priori check said.
    return not result.diverged and (result.lms_report is None or result.lms_report.step_ok)


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

    results = _comparisons(config, *_setup(config), mus)

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


# ---------------------------------------------------------------------------
# CSV output


def _write_period_tables(result: SingleRunResult, out_dir: str, prefix: str) -> list[str]:
    """Write discrete/taps/u_blocks/report tables of one arm; returns the paths."""
    tr = result.trace
    paths = []

    def p(name: str) -> str:
        path = os.path.join(out_dir, prefix + name)
        paths.append(path)
        return path

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


def _write_ratio_table(result: ComparisonResult, out_dir: str) -> str:
    path = os.path.join(out_dir, "comparison.csv")
    items = [
        ("error_l2_proposed", result.proposed.error_norm),
        ("error_l2_conventional", result.conventional.error_norm),
        ("ratio", result.ratio),
    ]
    _write_columns(path, ["key", "value"], zip(*items))
    return path


# ---------------------------------------------------------------------------
# Runs that write their tables as they go


def run_to_csv(config: SimConfig, out_dir: str, compare: bool = False):
    """``run_single`` (``run_comparison`` when ``compare``) and its tables in one pass.

    Writes fast, discrete, taps, u_blocks and report tables per arm
    (prefixed ``proposed_`` and ``conventional_`` when ``compare``, plus
    comparison.csv) and returns ``(result, paths)``. A forked process
    writes each arm's fast.csv while the arms run (see ``_FastWriter``);
    this one writes every other table. A writer failure is raised as
    ``OSError`` naming the file after the other tables are written. The
    directory is made only once every array of the arm loop is held.
    """
    prefixes = ("proposed_", "conventional_") if compare else ("",)
    machine, record = _setup(config)
    fast = [os.path.join(out_dir, prefix + "fast.csv") for prefix in prefixes]
    writer = _FastWriter(fast, config.h, record)
    results = None
    try:
        arms = [(config.mu, None), (config.mu, 1)][:len(prefixes)]
        results = _run_arms(config, machine, record, arms, writer)
        paths = []
        for res, prefix, path in zip(results, prefixes, fast):
            paths += [path] + _write_period_tables(res, out_dir, prefix)
        result = results[0]
        if compare:
            result = _pair(*results)
            paths.append(_write_ratio_table(result, out_dir))
    finally:
        # a run that stopped before its results leaves no fast tables behind
        failure = writer.close(abort=results is None)
    if failure:
        raise OSError(failure)
    return result, paths


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


def write_bode_csv(config: SimConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    cols = emit_bode(config)
    path = os.path.join(out_dir, "bode.csv")
    _write_columns(path, list(cols.keys()), list(cols.values()))
    return path


def load_u_blocks(path: str) -> np.ndarray:
    """Read back a u_blocks.csv table (inverse of ``run_to_csv``'s writer).

    The header must be ``n,u_0,...,u_{k-1}`` with k >= 1 and every row hold
    1 + k finite numbers; anything else raises ``ValueError`` naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines() or [""]
    names = header.split(",")
    if len(names) < 2 or names != ["n"] + [f"u_{l}" for l in range(len(names) - 1)]:
        raise ValueError(f"{path}: expected a u_blocks.csv header 'n,u_0,...', got {header[:60]!r}")
    if not any(row.strip() for row in rows):
        raise ValueError(f"{path}: no periods recorded")
    width = f"{path}: expected {len(names)} fields on every row, as in the header"
    try:
        data = np.loadtxt(rows, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:  # a field that is no number, or rows of unequal width
        ragged = any(row.count(",") != len(names) - 1 for row in rows if row.strip())
        raise ValueError(width if ragged else f"{path}: {exc}") from None
    if data.shape[1] != len(names):
        raise ValueError(width)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: expected finite numbers")
    return data[:, 1:]
