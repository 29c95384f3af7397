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
arm at once and folds the update once per blocking, with stacked products
that equal the single-arm ones bit for bit. A diverged arm leaves the axis.
The convergence report of every arm is read off one condition series per
blocking at the arm's last update.
CSV files contain no timestamps and format floats with %.17g, so equal
configs give equal bytes; long tables are formatted by the array kernel of
``ancsim._g17``, with CPython's bytes. ``compare`` writes its two arms from
two processes, one writer per file (see ``write_comparison_csv``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from .adaptive import LmsConditionReport, _condition_series, _report_at
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
    return _run_arms(config, *_setup(config), [(config.mu, algorithm_cells)])[0]


def _lag_source(rows: np.ndarray, n_taps: int) -> np.ndarray:
    """``rows`` reversed, then n_taps - 1 zero rows: the slice [N-1-n : N-1-n+n_taps]
    is the contiguous lag window of period n, row k = rows[n - k] (zero before the record)."""
    return np.concatenate([rows[::-1], np.zeros((n_taps - 1,) + rows.shape[1:])])


def _run_arms(config: SimConfig, machine: HybridLoop, record: ExogenousRecord,
              arms) -> list[SingleRunResult]:
    """Adaptive arms ``(mu, algorithm_cells)`` on a shared loop, stepped together.

    Row r of the arm axis is arm ``order[r]``; its taps, direction and
    secondary-path state are the only per-arm state. The delay line and the
    regressor history of each blocking are lag windows of the record. Each
    period steps the anti-noise path once for all arms and folds the update
    once per blocking; an arm whose error leaves the cutoff drops off the
    axis and is not computed further. Results come back in ``arms`` order.
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
    # stride 1 passes the blocks through: a one-term sum would print -0.0 as 0
    u_alg = {b: record.u_blocks if b == L else record.u_blocks.reshape(N, b, L // b).sum(axis=2)
             for b in sorted(set(cells))}
    u_lags = {b: _lag_source(u, n_taps) for b, u in u_alg.items()}
    xd_lags = _lag_source(record.x_d, n_taps)

    # rows sorted by blocking, so each blocking is one slice of the arm axis
    order = sorted(range(len(arms)), key=cells.__getitem__)
    group = np.array([cells[a] for a in order])
    mu = np.array([float(arms[a][0]) for a in order])[:, None]
    A, cutoff = len(arms), config.divergence_cutoff
    alpha, delta = np.zeros((A, n_taps)), np.zeros((A, n_taps))
    zeta = np.zeros((A, machine.secondary.nstates))
    y_d = np.empty((A, N))
    w, e = np.empty((A, N, L)), np.empty((A, N, L))
    alpha_hist, delta_hist = np.empty((A, N, n_taps)), np.empty((A, N, n_taps))
    final_alpha, final_delta = np.empty((A, n_taps)), np.empty((A, n_taps))
    n_completed, diverged = np.full(A, N), np.zeros(A, dtype=bool)
    live, at = np.arange(A), slice(None)  # rows on the axis; ``at`` indexes them
    edges = np.searchsorted(group, [*u_alg, L + 1]).tolist()

    for n in range(N):
        lag = slice(N - 1 - n, N - 1 - n + n_taps)
        # period n runs under the update committed with the direction through
        # t = n h; its error is folded into the direction after the step
        taps = alpha + mu * delta
        delta_hist[at, n] = delta
        alpha_hist[at, n] = taps
        zeta, y_d[at, n], w_n = machine.step(zeta, taps, xd_lags[lag])
        w[at, n] = w_n
        e[at, n] = e_n = record.d[n] - w_n
        peak = np.max(np.abs(e_n), axis=1)
        bad = ~(np.isfinite(peak) & (peak <= cutoff))
        if bad.any():
            out = live[bad]
            n_completed[out], diverged[out] = n + 1, True
            final_alpha[out], final_delta[out] = alpha[bad], delta[bad]
            keep = ~bad
            live, group, mu, delta, zeta, taps, e_n = (
                a[keep] for a in (live, group, mu, delta, zeta, taps, e_n))
            at = live
            edges = np.searchsorted(group, [*u_alg, L + 1]).tolist()
        for (b, u_lag), lo, hi in zip(u_lags.items(), edges, edges[1:]):
            if lo < hi:
                delta[lo:hi] += np.matmul(u_lag[lag], e_n[lo:hi, ::L // b, None])[:, :, 0]
        alpha = taps
        if not live.size:
            break
    final_alpha[live], final_delta[live] = alpha, delta

    series = {}
    results = []
    for a, (mu_a, _) in enumerate(arms):
        r, b = order.index(a), cells[a]
        k = int(n_completed[r])
        fast = {name: arr[:k].reshape(-1) for name, arr in
                dict(x=record.x, d=record.d, w=w[r], e=e[r], u=record.u).items()}
        trace = SimTrace(h=h, L=L, x_d=record.x_d[:k], y_d=y_d[r, :k],
                         u_blocks=record.u_blocks[:k], **fast)
        n_updates = k - 1 if diverged[r] else k  # the diverging period made no update
        report = None
        if mu_a > 0.0 and n_updates > 0:
            if b not in series:
                series[b] = _condition_series(u_alg[b], n_taps, h)
            report = _report_at(series[b], n_updates, n_taps, mu_a, config.eps_threshold)
        results.append(SingleRunResult(
            trace=trace,
            alpha_hist=alpha_hist[r, :k],
            delta_hist=delta_hist[r, :k],
            final_alpha=final_alpha[r],
            final_delta=final_delta[r],
            u_alg_blocks=u_alg[b][:n_updates],
            algorithm_cells=b,
            mu=mu_a,
            error_norm=float("inf") if diverged[r] else trace.norm("e"),
            d_norm=trace.norm("d"),
            w_norm=trace.norm("w"),
            diverged=bool(diverged[r]),
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
    """Both arms at every step size in ``mus``, all on one arm axis."""
    results = _run_arms(config, machine, record, [(mu, cells) for mu in mus for cells in (None, 1)])
    return [ComparisonResult(proposed=p, conventional=c, ratio=_ratio(p.error_norm, c.error_norm))
            for p, c in zip(results[0::2], results[1::2])]


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


# Values per written chunk: a wide table gets proportionally fewer rows. A
# chunk's fields and bytes take 64 KiB each, and the kernel's temporaries
# 16-48 KiB; 4000-value chunks wrote about 10% faster but left about 0.3 MB
# more peak RSS behind on held_check.
_CHUNK_VALUES = 2048
# Chunks of fewer values are formatted value by value: the kernel's fixed
# cost, about 0.15 ms a call, exceeds CPython's per-value cost below about
# 150-200 values (a 20-row sweep table has 140).
_KERNEL_MIN_VALUES = 256


def _format_values(values: np.ndarray, fields: np.ndarray) -> None:
    """``'%.17g' % x`` of each value, NUL-padded into its 32-byte row of ``fields``.

    A chunk of at least ``_KERNEL_MIN_VALUES`` goes through the array kernel
    of ``ancsim._g17``, loaded on first use; the values it leaves, and every
    value of a smaller chunk, are formatted one at a time.
    """
    slow = slice(None)
    if values.size >= _KERNEL_MIN_VALUES:
        from . import _g17

        slow = _g17.format_fields(values, fields)
        values = values[slow]
    if values.size:
        text = np.array(["%.17g" % x for x in values.tolist()], dtype="S32")
        fields[slow] = text.view(np.uint64).reshape(-1, 4)


def _write_columns(path: str, header: list[str], columns) -> None:
    """Write equal-length 1-D columns as CSV, streamed in row chunks.

    Every number prints as CPython's ``'%.17g' % float(x)``, which for
    integers and booleans up to 2^53 is also their ``%d``. Each value takes
    one 32-byte field of one reused buffer: its text NUL-padded to 31 bytes,
    then the separator. A chunk of about ``_CHUNK_VALUES`` values is
    formatted at a time, and its NUL padding deleted as it is written.
    Text columns, and integer columns past 2^53, are encoded into their
    fields instead (31 bytes at most). A key/value table passes
    ``zip(*items)``, so its values form one float64 column.
    """
    columns = [np.asarray(c) for c in columns]
    text = {j: np.array([str(x).encode("utf-8") for x in c.tolist()], dtype=bytes)
            for j, c in enumerate(columns)
            if c.dtype.kind == "U"
            or c.dtype.kind in "iu" and c.size and (c.min() < -2**53 or c.max() > 2**53)}
    if any(enc.itemsize > 31 for enc in text.values()):
        raise ValueError("text entries longer than 31 bytes")
    numbers = [np.zeros(len(c)) if j in text else c for j, c in enumerate(columns)]
    n_rows, n_cols = len(columns[0]), len(columns)
    rows = max(1, _CHUNK_VALUES // n_cols)
    buf = np.empty((min(rows, n_rows), n_cols, 4), np.uint64)
    seps = np.full(n_cols, ord(","), np.uint8)
    seps[-1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, n_rows, rows):
            chunk = buf[:min(rows, n_rows - start)]
            stop = start + len(chunk)
            values = np.stack([c[start:stop] for c in numbers], axis=1, dtype=np.float64)
            _format_values(values.reshape(-1), chunk.reshape(-1, 4))
            for j, enc in text.items():
                chunk[:, j] = enc[start:stop].astype("S32").view(np.uint64).reshape(-1, 4)
            chunk.view(np.uint8)[:, :, -1] = seps
            fh.write(chunk.tobytes().translate(None, b"\0"))


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
    """Write both arms' tables and comparison.csv; returns the paths.

    A forked child writes the conventional arm while this process writes the
    rest; each file has one writer, so the bytes are a one-process write's. A
    child failure is raised here as ``OSError`` with its text. Without a
    working ``os.fork`` the arms are written in turn. Python 3.12+ warns when
    a threaded process forks; the tests pin BLAS to one thread, so their
    process has no second thread and the warning cannot fire there.
    """
    pid = None
    if hasattr(os, "fork"):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
        if pid == 0:  # leave through os._exit only: no return, no stdio flush
            try:
                write_run_csv(result.conventional, out_dir, prefix="conventional_")
                os._exit(0)
            except BaseException as exc:
                os.write(write_fd, (str(exc) or type(exc).__name__).encode("utf-8", "replace"))
            finally:
                os._exit(1)
        os.close(write_fd)
    try:
        paths = write_run_csv(result.proposed, out_dir, prefix="proposed_")
        if pid is None:
            write_run_csv(result.conventional, out_dir, prefix="conventional_")
        names = [os.path.basename(p).removeprefix("proposed_") for p in paths]
        paths += [os.path.join(out_dir, "conventional_" + name) for name in names]
        path = os.path.join(out_dir, "comparison.csv")
        items = [
            ("error_l2_proposed", result.proposed.error_norm),
            ("error_l2_conventional", result.conventional.error_norm),
            ("ratio", result.ratio),
        ]
        _write_columns(path, ["key", "value"], zip(*items))
    finally:
        if pid is not None:
            with os.fdopen(read_fd, "rb") as pipe:
                failure = pipe.read().decode("utf-8", "replace")
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if pid is not None and (failure or status):
        raise OSError(failure or f"conventional arm writer exited with code {status}")
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
