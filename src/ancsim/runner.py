"""Experiment drivers: single runs, paired comparisons and step-size sweeps.
Their tables are laid out and written by ``ancsim.reports``.

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
windows of the shared record. Each period forms the filter outputs of every
arm in one product, then advances every arm's secondary-path state and folds
its error into the update in one product of that period's lifted map per run
of arms with one blocking (``HybridLoop.arm_maps``); the anti-noise and the
error of a chunk of periods follow in a few batched products. Every stacked
product gives each arm the bits it gets alone. A diverged arm stays on the
axis, frozen and unread, until every arm has diverged.
The convergence reports of a blocking's arms come from one checker call
that reads the running Gram matrix at each arm's last update.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass

import numpy as np

from ._tables import _FastWriter, _histories, _sized_by
from .adaptive import LmsConditionReport, _condition_maxima, _lag_windows, _report_at
from .config import SimConfig
from .lifting import _MAP_VALUES, ExogenousRecord, HybridLoop, SimTrace, _l2_norms

__all__ = [
    "SingleRunResult",
    "ComparisonResult",
    "SweepRow",
    "SweepResult",
    "run_single",
    "run_comparison",
    "run_mu_sweep",
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
    history of each blocking are lag windows of the record. The periods run
    in chunks of K, for which the lifted maps of each run of consecutive
    arms with one blocking are built in bulk; an arm's state over the chunk
    is its [y; zeta; 1; Delta] a period. Each period commits the taps, forms
    the filter outputs y in one product, takes [y; zeta; 1] to the next zeta
    and the fold Delta in one product of the period's map per run, and adds
    Delta to the direction. The anti-noise and the errors of the chunk then
    follow in a few batched products. The cutoff also diverges an arm whose
    error the direction could not fold without overflow. A diverged arm
    stays on the axis with a nan step size and a nan state: all it computes
    later is quiet nans, which raise no floating-point warning and are never
    read. The loop stops once every arm has diverged. The periods run in
    blocks of ``_FastWriter.every``: a first pass runs a block without the
    cutoff test, recording the floating-point conditions the caller's error
    state does not ignore, and one reduction then tests the block's errors.
    A block that crossed the cutoff or raised a condition runs again from
    its start under the caller's error state, with the same period body and
    arithmetic, but with each period's errors formed, by the same products
    on its rows, before its map and tested; a crossing arm's state is then
    nan before the map reads it. So values, warnings and errors are those of
    a test in every period. With a ``stream``, the histories are the
    stream's, and it learns after every block which rows are final; the
    message at N periods, sent once, is the last.
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
    n_completed, diverged = np.full(A, N), np.zeros(A, dtype=bool)
    every, stopped, n_s = _FastWriter.every, False, machine.secondary.nstates
    # Row i of the arm states v holds each arm's [y; zeta; 1; Delta] in period c0 + i of a chunk
    # of K periods: that period's map takes [y; zeta; 1] of row i to the rest of row i + 1, Delta
    # being its fold. The maps of all blockings together and the states stay within _MAP_VALUES each.
    edges = [0, *(np.flatnonzero(np.diff(cells)) + 1).tolist(), A]
    K = max(1, min(every, _MAP_VALUES // (max(A, (len(edges) - 1) * (n_s + 2)) * (n_s + 2 + n_taps)) - 1))
    # Every array a period touches carries the trailing unit axis that
    # ``matmul`` reads, so its shapes are fixed here, once, and a failure to
    # allocate them names its key before any table is begun.
    with _sized_by("sim.T", f"{N} periods of {A} arms"):
        # stride 1 passes the blocks through: a one-term sum would print -0.0 as 0
        u_alg = {b: record.u_blocks if b == L else record.u_blocks.reshape(N, b, L // b).sum(axis=2)
                 for b in set(cells)}
        with _sized_by("filter.taps", f"{n_taps} taps"):  # the only set-up arrays sized by the taps alone
            xd_lags = _lag_windows(record.x_d[:, None], n_taps)
            # per run of arms with one blocking: its lag windows, its maps and its arms
            groups = [(_lag_windows(u_alg[cells[lo]], n_taps), np.empty((K, n_s + 1 + n_taps, n_s + 2)),
                       slice(lo, hi)) for lo, hi in zip(edges, edges[1:])]
            v = np.zeros((K + 1, A, n_s + 2 + n_taps, 1))
            v[0, :, n_s + 1] = 1.0
        # row n of the taps and direction histories enters period n: row 0 is zero and row N final
        w, e, alpha_hist, delta_hist, y_d = (_histories(A, N, L, n_taps) if stream is None
                                             else stream.start(n_taps, [u_alg[b] for b in cells]))
    d = record.d[:, None, :, None]
    # per period of a chunk: its filter outputs, its map products and its folds
    rows = [(v[i, :, :1], [(maps[i], v[i, run, :n_s + 2], v[i + 1, run, 1:]) for _, maps, run in groups],
             v[i + 1, :, n_s + 2:].swapaxes(1, 2)) for i in range(K)]
    # period-major views: row n of each is period n of every arm
    taps_p, delta_p, y_p, w_p, e_p = (a.swapaxes(0, 1) for a in (alpha_hist, delta_hist, y_d, w, e))

    def outputs(lo, hi):  # the filter outputs, anti-noise and errors of periods lo .. hi-1 of the chunk
        return machine.anti_noise(v[lo - c0:hi - c0], d[lo:hi], y_p[lo:hi], w_p[lo:hi], e_p[lo:hi])

    # the first pass over a block records the floating-point conditions the caller does not ignore
    raised = []
    modes = {kind: "ignore" if mode == "ignore" else "call" for kind, mode in np.geterr().items()}

    for n0 in range(0, N, every):
        stop, start = min(n0 + every, N), v[0].copy()
        for exact in (False, True):
            alpha, direction = taps_p[n0], delta_p[n0]
            raised.clear()
            with contextlib.nullcontext() if exact else np.errstate(
                    call=lambda kind, flag: raised.append(kind), **modes):
                for c0 in range(n0, stop, K):
                    k = min(K, stop - c0)
                    for windows, maps, _ in groups:
                        machine.arm_maps(windows, record.d, c0, maps[:k])
                    for n, taps, delta, xd_n, (y_n, products, fold) in zip(
                            range(c0, c0 + k), taps_p[c0 + 1:], delta_p[c0 + 1:], xd_lags[c0:], rows):
                        # period n runs under the update committed with the direction through
                        # t = n h; its error is folded into the direction by its map
                        np.add(alpha, mu * direction, out=taps)
                        np.matmul(taps, xd_n, out=y_n)
                        if exact and not abs(e_n := outputs(n, n + 1)[0]).max() <= cutoff:
                            out = ~diverged & ~(abs(e_n).max(axis=(1, 2)) <= cutoff)
                            n_completed[out], diverged[out], mu[out] = n + 1, True, np.nan
                            if stopped := diverged.all():
                                break
                            # their error may be past what a fold holds: from a nan state
                            # all they compute is quiet nans, never read
                            v[n - c0, out] = np.nan
                        for maps, v_n, v_next in products:
                            np.matmul(maps, v_n, out=v_next)
                        np.add(direction, fold, out=delta)
                        alpha, direction = taps, delta
                    if stopped:
                        break
                    if not exact:
                        outputs(c0, c0 + k)
                    v[0] = v[k]
            # one test of the block's errors of the arms still running: a block
            # that crossed the cutoff or raised a condition runs again, checked
            # period by period under the caller's error state
            if exact or not raised and abs(e_p[n0:stop]).max(
                    where=~diverged[:, None, None], initial=0.0) <= cutoff:
                break
            v[0] = start
        if stopped:
            break
        if stream is not None and stop < N:
            stream.progress(stop, n_completed, diverged)
    if stream is not None:
        stream.progress(N, n_completed, diverged)
    # the lag windows, the maps and the arm states are spent
    xd_lags = xd_n = windows = groups = maps = rows = products = v = v_n = v_next = y_n = fold = None
    n_updates, reads = n_completed - diverged, {}  # the diverging period made no update
    for a, (mu_a, _) in enumerate(arms):
        if mu_a > 0.0 and n_updates[a] > 0:
            reads.setdefault(cells[a], []).append(int(n_updates[a]))
    with _sized_by("filter.taps", f"{n_taps} taps"):  # the lag sums and the (n_taps, n_taps) Gram matrices
        maxima = {b: _condition_maxima(u_alg[b], n_taps, h, ns) for b, ns in reads.items()}
    # the e norms of the arms that did not diverge and the w norms of those that ran every period
    # from one pass over each history; an arm that stopped early takes its w norm from its slice
    kept, full = (np.flatnonzero(ran).tolist() for ran in (~diverged, n_completed == N))
    e_norms = dict(zip(kept, _l2_norms(e.reshape(A, -1), h / L, kept)))
    w_norms = dict(zip(full, _l2_norms(w.reshape(A, -1), h / L, full)))
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
            error_norm=e_norms.get(a, float("inf")),
            d_norm=d_norms[k],
            w_norm=w_norms[a] if k == N else trace.norm("w"),
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
