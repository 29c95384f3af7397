"""Adaptive layers on top of the lifted discretization.

The blocked regressor record ``U[n]`` (exact per-cell integrals of the
secondary path's response to the reference) defines a quadratic design
problem (Gram matrix + cross vector) whose minimizer is the optimal FIR
filter; ``sd_run`` descends it in closed form over the Gram eigenmodes. The
online update is the arm loop of ``runner``. A checker verifies the three
conditions under which that update is a slowly-varying perturbation of
steepest descent (bounded Gram matrices, a step inside the stability range,
small per-period Gram increments) at any set of truncations, decomposing one
running Gram matrix per truncation and the increments a norm bound cannot
rule out. Every Gram matrix is gathered from the lag products
(L/h) U[m] . U[m-d] and their running sums over periods."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .statespace import DimensionError
from .tolerances import TOL

__all__ = [
    "FirFilter",
    "WienerProblem",
    "LmsConditionReport",
    "SingularGramError",
    "build_wiener",
    "wiener_solve",
    "gradient",
    "j_value",
    "sd_run",
    "check_lms_conditions",
]


class SingularGramError(ValueError):
    """The quadratic problem is singular or too ill-conditioned to solve."""


@dataclass(frozen=True)
class FirFilter:
    """FIR filter given by its tap vector (tap k multiplies x_d[n-k])."""

    taps: np.ndarray

    def __post_init__(self) -> None:
        taps = np.asarray(self.taps, dtype=float).reshape(-1)
        if taps.size == 0:
            raise ValueError("an FIR filter needs at least one tap")
        if not np.all(np.isfinite(taps)):
            raise ValueError("FIR taps must be finite")
        taps = taps.copy()
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    @property
    def n_taps(self) -> int:
        return self.taps.size


@dataclass(frozen=True)
class WienerProblem:
    """Finite-horizon quadratic model of the cancellation error.

    J(alpha) = d_energy - 2 beta . alpha + alpha . Phi alpha, where ``Phi``
    is the (symmetric PSD) Gram matrix of lagged regressor blocks and
    ``beta`` the cross vector against the disturbance.
    """

    Phi: np.ndarray
    beta: np.ndarray
    horizon: float
    d_energy: float = 0.0

    def __post_init__(self) -> None:
        Phi = np.asarray(self.Phi, dtype=float)
        beta = np.asarray(self.beta, dtype=float).reshape(-1)
        if Phi.ndim != 2 or Phi.shape[0] != Phi.shape[1]:
            raise DimensionError(f"Phi must be square, got shape {Phi.shape}")
        if beta.size != Phi.shape[0]:
            raise DimensionError(
                f"beta length {beta.size} does not match Phi size {Phi.shape[0]}"
            )
        for name, value in (("Phi", Phi), ("beta", beta), ("d_energy", float(self.d_energy))):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        scale = max(float(np.abs(Phi).max()) if Phi.size else 0.0, 1e-300)
        if float(np.abs(Phi - Phi.T).max()) > TOL.matrix_symmetry * scale:
            raise ValueError("Phi must be symmetric")
        lam_min = float(np.linalg.eigvalsh(Phi)[0])
        if lam_min < -TOL.psd_slack * scale:
            raise ValueError(f"Phi must be positive semidefinite, min eigenvalue {lam_min}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        Phi = Phi.copy()
        Phi.flags.writeable = False
        beta = beta.copy()
        beta.flags.writeable = False
        object.__setattr__(self, "Phi", Phi)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "d_energy", float(self.d_energy))
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def n_taps(self) -> int:
        return self.beta.size


# Values of each lag-sum array of a chunk: 32 KiB, 504 periods at 8 taps, at least n_taps.
_GRAM_VALUES = 1 << 12


def _lag_windows(rows: np.ndarray, n_taps: int) -> np.ndarray:
    """Read-only windows (N, n_taps, ...) of the N ``rows``: window n holds
    rows n, n-1, ..., n-n_taps+1, zero before the record, as contiguous rows."""
    source = np.concatenate([rows[::-1], np.zeros((n_taps - 1,) + rows.shape[1:])])
    return np.moveaxis(np.lib.stride_tricks.sliding_window_view(source, n_taps, 0), -1, 1)[::-1]


def _lag_sums(U: np.ndarray, n_taps: int, h: float):
    """Yield ``(start, G, C)`` for chunks of periods of the record ``U``.

    Rows k + i (k = ``n_taps``) hold period m = start + i, rows 0 .. k-1 the
    k periods before: G[m, d] = (L/h) U[m] . U[m-d], d < k (zero before the
    record), and C[m] = sum of G[m'] over m' <= m, so that the increment of
    period m is M_m[j, j+d] = G[m-j, d] and the running Gram matrix
    Phi[n][j, j+d] = C[n-1-j, d] (``_toeplitz``). One product per period, sums
    in period order: no bit depends on the chunk size. A chunk's buffers are
    reused once the next is drawn."""
    k, (N, L) = n_taps, U.shape
    periods = max(k, _GRAM_VALUES // k - k)
    G, C = np.zeros((k + min(periods, N), k)), np.zeros((k + min(periods, N), k))
    for start in range(0, N, periods):
        if start:  # the last k periods of the full chunk before
            G[:k], C[:k] = G[-k:], C[-k:]
        stop = min(start + periods, N)
        rows = stop - start
        # the window of period m is rows m-k+1 .. m of the record, zero before it
        source = U[start - k + 1:stop] if start else np.concatenate([np.zeros((k - 1, L)), U[:stop]])
        windows = np.lib.stride_tricks.sliding_window_view(source, k, 0).swapaxes(1, 2)
        np.matmul(windows, U[start:stop, :, None], out=G[k:k + rows, ::-1, None])
        G[k:k + rows] *= L / h
        C[k:k + rows] = G[k:k + rows]
        np.cumsum(C[k - 1:k + rows], axis=0, out=C[k - 1:k + rows])
        yield start, G[:k + rows], C[:k + rows]


def _toeplitz(X: np.ndarray, rows) -> np.ndarray:
    """Symmetric (len(rows), k, k) matrices S[i, j, j+d] = S[i, j+d, j] = X[rows[i] - j, d]
    of a C-contiguous X, in one gather."""
    k = X.shape[1]
    a = np.arange(k)
    # entry (a, b) sits |a - b| - k min(a, b) values past row rows[i]'s start
    at = np.abs(a - a[:, None]) - k * np.minimum(a, a[:, None])
    return X.reshape(-1)[k * np.asarray(rows)[:, None, None] + at]


def build_wiener(u_blocks, d_fast, n_taps: int, horizon: float, h: float, L: int) -> WienerProblem:
    """Assemble the quadratic problem from one recorded run.

    ``u_blocks`` is the (n_steps, L) record of exact per-cell regressor
    integrals; ``d_fast`` the disturbance sampled at cell left endpoints
    (shape (n_steps, L) or flat). The Gram matrix uses the cell means of u
    on both sides (a staircase projection, hence symmetric, positive
    semidefinite, and bounded by the aliased-energy spectrum); the cross
    vector pairs disturbance samples with regressor integrals.
    """
    U = np.asarray(u_blocks, dtype=float)
    if U.ndim != 2:
        raise DimensionError(f"u_blocks must be 2-D (n_steps, L), got shape {U.shape}")
    n_steps = U.shape[0]
    if U.shape[1] != L:
        raise DimensionError(f"u_blocks has {U.shape[1]} cells per row, expected L = {L}")
    D = np.asarray(d_fast, dtype=float).reshape(-1)
    if D.size != n_steps * L:
        raise DimensionError(f"d_fast has {D.size} samples, expected n_steps * L = {n_steps * L}")
    D = D.reshape(n_steps, L)
    if n_taps < 1:
        raise ValueError("need at least one tap")
    if not 0.0 < h < np.inf:
        raise ValueError(f"period h must be positive and finite, got {h}")
    if abs(horizon - n_steps * h) > 1e-9 * max(h, horizon):
        raise ValueError(f"horizon {horizon} is not the record length: {n_steps} periods of {h}")

    C = np.zeros((n_taps, n_taps))
    for _, _, C in _lag_sums(U, n_taps, h):
        pass
    Phi = _toeplitz(C, [len(C) - 1])[0]
    # beta[k] = sum over n of U[n - k] . D[n]: one dot product of the flat records per lag
    u, d = U.reshape(-1), D.reshape(-1)
    beta = np.array([u[:max(n_steps - k, 0) * L] @ d[k * L:] for k in range(n_taps)])
    d_energy = (h / L) * float(np.sum(D * D))
    return WienerProblem(Phi=Phi, beta=beta, horizon=horizon, d_energy=d_energy)


def wiener_solve(problem: WienerProblem) -> FirFilter:
    """Direct solve of the quadratic problem (eigendecomposition + one refinement).

    Raises :class:`SingularGramError` when the Gram matrix is singular or
    its condition number exceeds the configured limit.
    """
    lam, V = np.linalg.eigh(problem.Phi)
    cond = lam[-1] / lam[0] if lam[0] > 0.0 else float("inf")
    if cond > TOL.condition_limit:
        raise SingularGramError(
            f"Gram matrix is singular or ill-conditioned (cond ~ {cond:.3e})"
        )
    alpha = V @ ((V.T @ problem.beta) / lam)
    alpha += V @ ((V.T @ (problem.beta - problem.Phi @ alpha)) / lam)
    return FirFilter(alpha)


def gradient(problem: WienerProblem, taps) -> np.ndarray:
    """Gradient of J at the given taps: 2 (Phi alpha - beta)."""
    alpha = np.asarray(taps, dtype=float).reshape(-1)
    if alpha.size != problem.n_taps:
        raise DimensionError(
            f"taps length {alpha.size} does not match problem size {problem.n_taps}"
        )
    return 2.0 * (problem.Phi @ alpha - problem.beta)


def j_value(problem: WienerProblem, taps) -> float:
    """Quadratic cost at the given taps."""
    alpha = np.asarray(taps, dtype=float).reshape(-1)
    if alpha.size != problem.n_taps:
        raise DimensionError(
            f"taps length {alpha.size} does not match problem size {problem.n_taps}"
        )
    return float(problem.d_energy - 2.0 * problem.beta @ alpha + alpha @ problem.Phi @ alpha)


def sd_run(
    problem: WienerProblem,
    alpha0,
    mu: float,
    n_steps: int,
    record_every: int = 1,
) -> np.ndarray:
    """Steepest descent alpha <- alpha + mu (beta - Phi alpha).

    Returns the recorded iterates (every ``record_every`` steps, first and
    last always included), shape (n_records, n_taps); row 0 is ``alpha0``.
    ``mu = 0`` freezes them; a negative or non-finite ``mu`` is rejected.
    Each record is evaluated in closed form over the eigenmodes (lam, v) of
    Phi, within ``TOL.sd_closed_form`` of the recursion: alpha_k = alpha0 +
    sum_v v (r^k - 1) (v . alpha0 - v . beta / lam), r = 1 - mu lam, where
    r^k - 1 is expm1(k log1p(-mu lam)) if r > 0, a power if r <= 0, and the
    term is k mu v (v . beta) if n_steps mu |lam| < eps / 2. Under a local
    ``np.errstate``, rows past the float range are inf or nan, unwarned.
    """
    alpha = np.asarray(alpha0, dtype=float).reshape(-1)
    n_steps, record_every = operator.index(n_steps), operator.index(record_every)
    if alpha.size != problem.n_taps:
        raise DimensionError(
            f"alpha0 length {alpha.size} does not match problem size {problem.n_taps}"
        )
    if not 0.0 <= mu < np.inf:
        raise ValueError(f"mu must be finite and nonnegative, got {mu}")
    if n_steps < 0:
        raise ValueError(f"step count must be nonnegative, got {n_steps}")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    out = np.tile(alpha, (1 + -(-n_steps // record_every), 1))
    if mu == 0.0:
        return out
    lam, V = np.linalg.eigh(problem.Phi)
    x, b = mu * lam, mu * (V.T @ problem.beta)  # x ascending, as eigh sorts: r > 0 on [:p]
    p, flat = int((x < 1.0).sum()), n_steps * abs(x) < 2.0**-53  # flat: the sum of r^j rounds to k
    ramp = np.arange(1.0, 65.0)[None] * record_every  # 64 records a chunk
    growth = np.ones((alpha.size + 1, ramp.size))  # r^k - 1 per mode (k if flat), then ones
    with np.errstate(all="ignore"):
        gain = np.where(flat, b, V.T @ alpha - b / np.where(flat, 1.0, x))
        weights, t = np.vstack([gain[:, None] * V.T, alpha]), growth[:-1]
        rate, r = np.log1p(-x[:p, None]), 1.0 - x[p:, None]
        for i in range(1, len(out), ramp.size):
            rows, k = out[i:i + ramp.size], np.minimum(ramp + (i - 1) * record_every, n_steps)
            np.expm1(np.matmul(rate, k, out=t[:p]), out=t[:p])  # k log r by matmul: no ufunc buffers
            t[p:], t[flat] = r**k - 1.0, k
            np.matmul(growth[:, :len(rows)].T, weights, out=rows)
    return out


@dataclass(frozen=True)
class LmsConditionReport:
    """Realized values and verdicts for the three online-update conditions.

    ``gamma`` is the largest realized Gram-matrix norm, ``lambda_max`` the
    largest realized Gram eigenvalue (equal for PSD matrices, reported
    separately because they back different conditions), ``eps_realized``
    the largest per-period change ``||mu (Phi[n] - Phi[n-1])||``.
    """

    n_intervals: int
    n_taps: int
    mu: float
    gamma: float
    lambda_max: float
    mu_limit: float
    eps_realized: float
    eps_threshold: float
    degenerate: bool
    bounded_ok: bool
    step_ok: bool
    slow_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.bounded_ok and self.step_ok and self.slow_ok


def check_lms_conditions(u_blocks, mu: float, n_taps: int, h: float,
                         eps_threshold: float = 0.5) -> LmsConditionReport:
    """Evaluate the three convergence conditions on a recorded run.

    From the top eigenvalues of the final running Gram matrix and of its
    largest per-period increment: (1) a uniform norm bound, (2) whether the
    step size lies inside (0, 2 / max eigenvalue), (3) whether the change of
    mu Phi[n] per period stays below ``eps_threshold``. A record with no
    regressor energy is degenerate (the conditions hold vacuously); one whose
    Gram matrix overflows raises ``numpy.linalg.LinAlgError`` (a ValueError).
    """
    U = np.asarray(u_blocks, dtype=float)
    if U.ndim != 2:
        raise DimensionError(f"u_blocks must be 2-D (n_steps, L), got shape {U.shape}")
    if not np.all(np.isfinite(U)):
        raise ValueError("u_blocks contains non-finite entries")
    if n_taps < 1:
        raise ValueError("need at least one tap")
    if not 0.0 < h < np.inf:
        raise ValueError(f"period h must be positive and finite, got {h}")
    if not mu > 0.0:
        raise ValueError(f"step size must be positive, got {mu}")
    maxima = _condition_maxima(U, n_taps, h, [len(U)])[len(U)]
    return _report_at(maxima, len(U), n_taps, mu, eps_threshold)


def _increment_bounds(G: np.ndarray) -> np.ndarray:
    """Upper bounds on ``eigvalsh``'s top eigenvalue of the increments of the
    rows k = ``G.shape[1]`` on of a ``_lag_sums`` chunk; -1 for a zero one.

    M_m is exactly symmetric, so lambda(M_m) <= ||M_m||_F, whose square is the
    sum over j < k of R[m-j, k-1-j], R[p, e] the sum over d <= e of c_d (G[p, d]^2
    + t), c_0 = 1, c_d = 2 (two entries per lag) and t the smallest normal double
    if G[p, d] != 0 (covering a square that underflows), else 0. Each term
    passes at most 2 k roundings and all are nonnegative, so nothing cancels:
    their rounding, the root's and ``eigvalsh``'s (k^2 eps) stay under the
    margin 2 (k + 1)^2 eps; an overflow gives inf.
    """
    k = G.shape[1]
    with np.errstate(over="ignore"):
        R = G * G
        np.add(R, np.finfo(float).tiny, out=R, where=G != 0.0)
        R[:, 1:] *= 2.0
        np.cumsum(R, axis=1, out=R)
        # row i: R[k + i - j, k - 1 - j] over j, the diagonal of a window of k rows
        norm2 = np.diagonal(np.lib.stride_tricks.sliding_window_view(R[1:], k, 0), 0, 1, 2).sum(axis=1)
        return np.where(norm2 > 0.0, np.sqrt(norm2) * (1.0 + 2 * (k + 1) ** 2 * np.finfo(float).eps), -1.0)


def _condition_maxima(U: np.ndarray, n_taps: int, h: float, reads) -> dict:
    """``{n: (lambda_max(Phi[n]), increment lambda_max)}`` over the first n periods, for n in ``reads``.

    ``eigvalsh``'s top eigenvalue of Phi[n], the largest over m <= n by
    Weyl's inequality up to rounding, and the largest one of the increments
    M_m, m < n (0 at n = 0): nonzero ones are decomposed, largest bound
    (``_increment_bounds``) first, while a bound reaches the largest value
    found. A Gram matrix that overflows raises ``numpy.linalg.LinAlgError``,
    which callers tell from a failure to allocate it."""
    reads = sorted(set(reads))
    U = U[:reads[-1]]  # later periods change nothing before the last read
    k, inc, lam_at, inc_at = n_taps, 0.0, {0: 0.0}, {0: 0.0}
    try:
        with np.errstate(over="raise"):
            for start, G, C in _lag_sums(U, k, h):
                rows, bound = len(G) - k, _increment_bounds(G)
                hits = [n for n in reads if start < n <= start + rows]
                cuts = [n - start for n in hits]
                for lo, hi in zip([0] + cuts, cuts + [rows]):
                    for m in (lo + np.argsort(-bound[lo:hi], kind="stable")).tolist():
                        if bound[m] < inc:
                            break
                        inc = max(inc, float(np.linalg.eigvalsh(_toeplitz(G, [k + m]))[0, -1]))
                    inc_at[start + hi] = inc
                if hits:
                    tops = np.linalg.eigvalsh(_toeplitz(C, [k + n - start - 1 for n in hits]))[:, -1]
                    lam_at.update(zip(hits, tops.tolist()))
    except FloatingPointError:
        raise np.linalg.LinAlgError("the Gram matrix overflows") from None
    return {n: (lam_at[n], inc_at[n]) for n in reads}


def _report_at(maxima, n: int, n_taps: int, mu: float, eps_threshold: float) -> LmsConditionReport:
    """The conditions on the first ``n`` periods of a record, from its maxima there."""
    lam_max, inc_max = maxima
    degenerate = lam_max == 0.0
    mu_limit = float("inf") if degenerate else 2.0 / lam_max
    eps_realized = mu * inc_max
    return LmsConditionReport(
        n_intervals=n,
        n_taps=n_taps,
        mu=mu,
        gamma=lam_max,
        lambda_max=lam_max,
        mu_limit=mu_limit,
        eps_realized=eps_realized,
        eps_threshold=float(eps_threshold),
        degenerate=degenerate,
        bounded_ok=bool(np.isfinite(lam_max)),
        step_ok=bool(degenerate or mu < mu_limit),
        slow_ok=bool(eps_realized <= eps_threshold),
    )
