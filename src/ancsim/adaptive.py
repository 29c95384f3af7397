"""Adaptive layers on top of the lifted discretization.

Two levels share the blocked regressor record ``U[n]`` (exact per-cell
integrals of the secondary path's response to the reference):

* the quadratic design problem (Gram matrix + cross vector) whose minimizer
  is the optimal FIR filter over an infinite horizon,
* offline steepest descent on it, in closed form over the Gram eigenmodes.

The online update itself (one tap commit per period, a cumulative descent
direction fed by fast error samples against lagged regressor integrals) is
the arm loop of ``runner``, stacked over every arm of a configuration.

A separate checker verifies the three conditions under which the online
update is a slowly-varying perturbation of steepest descent: uniformly
bounded Gram matrices, step size inside the stability range, and small
per-period Gram increments, from the top eigenvalue of the running Gram
matrix (its positive semidefinite growth makes it the largest so far) and
the largest top eigenvalue of its increments: one call reads them at any set
of truncations (the runner's, per blocking: every arm's last update),
decomposing one running Gram matrix per truncation and the increments a
norm bound cannot rule out. The design problem and the checker build the
Gram matrix from one lag stack of the record, processed in chunks.
"""

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


_CHUNK_PERIODS = 128
# Values (8 bytes each) of the checker's lag windows and running sums per
# chunk: 128 periods at the benchmark's sizes, 11 at 300 taps, one at 1000.
_CHECK_CHUNK_VALUES = 1 << 20


def _lag_windows(rows: np.ndarray, n_taps: int) -> np.ndarray:
    """Read-only windows (N, n_taps, ...) of the N ``rows``: window n holds
    rows n, n-1, ..., n-n_taps+1, zero before the record, as contiguous rows."""
    source = np.concatenate([rows[::-1], np.zeros((n_taps - 1,) + rows.shape[1:])])
    return np.moveaxis(np.lib.stride_tricks.sliding_window_view(source, n_taps, 0), -1, 1)[::-1]


def _lagged_chunks(U: np.ndarray, n_taps: int, periods: int = _CHUNK_PERIODS):
    """Yield ``(start, V)``, ``V[n - start, :, k] = U[n - k]``, zero before U.

    Each ``V`` is a contiguous copy of the (periods, L, n_taps) lag windows
    of at most ``periods`` periods: batched products on it equal per-period
    ones bit for bit (an einsum or a strided view does not). Each chunk
    windows only the rows it reads, so the temporaries stay small.
    """
    for start in range(0, len(U), periods):
        lo, stop = max(start - n_taps + 1, 0), start + periods
        yield start, _lag_windows(U[lo:stop], n_taps)[start - lo:].transpose(0, 2, 1).copy()


def build_wiener(
    u_blocks,
    d_fast,
    n_taps: int,
    horizon: float,
    h: float,
    L: int,
) -> WienerProblem:
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
        raise DimensionError(
            f"d_fast has {D.size} samples, expected n_steps * L = {n_steps * L}"
        )
    D = D.reshape(n_steps, L)
    if n_taps < 1:
        raise ValueError("need at least one tap")
    if not 0.0 < h < np.inf:
        raise ValueError(f"period h must be positive and finite, got {h}")
    if abs(horizon - n_steps * h) > 1e-9 * max(h, horizon):
        raise ValueError(
            f"horizon {horizon} is not the record length: {n_steps} periods of {h}"
        )

    Phi = np.zeros((n_taps, n_taps))
    beta = np.zeros(n_taps)
    for start, V in _lagged_chunks(U, n_taps):
        Vf = V.reshape(-1, n_taps)
        Phi += (L / h) * (Vf.T @ Vf)
        beta += Vf.T @ D[start:start + V.shape[0]].reshape(-1)
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


def check_lms_conditions(
    u_blocks,
    mu: float,
    n_taps: int,
    h: float,
    eps_threshold: float = 0.5,
) -> LmsConditionReport:
    """Evaluate the three convergence conditions on a recorded run.

    Builds the running Gram matrices Phi[n] from the lag stack of the
    blocked regressor record, one chunk of periods at a time, and reports,
    from the top eigenvalue of the final Phi and the largest one of its
    increments: (1) a uniform norm bound, (2) whether the step size lies
    inside (0, 2 / max eigenvalue), (3) whether the per-period change of
    mu Phi[n] stays below ``eps_threshold``. A record with no regressor
    energy is flagged degenerate (conditions hold vacuously). A record whose
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


def _condition_maxima(U: np.ndarray, n_taps: int, h: float, reads) -> dict:
    """``{n: (lambda_max(Phi[n]), increment lambda_max)}`` over the first n periods, for n in ``reads``.

    The top eigenvalue (``eigvalsh``) of the running Gram matrix Phi[n] and
    the largest one of its increments M_m = (L/h) V_m^T V_m, m <= n (0 at
    n = 0), bit for bit: every truncation builds the same matrices by the
    same chunked products and in-place cumsum. The increments are positive
    semidefinite, so lambda(Phi[n]) is already the largest over m <= n
    (Weyl's inequality, up to rounding), and each read decomposes Phi[n]
    alone. With k = n_taps and eps the machine epsilon, lambda(M_m) <=
    ||M_m||_F (1 + 4 k^2 (L + 2) eps), the margin covering ``eigvalsh``
    (k^2 eps) and the asymmetry of the triangles (2 L eps of the top
    diagonal entry each); k^2 smallest normal doubles under the root cover
    underflowed squares. Nonzero increments are decomposed, largest bound
    first, while a bound reaches the largest value found. A chunk holds at
    most ``_CHECK_CHUNK_VALUES`` values of windows and running sums (the
    sums are the same whatever the chunk: cumsum adds in period order). A
    Gram matrix that overflows raises ``numpy.linalg.LinAlgError``, which
    callers tell from a failure to allocate it.
    """
    reads = sorted(set(reads))
    U = U[:reads[-1]]  # later periods change nothing before the last read
    L, eps = U.shape[1], np.finfo(float).eps
    margin, floor = 4 * n_taps**2 * (L + 2) * eps, n_taps**2 * np.finfo(float).tiny
    periods = max(1, min(_CHUNK_PERIODS, _CHECK_CHUNK_VALUES // (n_taps * (n_taps + L))))
    Phi, inc, lam_at, inc_at = np.zeros((n_taps, n_taps)), 0.0, {0: 0.0}, {0: 0.0}
    try:
        with np.errstate(over="raise"):
            for start, V in _lagged_chunks(U, n_taps, periods):
                running = V.transpose(0, 2, 1) @ V
                running *= L / h  # the bits of (L / h) * (V^T V), without a second stack
                rows = running.reshape(len(V), 1, -1)
                with np.errstate(over="ignore"):  # past the largest double a bound rules nothing out
                    bound = np.sqrt((rows @ rows.transpose(0, 2, 1)).ravel() + floor) * (1.0 + margin)
                bound = np.where(rows.any(axis=2).ravel(), bound, -1.0).tolist()  # zero: no new maximum
                hits = [n for n in reads if start < n <= start + len(V)]
                lo = 0
                for hi in [n - start for n in hits] + [len(V)]:
                    for m in sorted(range(lo, hi), key=bound.__getitem__, reverse=True):
                        if bound[m] < inc:
                            break
                        inc = max(inc, float(np.linalg.eigvalsh(running[m])[-1]))
                    inc_at[start + hi], lo = inc, hi
                running[0] += Phi
                np.cumsum(running, axis=0, out=running)
                Phi = running[-1]
                if hits:
                    tops = np.linalg.eigvalsh(running[[n - start - 1 for n in hits]])[:, -1]
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
