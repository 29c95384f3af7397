"""Frequency-domain analysis of the regressor.

The regressor u is the secondary path driven by the held reference, so its
transform factors as F(jw) H0(jw) Xd(e^{jwh}) with H0 the hold response.
Folding the squared magnitude over all aliases of the sampling frequency
gives a 2 pi / h periodic energy density S(w). Its peak bounds every
eigenvalue any realized Gram matrix can have, which turns into the usable
step-size range (0, 2 / sup S) for descent on the quadratic problem.
``spectral_bound`` folds every alias at once through the lifted secondary
path's period Gramian (Yamamoto & Khargonekar, IEEE TAC 1996). The module
also checks the Gram/spectrum consistency: Gram entries are inverse
transforms of S over one period of frequencies, all lags from one FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adaptive import WienerProblem
from .statespace import ContinuousStateSpace, _SOLVE_CHUNK_BYTES, period_gramian

__all__ = [
    "SpectralBound",
    "ParsevalReport",
    "spectral_bound",
    "parseval_check",
]


def _half_grid_transform(samples, grid_size: int) -> np.ndarray:
    """Record transform sum_n x[n] e^{-j w n h} at the grid points w >= 0.

    Those points of ``spectral_bound``'s grid are w_j h = 2 pi (j + c) / G
    with G = ``grid_size`` and c = 1/2 for even G, 0 for odd G, so the
    transform is one length-G FFT of the record folded onto G samples:
    y_m = e^{-j 2 pi c m / G} sum_q e^{-j 2 pi c q} x_{m + qG}. NaN or
    infinite samples are rejected.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size == 0:
        raise ValueError("empty sample record")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample record contains non-finite values")
    periods = -(-x.size // grid_size)
    padded = np.zeros(periods * grid_size)
    padded[:x.size] = x
    rows = padded.reshape(periods, grid_size)
    if grid_size % 2:
        y = rows.sum(axis=0)
    else:
        # c = 1/2: alternate the sign of each folded period and shift by half a bin
        half_bin = np.exp(-1j * np.pi * np.arange(grid_size) / grid_size)
        y = (rows[0::2].sum(axis=0) - rows[1::2].sum(axis=0)) * half_bin
    # numpy.fft loads on first use, so a run that takes no bound never imports it
    return np.fft.fft(y)[:grid_size - grid_size // 2]


@dataclass(frozen=True)
class SpectralBound:
    """Aliased energy density of the regressor over one frequency period.

    ``values[i]`` is S at ``omegas[i]``; ``peak`` its maximum; ``mu_limit``
    the resulting usable step-size bound 2 / peak (inf when the record is
    silent). The grid uses cell midpoints over (-pi/h, pi/h), so summing
    values * spacing is a midpoint quadrature of the period integral.
    """

    omegas: np.ndarray
    values: np.ndarray
    peak: float
    mu_limit: float
    h: float

    @property
    def spacing(self) -> float:
        return float(self.omegas[1] - self.omegas[0])


def spectral_bound(secondary: ContinuousStateSpace, xd_samples, h: float,
                   grid_size: int = 4096) -> SpectralBound:
    """Evaluate the aliased energy density on a frequency grid.

    S(w) = (1/h) |Xd(e^{jwh})|^2 * sum_k |F(j w_k) H0(j w_k)|^2 over every
    alias w_k = w + 2 pi k / h. The alias sum is h times the period energy of
    the steady response to the held tone z^n, z = e^{jwh}, which starts each
    period from xi = [(zI - Phi)^{-1} Gamma; 1]: S = |Xd|^2 xi* W xi, with W
    and [[Phi, Gamma], [0, 1]] from ``period_gramian``. S is even: the grid
    points w >= 0, where Xd is one FFT of the folded record, are mirrored. On the path's cached modal form
    A = V diag(lam) V^-1 the solve is a division by z - e^{lam h}; without
    one (repeated poles) it is a stacked solve, in grid chunks of at most
    ``_SOLVE_CHUNK_BYTES`` a temporary. An overflowing S is rejected.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"period h must be positive and finite, got {h}")
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")

    om = -np.pi / h + (np.arange(grid_size) + 0.5) * (2.0 * np.pi / h / grid_size)
    half = om[grid_size // 2:]

    n = secondary.nstates
    period, W = period_gramian(secondary, h)
    phi, gamma = period[:n, :n], period[:n, n:]
    modal = secondary._modal
    T = np.eye(n + 1, dtype=complex)  # xi = T [q; 1]
    if modal is not None:
        lam, _, V = modal
        T[:n, :n] = V
        poles, coef = np.exp(lam * h), np.linalg.solve(V, gamma[:, 0])
    # xi* W xi as a real form in the interleaved parts of [q; 1]: no complex product
    form = np.einsum("ia,ij,jb->ab", T.conj(), W, T)
    form = np.kron(form.real, np.eye(2)) + np.kron(form.imag, [[0.0, -1.0], [1.0, 0.0]])
    step = max(1, _SOLVE_CHUNK_BYTES // (16 * (n + 1) * (1 if modal is not None else n + 1)))
    z = np.exp(1j * h * half)[:, None]
    q1 = np.ones((min(step, half.size), n + 1), dtype=complex)
    energy = np.empty(half.size)
    for lo in range(0, half.size, step):
        zc = z[lo:lo + step]
        q = q1[:zc.size, :n]
        if modal is None:
            shifted = zc[:, :, None] * np.eye(n) - phi
            q[:] = np.linalg.solve(shifted, np.broadcast_to(gamma, (zc.size, n, 1)))[:, :, 0]
        else:
            np.divide(coef, zc - poles, out=q)
        parts = q1[:zc.size].view(float)
        energy[lo:lo + step] = np.einsum("gi,gi->g", parts @ form, parts)
    with np.errstate(over="ignore", invalid="ignore"):
        xd = _half_grid_transform(xd_samples, grid_size)
        half_values = (xd.real ** 2 + xd.imag ** 2) * energy
    if not np.all(np.isfinite(half_values)):
        raise ValueError("the record's energy density overflows")
    values = np.concatenate([half_values[::-1][:grid_size // 2], half_values])

    peak = float(values.max())
    mu_limit = float("inf") if peak == 0.0 else 2.0 / peak
    return SpectralBound(
        omegas=om,
        values=values,
        peak=peak,
        mu_limit=mu_limit,
        h=float(h),
    )


@dataclass(frozen=True)
class ParsevalReport:
    """Comparison of Gram entries against inverse transforms of S.

    ``phi_spectral[k, l]`` is (h / 2 pi) int S(w) cos(w (k-l) h) dw over one
    frequency period (midpoint rule on the bound's grid). Deviations are
    reported for the leading entry and entrywise against the Gram scale.
    """

    phi_spectral: np.ndarray
    entry00_rel: float
    max_abs_deviation: float
    scale_rel_deviation: float


def parseval_check(problem: WienerProblem, bound: SpectralBound) -> ParsevalReport:
    """Check the recorded Gram matrix against the spectrum integral, whose lags
    are one FFT: on the grid w_i h = pi (2 i + 1 - G) / G, sum_i S_i cos(m w_i h) =
    Re[e^{j pi m (1 - G) / G} F*_{m mod G}], F = fft(S), the phase reduced mod 2 pi exactly."""
    G, m = bound.values.size, np.arange(problem.n_taps)
    turn = np.pi / G * (m * (1 - G) % (2 * G))
    F = np.fft.fft(bound.values)[m % G]
    lag_vals = bound.h / (2.0 * np.pi) * bound.spacing * (np.cos(turn) * F.real + np.sin(turn) * F.imag)
    phi_s = lag_vals[np.abs(np.subtract.outer(m, m))]

    diff = np.abs(phi_s - problem.Phi)
    scale = max(float(np.abs(problem.Phi).max()), 1e-300)
    entry00 = abs(problem.Phi[0, 0])
    entry00_rel = float(diff[0, 0] / entry00) if entry00 > 0.0 else float(diff[0, 0] > 0.0)
    return ParsevalReport(
        phi_spectral=phi_s,
        entry00_rel=entry00_rel,
        max_abs_deviation=float(diff.max()),
        scale_rel_deviation=float(diff.max() / scale),
    )
