"""Frequency-domain analysis of the regressor.

The regressor u is the secondary path driven by the held reference, so its
transform factors as F(jw) H0(jw) Xd(e^{jwh}) with H0 the hold response.
Folding the squared magnitude over all aliases of the sampling frequency
gives a 2 pi / h periodic energy density S(w). Its peak bounds every
eigenvalue any realized Gram matrix can have, which turns into the usable
step-size range (0, 2 / sup S) for descent on the quadratic problem. The
plant and the record are real and the alias window is symmetric, so S is
even: ``spectral_bound`` evaluates the nonnegative half of its grid, from
one FFT of the record and one modal decomposition of the secondary path, and
mirrors the rest. The module
also checks the Gram/spectrum consistency: Gram entries are inverse
transforms of S over one period of frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adaptive import WienerProblem
from .statespace import (
    ContinuousStateSpace,
    DimensionError,
    PlantSpecificationError,
    freq_response_grid,
)

__all__ = [
    "SpectralBound",
    "ParsevalReport",
    "zoh_frequency_response",
    "u_spectrum",
    "spectral_bound",
    "parseval_check",
]


def zoh_frequency_response(omegas, h: float) -> np.ndarray:
    """Frequency response of the zero-order hold, (1 - e^{-jwh}) / (jw).

    Evaluated in product form so w = 0 gives exactly h. Zeros fall at the
    nonzero multiples of the sampling frequency 2 pi / h.
    """
    om = np.asarray(omegas, dtype=float)
    return h * np.exp(-0.5j * om * h) * np.sinc(om * h / (2.0 * np.pi))


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


def u_spectrum(
    secondary: ContinuousStateSpace,
    xd_spectrum,
    omegas,
    h: float,
) -> np.ndarray:
    """Continuous-time transform of the regressor at the given frequencies.

    ``xd_spectrum`` is the value of the reference sequence transform at the
    same frequencies (scalar or array broadcastable against ``omegas``).
    """
    if not secondary.is_siso:
        raise DimensionError("regressor spectrum expects a SISO secondary path")
    om = np.asarray(omegas, dtype=float).ravel()
    resp = freq_response_grid(secondary, om)[:, 0, 0]
    return resp * zoh_frequency_response(om, h) * np.asarray(xd_spectrum)


# Frequencies per stacked alias chunk: its complex temporaries stay at 112 KiB,
# under the 128 KiB above which glibc serves each one with a fresh mmap.
_ALIAS_CHUNK_VALUES = 7168


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
    n_alias: int

    @property
    def spacing(self) -> float:
        return float(self.omegas[1] - self.omegas[0])


def spectral_bound(
    secondary: ContinuousStateSpace,
    xd_samples,
    h: float,
    grid_size: int = 4096,
    n_alias: int = 64,
) -> SpectralBound:
    """Evaluate the aliased energy density on a frequency grid.

    S(w) = (1/h) |Xd(e^{jwh})|^2 * sum_k |F(j w_k)|^2 |H0(j w_k)|^2 with
    w_k = w + 2 pi k / h and the alias sum truncated at ``n_alias``. Requires
    a strictly proper SISO secondary path (a feedthrough term would make the
    alias sum diverge). S is even, so only the grid points with w >= 0 are
    evaluated and the rest are their mirror images. On those points the
    record transform Xd is one FFT of the record folded onto the grid. Every
    alias has sin(w_k h / 2) = +-sin(w h / 2), so the hold factor
    |H0(j w_k)|^2 = 4 sin^2(w h / 2) / w_k^2 takes one sine per grid point
    (h^2 at w_k = 0). The aliases go through ``freq_response_grid`` a few at
    a time as one stacked frequency vector of at most ``_ALIAS_CHUNK_VALUES``
    values, on the one modal decomposition cached on ``secondary``.
    """
    if not secondary.is_siso:
        raise DimensionError("spectral bound expects a SISO secondary path")
    if not secondary.is_strictly_proper:
        raise PlantSpecificationError(
            "spectral bound requires a strictly proper secondary path"
        )
    if not h > 0.0:
        raise ValueError(f"period must be positive, got {h}")
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if n_alias < 0:
        raise ValueError("n_alias must be nonnegative")

    spacing = 2.0 * np.pi / h / grid_size
    om = -np.pi / h + (np.arange(grid_size) + 0.5) * spacing
    half = om[grid_size // 2:]
    xd = _half_grid_transform(xd_samples, grid_size)

    four_sin2 = 4.0 * np.sin(0.5 * h * half) ** 2
    shifts = 2.0 * np.pi * np.arange(-n_alias, n_alias + 1) / h
    width = min(half.size, _ALIAS_CHUNK_VALUES)
    rows = _ALIAS_CHUNK_VALUES // width
    folded = np.zeros(half.size)
    for lo in range(0, half.size, width):
        cols = slice(lo, lo + width)
        for k0 in range(0, shifts.size, rows):
            w = half[cols] + shifts[k0:k0 + rows, None]
            f = freq_response_grid(secondary, w.ravel())[:, 0, 0].reshape(w.shape)
            w2 = w * w
            hold = np.divide(four_sin2[cols], w2, out=np.full(w.shape, h * h), where=w2 != 0.0)
            folded[cols] += ((f.real ** 2 + f.imag ** 2) * hold).sum(axis=0)
    half_values = (xd.real ** 2 + xd.imag ** 2) / h * folded
    values = np.concatenate([half_values[::-1][:grid_size // 2], half_values])

    peak = float(values.max())
    mu_limit = float("inf") if peak == 0.0 else 2.0 / peak
    return SpectralBound(
        omegas=om,
        values=values,
        peak=peak,
        mu_limit=mu_limit,
        h=float(h),
        n_alias=int(n_alias),
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
    """Check the recorded Gram matrix against the spectrum integral."""
    n = problem.n_taps
    weight = bound.h / (2.0 * np.pi) * bound.spacing
    lag_vals = np.empty(n)
    for m in range(n):
        lag_vals[m] = weight * float(bound.values @ np.cos(bound.omegas * m * bound.h))
    idx = np.arange(n)
    phi_s = lag_vals[np.abs(np.subtract.outer(idx, idx))]

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
