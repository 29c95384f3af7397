"""Continuous-time LTI state-space algebra and matrix-exponential integrals.

A plant is a ``ContinuousStateSpace``: one input, one output, no feedthrough
and at least one state, checked once when it is built, so no function here
checks a plant's shape again. Everything downstream reduces to four
integral families of a plant (A, B, C) over a horizon t:

* ``Phi(t)    = exp(A t)``
* ``Gamma(t)  = int_0^t exp(A s) B ds``
* ``Lambda(t) = int_0^t C exp(A s) ds``
* ``Theta(t)  = int_0^t int_0^s C exp(A r) B dr ds``

``vanloan`` reads all four off a single exponential of one block-triangular
augmented matrix, so the discretization layer never touches a quadrature
routine. ``period_gramian`` reads the output energy over one period of a
held input the same way. The matrix exponential itself is a
scaling-and-squaring Pade evaluation of the single degree 13.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ContinuousStateSpace",
    "VanLoanResult",
    "DimensionError",
    "PlantSpecificationError",
    "expm",
    "vanloan",
    "period_gramian",
    "series",
    "parallel",
    "from_second_order_bank",
    "freq_response_grid",
]


class DimensionError(ValueError):
    """Matrix dimensions do not line up."""


class PlantSpecificationError(ValueError):
    """Plant specification is empty, out of range or unstable."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ContinuousStateSpace:
    """Strictly proper SISO plant ``dx/dt = A x + B u``, ``y = C x``, n >= 1 states.

    The type holds exactly the plants the loop can use, and checks that once,
    here: A must be (n, n) with n >= 1, B (n, 1) and C (1, n), after a
    one-dimensional B or C is promoted to a column or a row. Any other shape
    raises ``DimensionError``, a non-finite entry ``ValueError``; there is no
    feedthrough term. Matrices are stored as read-only float64 arrays; B and
    C stay two-dimensional, so every product with them is a BLAS matrix product.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
            raise DimensionError(f"A must be square with at least one state, got shape {A.shape}")
        nu = A.shape[0]

        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if B.shape != (nu, 1):
            raise DimensionError(f"B must have shape {(nu, 1)} (one input), got {B.shape}")

        C = np.asarray(self.C, dtype=float)
        if C.ndim == 1:
            C = C.reshape(1, -1)
        if C.shape != (1, nu):
            raise DimensionError(f"C must have shape {(1, nu)} (one output), got {C.shape}")

        for name, mat in (("A", A), ("B", B), ("C", C)):
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} contains non-finite entries")

        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "C", _freeze(C))

    @property
    def nstates(self) -> int:
        return self.A.shape[0]

    @property
    def poles(self) -> np.ndarray:
        return np.linalg.eigvals(self.A)

    @functools.cached_property
    def _modal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Eigenvalues of A, the residue of each mode and the eigenvectors V, or None.

        Residue k is entry k of C V times entry k of V^-1 B, shape (n,). None
        when the eigenvector matrix V is not finite or has cond(V) >= 1e9. A,
        B and C are frozen, so the cache cannot go stale; its arrays are
        read-only too.
        """
        lam, V = np.linalg.eig(self.A)
        if not (np.all(np.isfinite(V)) and np.linalg.cond(V) < 1e9):
            return None
        CV = self.C @ V
        VB = np.linalg.solve(V, self.B)
        residues = CV[0] * VB[:, 0]
        lam.flags.writeable = residues.flags.writeable = V.flags.writeable = False
        return lam, residues, V

    @property
    def is_stable(self) -> bool:
        """True when every pole has a strictly negative real part."""
        return bool(np.all(self.poles.real < 0.0))

    def validate_plant(self, name: str = "plant") -> None:
        """Require exponential stability, naming the plant ``name`` if it fails."""
        if not self.is_stable:
            raise PlantSpecificationError(
                f"{name} is unstable: pole with nonnegative real part"
            )


def series(first: ContinuousStateSpace, second: ContinuousStateSpace) -> ContinuousStateSpace:
    """Cascade: the signal passes through ``first``, then ``second``."""
    n1, n2 = first.nstates, second.nstates
    A = np.zeros((n1 + n2, n1 + n2))
    A[:n1, :n1] = first.A
    A[n1:, n1:] = second.A
    A[n1:, :n1] = second.B @ first.C
    B = np.vstack([first.B, np.zeros((n2, 1))])
    C = np.hstack([np.zeros((1, n1)), second.C])
    return ContinuousStateSpace(A, B, C)


def parallel(first: ContinuousStateSpace, second: ContinuousStateSpace) -> ContinuousStateSpace:
    """Sum of two systems driven by one input."""
    n1, n2 = first.nstates, second.nstates
    A = np.zeros((n1 + n2, n1 + n2))
    A[:n1, :n1] = first.A
    A[n1:, n1:] = second.A
    B = np.vstack([first.B, second.B])
    C = np.hstack([first.C, second.C])
    return ContinuousStateSpace(A, B, C)


def from_second_order_bank(
    gains,
    dampings,
    frequencies,
    first_order_poles=(),
) -> ContinuousStateSpace:
    """Build a plant as first-order factors in series with a resonant bank.

    The transfer function is::

        H(s) = prod_i 1/(s + p_i) * sum_k g_k w_k^2 / (s^2 + 2 z_k w_k s + w_k^2)

    Each resonant section is realized in controllable canonical form, the
    sections are summed in parallel, and the result is cascaded behind the
    chain of first-order lags (given order). An empty bank (no sections)
    leaves just the lag chain; an empty pole list leaves just the bank.
    """
    gains = np.atleast_1d(np.asarray(gains, dtype=float))
    dampings = np.atleast_1d(np.asarray(dampings, dtype=float))
    frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
    poles = np.atleast_1d(np.asarray(first_order_poles, dtype=float))

    if not (gains.size == dampings.size == frequencies.size):
        raise DimensionError(
            "gains, dampings and frequencies must have equal length, got "
            f"{gains.size}/{dampings.size}/{frequencies.size}"
        )
    if gains.size == 0 and poles.size == 0:
        raise PlantSpecificationError("empty plant specification")
    if np.any(poles <= 0.0):
        raise PlantSpecificationError("first-order poles must be positive (stable lags)")
    if np.any(dampings <= 0.0):
        raise PlantSpecificationError("damping ratios must be positive")
    if np.any(frequencies <= 0.0):
        raise PlantSpecificationError("resonant frequencies must be positive")

    sys: ContinuousStateSpace | None = None
    for p in poles:
        lag = ContinuousStateSpace([[-p]], [[1.0]], [[1.0]])
        sys = lag if sys is None else series(sys, lag)

    if gains.size:
        bank: ContinuousStateSpace | None = None
        for g, z, w in zip(gains, dampings, frequencies):
            section = ContinuousStateSpace(
                [[0.0, 1.0], [-w * w, -2.0 * z * w]],
                [[0.0], [1.0]],
                [[g * w * w, 0.0]],
            )
            bank = section if bank is None else parallel(bank, section)
        sys = bank if sys is None else series(sys, bank)

    assert sys is not None
    return sys


# Bytes of each complex temporary of one stacked fallback solve: under the
# 128 KiB at which glibc serves a block with a fresh mmap.
_SOLVE_CHUNK_BYTES = 1 << 16


def freq_response_grid(sys: ContinuousStateSpace, omegas) -> np.ndarray:
    """Transfer function C (jw I - A)^-1 B on a frequency grid, shape (n,).

    Sums the modal form when A diagonalizes well. That form comes from one
    eigendecomposition per system, cached on it, so repeated grids on one
    plant decompose it once. Defective or badly conditioned eigenvector
    matrices fall back to the shifted systems (jw I - A) X = B, solved as one
    stacked ``np.linalg.solve`` per chunk of frequencies.
    """
    om = np.asarray(omegas, dtype=float).ravel()
    modal = sys._modal
    if modal is not None:
        lam, residues, _ = modal
        jw = 1j * om
        # mode by mode, in place: a grid x modes temporary would need a fresh
        # mmap per call, and one per mode costs three allocations a mode
        resp = np.zeros(om.size, dtype=complex)
        term = np.empty(om.size, dtype=complex)
        for k in range(lam.size):
            np.subtract(jw, lam[k], out=term)
            np.divide(1.0, term, out=term)
            term *= residues[k]
            resp += term
        return resp

    nu = sys.nstates
    ident = np.eye(nu)
    chunk = max(1, _SOLVE_CHUNK_BYTES // (16 * nu * nu))
    out = np.empty(om.size, dtype=complex)
    for start in range(0, om.size, chunk):
        w = om[start:start + chunk]
        shifted = np.multiply.outer(1j * w, ident) - sys.A
        X = np.linalg.solve(shifted, np.broadcast_to(sys.B, (w.size, nu, 1)))
        out[start:start + chunk] = (sys.C @ X)[:, 0, 0]
    return out


# Numerator coefficients of the degree-13 Pade approximant and the 1-norm up
# to which it reaches double precision unscaled (Higham 2005).
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA_13 = 5.371920351148152e0


def _pade_13(M: np.ndarray) -> np.ndarray:
    b = _PADE_13
    ident = np.eye(M.shape[0])
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * ident)
    V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * ident)
    return np.linalg.solve(V - U, V + U)


def expm(M) -> np.ndarray:
    """Matrix exponential by scaling and squaring with one Pade degree.

    The degree-13 approximant is evaluated on ``M / 2^s``, with ``s`` the
    least power of two that brings the 1-norm within ``_THETA_13``, and
    squared back ``s`` times.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expm expects a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    if not np.all(np.isfinite(M)):
        raise ValueError("expm argument contains non-finite entries")

    norm = np.linalg.norm(M, 1)
    squarings = int(np.ceil(np.log2(norm / _THETA_13))) if norm > _THETA_13 else 0
    X = _pade_13(M / (2.0 ** squarings))
    for _ in range(squarings):
        X = X @ X
    return X


class VanLoanResult(NamedTuple):
    """Exponential and integral blocks of one plant over the horizon ``t``.

    * ``Phi``:    exp(A t), shape (nu, nu)
    * ``Gamma``:  int_0^t exp(A s) B ds, shape (nu, 1)
    * ``Lambda``: int_0^t C exp(A s) ds, shape (1, nu)
    * ``Theta``:  int_0^t int_0^s C exp(A r) B dr ds, shape (1, 1)

    All blocks vanish in the limit t -> 0 except Phi -> I.
    """

    Phi: np.ndarray
    Gamma: np.ndarray
    Lambda: np.ndarray
    Theta: np.ndarray
    t: float


def vanloan(sys: ContinuousStateSpace, t: float) -> VanLoanResult:
    """Compute all four integral blocks from one augmented exponential.

    The augmented matrix ``[[A, I, 0], [0, 0, I], [0, 0, 0]]`` has
    exponential blocks (1,1) = exp(At), (1,2) = int_0^t exp(As) ds and
    (1,3) = int_0^t (t - s) exp(As) ds; the second integral equals the
    iterated integral in ``Theta`` after swapping the order of integration.
    """
    if not 0.0 < t < np.inf:
        raise ValueError(f"integration horizon t must be positive and finite, got {t}")
    nu = sys.nstates
    M = np.zeros((3 * nu, 3 * nu))
    M[:nu, :nu] = sys.A
    M[:nu, nu:2 * nu] = np.eye(nu)
    M[nu:2 * nu, 2 * nu:] = np.eye(nu)
    E = expm(M * t)
    J = E[:nu, nu:2 * nu]
    K = E[:nu, 2 * nu:]
    return VanLoanResult(
        Phi=E[:nu, :nu],
        Gamma=J @ sys.B,
        Lambda=sys.C @ J,
        Theta=sys.C @ K @ sys.B,
        t=float(t),
    )


def period_gramian(sys: ContinuousStateSpace, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Period map and output Gramian under a held input, from one exponential.

    With the held input as one more state, Abar = [[A, B], [0, 0]] and
    Cbar = [C, 0]. Returns exp(Abar t) = [[exp(A t), Gamma(t)], [0, I]] and
    W = int_0^t exp(Abar' s) Cbar' Cbar exp(Abar s) ds, the output energy
    [x; u]* W [x; u] over [0, t). Van Loan's [[-Abar', Cbar' Cbar], [0, Abar]]
    has exponential blocks (1,2) = exp(-Abar' t) W and (2,2) = exp(Abar t).
    Block (1,1) would swamp W at large |A| t, so the exponential is taken
    over t / 2^s, with |Abar t / 2^s|_1 <= 1, and W doubled back s times:
    W(2 tau) = W(tau) + exp(Abar' tau) W(tau) exp(Abar tau).
    """
    if not 0.0 < t < np.inf:
        raise ValueError(f"integration horizon t must be positive and finite, got {t}")
    k = sys.nstates + 1
    Abar = np.vstack([np.hstack([sys.A, sys.B]), np.zeros((1, k))])
    Cbar = np.hstack([sys.C, np.zeros((1, 1))])
    norm = np.linalg.norm(Abar, 1) * t
    halvings = int(np.ceil(np.log2(norm))) if norm > 1.0 else 0
    M = np.block([[-Abar.T, Cbar.T @ Cbar], [np.zeros((k, k)), Abar]])
    E = expm(M * (t / 2.0 ** halvings))
    step, W = E[k:, k:], E[k:, k:].T @ E[:k, k:]
    for _ in range(halvings):
        W = W + step.T @ W @ step
        step = step @ step
    return step, W
