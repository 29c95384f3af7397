"""Lifted discretization of hold-driven plants and exact hybrid-loop stepping.

A strictly proper SISO plant driven through a zero-order hold at period h is
equivalent, between samples, to a finite-dimensional recursion whose output
is the vector of exact subinterval integrals of the continuous response.
With the period split into L cells of width h/L::

    eta[n+1] = Ah eta[n] + Bh x[n]
    U[n]     = Ch eta[n] + Dh x[n]          (U[n][l] = int over cell l of u)

``Ah = exp(A h)`` and ``Bh`` is the held-input integral; row l of ``Ch``/
``Dh`` is a difference of cumulative output integrals at the cell
endpoints, so every entry is exact up to the matrix exponential.

``HybridLoop`` assembles these pieces into a closed loop: a noise source, a
primary path, and a secondary path driven by a sampled FIR filter. The loop
is feedforward, so it splits at the taps: the reference, the disturbance and
the regressor (the secondary dynamics driven by the held reference) form an
exogenous half computed once per configuration, and only the anti-noise path
is stepped under the taps, for a whole stack of arms (one row of taps and of
secondary-path state per arm) in one call. The same lifting applies to the
point samples at the cell left endpoints: each is a
fixed linear map of the period-start state and the held inputs, built once
from the exact one-cell propagators (rows ``c Phi^l`` and accumulated input
gains), so one period is a handful of matrix-vector products with no loop
over the cells. No numerical ODE integration happens anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import AutonomousGenerator, HeldWaveform
from .statespace import ContinuousStateSpace, DimensionError, expm, vanloan

__all__ = [
    "LiftedDiscretization",
    "FastSampler",
    "HybridLoop",
    "ExogenousRecord",
    "SimTrace",
    "discretize_lifted",
    "fh_step",
    "l2_norm",
]


@dataclass(frozen=True)
class FastSampler:
    """Uniform fast grid: L cells per period h, instants t = n h + l h/L."""

    h: float
    L: int

    def __post_init__(self) -> None:
        if not self.h > 0.0:
            raise ValueError(f"period must be positive, got {self.h}")
        if int(self.L) != self.L or self.L < 1:
            raise ValueError(f"cells per period must be a positive integer, got {self.L}")
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "L", int(self.L))

    @property
    def dt(self) -> float:
        return self.h / self.L

    def instants(self, n_periods: int) -> np.ndarray:
        """Left endpoints of every cell over ``n_periods`` periods."""
        return np.arange(n_periods * self.L) * self.dt


@dataclass(frozen=True)
class LiftedDiscretization:
    """Exact blocked discretization of one hold-driven plant.

    ``Ah`` (nu, nu) and ``Bh`` (nu,) advance the state over one period;
    ``Ch`` (L, nu) and ``Dh`` (L,) produce the per-cell output integrals.
    """

    Ah: np.ndarray
    Bh: np.ndarray
    Ch: np.ndarray
    Dh: np.ndarray
    h: float
    L: int

    @property
    def nstates(self) -> int:
        return self.Ah.shape[0]


def discretize_lifted(sys: ContinuousStateSpace, h: float, L: int) -> LiftedDiscretization:
    """Blocked discretization of a strictly proper SISO plant.

    Cumulative integral blocks are evaluated at every cell endpoint
    l h / L and differenced, which keeps adjacent rows consistent: refining
    L and summing adjacent rows reproduces the coarse rows exactly.
    """
    sampler = FastSampler(h, L)  # validates h and L
    h, L = sampler.h, sampler.L
    if not sys.is_siso:
        raise DimensionError("lifted discretization expects a SISO plant")
    if not sys.is_strictly_proper:
        raise DimensionError("lifted discretization expects a strictly proper plant")
    if sys.nstates == 0:
        raise DimensionError("lifted discretization expects a dynamic plant")

    nu = sys.nstates
    Ch = np.empty((L, nu))
    Dh = np.empty(L)
    lam_prev = np.zeros((1, nu))
    theta_prev = 0.0
    for l in range(1, L + 1):
        vl = vanloan(sys, l * h / L)
        Ch[l - 1] = vl.Lambda[0] - lam_prev[0]
        Dh[l - 1] = vl.Theta[0, 0] - theta_prev
        lam_prev = vl.Lambda
        theta_prev = vl.Theta[0, 0]
        if l == L:
            Ah = vl.Phi
            Bh = vl.Gamma[:, 0]
    return LiftedDiscretization(Ah=Ah, Bh=Bh, Ch=Ch, Dh=Dh, h=h, L=L)


def fh_step(lift: LiftedDiscretization, eta: np.ndarray, x_d: float):
    """One period of the blocked recursion: returns (eta_next, U).

    ``U[l]`` is the exact integral of the plant response over cell l of the
    current period given state ``eta`` and the held input sample ``x_d``.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (lift.nstates,):
        raise DimensionError(
            f"state must have shape ({lift.nstates},), got {eta.shape}"
        )
    U = lift.Ch @ eta + lift.Dh * x_d
    eta_next = lift.Ah @ eta + lift.Bh * x_d
    return eta_next, U


@dataclass(frozen=True)
class ExogenousRecord:
    """Tap-independent signals of one loop configuration (read-only arrays).

    ``x_d`` (N,) holds the held reference sample of each period; ``x``,
    ``d`` and ``u`` (N, L) the reference, disturbance and regressor response
    at the cell left endpoints, one row per period; ``u_blocks`` (N, L) the
    exact per-cell integrals of the regressor response, which feed the
    adaptive update.
    """

    x_d: np.ndarray
    x: np.ndarray
    d: np.ndarray
    u: np.ndarray
    u_blocks: np.ndarray


def _output_rows(c: np.ndarray, phi: np.ndarray, L: int) -> np.ndarray:
    """Rows ``c phi^l`` for l = 0 .. L-1, shape (L, n)."""
    rows = np.empty((L, phi.shape[0]))
    row = c
    for l in range(L):
        rows[l] = row
        row = row @ phi
    return rows


class HybridLoop:
    """Precomputed propagators and cell-output maps for one loop configuration.

    ``exogenous`` runs the tap-independent half (noise source, primary path,
    regressor) over the whole horizon; ``step`` advances the anti-noise path
    of a stack of arms by one period. Every arm run on one configuration
    shares one exogenous record and differs only in its rows of the stack.

    Construction discretizes the secondary path and folds its one-cell
    propagator (phi_f, gamma_f) into the rows ``c_f phi_f^l`` and the
    accumulated input gains ``sum_{i<l} c_f phi_f^i gamma_f``, which map the
    period-start state and the held input to the L cell samples of the
    anti-noise (input y_d) and of the regressor response (input x_d).

    The noise source is wired in one of two ways. An autonomous generator is
    propagated jointly with the primary path (the cascade is again
    autonomous): a stacked (2L x n) map takes the joint state to x_fast and
    d_fast, and the one-period exponential gives the next joint state. A
    held waveform drives the primary path cell by cell: rows
    ``c_p phi_p^l``, a strictly lower-triangular L x L input map give
    d_fast, and ``phi_p^L`` with an (n_p x L) input map gives the next
    primary state. The one-cell propagators stay available as attributes for
    stepping a period cell by cell.
    """

    def __init__(
        self,
        secondary: ContinuousStateSpace,
        primary: ContinuousStateSpace,
        generator,
        h: float,
        L: int,
    ) -> None:
        secondary.validate_plant("secondary path")
        primary.validate_plant("primary path")
        self.sampler = FastSampler(h, L)
        self.h = self.sampler.h
        self.L = L = self.sampler.L
        self.secondary = secondary
        self.primary = primary
        self.generator = generator
        self.lift = discretize_lifted(secondary, self.h, L)

        cell = vanloan(secondary, self.sampler.dt)
        self._phi_f = cell.Phi
        self._gamma_f = cell.Gamma[:, 0]
        self._c_f = secondary.C[0]
        self._f_rows = _output_rows(self._c_f, self._phi_f, L)
        # gain of the held input on cells 1 .. L-1 (cell 0 does not see it)
        self._f_gains = np.cumsum(self._f_rows @ self._gamma_f)[:-1]

        if isinstance(generator, AutonomousGenerator):
            ng, npr = generator.nstates, primary.nstates
            joint = np.zeros((ng + npr, ng + npr))
            joint[:ng, :ng] = generator.A
            joint[ng:, ng:] = primary.A
            joint[ng:, :ng] = primary.B @ generator.C.reshape(1, -1)
            self._phi_joint_cell = expm(joint * self.sampler.dt)
            self._phi_joint_period = expm(joint * self.h)
            self._c_g = generator.C
            self._c_p = primary.C[0]
            self._ng = ng
            self._held = None
            pick_x = np.concatenate([self._c_g, np.zeros(npr)])
            pick_d = np.concatenate([np.zeros(ng), self._c_p])
            self._xd_rows = np.vstack([
                _output_rows(pick_x, self._phi_joint_cell, L),
                _output_rows(pick_d, self._phi_joint_cell, L),
            ])
        elif isinstance(generator, HeldWaveform):
            if abs(generator.dt - self.sampler.dt) > 1e-12 * self.sampler.dt:
                raise ValueError(
                    f"held waveform cell width {generator.dt} does not match h/L = {self.sampler.dt}"
                )
            pcell = vanloan(primary, self.sampler.dt)
            self._phi_p = pcell.Phi
            self._gamma_p = pcell.Gamma[:, 0]
            self._c_p = primary.C[0]
            self._held = generator
            self._p_rows = _output_rows(self._c_p, self._phi_p, L)
            # d_fast[l] gets c_p phi_p^(l-1-i) gamma_p x[i] from every i < l;
            # the map below covers cells 1 .. L-1 and inputs 0 .. L-2.
            impulse = self._p_rows @ self._gamma_p
            lag = np.subtract.outer(np.arange(L - 1), np.arange(L - 1))
            self._p_input = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
            self._phi_p_period = np.linalg.matrix_power(self._phi_p, L)
            # column i: phi_p^(L-1-i) gamma_p, the end-of-period effect of x[i]
            self._p_input_period = np.empty((primary.nstates, L))
            col = self._gamma_p
            for i in range(L - 1, -1, -1):
                self._p_input_period[:, i] = col
                col = self._phi_p @ col
        else:
            raise TypeError(
                "generator must be an AutonomousGenerator or a HeldWaveform, "
                f"got {type(generator).__name__}"
            )

    def exogenous(self, n_steps: int) -> ExogenousRecord:
        """Reference, disturbance and regressor over ``n_steps`` periods.

        Starts from rest (generator at its initial state, plants at zero) and
        applies the cell-output maps period by period. The arrays are
        read-only: every arm run on this loop shares them.
        """
        L, held = self.L, self._held
        if held is not None and n_steps * L > len(held):
            n = len(held) // L
            raise ValueError(f"held waveform exhausted: period {n} needs samples up to {(n + 1) * L}")
        x_d = np.empty(n_steps)
        x, d, u, u_blocks = (np.empty((n_steps, L)) for _ in range(4))
        eta, zeta_p = np.zeros(self.secondary.nstates), np.zeros(self.primary.nstates)
        if held is None:
            z = np.concatenate([self.generator.x0, zeta_p])

        for n in range(n_steps):
            if held is None:
                x_d[n] = self._c_g @ z[:self._ng]
                xd_fast = self._xd_rows @ z
                x[n], d[n] = xd_fast[:L], xd_fast[L:]
                z = self._phi_joint_period @ z
            else:
                x[n] = held.values[n * L:(n + 1) * L]
                x_d[n] = x[n, 0]
                d[n] = self._p_rows @ zeta_p
                d[n, 1:] += self._p_input @ x[n, :-1]
                zeta_p = self._phi_p_period @ zeta_p + self._p_input_period @ x[n]
            u[n] = self._f_rows @ eta
            u[n, 1:] += self._f_gains * x_d[n]
            eta, u_blocks[n] = fh_step(self.lift, eta, x_d[n])

        for arr in (x_d, x, d, u, u_blocks):
            arr.flags.writeable = False
        return ExogenousRecord(x_d=x_d, x=x, d=d, u=u, u_blocks=u_blocks)

    def step(self, zeta_F, taps, xd_hist) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance the anti-noise path of a stack of arms over one period.

        ``zeta_F`` (A, n) holds each arm's secondary-path state and ``taps``
        (A, n_taps) its FIR taps; the arms share the reference delay line
        ``xd_hist`` (n_taps,), newest sample first. Returns the next states,
        the filter outputs ``y_d`` (A,) and the anti-noise at the L cell left
        endpoints (A, L). Every product is a stacked ``matmul``, which makes
        the same BLAS call per arm as a single-arm product would.
        """
        taps = np.asarray(taps, dtype=float)
        if taps.shape[1:] != xd_hist.shape:
            raise DimensionError(
                f"taps shape {taps.shape} does not match delay line length {xd_hist.size}"
            )
        y_d = np.matmul(taps[:, None, :], xd_hist[:, None])[:, 0, 0]
        w_fast = np.matmul(self._f_rows, zeta_F[:, :, None])[:, :, 0]
        w_fast[:, 1:] += self._f_gains * y_d[:, None]
        zeta_next = np.matmul(self.lift.Ah, zeta_F[:, :, None])[:, :, 0] + self.lift.Bh * y_d[:, None]
        return zeta_next, y_d, w_fast


@dataclass(frozen=True)
class SimTrace:
    """Complete signal record of one closed-loop run.

    Fast arrays are sampled at cell left endpoints (length n_steps * L);
    ``x_d``/``y_d`` live on the period grid; ``u_blocks`` stacks the exact
    per-cell regressor integrals, one row per period. ``x_d``, ``x``, ``d``,
    ``u`` and ``u_blocks`` are read-only views of the loop's exogenous record.
    """

    h: float
    L: int
    x_d: np.ndarray
    y_d: np.ndarray
    x: np.ndarray
    d: np.ndarray
    w: np.ndarray
    e: np.ndarray
    u: np.ndarray
    u_blocks: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.x_d.size

    @property
    def dt(self) -> float:
        return self.h / self.L

    @property
    def t_fast(self) -> np.ndarray:
        return FastSampler(self.h, self.L).instants(self.n_steps)

    def norm(self, name: str, t_end: float | None = None) -> float:
        """Truncated L2 norm of one fast signal ('x', 'd', 'w', 'e' or 'u')."""
        sig = getattr(self, name)
        return l2_norm(sig, self.dt, t_end)


def l2_norm(samples, dt: float, t_end: float | None = None) -> float:
    """L2 norm of a held fast-sampled signal, sqrt(dt * sum of squares).

    ``t_end`` truncates the record; non-finite samples propagate to an
    infinite norm (divergent runs report +inf).
    """
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot take the norm of an empty trace")
    if not dt > 0.0:
        raise ValueError(f"sample spacing must be positive, got {dt}")
    if t_end is not None:
        if t_end <= 0.0:
            raise ValueError(f"truncation time must be positive, got {t_end}")
        count = min(arr.size, int(round(t_end / dt)))
        arr = arr[:max(count, 1)]
    if not np.all(np.isfinite(arr)):
        return float("inf")
    # squares of samples this large overflow the dot product
    if float(np.max(np.abs(arr))) >= 1e150:
        return float("inf")
    # einsum sums without BLAS, so the bytes do not depend on its thread count
    total = float(np.einsum("i,i->", arr, arr))
    if total > 1e300:
        return float("inf")
    return float(np.sqrt(dt * total))
