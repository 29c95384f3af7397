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
primary path, and a secondary path driven by a sampled FIR filter. The same
lifting applies to the point samples at the cell left endpoints: each is a
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
    "HybridLoopState",
    "IntervalRecord",
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
class HybridLoopState:
    """State of the closed loop at a period boundary.

    ``zeta_F`` is the physical secondary-path state (driven by the filter
    output), ``eta`` the regressor-filter copy of the same dynamics (driven
    by the reference), ``zeta_P`` the primary-path state, ``gen_state`` the
    noise-generator state, and ``xd_hist`` the reference delay line feeding
    the FIR filter (newest first).
    """

    zeta_F: np.ndarray
    zeta_P: np.ndarray
    gen_state: np.ndarray
    eta: np.ndarray
    xd_hist: np.ndarray
    n: int


@dataclass(frozen=True)
class IntervalRecord:
    """Signals produced while simulating one period.

    Fast arrays hold samples at the left endpoint of each cell; ``u_block``
    holds the exact per-cell integrals of the regressor response.
    """

    x_d: float
    y_d: float
    e_block: np.ndarray
    u_block: np.ndarray
    x_fast: np.ndarray
    d_fast: np.ndarray
    w_fast: np.ndarray
    u_fast: np.ndarray


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

    def initial_state(self, n_taps: int) -> HybridLoopState:
        if n_taps < 1:
            raise ValueError("the FIR filter needs at least one tap")
        if isinstance(self.generator, AutonomousGenerator):
            gen0 = self.generator.x0.copy()
        else:
            gen0 = np.zeros(0)
        return HybridLoopState(
            zeta_F=np.zeros(self.secondary.nstates),
            zeta_P=np.zeros(self.primary.nstates),
            gen_state=gen0,
            eta=np.zeros(self.secondary.nstates),
            xd_hist=np.zeros(n_taps),
            n=0,
        )

    def step(self, state: HybridLoopState, taps) -> tuple[HybridLoopState, IntervalRecord]:
        """Advance the loop over one period under fixed FIR taps."""
        taps = np.asarray(taps, dtype=float).reshape(-1)
        if taps.size != state.xd_hist.size:
            raise DimensionError(
                f"taps length {taps.size} does not match delay line length {state.xd_hist.size}"
            )
        n, L = state.n, self.L
        held = self._held

        if held is None:
            x_d = float(self._c_g @ state.gen_state)
        else:
            base = n * L
            if base + L > len(held):
                raise ValueError(
                    f"held waveform exhausted: period {n} needs samples up to {base + L}"
                )
            x_d = float(held.values[base])

        xd_hist = np.empty_like(state.xd_hist)
        xd_hist[0] = x_d
        xd_hist[1:] = state.xd_hist[:-1]
        y_d = float(taps @ xd_hist)

        lift = self.lift
        u_block = lift.Ch @ state.eta + lift.Dh * x_d
        w_fast = self._f_rows @ state.zeta_F
        w_fast[1:] += self._f_gains * y_d
        u_fast = self._f_rows @ state.eta
        u_fast[1:] += self._f_gains * x_d

        if held is None:
            z = np.concatenate([state.gen_state, state.zeta_P])
            xd_fast = self._xd_rows @ z
            x_fast, d_fast = xd_fast[:L], xd_fast[L:]
            z_end = self._phi_joint_period @ z
            gen_next = z_end[:self._ng]
            zeta_p_next = z_end[self._ng:]
        else:
            x_fast = held.values[base:base + L].copy()
            d_fast = self._p_rows @ state.zeta_P
            d_fast[1:] += self._p_input @ x_fast[:-1]
            gen_next = state.gen_state
            zeta_p_next = self._phi_p_period @ state.zeta_P + self._p_input_period @ x_fast

        new_state = HybridLoopState(
            zeta_F=lift.Ah @ state.zeta_F + lift.Bh * y_d,
            zeta_P=zeta_p_next,
            gen_state=gen_next,
            eta=lift.Ah @ state.eta + lift.Bh * x_d,
            xd_hist=xd_hist,
            n=n + 1,
        )
        record = IntervalRecord(
            x_d=x_d,
            y_d=y_d,
            e_block=d_fast - w_fast,
            u_block=u_block,
            x_fast=x_fast,
            d_fast=d_fast,
            w_fast=w_fast,
            u_fast=u_fast,
        )
        return new_state, record


@dataclass(frozen=True)
class SimTrace:
    """Complete signal record of one closed-loop run.

    Fast arrays are sampled at cell left endpoints (length n_steps * L);
    ``x_d``/``y_d`` live on the period grid; ``u_blocks`` stacks the exact
    per-cell regressor integrals, one row per period.
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
    total = float(np.dot(arr, arr))
    if total > 1e300:
        return float("inf")
    return float(np.sqrt(dt * total))
