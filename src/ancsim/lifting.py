"""Lifted discretization of hold-driven plants and exact hybrid-loop stepping.

A strictly proper SISO plant driven through a zero-order hold at period h is
equivalent, between samples, to a finite-dimensional recursion whose output
is the vector of exact subinterval integrals of the continuous response.
With the period split into L cells of width h/L::

    eta[n+1] = Ah eta[n] + Bh x[n]
    U[n]     = Ch eta[n] + Dh x[n]          (U[n][l] = int over cell l of u)

``discretize_lifted`` builds this recursion and the plant's cell maps as one
``LiftedDiscretization``. ``Ah = exp(A h)`` and ``Bh`` is the held-input
integral. Every within-period map comes from one Van Loan exponential at the
cell width: with the one-cell blocks Phi, Gamma, Lambda, Theta, row l of
``Ch`` is ``Lambda Phi^l`` and ``Dh[l]`` is ``Theta + sum_{k<l} Lambda Phi^k
Gamma``, so every entry is exact up to the matrix exponential and no
integral is differenced. The point samples at the cell left endpoints come
from the same propagator: rows ``C Phi^l`` and input maps ``C Phi^k Gamma``.

``HybridLoop`` composes these lifted plants into a closed loop: a noise
source, a primary path, and a secondary path driven by a sampled FIR filter.
The loop is feedforward, so it splits at the taps: the reference, the
disturbance and the regressor (the secondary dynamics driven by the held
reference) form an exogenous half computed once per configuration, and only
the anti-noise path is stepped under the taps, for a whole stack of arms
(one row of taps and of secondary-path state per arm) in one call. One
period is a handful of matrix-vector products with no loop over the cells.
No numerical ODE integration happens anywhere in this module.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .signals import AutonomousGenerator, HeldWaveform
from .statespace import ContinuousStateSpace, expm, series, vanloan

__all__ = [
    "LiftedDiscretization",
    "HybridLoop",
    "ExogenousRecord",
    "SimTrace",
    "discretize_lifted",
    "l2_norm",
]


class LiftedDiscretization(NamedTuple):
    """Exact blocked discretization of one hold-driven plant, L cells per period h.

    ``Ah`` (n, n) and ``Bh`` (n,) advance the state over one period; ``Ch``
    (L, n) and ``Dh`` (L,) produce the per-cell output integrals. The cell
    maps act on the period-start state and, in column i, on an input held
    over cell i: ``sample_rows`` (L, n), ``C Phi^l``, gives the output at the
    left endpoint of cell l; ``sample_input`` (L, L) holds ``C Phi^(l-1-i)
    Gamma`` below the diagonal and 0 elsewhere; ``state_input`` (n, L),
    ``Phi^(L-1-i) Gamma``, is the effect on the next period's state.
    """

    Ah: np.ndarray
    Bh: np.ndarray
    Ch: np.ndarray
    Dh: np.ndarray
    h: float
    L: int
    sample_rows: np.ndarray
    sample_input: np.ndarray
    state_input: np.ndarray

    @property
    def nstates(self) -> int:
        return self.Ah.shape[0]


def _output_rows(rows: np.ndarray, phi: np.ndarray, L: int) -> np.ndarray:
    """``rows phi^l`` for l = 0 .. L-1, shape (p, L, n) for (p, n) ``rows``."""
    out = np.empty((rows.shape[0], L, phi.shape[0]))
    for l in range(L):
        out[:, l] = rows
        rows = rows @ phi
    return out


def discretize_lifted(sys: ContinuousStateSpace, h: float, L: int) -> LiftedDiscretization:
    """Blocked discretization and cell maps of a strictly proper SISO plant.

    Every within-period map comes from one Van Loan exponential at the cell
    width h/L (no cumulative integral is differenced); refining L and summing
    adjacent rows reproduces the coarse rows to within
    ``TOL.block_refinement``. The period map is a second one at h, as
    Phi^L loses digits.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"period h must be positive and finite, got {h}")
    if not 1 <= L < np.inf or int(L) != L:
        raise ValueError(f"cells per period L must be a positive integer, got {L}")
    h, L = float(h), int(L)
    cell, period = vanloan(sys, h / L), vanloan(sys, h)
    rows = _output_rows(np.vstack([sys.C, cell.Lambda]), cell.Phi, L)
    # entry k of each sequence is the sample and the integral input map at lag l - i = k
    seqs = np.hstack([[[0.0], cell.Theta[0]], rows @ cell.Gamma[:, 0]])
    inputs = np.zeros((2, L, L))
    for l in range(L):
        inputs[:, l, :l + 1] = seqs[:, l::-1]
    # column i is Phi^(L-1-i) Gamma, built as the rows Gamma^T (Phi^T)^k
    state_input = _output_rows(cell.Gamma.T, cell.Phi.T, L)[0, ::-1].T
    return LiftedDiscretization(Ah=period.Phi, Bh=period.Gamma[:, 0], Ch=rows[1],
                                Dh=inputs[1].sum(axis=1), h=h, L=L, sample_rows=rows[0],
                                sample_input=inputs[0], state_input=state_input)


class ExogenousRecord(NamedTuple):
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


class HybridLoop:
    """Precomputed propagators and cell-output maps for one loop configuration.

    ``exogenous`` runs the tap-independent half (noise source, primary path,
    regressor) over the whole horizon; ``step`` advances the anti-noise path
    of a stack of arms by one period. Every arm run on one configuration
    shares one exogenous record and differs only in its rows of the stack.

    The secondary path is lifted once by ``discretize_lifted`` (``lift``),
    which runs two exponentials, so a build runs four whatever L is. Its
    sample rows and the gains of a period-held input on cells 1 .. L-1 (the
    row sums of its sample input map) take the period-start state and the
    held input to the L cell samples of the anti-noise (input y_d) and of the
    regressor (input x_d).

    The noise source is wired in one of two ways. An autonomous generator is
    propagated jointly with the primary path (the cascade is again
    autonomous): rows of the one-cell exponential take the joint state to
    x_fast and d_fast, and the one-period exponential gives the next joint
    state. A held waveform drives the primary path cell by cell, through the
    primary path's own lifting: its sample rows and (L, L) sample input map
    give d_fast, and its period map with the (n_p, L) state input map gives
    the next primary state.
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
        self.lift = lift = discretize_lifted(secondary, h, L)
        self.h, self.L = h, L = lift.h, lift.L
        self.secondary = secondary
        self.primary = primary
        self.generator = generator
        self._f_rows = lift.sample_rows
        # gain of a period-held input on each cell; 0 on cell 0, which it does not reach
        held_gains = lift.sample_input.sum(axis=1)
        # as columns, the gains of y_d on cells 1 .. L-1 and on the next state
        self._f_gains, self._Bh = held_gains[1:, None], lift.Bh[:, None]
        # one period of the regressor: [eta, x_d] -> [u, u_blocks, next eta]
        self._u_period = np.block([[lift.sample_rows, held_gains[:, None]],
                                   [lift.Ch, lift.Dh[:, None]],
                                   [lift.Ah, lift.Bh[:, None]]])

        dt = h / L
        if isinstance(generator, AutonomousGenerator):
            ng = generator.nstates
            joint = series(ContinuousStateSpace(generator.A, np.zeros(ng), generator.C), primary)
            picks = np.vstack([np.append(generator.C, np.zeros(primary.nstates)), joint.C])
            # one period of the joint state: z -> [x_fast, d_fast, next z]
            self._z_period = np.vstack([*_output_rows(picks, expm(joint.A * dt), L),
                                        expm(joint.A * h)])
            self._held = None
        elif isinstance(generator, HeldWaveform):
            if abs(generator.dt - dt) > 1e-12 * dt:
                raise ValueError(f"held waveform cell width {generator.dt} does not match h/L = {dt}")
            self._held = generator
            p = discretize_lifted(primary, h, L)
            # one period of the primary path: [z, the L cell inputs] -> [d_fast, next z]
            self._z_period = np.block([[p.sample_rows, p.sample_input],
                                       [p.Ah, p.state_input]])
        else:
            raise TypeError(
                "generator must be an AutonomousGenerator or a HeldWaveform, "
                f"got {type(generator).__name__}"
            )

    def exogenous(self, n_steps: int) -> ExogenousRecord:
        """Reference, disturbance and regressor over ``n_steps`` periods.

        Starts from rest (generator at its initial state, plants at zero) and
        applies each plant's period map (outputs and next state from one
        product) period by period. The arrays are read-only: every arm run
        on this loop shares them.
        """
        n_steps = operator.index(n_steps)
        if n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
        L, held = self.L, self._held
        if held is not None and n_steps * L > len(held):
            n = len(held) // L
            raise ValueError(f"held waveform exhausted: period {n} needs samples up to {(n + 1) * L}")
        x_d = np.empty(n_steps)
        x, d, u, u_blocks = (np.empty((n_steps, L)) for _ in range(4))
        z = np.zeros(self.primary.nstates)
        if held is None:
            z = np.concatenate([self.generator.x0, z])
        eta_x = np.zeros(self.secondary.nstates + 1)  # [eta, x_d] of the current period

        for n in range(n_steps):
            if held is None:
                out = self._z_period @ z
                x[n], d[n], z = out[:L], out[L:2 * L], out[2 * L:]
            else:
                x[n] = held.values[n * L:(n + 1) * L]
                out = self._z_period @ np.concatenate([z, x[n]])
                d[n], z = out[:L], out[L:]
            eta_x[-1] = x_d[n] = x[n, 0]
            out = self._u_period @ eta_x
            u[n], u_blocks[n], eta_x[:-1] = out[:L], out[L:2 * L], out[2 * L:]

        for arr in (x_d, x, d, u, u_blocks):
            arr.flags.writeable = False
        return ExogenousRecord(x_d=x_d, x=x, d=d, u=u, u_blocks=u_blocks)

    def step(self, zeta_F, taps, xd_hist, y_d, w_fast,
             zeta_next) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance the anti-noise path of a stack of arms over one period.

        Every array carries the trailing unit axis that ``matmul`` reads:
        ``zeta_F`` (A, n, 1) holds each arm's secondary-path state and
        ``taps`` (A, 1, n_taps) its FIR taps; the arms share the reference
        delay line ``xd_hist`` (n_taps, 1), newest sample first. The next
        states (A, n, 1), the filter outputs (A, 1, 1) and the anti-noise at
        the L cell left endpoints (A, L, 1) are written into ``zeta_next``,
        ``y_d`` and ``w_fast``, which are returned as ``(zeta_next, y_d,
        w_fast)``. Every product is a stacked ``matmul``, which makes the
        same BLAS call per arm as a single-arm product would. A delay line
        whose length is not the tap count fails in ``matmul`` with a
        ``ValueError``; shapes are otherwise taken unchecked, as the arm loop
        fixes them once, before its first period.
        """
        np.matmul(taps, xd_hist, out=y_d)
        np.matmul(self._f_rows, zeta_F, out=w_fast)
        w_fast[:, 1:] += self._f_gains * y_d
        np.matmul(self.lift.Ah, zeta_F, out=zeta_next)
        zeta_next += self._Bh * y_d
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
        return np.arange(self.n_steps * self.L) * self.dt

    def norm(self, name: str) -> float:
        """L2 norm of one fast signal ('x', 'd', 'w', 'e' or 'u')."""
        return l2_norm(getattr(self, name), self.dt)


def l2_norm(samples, dt: float) -> float:
    """L2 norm of a held fast-sampled signal, sqrt(dt * sum of squares); a
    non-finite sample gives an infinite norm (divergent runs report +inf)."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot take the norm of an empty trace")
    if not 0.0 < dt < np.inf:
        raise ValueError(f"sample spacing must be positive and finite, got {dt}")
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
