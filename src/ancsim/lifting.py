"""Lifted discretization of hold-driven plants and exact hybrid-loop stepping.

A strictly proper SISO plant driven through a zero-order hold at period h is
equivalent, between samples, to a finite-dimensional recursion whose output
is the vector of exact subinterval integrals of the continuous response.
With the period split into L cells of width h/L::

    eta[n+1] = Ah eta[n] + Bh x[n]
    U[n]     = Ch eta[n] + Dh x[n]          (U[n][l] = int over cell l of u)

``Ah = exp(A h)`` and ``Bh`` is the held-input integral. Every within-period
map comes from one Van Loan exponential at the cell width: with the one-cell
blocks Phi, Gamma, Lambda, Theta, row l of ``Ch`` is ``Lambda Phi^l`` and
``Dh[l]`` is ``Theta + sum_{k<l} Lambda Phi^k Gamma``, so every entry is
exact up to the matrix exponential and no integral is differenced.

``HybridLoop`` assembles these pieces into a closed loop: a noise source, a
primary path, and a secondary path driven by a sampled FIR filter. The loop
is feedforward, so it splits at the taps: the reference, the disturbance and
the regressor (the secondary dynamics driven by the held reference) form an
exogenous half computed once per configuration, and only the anti-noise path
is stepped under the taps, for a whole stack of arms (one row of taps and of
secondary-path state per arm) in one call. The point samples at the cell
left endpoints come from the same one-cell propagator (rows ``C Phi^l`` and
input maps ``C Phi^k Gamma``), so one period is a handful of matrix-vector
products with no loop over the cells. No numerical ODE integration happens
anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .signals import AutonomousGenerator, HeldWaveform
from .statespace import ContinuousStateSpace, DimensionError, expm, series, vanloan

__all__ = [
    "LiftedDiscretization",
    "FastSampler",
    "HybridLoop",
    "ExogenousRecord",
    "SimTrace",
    "discretize_lifted",
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


class LiftedDiscretization(NamedTuple):
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


def _output_rows(rows: np.ndarray, phi: np.ndarray, L: int) -> np.ndarray:
    """``rows phi^l`` for l = 0 .. L-1, shape (p, L, n) for (p, n) ``rows``."""
    out = np.empty((rows.shape[0], L, phi.shape[0]))
    for l in range(L):
        out[:, l] = rows
        rows = rows @ phi
    return out


class _CellMaps(NamedTuple):
    """Within-period maps of one plant: rows act on the period-start state, and
    entry (l, i) of an input map is the effect of the input held over cell i."""

    sample_rows: np.ndarray     # (L, n): C Phi^l, output at the left endpoint of cell l
    integral_rows: np.ndarray   # (L, n): Lambda Phi^l, output integral over cell l
    sample_input: np.ndarray    # (L, L): C Phi^(l-1-i) Gamma below the diagonal
    integral_input: np.ndarray  # (L, L): Theta on the diagonal, Lambda Phi^(l-1-i) Gamma below
    state_input: np.ndarray     # (n, L): Phi^(L-1-i) Gamma, effect on the next period's state


def _cell_maps(sys: ContinuousStateSpace, dt: float, L: int) -> _CellMaps:
    """Every within-period map of ``sys`` from one Van Loan exponential at ``dt``."""
    cell = vanloan(sys, dt)
    rows = _output_rows(np.vstack([sys.C, cell.Lambda]), cell.Phi, L)
    # entry k of each sequence is the sample and the integral input map at lag l - i = k
    seqs = np.hstack([[[0.0], cell.Theta[0]], rows @ cell.Gamma[:, 0]])
    inputs = np.zeros((2, L, L))
    for l in range(L):
        inputs[:, l, :l + 1] = seqs[:, l::-1]
    # column i is Phi^(L-1-i) Gamma, built as the rows Gamma^T (Phi^T)^k
    state_input = _output_rows(cell.Gamma.T, cell.Phi.T, L)[0, ::-1].T
    return _CellMaps(rows[0], rows[1], inputs[0], inputs[1], state_input)


def _lift(sys: ContinuousStateSpace, h: float, L: int) -> tuple[LiftedDiscretization, _CellMaps]:
    """Lifted blocks and cell maps of ``sys``; the period map is exp(A h), as Phi^L loses digits."""
    cells, period = _cell_maps(sys, h / L, L), vanloan(sys, h)
    return LiftedDiscretization(Ah=period.Phi, Bh=period.Gamma[:, 0], Ch=cells.integral_rows,
                                Dh=cells.integral_input.sum(axis=1), h=h, L=L), cells


def discretize_lifted(sys: ContinuousStateSpace, h: float, L: int) -> LiftedDiscretization:
    """Blocked discretization of a strictly proper SISO plant.

    Rows ``Ch``/``Dh`` come from the one-cell propagator (no cumulative
    integral is differenced); refining L and summing adjacent rows
    reproduces the coarse rows to within ``TOL.block_refinement``.
    """
    sampler = FastSampler(h, L)  # validates h and L
    if not sys.is_siso:
        raise DimensionError("lifted discretization expects a SISO plant")
    if not sys.is_strictly_proper:
        raise DimensionError("lifted discretization expects a strictly proper plant")
    if sys.nstates == 0:
        raise DimensionError("lifted discretization expects a dynamic plant")
    return _lift(sys, sampler.h, sampler.L)[0]


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

    Every within-period map comes from one exponential per plant at the cell
    width (``_cell_maps``), and every period-to-period state map from one at
    the period, so a build runs four exponentials whatever L is. The
    secondary path gives the lifted blocks ``lift``, the sample rows
    ``c_f Phi_f^l`` and the gains of a period-held input on cells 1 .. L-1,
    which map the period-start state and the held input to the L cell
    samples of the anti-noise (input y_d) and of the regressor (input x_d).

    The noise source is wired in one of two ways. An autonomous generator is
    propagated jointly with the primary path (the cascade is again
    autonomous): rows of the one-cell exponential take the joint state to
    x_fast and d_fast, and the one-period exponential gives the next joint
    state. A held waveform drives the primary path cell by cell: its sample
    rows and (L, L) input map give d_fast, and the one-period exponential
    with the (n_p, L) state input map gives the next primary state.
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
        self.lift, cells = _lift(secondary, self.h, L)
        self._f_rows = cells.sample_rows
        # gain of a period-held input on each cell; 0 on cell 0, which it does not reach
        held_gains = cells.sample_input.sum(axis=1)
        # as columns, the gains of y_d on cells 1 .. L-1 and on the next state
        self._f_gains, self._Bh = held_gains[1:, None], self.lift.Bh[:, None]
        # one period of the regressor: [eta, x_d] -> [u, u_blocks, next eta]
        self._u_period = np.block([[self._f_rows, held_gains[:, None]],
                                   [self.lift.Ch, self.lift.Dh[:, None]],
                                   [self.lift.Ah, self.lift.Bh[:, None]]])

        if isinstance(generator, AutonomousGenerator):
            ng = generator.nstates
            joint = series(ContinuousStateSpace(generator.A, np.zeros(ng), generator.C), primary)
            picks = np.vstack([np.append(generator.C, np.zeros(primary.nstates)), joint.C])
            # one period of the joint state: z -> [x_fast, d_fast, next z]
            self._z_period = np.vstack([*_output_rows(picks, expm(joint.A * self.sampler.dt), L),
                                        expm(joint.A * self.h)])
            self._held = None
        elif isinstance(generator, HeldWaveform):
            if abs(generator.dt - self.sampler.dt) > 1e-12 * self.sampler.dt:
                raise ValueError(
                    f"held waveform cell width {generator.dt} does not match h/L = {self.sampler.dt}"
                )
            self._held = generator
            p_lift, p_cells = _lift(primary, self.h, L)
            # one period of the primary path: [z, the L cell inputs] -> [d_fast, next z]
            self._z_period = np.block([[p_cells.sample_rows, p_cells.sample_input],
                                       [p_lift.Ah, p_cells.state_input]])
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
        return FastSampler(self.h, self.L).instants(self.n_steps)

    def norm(self, name: str) -> float:
        """L2 norm of one fast signal ('x', 'd', 'w', 'e' or 'u')."""
        return l2_norm(getattr(self, name), self.dt)


def l2_norm(samples, dt: float) -> float:
    """L2 norm of a held fast-sampled signal, sqrt(dt * sum of squares); a
    non-finite sample gives an infinite norm (divergent runs report +inf)."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot take the norm of an empty trace")
    if not dt > 0.0:
        raise ValueError(f"sample spacing must be positive, got {dt}")
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
