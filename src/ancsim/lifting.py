"""Lifted discretization of hold-driven plants and the exact hybrid loop's period maps.

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
the anti-noise path runs under the taps. Lifted, one period of it is a
finite-dimensional map: from an arm's period-start secondary state zeta and
held filter output y, the cell samples of the anti-noise are F zeta + g y
and the next state Ah zeta + Bh y, and the update's fold V (d - F zeta -
g y) of the period's error with its lag window V is linear in the same two.
``arm_maps`` writes these per-period maps, [y; zeta; 1] -> [next zeta; 1;
fold], for a chunk of periods in two stacked products, so the arm loop
advances an arm's state and folds its error in one matrix-vector product a
period with no loop over the cells, and ``anti_noise`` gives the cell
samples of a whole chunk afterwards (Chen & Francis, Optimal Sampled-Data
Control Systems, 1995, on lifted periodic systems). The exogenous half is
itself one lifted system over periods, with a fixed period map M on the
joint state of source, primary path and regressor, so
its record over K periods is one product with the stacked maps [I; M; ...;
M^(K-1)] (for a held waveform plus the block-Toeplitz of M^j B on the
waveform; Chen & Francis, Optimal Sampled-Data Control Systems, 1995): the
record is computed K periods a product.
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


# The most doubles in the maps of one chunk of ``HybridLoop.exogenous``
# (128 KiB), so that no temporary of its pass is larger unless one period's
# maps alone are. On held_check (L = 8) that is 8 periods a chunk.
_MAP_VALUES = 16384


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
    regressor) over the whole horizon; ``arm_maps`` gives the per-period maps
    of the anti-noise path and the update's fold, and ``anti_noise`` the cell
    samples of the anti-noise and the error, for arms in any stack. Every arm
    run on one configuration shares one exogenous record and differs only in
    its state.

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
    the next primary state. ``exogenous`` composes these period maps and the
    regressor's into the maps of a chunk of periods, which it builds on each
    call, so a loop's build does not pay for them.
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
        # one column: the gains of y_d on cells 1 .. L-1, then on the next state
        self._gains = np.concatenate([held_gains[1:], lift.Bh])[:, None]
        n = lift.nstates
        # the rows every period map of ``arm_maps`` shares: [y, zeta, 1] -> [next zeta, 1]
        self._state_rows = np.block([[lift.Bh[:, None], lift.Ah, np.zeros((n, 1))],
                                     [np.zeros((1, n + 1)), np.ones((1, 1))]])
        # [y, zeta] -> minus the anti-noise on each cell
        self._cell_rows = -np.hstack([held_gains[:, None], lift.sample_rows])
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

        Starts from rest (generator at its initial state, plants at zero).
        The source, the primary path and the regressor form one lifted
        system whose joint state s = [z, eta] (source and primary state,
        regressor state) advances as s' = M s, plus B x for a held waveform
        (x the period's L cell values). So the record of a chunk of K
        periods is one product of the maps of ``_chunk_maps`` (the stacked
        powers of M, and for a held waveform the block-Toeplitz of M^j B)
        with [s, x_0 .. x_{K-1}], written straight into the record's arrays,
        and one more product gives the state K periods on. The arrays are
        read-only: every arm run on this loop shares them. A held record's
        ``x`` is a view of the waveform's values. The period-by-period
        pass it replaces, kept as the suite's ``reference_exogenous``,
        rounds differently: the two agree to ``TOL.exogenous_blocked``.
        """
        n_steps = operator.index(n_steps)
        if n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
        L, held = self.L, self._held
        if held is not None and n_steps * L > len(held):
            n = len(held) // L
            raise ValueError(f"held waveform exhausted: period {n} needs samples up to {(n + 1) * L}")
        maps, advance = self._chunk_maps(n_steps)
        (n_out, rows, width), ns = maps.shape, len(advance)
        K = rows // L
        m = (width - ns) // K  # inputs a period: L for a held waveform, else none
        out = np.empty((n_out, n_steps, L))
        v, v_next = np.zeros((2, width))
        if held is None:
            v[:self.generator.nstates] = self.generator.x0
        for n0 in range(0, n_steps, K):
            k = min(K, n_steps - n0)
            if held is not None:
                v[ns:ns + k * L] = held.values[n0 * L:(n0 + k) * L]
            np.matmul(maps[:, :k * L, :ns + k * m], v[:ns + k * m],
                      out=out[:, n0:n0 + k].reshape(n_out, k * L))
            if n0 + K < n_steps:
                np.matmul(advance, v, out=v_next[:ns])
                v, v_next = v_next, v
        if held is None:
            x, d, u, u_blocks = out
        else:  # a view of the waveform's own read-only values
            x = held.values[:n_steps * L].reshape(n_steps, L)
            d, u, u_blocks = out
        x_d = x[:, 0].copy()
        for arr in (x_d, x, d, u, u_blocks):
            arr.flags.writeable = False
        return ExogenousRecord(x_d=x_d, x=x, d=d, u=u, u_blocks=u_blocks)

    def _chunk_maps(self, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Maps of K periods from v = [z, eta, x_0 .. x_{K-1}] (no x for a generator).

        K is the most periods, at least 1 and at most ``n_steps`` where that
        is more, whose maps hold at most ``_MAP_VALUES`` doubles. The period
        maps run on the columns of the identity in place of a state:
        ``maps`` (n_out, K L, len(v)) gives the record's rows of the K
        periods (x, d, u, u_blocks; no x for a held waveform) and
        ``advance`` (len(z) + len(eta), len(v)) the joint state K periods on.
        """
        L, held = self.L, self._held
        m = 0 if held is None else L
        nz, ne = self._z_period.shape[1] - m, self._u_period.shape[1] - 1
        n_out = 4 if held is None else 3
        K = 1
        while K < n_steps and n_out * (K + 1) * L * (nz + ne + (K + 1) * m) <= _MAP_VALUES:
            K += 1
        width = nz + ne + K * m
        z, eta = np.vsplit(np.eye(nz + ne, width), [nz])
        maps = np.empty((n_out, K, L, width))
        for i in range(K):
            if held is None:
                out = self._z_period @ z
                x, maps[1, i], z = out[:L], out[L:2 * L], out[2 * L:]
                maps[0, i] = x
            else:
                x = np.eye(L, width, nz + ne + i * L)
                out = self._z_period @ np.vstack([z, x])
                maps[0, i], z = out[:L], out[L:]
            out = self._u_period @ np.vstack([eta, x[:1]])
            maps[-2, i], maps[-1, i], eta = out[:L], out[L:2 * L], out[2 * L:]
        return maps.reshape(n_out, K * L, width), np.vstack([z, eta])

    def arm_maps(self, windows, d, start, out) -> np.ndarray:
        """Per-period maps of the anti-noise path and the update's fold, for one blocking.

        ``windows`` (N, n_taps, b) are the lag windows of a blocking of b
        algorithm cells, ``d`` (N, L) the disturbance, both a row a period.
        The maps of the K = ``len(out)`` periods from ``start`` on are
        written to ``out``: map k, ``out[k]`` of shape (n + 1 + n_taps, n + 2),
        takes an arm's v = [y; zeta; 1] (its held filter output and its
        period-start secondary state) to [Ah zeta + Bh y; 1; V (d - F zeta -
        g y)]: the next state, and the fold of the period's error samples on
        the blocking's cells (the first of every L / b) with the lag window V,
        as V d - (V F) zeta - (V g) y. F and g are the sample rows and the
        held gains. All K maps come from two stacked products; ``out`` is
        returned. The arm loop sizes K so that the maps, K (n + 1 + n_taps)
        (n + 2) doubles, stay within ``_MAP_VALUES``. An entry that
        overflows does so quietly: V d can overflow only where d passes 2 N
        times the arm loop's cutoff, so an arm reads it after its error
        crossed the cutoff, from a nan v, or while its anti-noise cancels
        such a disturbance to within the cutoff, when its fold is not finite
        and it diverges a period late. V F and V g overflow only for a
        regressor near the largest double.
        """
        n, stride, periods = self.lift.nstates, self.L // windows.shape[2], slice(start, start + len(out))
        out[:, :n + 1] = self._state_rows
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(windows[periods], self._cell_rows[::stride], out=out[:, n + 1:, :n + 1])
            np.matmul(windows[periods], d[periods, ::stride, None], out=out[:, n + 1:, n + 1:])
        return out

    def anti_noise(self, v, d, y, w, e) -> np.ndarray:
        """Filter output, anti-noise and error at the cell left endpoints of arm states.

        ``v`` (..., m, 1) holds each arm's [y; zeta; ...] as ``arm_maps``
        reads it. Its held filter output is copied into ``y`` (..., 1, 1),
        the anti-noise w = F zeta + g y at the L cell left endpoints (the
        held output reaches cells 1 .. L-1 only) is written into ``w`` and
        the error e = d - w into ``e``, both (..., L, 1), with ``d``
        broadcast against them. ``e`` holds g y on the way, so no temporary
        is made; it is returned.
        """
        n, cells = self.lift.nstates, slice(1, self.L)
        y[...] = v[..., :1, :]
        np.matmul(self._f_rows, v[..., 1:n + 1, :], out=w)
        np.multiply(self._gains[:self.L - 1], v[..., :1, :], out=e[..., cells, :])
        np.add(w[..., cells, :], e[..., cells, :], out=w[..., cells, :])
        return np.subtract(d, w, out=e)


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

    def norm(self, name: str) -> float:
        """L2 norm of one fast signal ('x', 'd', 'w', 'e' or 'u')."""
        return l2_norm(getattr(self, name), self.dt)


def l2_norm(samples, dt: float) -> float:
    """L2 norm of a held fast-sampled signal, sqrt(dt * sum of squares); a
    non-finite sample gives an infinite norm (divergent runs report +inf)."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot take the norm of an empty trace")
    return _l2_norms(arr[None], dt, [0])[0]


def _l2_norms(rows: np.ndarray, dt: float, which) -> list[float]:
    """``l2_norm`` of row i of the 2-D ``rows`` for each i in ``which``, bit
    for bit; one max and one min reduction screen every row, with no temporary."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"sample spacing must be positive and finite, got {dt}")
    # a nan fails both tests, an infinite sample or one whose square overflows the dot product one
    highs, lows = rows.max(axis=1).tolist(), rows.min(axis=1).tolist()
    fine = [hi < 1e150 and lo > -1e150 for hi, lo in zip(highs, lows)]
    norms = []
    for i in which:
        # einsum sums without BLAS, so the bytes do not depend on its thread count
        total = float(np.einsum("i,i->", rows[i], rows[i])) if fine[i] else np.inf
        norms.append(float(np.sqrt(dt * total)) if total <= 1e300 else np.inf)
    return norms
