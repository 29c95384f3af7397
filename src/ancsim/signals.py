"""Noise sources driving the closed loop.

Two kinds are supported: autonomous generators (finite-dimensional linear
systems released from an initial state, used for banks of decaying
sinusoids) and externally supplied waveforms held piecewise constant on the
fast grid. Autonomous generators keep the whole hybrid loop exactly
integrable; held waveforms are the fallback for recorded data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statespace import DimensionError

__all__ = ["AutonomousGenerator", "HeldWaveform"]


@dataclass(frozen=True)
class AutonomousGenerator:
    """Unforced linear system ``dx/dt = A x``, ``x_out = C x``, ``x(0) = x0``."""

    A: np.ndarray
    C: np.ndarray
    x0: np.ndarray

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise DimensionError(f"generator A must be square, got {A.shape}")
        n = A.shape[0]
        C = np.asarray(self.C, dtype=float).reshape(-1)
        if C.size != n:
            raise DimensionError(f"generator C must have {n} entries, got {C.size}")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.size != n:
            raise DimensionError(f"generator x0 must have {n} entries, got {x0.size}")
        for name, arr in (("A", A), ("C", C), ("x0", x0)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"generator {name} contains non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "x0", x0)

    @property
    def nstates(self) -> int:
        return self.A.shape[0]

    @classmethod
    def damped_sinusoids(cls, amplitudes, frequencies, decay_rates, phases) -> "AutonomousGenerator":
        """Bank of decaying sinusoids a_i e^{-s_i t} cos(w_i t + p_i).

        Each component uses a 2-state rotation block, so sampling the output
        anywhere is exact up to the matrix exponential.
        """
        amp = np.atleast_1d(np.asarray(amplitudes, dtype=float))
        freq = np.atleast_1d(np.asarray(frequencies, dtype=float))
        dec = np.atleast_1d(np.asarray(decay_rates, dtype=float))
        ph = np.atleast_1d(np.asarray(phases, dtype=float))
        if not (amp.size == freq.size == dec.size == ph.size):
            raise DimensionError(
                "amplitudes, frequencies, decay_rates and phases must have equal length"
            )
        if amp.size == 0:
            raise DimensionError("at least one sinusoid component is required")
        n = 2 * amp.size
        A = np.zeros((n, n))
        C = np.zeros(n)
        x0 = np.zeros(n)
        for i, (a, w, s, p) in enumerate(zip(amp, freq, dec, ph)):
            k = 2 * i
            A[k:k + 2, k:k + 2] = [[-s, w], [-w, -s]]
            C[k] = 1.0
            x0[k] = a * np.cos(p)
            x0[k + 1] = -a * np.sin(p)
        return cls(A, C, x0)

    @classmethod
    def silent(cls) -> "AutonomousGenerator":
        """Generator producing identically zero output."""
        return cls(np.array([[-1.0]]), np.array([0.0]), np.array([0.0]))


@dataclass(frozen=True)
class HeldWaveform:
    """Externally supplied samples held constant over cells of width ``dt``."""

    values: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.size == 0:
            raise ValueError("held waveform needs at least one sample")
        if not np.all(np.isfinite(vals)):
            raise ValueError("held waveform contains non-finite samples")
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"cell width must be positive and finite, got {self.dt}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dt", float(self.dt))

    def __len__(self) -> int:
        return self.values.size
