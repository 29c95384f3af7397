"""Flat key-value configuration for the experiment harness.

Files are plain ``key = value`` lines with dotted keys; blank lines and
lines that start with ``#`` or ``;`` are skipped, and lists are comma
separated. Every setting is parsed and validated here: the command line
lays its flags over the file's keys and calls ``SimConfig.from_mapping``
once, and each ``ConfigError`` names its key. Defaults reproduce the benchmark
setup used throughout the test suite: two resonant-bank plants behind
first-order lags, an eight-cell fast grid over a unit period, and a bank of
decaying sinusoids with content on both sides of the Nyquist frequency.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .signals import AutonomousGenerator, HeldWaveform
from .statespace import ContinuousStateSpace, PlantSpecificationError, from_second_order_bank

__all__ = ["ConfigError", "SimConfig", "parse_config_text", "read_config"]


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending key."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"{key}: {message}")
        self.key = key


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a string mapping (last key wins)."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw.strip()!r}")
        out[key] = value
    return out


def read_config(path: str) -> dict[str, str]:
    """The string mapping of the config file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    return parse_config_text(text)


def _float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {text!r}") from None


def _int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {text!r}") from None


def _float_list(key: str, text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(key, "expected a comma-separated list of numbers")
    return tuple(_float(key, p) for p in parts)


@dataclass(frozen=True)
class SimConfig:
    """Validated harness configuration (see module docstring for the keys)."""

    h: float = 1.0
    L: int = 8
    T: float = 100.0
    seed: int = 1234
    n_taps: int = 8
    mu: float = 0.1
    mu_list: tuple[float, ...] = (
        0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80,
        0.90, 1.00, 1.10, 1.20, 1.30, 1.40, 1.50, 1.60, 1.80, 2.00,
    )
    eps_threshold: float = 0.5
    zeta: float = 0.1
    f_poles: tuple[float, ...] = (1.1,)
    f_gains: tuple[float, ...] = (0.05, 0.05, 0.05, 0.05)
    f_frequencies: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
    f_dampings: tuple[float, ...] | None = None
    p_poles: tuple[float, ...] = (1.2, 1.3)
    p_gains: tuple[float, ...] = (0.078, 0.078, 0.078, 0.078)
    p_frequencies: tuple[float, ...] = (1.2, 2.4, 3.6, 4.8)
    p_dampings: tuple[float, ...] | None = None
    noise_amplitudes: tuple[float, ...] = (0.5, 1.0, 2.0, 2.0)
    noise_frequencies: tuple[float, ...] = (1.0, 2.6, 3.6, 4.8)
    noise_decay_rates: tuple[float, ...] = (0.01, 0.01, 0.01, 0.01)
    noise_phases: tuple[float, ...] | None = None
    waveform_path: str | None = None
    threshold: float = 10.0
    divergence_cutoff: float = 1e9
    out_dir: str = "out"
    # the plants validation builds, returned by secondary() and primary()
    _secondary: ContinuousStateSpace = field(init=False, repr=False, compare=False)
    _primary: ContinuousStateSpace = field(init=False, repr=False, compare=False)

    # dotted key -> (field, parser)
    _KEYS = {
        "sim.h": ("h", _float),
        "sim.L": ("L", _int),
        "sim.T": ("T", _float),
        "sim.seed": ("seed", _int),
        "filter.taps": ("n_taps", _int),
        "adapt.mu": ("mu", _float),
        "adapt.mu_list": ("mu_list", _float_list),
        "adapt.eps_threshold": ("eps_threshold", _float),
        "plant.zeta": ("zeta", _float),
        "plant.f.poles": ("f_poles", _float_list),
        "plant.f.gains": ("f_gains", _float_list),
        "plant.f.frequencies": ("f_frequencies", _float_list),
        "plant.f.dampings": ("f_dampings", _float_list),
        "plant.p.poles": ("p_poles", _float_list),
        "plant.p.gains": ("p_gains", _float_list),
        "plant.p.frequencies": ("p_frequencies", _float_list),
        "plant.p.dampings": ("p_dampings", _float_list),
        "noise.amplitudes": ("noise_amplitudes", _float_list),
        "noise.frequencies": ("noise_frequencies", _float_list),
        "noise.decay_rates": ("noise_decay_rates", _float_list),
        "noise.phases": ("noise_phases", _float_list),
        "noise.waveform": ("waveform_path", None),
        "sweep.threshold": ("threshold", _float),
        "run.divergence_cutoff": ("divergence_cutoff", _float),
        "output.dir": ("out_dir", None),
    }

    def __post_init__(self) -> None:
        self._validate()

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "SimConfig":
        """The config of ``mapping``'s dotted keys; unset keys keep their defaults.

        Values are stripped, so a flag's value reads as the same text in a file.
        """
        kwargs = {}
        for key, raw in mapping.items():
            if key not in cls._KEYS:
                raise ConfigError(key, "unknown key")
            name, parser = cls._KEYS[key]
            raw = raw.strip()
            kwargs[name] = raw if parser is None else parser(key, raw)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "SimConfig":
        return cls.from_mapping(read_config(path))

    def with_overrides(self, **kwargs) -> "SimConfig":
        """This config with fields replaced, validated and its plants built again."""
        return replace(self, **kwargs)

    def _validate(self) -> None:
        for key, name in (("sim.L", "L"), ("sim.seed", "seed"), ("filter.taps", "n_taps")):
            try:  # stored as int, so a library caller's np.int64(4) runs as the file's 4 does
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ConfigError(key, f"expected an integer, got {getattr(self, name)!r}") from None
        if not 0.0 < self.h < np.inf:
            raise ConfigError("sim.h", f"period must be positive and finite, got {self.h}")
        if self.L < 1:
            raise ConfigError("sim.L", f"cells per period must be >= 1, got {self.L}")
        if not 0.0 < self.T < np.inf:
            raise ConfigError("sim.T", f"horizon must be positive and finite, got {self.T}")
        steps = self.T / self.h
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise ConfigError("sim.T", f"horizon must be a positive multiple of sim.h, got {self.T}")
        if self.seed < 0:
            raise ConfigError("sim.seed", "seed must be nonnegative")
        if self.n_taps < 1:
            raise ConfigError("filter.taps", f"need at least one tap, got {self.n_taps}")
        if not 0.0 <= self.mu < np.inf:
            raise ConfigError("adapt.mu", f"step size must be finite and >= 0, got {self.mu}")
        if not all(0.0 <= m < np.inf for m in self.mu_list):
            raise ConfigError("adapt.mu_list", "step sizes must be finite and >= 0")
        if not self.mu_list:
            raise ConfigError("adapt.mu_list", "sweep needs at least one step size")
        if not self.eps_threshold > 0.0:
            raise ConfigError("adapt.eps_threshold", "threshold must be positive")
        if not 0.0 < self.zeta < np.inf:
            raise ConfigError("plant.zeta", f"damping ratio must be finite and > 0, got {self.zeta}")
        object.__setattr__(self, "_secondary", self._plant(
            "plant.f", self.f_poles, self.f_gains, self.f_frequencies, self.f_dampings))
        object.__setattr__(self, "_primary", self._plant(
            "plant.p", self.p_poles, self.p_gains, self.p_frequencies, self.p_dampings))
        na = len(self.noise_amplitudes)
        if na == 0:
            raise ConfigError("noise.amplitudes", "need at least one component")
        for key, vals in (
            ("noise.amplitudes", self.noise_amplitudes),
            ("noise.frequencies", self.noise_frequencies),
            ("noise.decay_rates", self.noise_decay_rates),
            ("noise.phases", self.noise_phases),
        ):
            if vals is None:
                continue
            if len(vals) != na:
                raise ConfigError(key, f"expected {na} entries to match noise.amplitudes")
            if not np.all(np.isfinite(vals)):
                raise ConfigError(key, "entries must be finite")
        if any(r <= 0.0 for r in self.noise_decay_rates):
            raise ConfigError("noise.decay_rates", "components must decay (rates > 0)")
        if any(f < 0.0 for f in self.noise_frequencies):
            raise ConfigError("noise.frequencies", "frequencies must be nonnegative")
        if not self.threshold > 0.0:
            raise ConfigError("sweep.threshold", "threshold must be positive")
        if not self.divergence_cutoff > 0.0:
            raise ConfigError("run.divergence_cutoff", "cutoff must be positive")
        if not self.out_dir:
            raise ConfigError("output.dir", "output directory must not be empty")

    def _plant(self, prefix, poles, gains, frequencies, dampings) -> ContinuousStateSpace:
        if len(gains) != len(frequencies):
            raise ConfigError(
                f"{prefix}.gains", f"expected {len(frequencies)} entries to match frequencies"
            )
        if dampings is not None and len(dampings) != len(gains):
            raise ConfigError(
                f"{prefix}.dampings", f"expected {len(gains)} entries to match gains"
            )
        for name, vals in (("poles", poles), ("gains", gains),
                           ("frequencies", frequencies), ("dampings", dampings)):
            if vals is not None and not np.all(np.isfinite(vals)):
                raise ConfigError(f"{prefix}.{name}", "entries must be finite")
        if dampings is None:
            dampings = (self.zeta,) * len(gains)
        try:
            plant = from_second_order_bank(gains, dampings, frequencies, poles)
            plant.validate_plant()  # rounding can leave a lightly damped pole on the axis
        except (PlantSpecificationError, ValueError) as exc:
            raise ConfigError(prefix, str(exc)) from None
        return plant

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.h))

    @property
    def dt(self) -> float:
        return self.h / self.L

    def secondary(self) -> ContinuousStateSpace:
        """The secondary path, built once when the config was validated."""
        return self._secondary

    def primary(self) -> ContinuousStateSpace:
        """The primary path, built once when the config was validated."""
        return self._primary

    def make_generator(self):
        """Noise source: recorded waveform when given, else the sinusoid bank.

        Unset phases are drawn once from numpy's default generator seeded
        with sim.seed, reproduced in ``ancsim._pcg64`` (no ``numpy.random``
        import), so runs with equal configs produce identical signals.
        """
        if self.waveform_path is not None:
            try:
                values = np.loadtxt(self.waveform_path, dtype=float).reshape(-1)
            except OSError as exc:
                raise ConfigError("noise.waveform", f"cannot read: {exc}") from None
            except ValueError as exc:
                raise ConfigError("noise.waveform", f"cannot parse: {exc}") from None
            if not np.all(np.isfinite(values)):
                raise ConfigError("noise.waveform", "samples must be finite")
            needed = self.n_steps * self.L
            if values.size < needed:
                raise ConfigError(
                    "noise.waveform",
                    f"waveform has {values.size} samples, run needs {needed}",
                )
            return HeldWaveform(values=values, dt=self.dt)
        if self.noise_phases is None:
            from . import _pcg64

            phases = _pcg64.uniform(self.seed, 0.0, 2.0 * np.pi, len(self.noise_amplitudes))
        else:
            phases = np.asarray(self.noise_phases, dtype=float)
        return AutonomousGenerator.damped_sinusoids(
            self.noise_amplitudes, self.noise_frequencies, self.noise_decay_rates, phases
        )
