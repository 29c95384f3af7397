"""The CSV writer's array formatter against CPython's per-value ``'%.17g'``.

``ancsim._g17.format_fields`` together with the runner's per-value fallback
(``_tables._format_values``) must give, for every float64, the bytes of
``oracles._fmt``, the formatter of the row-wise reference writer. The sets
cover random bit patterns, scaled normals, powers of two and ten with their
neighbours, the %g switch points, exact decimal ties, integers and the
special values. On the sets of ordinary values the kernel must decide at
least 99% of the values itself.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from ancsim import _g17, _tables

BATCH = 1 << 16


def _check(values: np.ndarray) -> float:
    """Assert the formatted bytes of ``values``; returns the kernel's fallback share."""
    fallback = 0
    for start in range(0, values.size, BATCH):
        v = values[start:start + BATCH]
        fields = np.zeros((v.size, 4), np.uint64)
        _tables._format_values(v, fields)
        fields.view(np.uint8)[:, -1] = ord("\n")
        got = fields.tobytes().translate(None, b"\0").split(b"\n")[:-1]
        want = [oracles._fmt(x).encode() for x in v.tolist()]
        bad = [(x, w, g) for x, w, g in zip(v.tolist(), want, got) if w != g]
        assert not bad, bad[:5]
        fallback += _g17.format_fields(v, np.zeros((v.size, 4), np.uint64)).size
    return fallback / max(values.size, 1)


def _with_neighbours(x: np.ndarray, steps: int = 1) -> np.ndarray:
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    both = np.concatenate(out)
    return np.concatenate([both, -both])


def test_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    _check(bits.view(np.float64))


def test_normals_scaled_over_sixty_decades():
    rng = np.random.default_rng(18)
    values = rng.standard_normal(200_000) * 10.0 ** rng.uniform(-30.0, 30.0, 200_000)
    assert _check(values) < 0.01


def test_powers_of_two_and_ten_with_neighbours():
    powers = np.array([2.0 ** e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)])
    _check(_with_neighbours(powers))


def test_switch_points_and_powers_just_below():
    """The %g switches at 1e-5/1e-4 and 1e16/1e17, and each power of ten's lower neighbours.

    The lower neighbours of 10^k scale to just below 10^17; the kernel
    hands the ones whose exponent it cannot settle to the fallback.
    """
    _check(_with_neighbours(np.array([1e-5, 1e-4, 1e16, 1e17]), steps=4))
    below = np.array([float(f"1e{e}") for e in range(-300, 300)])
    for _ in range(3):
        below = np.nextafter(below, 0.0)
        _check(below)


def _is_tie(x: float) -> bool:
    """Whether x, not next to a power of ten, lies halfway between two 17-digit decimals."""
    exponent = math.floor(math.log10(abs(x)))
    return (Fraction(x) * Fraction(10) ** (16 - exponent)).denominator == 2


def test_exact_ties_round_half_even():
    """Values halfway between two 17-digit decimals at |x| >= 1e14 round to the even one."""
    rng = np.random.default_rng(19)
    eighths = rng.integers(10**14, 10**15, 5000) + (2 * rng.integers(0, 4, 5000) + 1) / 8
    quarters = rng.integers(10**15, 2**51, 5000) + (2 * rng.integers(0, 2, 5000) + 1) / 4
    ties = np.concatenate([eighths, quarters, -eighths])
    assert all(_is_tie(x) for x in ties[::97].tolist())
    assert _check(ties) == 0.0


def test_ties_at_inexact_powers_of_ten_go_to_the_fallback():
    """t 2^-24 (odd t, 3 to 15) and 2^-25, 3 2^-25 are ties at 10^23 and 10^24.

    Neither power is a double, so the kernel cannot tell these ties from
    near-ties, and hands every one of them to the per-value path.
    """
    ties = np.array([t * 2.0**-24 for t in range(3, 17, 2)] + [2.0**-25, 3 * 2.0**-25])
    assert all(_is_tie(x) for x in ties.tolist())
    values = np.concatenate([ties, -ties, np.full(300, 0.5)])
    assert _check(values) == 2 * ties.size / values.size


def test_integers_and_booleans(tmp_path):
    """Integer and boolean columns print as %d up to 2^53; an integer column past it raises ValueError."""
    rng = np.random.default_rng(20)
    small = np.concatenate([rng.integers(-2**53, 2**53, 3000, endpoint=True), [0, 1, -1, 2**53, -2**53]])
    flags = rng.integers(0, 2, small.size).astype(bool)
    columns = [small, flags, small.astype(float)]
    header = ["n", "flag", "x"]
    _tables._write_columns(str(tmp_path / "new.csv"), header, columns)
    oracles.write_csv_rows(str(tmp_path / "old.csv"), header, zip(*[c.tolist() for c in columns]))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert _check(small.astype(float)) < 0.01
    for value in (2**53 + 1, -2**53 - 1, -2**63, 2**63 - 1, 10**18, -10**17):
        big = small.copy()
        big[1000] = value
        with pytest.raises(ValueError, match="2\\^53"):
            _tables._write_columns(str(tmp_path / "big.csv"), ["n", "big"], [small, big])
    big = np.array([0, 2**64 - 1], dtype=np.uint64)
    with pytest.raises(ValueError, match="2\\^53"):
        _tables._write_columns(str(tmp_path / "big.csv"), ["n", "big"], [small[:2], big])
    assert not (tmp_path / "big.csv").exists()


def test_special_values_among_ordinary_ones():
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 1e-270, 1e290]
    values = np.random.default_rng(21).standard_normal(4096)
    values[:300 * len(specials):300] = specials
    _check(values)
    zeros = np.array([0.0, -0.0] * 200)
    assert _check(zeros) == 0.0


@pytest.mark.parametrize("n", [0, 1, 255, 256, 2049])
def test_chunk_sizes_around_the_kernel_threshold(n):
    """Chunks below ``_KERNEL_MIN_VALUES`` go value by value, larger ones through the kernel."""
    values = np.random.default_rng(n).standard_normal(n) * 1e3
    _check(values)
