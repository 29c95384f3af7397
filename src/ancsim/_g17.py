"""CPython's ``'%.17g' % x`` for a whole float64 array at once.

``format_fields`` writes each value's text, NUL-padded, into a 32-byte
field. It computes the 17 digits with float64 and int64 array arithmetic
and lays them out with per-exponent masks, so no value passes through
Python's float formatting. The values it cannot decide exactly are
returned for the caller to format one at a time with ``'%.17g'``, so every
byte it writes is CPython's: a fast exact path with an exact fallback, as
in Loitsch, "Printing floating-point numbers quickly and accurately with
integers" (PLDI 2010).

The tables are built on first use, each power of ten the first time a
value needs it, from Python ints by correctly rounded int / int division.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_fields"]

_E_MIN, _E_MAX = -272, 292  # decimal exponents the tables cover
_TIE = 2.0 ** -30
_ZERO_CHARS = np.uint64(0x3030303030303030)
_B1, _B2, _B4, _B7 = np.uint64(8), np.uint64(16), np.uint64(32), np.uint64(56)
# Byte b of digit word i holds digit 1 + 8 i + b. With e the exponent field of
# the word's digit values as a float, b = (e - 1023) >> 3 is its top nonzero
# byte, and (e - 1023 + 16 + 64 i) >> 3 = 2 + 8 i + b the digits up to it.
_TOP_BIAS = np.array([[1007], [943]])
_POW10 = _STYLE = _EXPONENT = _DIGITS4 = _KEEP = None
_BELOW = _ABOVE = _DOT = _FIRST = _WHOLE = None


def _pow10_pair(k: int) -> tuple[float, float, float, float]:
    """10**k as hi + lo, each correctly rounded from ints, and hi's Dekker halves."""
    if k >= 0:
        hi = float(10 ** k)
        lo = float(10 ** k - int(hi))
    else:
        den = 10 ** -k
        hi = 1 / den
        num, pow2 = hi.as_integer_ratio()
        lo = (pow2 - num * den) / (pow2 * den)
    t = hi * 134217729.0
    hi_hi = t - (t - hi)
    return hi, lo, hi_hi, hi - hi_hi


def _low_bytes(n: int) -> int:
    return (1 << 8 * min(max(n, 0), 8)) - 1


def _layout(style: int) -> tuple[list[int], list[int], list[int], int, int]:
    """Masks and constant words of one %g layout.

    Style 0 is exponential notation, style x + 5 fixed notation at decimal
    exponent -4 <= x < 17. The digit string fills field bytes 8-25: fixed
    notation keeps x + 1 integer digits before the point; x < 0 keeps none
    and prints "0." and -x - 1 zeros in the first word instead; exponential
    notation keeps one, and ``_EXPONENT`` adds "e+dd" at field bytes 26-30.
    Returns, for the three digit words, the masks of the bytes below and
    above the point and the point itself; then the first word and the
    number of integer digits.
    """
    x = style - 5
    whole = 1 if style == 0 else max(x + 1, 0)
    point = whole if whole else 64  # no point among the digits
    below = [_low_bytes(point - 8 * i) for i in range(3)]
    above = [~_low_bytes(point + 1 - 8 * i) & 0xFFFFFFFFFFFFFFFF for i in range(3)]
    dot = [46 << 8 * (point % 8) if point // 8 == i else 0 for i in range(3)]
    first = int.from_bytes(b"0." + b"0" * (-x - 1), "little") << 8 if style and x < 0 else 0
    return below, above, dot, first, whole


def _tables() -> None:
    """Build the layout and digit tables; the power-of-ten columns fill on demand."""
    global _POW10, _STYLE, _EXPONENT, _DIGITS4, _KEEP, _BELOW, _ABOVE, _DOT, _FIRST, _WHOLE
    _POW10 = np.full((4, _E_MAX - _E_MIN + 1), np.nan)
    exps = range(_E_MIN, _E_MAX + 1)
    _STYLE = np.array([x + 5 if -4 <= x < 17 else 0 for x in exps], dtype=np.intp)
    _EXPONENT = np.array([0 if -4 <= x < 17 else int.from_bytes(b"e%+03d" % x, "little") << 16
                          for x in exps], dtype=np.uint64)
    below, above, dot, first, whole = zip(*map(_layout, range(22)))
    _BELOW, _ABOVE, _DOT = (np.array(rows, dtype=np.uint64).T.copy() for rows in (below, above, dot))
    _FIRST, _WHOLE = np.array(first, dtype=np.uint64), np.array(whole, dtype=np.int64)
    two = np.arange(100, dtype=np.uint64)
    two = two // np.uint64(10) + np.uint64(48) | (two % np.uint64(10) + np.uint64(48)) << _B1
    _DIGITS4 = (two[:, None] | two << _B2).ravel()
    _KEEP = np.array([[_low_bytes(k - 8 * w) for k in range(18)] for w in range(3)], dtype=np.uint64)


def _scaled(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponent row, 17-digit integer N and fallback flags of each value of ``v``.

    With E = floor(log10 |x|), P = |x| 10^(16-E) is taken as a double-double
    (Dekker product with the pair of 10^(16-E)), so N = round(P), ties to
    even, holds the 17 digits and E the exponent. A value is flagged for the
    fallback when it is non-finite or outside [1e-270, 1e290], when P is
    below 10^16 or not below 10^17 (E off by one, or N = 10^17), or when P's
    fraction lies within 2^-30 of 1/2 and 10^(16-E) is inexact. The pair's
    error is below 2^-47, and with an exact 10^(16-E) the Dekker remainder
    is exact, so every other value rounds as CPython rounds. Zero is not
    flagged: it gets E = 0 and N = 0.
    """
    a = np.abs(v)
    ok = (a >= 1e-270) & (a <= 1e290)
    np.copyto(a, 1.0, where=~ok)
    j = np.log10(a)
    j = np.floor(j, out=j).astype(np.intp)
    j -= _E_MIN
    lo, hi = int(j.min()), int(j.max()) + 1
    for k in np.flatnonzero(np.isnan(_POW10[0, lo:hi])).tolist():
        _POW10[:, lo + k] = _pow10_pair(16 - _E_MIN - lo - k)
    ph, pl, ph_hi, ph_lo = _POW10.take(j, axis=1)
    p = a * ph
    a_hi = a * 134217729.0
    tmp = a_hi - a
    a_hi -= tmp
    a_lo = a - a_hi
    r = a_hi * ph_hi  # ((a_hi ph_hi - p) + a_hi ph_lo + a_lo ph_hi) + a_lo ph_lo + a pl
    r -= p
    for x, y in ((a_hi, ph_lo), (a_lo, ph_hi), (a_lo, ph_lo), (a, pl)):
        r += np.multiply(x, y, out=tmp)
    # p >= 2^53 is even, so p + rint(r) rounds P half to even
    rr = np.rint(r)
    bad = (p - 1e16) + r < -_TIE
    bad |= p >= 1e17
    bad |= ~ok
    r -= rr
    tie = np.abs(np.abs(r, out=r) - 0.5, out=r) < _TIE
    bad |= tie & (pl != 0.0)
    nonzero = v != 0.0
    bad &= nonzero
    N = p.astype(np.int64)
    N += rr.astype(np.int64)
    N *= nonzero
    return j, N, bad


def format_fields(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``'%.17g' % x`` for each x of ``v`` into the 32-byte fields ``out``.

    ``out`` is (len(v), 4) uint64; the text takes at most 31 bytes, and the
    field's last byte is left at NUL. The 17 digits of ``_scaled`` come four
    at a time from a table and are laid out with the masks of their
    exponent's style; the digits after the last nonzero one, past the
    integer part, become NUL, and so does the point when nothing follows
    it. Returns the indices of the values ``_scaled`` flagged: their fields
    hold no text, and the caller formats them one at a time.
    """
    if _STYLE is None:
        _tables()
    j, N, bad = _scaled(v)
    slow = np.flatnonzero(bad)
    style = _STYLE.take(j)
    exponent = _EXPONENT.take(j)
    del bad, j  # each temporary goes as soon as it is spent: fewer chunk-sized arrays live at once
    lead = N // 10**16
    N -= lead * 10**16
    # digits 1-8 and 9-16 as two words of characters, four digits a lookup
    quad = np.empty((2, v.size), np.int64)
    np.floor_divide(N, 10**8, out=quad[0])
    np.subtract(N, quad[0] * 10**8, out=quad[1])
    del N
    q = quad // 10000
    quad -= q * 10000
    words = _DIGITS4.take(q)
    words |= _DIGITS4.take(quad) << _B4
    del quad, q
    # significant digits: the byte of each word's top nonzero digit value
    top = (words ^ _ZERO_CHARS).view(np.int64).astype(np.float64).view(np.int64) >> 52
    top -= _TOP_BIAS
    s = top.max(axis=0) >> 3
    np.maximum(s, 1, out=s)
    del top
    whole = _WHOLE.take(style)
    point = (s > whole).view(np.uint8).astype(np.uint64) * np.uint64(0xFFFFFFFFFFFFFFFF)
    keep = np.maximum(s, whole, out=s)
    # the digit string over three words, cut after the kept digits
    digits = np.empty((3, v.size), np.uint64)
    np.add(lead.view(np.uint64), np.uint64(48), out=digits[0])
    digits[0] |= words[0] << _B1
    np.right_shift(words[0], _B7, out=digits[1])
    digits[1] |= words[1] << _B1
    np.right_shift(words[1], _B7, out=digits[2])
    digits &= _KEEP.take(keep, axis=1)
    del words, keep, whole, s
    # the point goes in after the integer digits: those past it move one byte on
    moved = digits << _B1
    moved[1:] |= digits[:-1] >> _B7
    moved &= _ABOVE.take(style, axis=1)
    digits &= _BELOW.take(style, axis=1)
    digits |= moved
    del moved
    digits |= _DOT.take(style, axis=1) & point
    digits[2] |= exponent
    out[:, 1:] = digits.T
    out[:, 0] = _FIRST.take(style) | np.signbit(v).view(np.uint8).astype(np.uint64) * np.uint64(45)
    return slow
