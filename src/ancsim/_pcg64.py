"""numpy's default generator, ``np.random.default_rng(seed)``, for its uniform draws.

``uniform(seed, low, high, k)`` equals ``default_rng(seed).uniform(low, high, k)``
bit for bit without importing ``numpy.random``, which loads its bit
generators and ``secrets`` (a sizeable share of a fresh process that only
builds a loop). The chain is numpy's: ``SeedSequence(seed)`` mixes the
seed's 32-bit words into a pool of four (hashmix), ``PCG64`` takes its state
and increment from the pool's first eight generated words, and each draw is
``low + (high - low) * (next64 >> 11) * 2**-53``, with ``next64`` the
XSL-RR output of the advanced 128-bit LCG state (O'Neill 2014).
"""

from __future__ import annotations

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4


def _pool(seed: int) -> list[int]:
    """The entropy pool of ``SeedSequence(seed)``."""
    words = []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(pool: list[int]) -> list[int]:
    """``SeedSequence.generate_state(4, np.uint64)``: eight 32-bit words, little end first."""
    const, out = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL] ^ const
        const = (const * _MULT_B) & _M32
        value = (value * const) & _M32
        out.append(value ^ (value >> 16))
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def uniform(seed: int, low: float, high: float, k: int) -> list[float]:
    """``k`` draws of ``np.random.default_rng(seed).uniform(low, high, k)``, as floats."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    s0, s1, i0, i1 = _state_words(_pool(seed))
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = (inc + (s0 << 64 | s1)) & _M128  # one step from zero is inc; the seed is added after it
    state = (state * _PCG_MULT + inc) & _M128
    span, out = high - low, []
    for _ in range(k):
        state = (state * _PCG_MULT + inc) & _M128
        rot = state >> 122
        word = ((state >> 64) ^ state) & _M64
        word = ((word >> rot) | (word << (64 - rot))) & _M64
        out.append(low + span * ((word >> 11) * 2.0**-53))
    return out
