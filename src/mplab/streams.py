"""mplab's random streams, computed with Python's integer arithmetic and
equal bit for bit to numpy's.

- philox_u01(seed, keys, tags) is the first double of numpy's Philox4x64-10
  stream keyed by (seed, key) at counter (tag, 0, 0, 0) (Salmon, Moraes,
  Dror and Shaw, SC'11), over whole arrays of keys and tags at once.
- Stream(entropy) is numpy's default_rng(entropy), a PCG64 (XSL-RR)
  generator seeded through SeedSequence, for the two draws mplab makes:
  integers over ranges below 2^32, and uniform.

Owning the streams keeps every run free of the import of numpy's random
subpackage (about 10 ms), and keeps realizations fixed whatever numpy's
Generator does in later releases: numpy does not promise to keep its
streams (NEP 19).
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# ------------------------------------------------------------ Philox4x64-10

# Round multipliers and Weyl key increments, as in Random123 and numpy.
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def _philox_word(seed: int, key: int, tag: int) -> int:
    """The first output word of one block."""
    c0 = (tag + 1) & _MASK64
    c1, c2, c3 = int(c0 == 0), 0, 0
    k0, k1 = seed, key
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
        p0, p1 = _M0 * c0, _M1 * c2
        c0, c1 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64
        c2, c3 = (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
    return c0


def philox_u01(seed: int, keys, tags) -> np.ndarray:
    """Generator(Philox(key=[seed, key], counter=[tag, 0, 0, 0])).random()
    for every key and tag, broadcast against each other.

    numpy increments the counter before the first block, carrying into
    word 1 when the tag is 2^64 - 1, and maps the block's first word to
    (word >> 11) * 2^-53. Seeds, keys and tags are integers in [0, 2^64):
    a seed outside is rejected, not reduced, so that no two seeds alias.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must lie in [0, 2^64)")
    keys = np.asarray(keys, dtype=np.uint64)
    tags = np.asarray(tags, dtype=np.uint64)
    pairs = np.broadcast(keys, tags)
    u = [(_philox_word(seed, int(k), int(t)) >> 11) * 2.0**-53 for k, t in pairs]
    return np.array(u, dtype=np.float64).reshape(pairs.shape)


# ------------------------------------------------ SeedSequence and PCG64

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MULT_L, _MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(entropy) -> list:
    """SeedSequence's uint32 words of a nonnegative integer or a sequence
    of them: each integer little-endian, 0 as one word, concatenated."""
    if isinstance(entropy, int):
        if entropy < 0:
            raise ValueError(f"entropy must be nonnegative, got {entropy}")
        words = [entropy & _MASK32]
        entropy >>= 32
        while entropy:
            words.append(entropy & _MASK32)
            entropy >>= 32
        return words
    return [w for part in entropy for w in _entropy_words(int(part))]


def _seed_pool(words: list) -> list:
    """SeedSequence's entropy pool: hash the words in, then mix every pool
    word into every other and the words past the pool into each."""
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        out = (_MULT_L * x - _MULT_R * y) & _MASK32
        return out ^ (out >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list, n_words: int) -> list:
    """SeedSequence.generate_state(n_words, np.uint64)."""
    const, out = _INIT_B, []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        out.append(value ^ (value >> 16))
    return [lo | (hi << 32) for lo, hi in zip(out[::2], out[1::2])]


class Stream:
    """numpy's default_rng(entropy), for integers and uniform.

    entropy is a nonnegative integer or a sequence of them, as for
    default_rng. Draws are Python ints and floats equal to numpy's.
    """

    def __init__(self, entropy):
        pool = _seed_pool(_entropy_words(entropy))
        s_hi, s_lo, i_hi, i_lo = _generate_state(pool, 4)
        # PCG's srandom: from state 0, step, add the seed, step
        self._inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        self._state = (self._inc + ((s_hi << 64) | s_lo)) & _MASK128
        self._step()
        self._half = None  # the upper half of a 64-bit draw, for next32

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128

    def _next64(self) -> int:
        self._step()
        state = self._state
        value, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
        return ((value >> rot) | (value << (-rot & 63))) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            value, self._half = self._half, None
            return value
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def integers(self, low: int, high: int = None) -> int:
        """An integer in [low, high), or in [0, low) without high; the
        range high - low lies below 2^32."""
        if high is None:
            low, high = 0, low
        span = high - low
        if not 0 < span < 1 << 32:
            raise ValueError(
                f"integers needs 0 < high - low < 2^32, got {low}, {high}"
            )
        if span == 1:
            return low
        # Lemire's bounded draw on 32-bit words, with numpy's threshold
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = ((1 << 32) - span) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def uniform(self, low: float, high: float) -> float:
        width = float(high) - float(low)
        if not np.isfinite(width):
            raise OverflowError("high - low range exceeds valid bounds")
        return float(low) + width * ((self._next64() >> 11) * 2.0**-53)
