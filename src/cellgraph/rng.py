"""Portable deterministic PRNG: splitmix64 seeding, xoshiro256** streams.

Every stochastic stage of the synthetic generator draws from one
Xoshiro256StarStar stream per sample, so generation produces identical bytes
on any platform.

Bulk draws (``normals``) run the same stream in numpy lanes: xoshiro256** is
linear over GF(2)^256, so a jump-ahead map (Haramoto et al. 2008, INFORMS J.
Computing 20(3)) starts lane j at word j * _LANE_WORDS of the serial stream.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_LANE_WORDS = 256  # words each numpy lane produces in ``normals``
_U64 = {k: np.uint64(k) for k in (5, 7, 9, 17, 19, 45, 57)}  # typed shift and multiply constants
_BYTE_POSITIONS = np.arange(32)


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(root: int, label: str) -> int:
    """Derive a child seed from a root seed and a textual label.

    Mixes an FNV-1a hash of the label into the root via splitmix64, so sub-seeds
    for named pipeline stages are stable across runs and platforms.
    """
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    _, out = splitmix64_next((root ^ h) & _MASK64)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _step_lanes(s: np.ndarray) -> np.ndarray:
    """Advance each column of a (4, n) uint64 state array once; returns the n outputs."""
    s0, s1, s2, s3 = s
    x = s1 * _U64[5]
    result = (x << _U64[7]) | (x >> _U64[57])
    result *= _U64[9]
    t = s1 << _U64[17]
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    x = s3 >> _U64[19]
    s3 <<= _U64[45]
    s3 |= x
    return result


@functools.cache
def _jump_table() -> np.ndarray:
    """``table[p, v]``: the state _LANE_WORDS steps after the state whose byte p is v and all else 0.

    Row 8p + q of the jump map is the image of the unit state with bit q of
    byte p set; stepping the 256 unit states together takes a few
    milliseconds, far less than squaring a 256 x 256 bit matrix. Each byte
    value then XORs the rows of its set bits, so a jump is 32 lookups.
    """
    bit = np.arange(256)
    unit = np.zeros((4, 256), dtype=np.uint64)
    unit[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    for _ in range(_LANE_WORDS):
        _step_lanes(unit)
    rows = unit.T.reshape(32, 8, 4)
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for q in range(8):
        table[:, 1 << q : 2 << q] = table[:, : 1 << q] ^ rows[:, q, None, :]
    table.flags.writeable = False
    return table


def _via_math(f, x: np.ndarray) -> np.ndarray:
    """``f`` from ``math`` on every element of ``x``, 2**15 at a time to keep the float lists small."""
    parts = np.split(x, range(1 << 15, x.size, 1 << 15))
    return np.concatenate([np.fromiter(map(f, part.tolist()), dtype=np.float64, count=part.size) for part in parts])


class Xoshiro256StarStar:
    """xoshiro256** generator with splitmix64 state expansion.

    ``stream_for(seed, index)`` builds the generator for one sample: the
    root seed drives a single splitmix64 sequence whose 64-bit outputs
    [4*index, 4*index+4) become the xoshiro state.
    """

    def __init__(self, state: tuple[int, int, int, int]):
        if not any(state):
            raise ValueError("xoshiro256** state must not be all-zero")
        self.s = list(state)

    @classmethod
    def stream_for(cls, seed: int, index: int) -> "Xoshiro256StarStar":
        sm = seed & _MASK64
        out = 0
        for _ in range(4 * index):
            sm, out = splitmix64_next(sm)
        state = []
        for _ in range(4):
            sm, out = splitmix64_next(sm)
            state.append(out)
        return cls(tuple(state))

    def next_u64(self) -> int:
        s = self.s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (unbiased)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Gaussian draw via Box-Muller (one value per pair of uniforms)."""
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, sigma: np.ndarray) -> np.ndarray:
        """``[self.normal(0.0, s) for s in sigma]`` as an array, drawn in bulk.

        Returns the same bits and leaves the stream in the same state as the
        scalar loop. The 2 * len(sigma) words come from numpy lanes of
        _LANE_WORDS words each, read back in serial order. ``sqrt``, ``*`` and
        ``+`` are correctly rounded in numpy too; ``log`` and ``cos`` go
        through ``math``, because ``np.log`` differs from ``math.log`` in the
        last bit on about 0.35% of inputs. A zero u1 (probability 2**-53 per
        normal) makes the scalar loop redraw, so the draw is replayed by it.
        """
        sigma = np.asarray(sigma, dtype=np.float64)
        n_words = 2 * sigma.size
        if n_words == 0:
            return np.zeros(0)
        n_lanes = -(-n_words // _LANE_WORDS)
        n_steps = min(n_words, _LANE_WORDS)
        last_steps = n_words - (n_lanes - 1) * _LANE_WORDS  # words the last lane contributes
        table = _jump_table()
        starts = np.empty((n_lanes, 4), dtype=np.uint64)
        starts[0] = self.s
        for j in range(1, n_lanes):  # each start is _LANE_WORDS words after the previous one
            start_bytes = starts[j - 1].astype("<u8").view(np.uint8)
            starts[j] = np.bitwise_xor.reduce(table[_BYTE_POSITIONS, start_bytes], axis=0)
        lanes = starts.T.copy()
        words = np.empty((n_steps, n_lanes), dtype=np.uint64)
        for step in range(n_steps):
            words[step] = _step_lanes(lanes)
            if step == last_steps - 1:
                end_state = [int(w) for w in lanes[:, -1]]
        words >>= np.uint64(11)
        uniforms = words.T.astype(np.float64, order="C").ravel()[:n_words]
        del words
        uniforms *= 1.0 / (1 << 53)
        u1, u2 = uniforms[0::2], uniforms[1::2]
        if not u1.all():
            return np.array([self.normal(0.0, s) for s in sigma])
        log_u1 = _via_math(math.log, u1)
        cos_u2 = _via_math(math.cos, (2.0 * math.pi) * u2)
        self.s = end_state
        return 0.0 + sigma * np.sqrt(-2.0 * log_u1) * cos_u2

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]
