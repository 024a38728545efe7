"""Reproducible random streams.

Built on numpy's Philox counter-based generator: distinct (seed, stream_id)
pairs key disjoint streams by construction, so parallel workers never
overlap and results do not depend on how work is scheduled.

Substream i is Philox keyed by np.random.SeedSequence(seed,
spawn_key=(stream_id, i)).generate_state(2, np.uint64), with counter 0.
SeedSequence's hash is fixed uint32 arithmetic whose input words are the
seed, the stream id and then the index, so the (seed, stream_id) part is
hashed once per stream and each substream key costs only its index words;
one Philox re-keyed per substream then replaces a SeedSequence and a Philox
per substream.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_SEED = 0x5EED

# SeedSequence's constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK = 0xFFFFFFFF
# generate_state's hash constants for the four pool words: (h_j, h_j+1)
_OUTPUT_HASH = [(_INIT_B * _MULT_B**j & _MASK, _INIT_B * _MULT_B**(j + 1) & _MASK)
                for j in range(_POOL_SIZE)]


def _words(n: int) -> list[int]:
    """A non-negative integer as SeedSequence reads it: uint32 words, least
    significant first, and [0] for 0."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    out = [n & _MASK]
    n >>= 32
    while n:
        out.append(n & _MASK)
        n >>= 32
    return out


def _hashmix(value: int, h: int) -> tuple[int, int]:
    """SeedSequence's hashmix: the mixed value and the next hash constant."""
    value ^= h
    h = h * _MULT_A & _MASK
    value = value * h & _MASK
    return value ^ value >> 16, h


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of a pool word x with a hashed word y."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK
    return r ^ r >> 16


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible stream of randomness.

    The same (seed, stream_id) always yields the identical sample sequence.
    """

    seed: int = DEFAULT_SEED
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))

    @cached_property
    def _prefix(self) -> tuple[list[int], int]:
        """SeedSequence's entropy pool and hash constant after the seed and
        stream words, before the index words of a substream."""
        seed = _words(self.seed)
        # a spawn key pads the seed words to the pool size
        words = seed + [0] * (_POOL_SIZE - len(seed)) + _words(self.stream_id)
        h = _INIT_A
        pool = []
        for w in words[:_POOL_SIZE]:
            v, h = _hashmix(w, h)
            pool.append(v)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    v, h = _hashmix(pool[src], h)
                    pool[dst] = _mix(pool[dst], v)
        for w in words[_POOL_SIZE:]:
            pool, h = _mix_word(pool, w, h)
        return pool, h

    def key(self, index: int) -> tuple[int, int]:
        """The Philox key of substream `index`: two uint64 words, low first."""
        pool, h = self._prefix
        for w in _words(index):
            pool, h = _mix_word(pool, w, h)
        a, b, c, d = [(v ^ x) * y & _MASK for v, (x, y) in zip(pool, _OUTPUT_HASH)]
        return (a ^ a >> 16 | (b ^ b >> 16) << 32, c ^ c >> 16 | (d ^ d >> 16) << 32)

    def child(self, index: int) -> np.random.Generator:
        """Generator for a disjoint substream (e.g. one Monte-Carlo chunk)."""
        return next(self.children([index]))

    def children(self, indices):
        """child(i) for each i in turn, as one Generator re-keyed per index.

        The same Generator object is yielded every time, so draw all of one
        substream's numbers before taking the next.  Its bit generator's
        `seed_seq` is not the substream's, so do not `spawn` from it.
        """
        bitgen = np.random.Philox(0)
        gen = np.random.Generator(bitgen)
        # Philox's state at counter 0 with nothing buffered; the setter
        # copies the values, so one dict serves every key
        state = {"bit_generator": "Philox",
                 "state": {"counter": np.zeros(4, np.uint64), "key": None},
                 "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for i in indices:
            state["state"]["key"] = self.key(i)
            bitgen.state = state
            yield gen


def _mix_word(pool: list[int], w: int, h: int) -> tuple[list[int], int]:
    """Mix one more entropy word into every word of the pool."""
    out = []
    for v in pool:  # _mix(v, _hashmix(w, h)), inlined
        x = w ^ h
        h = h * _MULT_A & _MASK
        x = x * h & _MASK
        r = (_MIX_MULT_L * v - _MIX_MULT_R * (x ^ x >> 16)) & _MASK
        out.append(r ^ r >> 16)
    return out, h

