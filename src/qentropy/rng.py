"""Reproducible random streams on numpy's Philox4x64 counter-based generator.

RngStream(seed, stream_id) has one key, SeedSequence(seed,
spawn_key=(stream_id,)).generate_state(2, uint64); generator() is that
Philox from counter 0.  Substream i, 0 <= i < 2^127, has the same key and
its 256-bit counter (uint64 words, low first) set to (0, 0, i mod 2^64,
i // 2^64 + 1).  Its top word is never 0, so no substream overlaps
generator(), and each owns the 2^128 blocks of the two low words before it
could reach the next (Salmon et al., SC'11); no draw depends on scheduling.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_SEED = 0x5EED


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible stream of randomness.

    The same (seed, stream_id) always yields the identical sample sequence.
    """

    seed: int = DEFAULT_SEED
    stream_id: int = 0

    @cached_property
    def _key(self) -> np.ndarray:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return ss.generate_state(2, np.uint64)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> np.random.Generator:
        """Generator for a disjoint substream (e.g. one Monte-Carlo chunk)."""
        return next(self.children([index]))

    def children(self, indices):
        """child(i) for each i in turn, as one Generator re-set per index:
        draw all of one substream's numbers before taking the next, and do
        not `spawn` from it."""
        bitgen = np.random.Philox(0)  # Philox(key=...) would read OS entropy
        gen = np.random.Generator(bitgen)
        counter = np.zeros(4, np.uint64)  # the setter copies: one dict serves all
        state = {"bit_generator": "Philox", "state": {"counter": counter, "key": self._key},
                 "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for i in map(operator.index, indices):
            if not 0 <= i < 2**127:
                raise ValueError(f"substream index must be in [0, 2**127), got {i}")
            counter[2:] = i & 0xFFFFFFFFFFFFFFFF, (i >> 64) + 1
            bitgen.state = state
            yield gen
