"""Substreams: one Philox key per RngStream, the counter offset per substream.

Substream i of RngStream(seed, stream) must stay the Philox keyed like
generator(), by np.random.SeedSequence(seed, spawn_key=(stream,)), with its
counter set to (0, 0, i mod 2^64, i // 2^64 + 1), since every recorded
certificate, fig1 scatter and mc chunk depends on it.
"""

import numpy as np
import pytest

from qentropy import RngStream


def philox_at(seed, stream, counter):
    """A fresh Philox keyed like RngStream(seed, stream), at `counter`."""
    key = np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(2, np.uint64)
    bitgen = np.random.Philox(0)
    bitgen.state = {"bit_generator": "Philox",
                    "state": {"counter": np.array(counter, np.uint64), "key": key},
                    "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


class TestSubstreams:
    def test_substreams_and_generator_differ(self):
        # generator() is the same key at counter 0, whose top word no
        # substream has
        rng = RngStream(5, 1)
        first = [g.standard_normal() for g in (rng.generator(), rng.child(0), rng.child(1))]
        assert len(set(first)) == 3
        assert first[0] == philox_at(5, 1, [0, 0, 0, 0]).standard_normal()

    @pytest.mark.parametrize("seed,stream,index,counter", [
        (0, 0, 0, [0, 0, 0, 1]),
        (5, 1, 7, [0, 0, 7, 1]),
        (2**64 + 3, 2, 2**64 - 1, [0, 0, 2**64 - 1, 1]),
        (17, 0, 3 << 64 | 11, [0, 0, 11, 4]),
        (2**128 + 1, 4, 2**127 - 1, [0, 0, 2**64 - 1, 2**63]),
    ])
    def test_child_draws_match_philox_set_by_hand(self, seed, stream, index, counter):
        ours = RngStream(seed, stream).child(index)
        theirs = philox_at(seed, stream, counter)
        assert np.array_equal(ours.standard_normal(9), theirs.standard_normal(9))
        assert np.array_equal(ours.integers(0, 2**32, 5, dtype=np.uint32),
                              theirs.integers(0, 2**32, 5, dtype=np.uint32))

    @pytest.mark.parametrize("index", [-1, 2**127, 2**200])
    def test_index_out_of_range_rejected(self, index):
        with pytest.raises(ValueError):
            RngStream(5, 1).child(index)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1).child(0)

    def test_rekeyed_generator_drops_buffered_uint32(self):
        # a single uint32 draw leaves half of a 64-bit output buffered
        # (Philox's has_uint32); the next key must not hand it on
        rng = RngStream(17, 2)
        gens = rng.children([4, 9, 2**33])
        first = next(gens)
        first.integers(0, 2**32, dtype=np.uint32)
        assert first.bit_generator.state["has_uint32"] == 1
        for index in (9, 2**33):
            gen = next(gens)
            want = rng.child(index)
            assert np.array_equal(gen.integers(0, 2**32, 3, dtype=np.uint32),
                                  want.integers(0, 2**32, 3, dtype=np.uint32))
            assert np.array_equal(gen.standard_normal(4), want.standard_normal(4))
            assert np.array_equal(gen.dirichlet(np.ones(3)), want.dirichlet(np.ones(3)))
            gen.random(dtype=np.float32)  # leaves a uint32 buffered again

    def test_children_are_the_children(self):
        rng = RngStream(5, 1)
        got = [gen.standard_normal(3) for gen in rng.children(range(6))]
        for i, draws in enumerate(got):
            assert np.array_equal(draws, rng.child(i).standard_normal(3))

    def test_child_generators_are_independent_objects(self):
        # mc threads each hold one child at a time
        rng = RngStream(5, 1)
        a, b = rng.child(0), rng.child(1)
        x = a.standard_normal(2)
        b.standard_normal(5)
        assert np.array_equal(np.concatenate([x, a.standard_normal(2)]),
                              rng.child(0).standard_normal(4))
