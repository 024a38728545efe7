"""Substream keys: RngStream derives numpy's SeedSequence keys itself.

Substream i of RngStream(seed, stream) must stay the Philox stream keyed by
np.random.SeedSequence(seed, spawn_key=(stream, i)), since every recorded
certificate, fig1 scatter and mc chunk depends on it.
"""

import numpy as np
import pytest

from qentropy import RngStream


def seed_sequence_key(seed, stream, index):
    return np.random.SeedSequence(seed, spawn_key=(stream, index)).generate_state(2, np.uint64)


def seed_sequence_generator(seed, stream, index):
    ss = np.random.SeedSequence(seed, spawn_key=(stream, index))
    return np.random.Generator(np.random.Philox(ss))


def random_triples(count):
    gen = np.random.default_rng(2024)
    for _ in range(count):
        # magnitudes from 0 to about 2^200: one to seven uint32 words
        seed, stream, index = (int(gen.integers(0, 2**62)) >> int(gen.integers(0, 63))
                               << int(gen.integers(0, 140)) for _ in range(3))
        yield seed, stream, index


EDGE_TRIPLES = [
    (0, 0, 0),
    (0, 3, 0),
    (0, 1, 2**32),
    (2**32, 5, 7),
    (2**32 - 1, 2**32 - 1, 2**32 - 1),
    (2**64 + 3, 2, 2**40 + 11),
    (2**128 + 1, 0, 6 * 1_000_003 + 499),  # a seed longer than the pool
]


class TestKeys:
    @pytest.mark.parametrize("seed,stream,index", EDGE_TRIPLES)
    def test_edge_triples_match_seed_sequence(self, seed, stream, index):
        key = np.array(RngStream(seed, stream).key(index), dtype=np.uint64)
        assert np.array_equal(key, seed_sequence_key(seed, stream, index))

    def test_random_triples_match_seed_sequence(self):
        for seed, stream, index in random_triples(2000):
            key = np.array(RngStream(seed, stream).key(index), dtype=np.uint64)
            assert np.array_equal(key, seed_sequence_key(seed, stream, index)), \
                (seed, stream, index)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1).key(0)


class TestSubstreams:
    @pytest.mark.parametrize("seed,stream,index", EDGE_TRIPLES[:4])
    def test_child_draws_match_seed_sequence(self, seed, stream, index):
        ours = RngStream(seed, stream).child(index)
        theirs = seed_sequence_generator(seed, stream, index)
        assert np.array_equal(ours.standard_normal(9), theirs.standard_normal(9))
        assert np.array_equal(ours.integers(0, 2**32, 5, dtype=np.uint32),
                              theirs.integers(0, 2**32, 5, dtype=np.uint32))

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
