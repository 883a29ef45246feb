"""Keyed random streams: reproducibility and independence."""

import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dsbo import agent_round_streams, stream
from dsbo.rng import _prefix_pool


class TestStream:
    def test_same_key_same_bits(self):
        a = stream(42, "sampling", 3, 17).standard_normal(32)
        b = stream(42, "sampling", 3, 17).standard_normal(32)
        assert np.array_equal(a, b)

    def test_different_seed_different_bits(self):
        a = stream(42, "sampling", 0, 0).standard_normal(32)
        b = stream(43, "sampling", 0, 0).standard_normal(32)
        assert not np.array_equal(a, b)

    def test_different_purpose_different_bits(self):
        a = stream(42, "sampling", 0, 0).standard_normal(32)
        b = stream(42, "validation", 0, 0).standard_normal(32)
        assert not np.array_equal(a, b)

    def test_different_key_different_bits(self):
        a = stream(42, "sampling", 0, 0).standard_normal(32)
        b = stream(42, "sampling", 0, 1).standard_normal(32)
        c = stream(42, "sampling", 1, 0).standard_normal(32)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(b, c)

    def test_key_arity_matters(self):
        a = stream(42, "sampling", 0).standard_normal(8)
        b = stream(42, "sampling", 0, 0).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_draw_order_between_streams_irrelevant(self):
        # consuming one stream never advances another
        s1 = stream(7, "a", 0)
        s2 = stream(7, "a", 1)
        s1.standard_normal(1000)
        lazy = s2.standard_normal(4)
        eager = stream(7, "a", 1).standard_normal(4)
        assert np.array_equal(lazy, eager)

    def test_returns_numpy_generator(self):
        assert isinstance(stream(0, "x"), np.random.Generator)

    @given(st.integers(0, 2**31), st.sampled_from(["a", "b", "round"]),
           st.integers(0, 50), st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_reproducible_property(self, seed, purpose, k1, k2):
        a = stream(seed, purpose, k1, k2).integers(0, 2**63, size=4)
        b = stream(seed, purpose, k1, k2).integers(0, 2**63, size=4)
        assert np.array_equal(a, b)


class TestAgentRoundStreams:
    def test_length_and_distinctness(self):
        streams = agent_round_streams(11, "oracle", 4, 9)
        assert len(streams) == 4
        draws = [s.standard_normal(8) for s in streams]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_matches_stream_directly(self):
        batch = agent_round_streams(11, "oracle", 3, 5)
        for agent, s in enumerate(batch):
            direct = stream(11, "oracle", agent, 5).standard_normal(6)
            assert np.array_equal(s.standard_normal(6), direct)

    def test_cross_correlation_negligible(self):
        # crude independence check: correlation across 4096 draws is noise
        a = stream(5, "x", 0).standard_normal(4096)
        b = stream(5, "x", 1).standard_normal(4096)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 0.08


def test_spawn_key_based_not_state_based():
    # derivation must not mutate shared state: interleaved creation of
    # many streams leaves each one's bits unchanged
    ref = {k: stream(3, "p", k).standard_normal(3) for k in range(10)}
    shuffled = [7, 2, 9, 0, 5, 1, 8, 3, 6, 4]
    for k in shuffled:
        assert np.array_equal(stream(3, "p", k).standard_normal(3), ref[k])


def test_seed_must_be_int_like():
    with pytest.raises((TypeError, ValueError)):
        stream("not-a-seed", "p")  # type: ignore[arg-type]


# Seeds and keys at the uint32 word boundaries and past 64 bits.
PIN_VALUES = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)


@pytest.mark.parametrize("seed", PIN_VALUES)
@pytest.mark.parametrize("arity", range(4))
def test_pinned_to_seed_sequence_derivation(seed, arity):
    # stream() assembles SeedSequence's entropy array itself; its bits must
    # stay those of the SeedSequence(entropy, spawn_key) construction
    for key in itertools.product(PIN_VALUES, repeat=arity):
        want = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(zlib.crc32(b"oracle"), *key)))
        got = stream(seed, "oracle", *key)
        assert got.bit_generator.state == want.bit_generator.state, (seed, key)
        assert np.array_equal(got.integers(0, 2**63, 8), want.integers(0, 2**63, 8))


def test_negative_seed_or_key_raises():
    with pytest.raises(ValueError):
        stream(-1, "p")
    with pytest.raises(ValueError):
        stream(0, "p", 3, -2)


def _seed_sequence_state(seed, purpose, *key):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(purpose.encode()), *key))
    return np.random.default_rng(seq).bit_generator.state


@pytest.mark.parametrize("seed", PIN_VALUES)
def test_batched_pinned_to_seed_sequence_derivation(seed):
    # one call whose rows take 1, 2 and 3 uint32 words per key part: the
    # array parts mix one- and two-word values, the scalar part has three
    column = np.array([v for v in PIN_VALUES if v < 2**64], dtype=np.uint64)
    wide = PIN_VALUES[-1]
    got = stream(seed, "oracle", column[:, None], wide, column[None, :])
    assert len(got) == column.size**2
    for gen, (a, b) in zip(got, itertools.product(column.tolist(), repeat=2)):
        assert gen.bit_generator.state == _seed_sequence_state(seed, "oracle", a, wide, b), (a, b)


@pytest.mark.parametrize("seed", [2**128 + 7, 2**160 + 3])
def test_pinned_seeds_of_five_or_more_words(seed):
    # five and six seed words: the key words start past the four words that
    # SeedSequence pads a short seed to
    for key in ((), (3,), (2**40, 1)):
        assert stream(seed, "oracle", *key).bit_generator.state == (
            _seed_sequence_state(seed, "oracle", *key)), key
    batch = stream(seed, "oracle", np.arange(3), 9)
    assert len(batch) == 3
    for agent, gen in enumerate(batch):
        assert gen.bit_generator.state == _seed_sequence_state(seed, "oracle", agent, 9), agent


def test_streams_share_one_cached_prefix(monkeypatch):
    # one SeedSequence per stream costs several times the batched mix, so a
    # round builds at most one, for its (seed, purpose) prefix, and a later
    # round reuses it
    built = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    _prefix_pool.cache_clear()
    assert len(stream(17, "oracle", np.arange(20), 4)) == 20
    assert len(built) <= 1
    built.clear()
    assert len(stream(17, "oracle", np.arange(20), 5)) == 20
    assert built == []


_KEYS = st.integers(0, 2**64 - 1)


@st.composite
def _broadcast_keys(draw):
    """Two key parts, at least one an array; shapes broadcast, sides may be 0."""
    shapes = draw(hnp.mutually_broadcastable_shapes(
        num_shapes=2, min_dims=0, max_dims=2, min_side=0, max_side=3))
    parts = [draw(hnp.arrays(np.uint64, shape, elements=_KEYS)) for shape in shapes.input_shapes]
    if all(p.ndim == 0 for p in parts):
        parts[0] = parts[0][None]
    scalar = draw(st.sampled_from([None, 0, 1]))
    if scalar is not None and parts[1 - scalar].ndim:
        parts[scalar] = int(parts[scalar].ravel()[0]) if parts[scalar].size else 7
    return parts


@given(st.integers(0, 2**40), _broadcast_keys())
@settings(max_examples=40, deadline=None)
def test_batched_elements_match_scalar_calls(seed, parts):
    a, b = parts
    got = stream(seed, "p", a, b)
    flat_a, flat_b = (x.ravel().tolist() for x in np.broadcast_arrays(a, b))
    assert isinstance(got, list) and len(got) == len(flat_a)
    for gen, ka, kb in zip(got, flat_a, flat_b):
        assert gen.bit_generator.state == stream(seed, "p", ka, kb).bit_generator.state


def test_empty_array_key_gives_empty_list():
    assert stream(3, "p", np.arange(0), 5) == []
    assert stream(3, "p", np.zeros((2, 0), dtype=np.int64)) == []


@pytest.mark.parametrize("bad", [1.7, 2.0, "3", np.float64(1.0), np.array([1.0, 2.0]),
                                 np.array(["1"]), [0.5]])
def test_non_integer_key_raises_type_error(bad):
    with pytest.raises(TypeError):
        stream(0, "p", bad)
    with pytest.raises(TypeError):
        stream(0, "p", np.arange(3), bad)


@pytest.mark.parametrize("bad", [1.5, 2.9, "3", np.float64(2.0)])
def test_non_integer_seed_raises_type_error(bad):
    with pytest.raises(TypeError):
        stream(bad, "p", 1)


def test_numpy_integers_accepted():
    want = stream(4, "p", 2, 9).bit_generator.state
    assert stream(np.uint8(4), "p", np.int32(2), np.int64(9)).bit_generator.state == want
    assert stream(4, "p", np.array(2), 9).bit_generator.state == want
    assert stream(4, "p", np.array([2], dtype=np.uint16), 9)[0].bit_generator.state == want


def test_negative_array_key_raises():
    with pytest.raises(ValueError):
        stream(0, "p", np.array([3, -1]))


def test_derived_generators_cannot_spawn():
    with pytest.raises(TypeError):
        stream(0, "p", 1).spawn(2)
