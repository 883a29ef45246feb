"""Keyed random stream derivation.

Every random draw in a run descends from one master seed through
``stream(master_seed, purpose, *key)``.  Streams are keyed, not shared:
two call sites with different (purpose, key) tuples never see correlated
bits, and the draw made by agent k at round t does not depend on how many
draws other agents made or in what order agents ran.  That property is
what makes runs byte-identical regardless of evaluation order.

A stream's bits are those of numpy's ``default_rng(SeedSequence(
entropy=master_seed, spawn_key=(crc32(purpose), *key)))``.  SeedSequence
(O'Neill's ``seed_seq`` design, the seeding of PCG) hashes its entropy
words into a four-word pool, one word after another, then hashes the pool
into the generator's seed words.  numpy mixes the (seed, purpose) words: a
``SeedSequence`` built once per (seed, purpose) pair, whose pool is cached.
This module mixes only the key words.  SeedSequence's hash constants do not
depend on the data, so the key words of many streams are mixed into an
``(N, 4)`` pool with a few uint32 ufuncs.  A key part may be an integer
array; ``stream`` then derives every element's stream in one pass and
returns one generator per element.  An array holding a value of 2**32 or
more derives its elements one at a time, because such a value takes two
words.  ``tests/test_rng.py`` pins the bits to SeedSequence's.

The generators carry a seed object that cannot spawn, so
``Generator.spawn`` raises ``TypeError``; derive a stream under a new key
instead.
"""

from __future__ import annotations

import functools
import itertools
import operator
import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
# SeedSequence's pool size and hash constants (numpy.random.bit_generator).
_POOL_WORDS = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
# PCG64 asks for four uint64 seed words: eight uint32 hashes that cycle
# through the pool twice.
_STATE_CYCLE = np.tile(np.arange(_POOL_WORDS), 2)


@functools.lru_cache(maxsize=None)
def _multipliers(init: int, mult: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, mul) of hash steps ``first`` .. ``first + count - 1``: step i
    xors with init * mult**i mod 2**32 and multiplies by the next power."""
    mults = [init * pow(mult, first + i, 1 << 32) & _MASK32 for i in range(count + 1)]
    consts = np.array(mults[:-1], dtype=np.uint32), np.array(mults[1:], dtype=np.uint32)
    for arr in consts:
        arr.setflags(write=False)  # cached and shared by every call
    return consts


# The output hash: step i hashes pool word i mod 4.
_STATE_XOR, _STATE_MUL = _multipliers(_INIT_B, _MULT_B, 0, len(_STATE_CYCLE))
_U32_MIX_L, _U32_MIX_R, _U32_SHIFT = np.array([_MIX_MULT_L, _MIX_MULT_R, _XSHIFT],
                                              dtype=np.uint32)


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of a nonnegative int (0 -> [0])."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@functools.lru_cache(maxsize=256)
def _prefix_pool(master_seed: int, purpose: str) -> tuple[np.ndarray, int]:
    """SeedSequence's pool after the (seed, purpose) words, and their count.

    SeedSequence zero-pads the seed's words to the pool size before it
    appends the spawn key, whose first word is the purpose id.  There are
    always more than four words, so key words only take the per-word
    branch of the mix.
    """
    # crc32 is stable across platforms and Python versions.
    purpose_id = zlib.crc32(purpose.encode("utf-8"))
    pool = np.random.SeedSequence(master_seed, spawn_key=(purpose_id,)).pool
    pool.setflags(write=False)  # cached and shared by every call
    return pool, max(_POOL_WORDS, len(_words(master_seed))) + 1


def _seed_words(pool: np.ndarray, position: int, columns) -> np.ndarray:
    """Mix key-word columns into a prefix pool; PCG64's seed words per row.

    Each column is a word every row shares (an int) or a uint32 array of
    one word per row, with a trailing axis of length 1; the array columns
    broadcast together, and their rows are taken in C order.  Columns are
    mixed in order from entropy word ``position`` on.  Returns (n, 4)
    uint64, with n = 1 when no column is an array: what ``SeedSequence.
    generate_state(4, np.uint64)`` returns for each row's entropy.
    """
    for offset, col in enumerate(columns):
        # SeedSequence spends 16 hash steps on the first four words, then
        # four per later word p, one per pool word: steps 4p .. 4p+3.
        xor, mul = _multipliers(_INIT_A, _MULT_A, _POOL_WORDS * (position + offset), _POOL_WORDS)
        h = col ^ xor
        h *= mul
        h ^= h >> _U32_SHIFT
        h *= _U32_MIX_R
        pool = _U32_MIX_L * pool - h
        pool ^= pool >> _U32_SHIFT
    state = pool.take(_STATE_CYCLE, axis=-1).reshape(-1, len(_STATE_CYCLE))
    state ^= _STATE_XOR
    state *= _STATE_MUL
    state ^= state >> _U32_SHIFT
    # SeedSequence pairs the uint32 words little-endian first.
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """PCG64's four seed words for one derived stream.

    numpy's documented extension point for seeding a bit generator: PCG64
    asks it for ``generate_state(4, np.uint64)``, so no SeedSequence is
    built per stream.  It cannot spawn.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("a derived stream holds exactly PCG64's four uint64 seed words")
        return self._words


def _index(value) -> int:
    """A nonnegative Python int; floats, strings and the like are refused."""
    try:
        n = operator.index(value)
    except TypeError:
        raise TypeError(f"stream seeds and keys must be integers, got {value!r}") from None
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    return n


def _key_part(part):
    """A key part as a nonnegative int, or as an integer array of ndim >= 1."""
    if not isinstance(part, np.ndarray) or part.ndim == 0:
        return _index(part)
    if part.dtype.kind not in "iu":
        raise TypeError(f"stream key arrays must have an integer dtype, got {part.dtype}")
    if part.dtype.kind == "i" and part.size and part.min() < 0:
        raise ValueError(f"expected nonnegative integers, got {part.min()}")
    return part


def stream(
    master_seed: int, purpose: str, *key
) -> np.random.Generator | list[np.random.Generator]:
    """Fresh generators for the given (purpose, key) slots.

    With integer key parts, returns one generator; calling twice with
    identical arguments yields identical generators.  Key parts may also
    be integer arrays, broadcast together: the result is then a list of
    generators in C order, element i bit for bit
    ``stream(master_seed, purpose, *key_i)``.  Floats and strings are
    refused with ``TypeError``, negative values with ``ValueError``.
    """
    pool, position = _prefix_pool(_index(master_seed), purpose)
    parts = [_key_part(k) for k in key]
    arrays = [p for p in parts if isinstance(p, np.ndarray)]
    if any(a.size and a.max() > _MASK32 for a in arrays):
        # A value of 2**32 or more takes two words, so rows would differ in
        # word count; each row is derived on its own.
        shape = np.broadcast(*arrays).shape
        rows = zip(*(np.broadcast_to(p, shape).flat if isinstance(p, np.ndarray)
                     else itertools.repeat(p) for p in parts))
        return [stream(master_seed, purpose, *row) for row in rows]
    columns = []
    for p in parts:
        if isinstance(p, np.ndarray):
            columns.append(p.astype(np.uint32)[..., None])
        else:
            columns += _words(p)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    generators = [generator(pcg64(_SeedWords(words)))
                  for words in _seed_words(pool, position, columns)]
    return generators if arrays else generators[0]


def agent_round_streams(
    master_seed: int, purpose: str, k: int, t: int
) -> list[np.random.Generator]:
    """One independent stream per agent for round t."""
    return stream(master_seed, purpose, np.arange(k), t)
