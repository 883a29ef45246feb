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
words into a four-word pool, then hashes the pool into the generator's
seed words.  Its hash constants do not depend on the data, so this module
reimplements the mix over arrays: the (seed, purpose) words are mixed
once in Python ints and cached, and each key word is mixed into an
``(N, 4)`` pool with a few uint32 ufuncs.  A key part may be an integer
array; ``stream`` then derives every element's stream in one pass and
returns one generator per element.  ``tests/test_rng.py`` pins the bits
to SeedSequence's.

The generators carry a seed object that cannot spawn, so
``Generator.spawn`` raises ``TypeError``; derive a stream under a new key
instead.
"""

from __future__ import annotations

import functools
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


def _multiplier(init: int, mult: int, steps: int) -> int:
    """A hash multiplier after ``steps`` steps: init * mult**steps mod 2**32."""
    return init * pow(mult, steps, 1 << 32) & _MASK32


def _hash(value: int, xor: int, mul: int) -> int:
    """One hash step of SeedSequence's entropy mix."""
    h = (value ^ xor) * mul & _MASK32
    return h ^ (h >> _XSHIFT)


def _hashmix(value: int, step: int) -> int:
    """Hash step ``step``: it xors with the multiplier after ``step`` steps
    and multiplies by the next one."""
    xor = _multiplier(_INIT_A, _MULT_A, step)
    return _hash(value, xor, xor * _MULT_A & _MASK32)


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> _XSHIFT)


def _u32(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)


# The output hash: step i xors pool word i mod 4 with the multiplier after
# i steps and multiplies it by the next one.
_STATE_XOR = _u32([_multiplier(_INIT_B, _MULT_B, i) for i in range(len(_STATE_CYCLE))])
_STATE_MUL = _u32([_multiplier(_INIT_B, _MULT_B, i + 1) for i in range(len(_STATE_CYCLE))])
_U32_MIX_L, _U32_MIX_R, _U32_SHIFT = _u32([_MIX_MULT_L, _MIX_MULT_R, _XSHIFT])


@functools.lru_cache(maxsize=None)
def _word_multipliers(position: int) -> tuple[int, ...]:
    """The multipliers that hash entropy word ``position``.

    SeedSequence spends 16 hash steps on the first four words, then four
    per later word, one per pool word: steps 4p .. 4p+3 for word p >= 4.
    Step 4p + i xors with element i and multiplies by element i + 1.
    """
    first = _POOL_WORDS * position
    return tuple(_multiplier(_INIT_A, _MULT_A, first + i) for i in range(_POOL_WORDS + 1))


@functools.lru_cache(maxsize=None)
def _word_consts(position: int) -> tuple[np.ndarray, np.ndarray]:
    mults = _word_multipliers(position)
    consts = _u32(mults[:-1]), _u32(mults[1:])
    for arr in consts:
        arr.setflags(write=False)  # cached and shared by every call
    return consts


def _purpose_id(purpose: str) -> int:
    # crc32 is stable across platforms and Python versions.
    return zlib.crc32(purpose.encode("utf-8"))


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of a nonnegative int (0 -> [0])."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _mix_word(pool: list[int], word: int, position: int) -> None:
    """Mix entropy word ``position`` (>= 4) into a pool of Python ints."""
    mults = _word_multipliers(position)
    for dst in range(_POOL_WORDS):
        pool[dst] = _mix(pool[dst], _hash(word, mults[dst], mults[dst + 1]))


@functools.lru_cache(maxsize=256)
def _prefix_pool(master_seed: int, purpose: str) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool after the (seed, purpose) words, and their count.

    SeedSequence zero-pads the seed's words to the pool size before it
    appends the spawn key, whose first word is the purpose id.  There are
    always more than four words, so key words only take the per-word
    branch of the mix.
    """
    entropy = _words(master_seed)
    entropy += [0] * (_POOL_WORDS - len(entropy))
    entropy += _words(_purpose_id(purpose))
    pool = [_hashmix(entropy[i], i) for i in range(_POOL_WORDS)]
    step = _POOL_WORDS
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], step))
                step += 1
    for position in range(_POOL_WORDS, len(entropy)):
        _mix_word(pool, entropy[position], position)
    return tuple(pool), len(entropy)


def _seed_words(prefix: tuple[int, ...], position: int, columns, n: int) -> np.ndarray:
    """Mix key-word columns into a prefix pool; PCG64's seed words per row.

    Each column is a word every row shares (an int) or one word per row
    (uint32, shape (n, 1)); they are mixed in order from entropy word
    ``position`` on.  Returns (n, 4) uint64: what ``SeedSequence.
    generate_state(4, np.uint64)`` returns for each row's entropy.
    """
    # Shared words ahead of the first per-row column mix in Python ints.
    pool = list(prefix)
    lead = 0
    while lead < len(columns) and isinstance(columns[lead], int):
        _mix_word(pool, columns[lead], position + lead)
        lead += 1
    pool = _u32(pool)
    for offset in range(lead, len(columns)):
        col = columns[offset]
        if isinstance(col, int):
            mults = _word_multipliers(position + offset)
            h = _u32([_hash(col, mults[dst], mults[dst + 1]) * _MIX_MULT_R & _MASK32
                      for dst in range(_POOL_WORDS)])
        else:
            xor, mul = _word_consts(position + offset)
            h = col ^ xor
            h *= mul
            h ^= h >> _U32_SHIFT
            h *= _U32_MIX_R
        pool = _U32_MIX_L * pool - h
        pool ^= pool >> _U32_SHIFT
    state = pool.take(_STATE_CYCLE, axis=-1).reshape(n, len(_STATE_CYCLE))
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


def _generators(seed_words: np.ndarray) -> list[np.random.Generator]:
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return [generator(pcg64(_SeedWords(words))) for words in seed_words]


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
    if not arrays:
        columns = [word for p in parts for word in _words(p)]
        return _generators(_seed_words(pool, position, columns, 1))[0]

    broadcast = np.broadcast(*arrays)
    shape, n = broadcast.shape, broadcast.size
    flat = {
        j: (p if p.shape == shape else np.broadcast_to(p, shape)).reshape(n, 1)
        for j, p in enumerate(parts) if isinstance(p, np.ndarray)
    }
    shared = {j: _words(p) for j, p in enumerate(parts) if j not in flat}

    def derive(rows, count: int, wide: int):
        # ``wide`` has bit j set when part j takes two uint32 words in rows.
        columns = []
        for j in range(len(parts)):
            if j in shared:
                columns += shared[j]
                continue
            values = flat[j][rows]
            columns.append(values.astype(np.uint32))
            if wide >> j & 1:
                columns.append((values.astype(np.uint64) >> np.uint64(32)).astype(np.uint32))
        return _generators(_seed_words(pool, position, columns, count))

    if n == 0 or all(a.max() <= _MASK32 for a in arrays):
        return derive(slice(None), n, 0)
    # Values of 2**32 or more take two words, so rows differ in word count;
    # rows with the same layout are derived together.
    layout = sum((flat[j][:, 0] > _MASK32).astype(np.int64) << j for j in flat)
    out = [None] * n
    for wide in np.unique(layout):
        rows = np.flatnonzero(layout == wide)
        for r, gen in zip(rows, derive(rows, rows.size, int(wide))):
            out[r] = gen
    return out


def agent_round_streams(
    master_seed: int, purpose: str, k: int, t: int
) -> list[np.random.Generator]:
    """One independent stream per agent for round t."""
    return stream(master_seed, purpose, np.arange(k), t)
