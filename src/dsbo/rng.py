"""Counter-based random stream derivation.

Every random draw in a run descends from one master seed through
``stream(master_seed, purpose, *key)``.  Streams are keyed, not shared:
two call sites with different (purpose, key) tuples never see correlated
bits, and the draw made by agent k at round t does not depend on how many
draws other agents made or in what order agents ran.  That property is
what makes runs byte-identical regardless of evaluation order.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK32 = 0xFFFFFFFF
# SeedSequence zero-pads the run entropy to its pool size before appending
# a spawn key; ``stream`` assembles the same array itself.
_POOL_WORDS = 4


def _purpose_id(purpose: str) -> int:
    # crc32 is stable across platforms and Python versions.
    return zlib.crc32(purpose.encode("utf-8"))


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of a nonnegative int (0 -> [0])."""
    n = int(n)
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def stream(master_seed: int, purpose: str, *key: int) -> np.random.Generator:
    """Return a fresh generator for the given (purpose, key) slot.

    Calling twice with identical arguments yields identical generators.
    The bits are those of ``np.random.default_rng(SeedSequence(
    entropy=master_seed, spawn_key=(crc32(purpose), *key)))``: the entropy
    array that SeedSequence would assemble from those arguments is built
    here directly, which skips its per-call argument coercion.
    """
    entropy = _words(master_seed)
    entropy += [0] * (_POOL_WORDS - len(entropy))
    entropy += _words(_purpose_id(purpose))
    for k in key:
        entropy += _words(k)
    seq = np.random.SeedSequence(np.array(entropy, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))


def agent_round_streams(
    master_seed: int, purpose: str, k: int, t: int
) -> list[np.random.Generator]:
    """One independent stream per agent for round t."""
    return [stream(master_seed, purpose, agent, t) for agent in range(k)]
