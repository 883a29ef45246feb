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

# Purpose tags are hashed to ints so SeedSequence can absorb them.
# crc32 is stable across platforms and Python versions.


def _purpose_id(purpose: str) -> int:
    return zlib.crc32(purpose.encode("utf-8"))


def stream(master_seed: int, purpose: str, *key: int) -> np.random.Generator:
    """Return a fresh generator for the given (purpose, key) slot.

    Calling twice with identical arguments yields identical generators.
    """
    ss = np.random.SeedSequence(
        entropy=int(master_seed), spawn_key=(_purpose_id(purpose), *map(int, key))
    )
    return np.random.default_rng(ss)


def agent_round_streams(
    master_seed: int, purpose: str, k: int, t: int
) -> list[np.random.Generator]:
    """One independent stream per agent for round t."""
    return [stream(master_seed, purpose, agent, t) for agent in range(k)]
