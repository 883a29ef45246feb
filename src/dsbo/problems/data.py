"""Dataset ingestion helpers: LIBSVM parsing, sharding, train/val split."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DataFormatError


def parse_libsvm(stream) -> list[tuple[int, dict[int, float]]]:
    """Parse LIBSVM-format text into (binary label, sparse feature map) pairs.

    ``stream`` is an iterable of lines (an open file works).  Labels at or
    below zero map to 0; everything else maps to 1.  Feature indices are
    1-based and must strictly increase within a line.  Blank lines are
    skipped.
    """
    if isinstance(stream, str):
        stream = stream.splitlines(keepends=True)
    records = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label_value = float(tokens[0])
        except ValueError:
            raise DataFormatError(f"label {tokens[0]!r} is not numeric", line=lineno) from None
        label = 0 if label_value <= 0 else 1
        features: dict[int, float] = {}
        prev_index = 0
        for token in tokens[1:]:
            index_str, sep, value_str = token.partition(":")
            if not sep:
                raise DataFormatError(f"malformed token {token!r}", line=lineno)
            try:
                index = int(index_str)
                value = float(value_str)
            except ValueError:
                raise DataFormatError(f"malformed token {token!r}", line=lineno) from None
            if index < 1:
                raise DataFormatError(f"feature index {index} is not 1-based", line=lineno)
            if index <= prev_index:
                raise DataFormatError(
                    f"feature indices not strictly increasing at {token!r}", line=lineno
                )
            prev_index = index
            features[index] = value
        records.append((label, features))
    return records


def densify(records) -> tuple[np.ndarray, np.ndarray]:
    """Expand sparse records to a dense (features, labels) array pair.

    The feature dimension is the maximum index seen.
    """
    if not records:
        raise ConfigError("cannot densify an empty record list")
    dim = max((max(feats) for _, feats in records if feats), default=0)
    features = np.zeros((len(records), dim))
    labels = np.zeros(len(records))
    for row, (label, feats) in enumerate(records):
        labels[row] = label
        for index, value in feats.items():
            features[row, index - 1] = value
    return features, labels


def split_partition(dataset, k: int, seed: int) -> list[list]:
    """Shuffle deterministically, then cut into k contiguous shards.

    Shard sizes differ by at most one; the remainder goes to the first
    shards (10 items over 3 agents -> sizes 4, 3, 3).
    """
    items = list(dataset)
    if k < 1:
        raise ConfigError(f"agent count must be positive, got {k}")
    if k > len(items):
        raise ConfigError(f"cannot split {len(items)} items across {k} agents")
    order = np.random.default_rng(seed).permutation(len(items))
    shuffled = [items[i] for i in order]
    base, extra = divmod(len(items), k)
    shards = []
    start = 0
    for agent in range(k):
        size = base + (1 if agent < extra else 0)
        shards.append(shuffled[start : start + size])
        start += size
    return shards


def train_val_split(dataset, seed: int, fraction: float = 0.5) -> tuple[list, list]:
    """Deterministic shuffle then split; ``fraction`` is the training share."""
    if not (0.0 < fraction < 1.0):
        raise ConfigError(f"training fraction must be in (0, 1), got {fraction!r}")
    items = list(dataset)
    order = np.random.default_rng(seed).permutation(len(items))
    cut = int(round(len(items) * fraction))
    cut = min(max(cut, 1), len(items) - 1)
    train = [items[i] for i in order[:cut]]
    val = [items[i] for i in order[cut:]]
    return train, val
