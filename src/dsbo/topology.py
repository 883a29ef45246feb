"""Gossip mixing matrices: construction, validation, spectral gap.

A mixing matrix W is symmetric and doubly stochastic; one gossip step
replaces each agent's value with a W-weighted sum of its neighbors'.
The contraction rate of the consensus error is governed by

    rho = ||W - (1/K) 11^T||_2^2,

the squared second-largest eigenvalue magnitude.  rho = 0 means one
gossip step reaches exact consensus (complete graph); rho = 1 means no
mixing at all (disconnected, e.g. the identity).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedTopologyError,
    NegativeEntryError,
    NotDoublyStochasticError,
    NotSymmetricError,
    NumericsError,
    TopologyError,
)

# Validation tolerance for file-loaded matrices; constructed matrices are
# exact to machine precision and pass a far tighter bound.
_SUM_TOL = 1e-9

_POWER_ITER_CAP = 10_000


@dataclass(frozen=True)
class MixingMatrix:
    """Validated gossip matrix with its cached spectral quantity."""

    k: int
    weights: np.ndarray
    rho: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)


def _validate(w: np.ndarray) -> None:
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise TopologyError(f"mixing matrix must be square, got shape {w.shape}")
    if np.any(w < 0):
        i, j = np.argwhere(w < 0)[0]
        raise NegativeEntryError(f"negative weight {w[i, j]!r} at ({i}, {j})")
    if not np.array_equal(w, w.T):
        raise NotSymmetricError("mixing matrix is not symmetric")
    row_err = np.abs(w.sum(axis=1) - 1.0).max()
    col_err = np.abs(w.sum(axis=0) - 1.0).max()
    if row_err > _SUM_TOL or col_err > _SUM_TOL:
        raise NotDoublyStochasticError(
            f"row/column sums deviate from 1 by {max(row_err, col_err):.3e}"
        )


def build_ring(k: int) -> MixingMatrix:
    """Ring topology: weight 1/3 on self and each of the two ring neighbors.

    For k=3 the two neighbors of every agent are everyone else, so the ring
    coincides with the complete graph and rho = 0.
    """
    if k < 3:
        raise TopologyError(f"ring topology needs k >= 3, got {k}")
    w = np.zeros((k, k))
    idx = np.arange(k)
    w[idx, idx] = 1.0 / 3.0
    w[idx, (idx + 1) % k] = 1.0 / 3.0
    w[idx, (idx - 1) % k] = 1.0 / 3.0
    _validate(w)
    return MixingMatrix(k=k, weights=w, rho=spectral_gap(w))


def build_complete(k: int) -> MixingMatrix:
    """Complete graph: every entry 1/K, rho = 0."""
    if k < 1:
        raise TopologyError(f"agent count must be positive, got {k}")
    w = np.full((k, k), 1.0 / k)
    return MixingMatrix(k=k, weights=w, rho=spectral_gap(w))


def build_custom(weights, require_connected: bool = False) -> MixingMatrix:
    """Validate and wrap a user-supplied matrix (e.g. loaded from JSON).

    With ``require_connected`` a non-contracting matrix (rho >= 1) is an
    error; otherwise it is accepted with a warning.
    """
    w = np.array(weights, dtype=float)
    _validate(w)
    rho = spectral_gap(w)
    if rho >= 1.0 - 1e-12:
        if require_connected:
            raise DisconnectedTopologyError(
                f"rho = {rho:.6f} >= 1: matrix does not mix but topology was "
                "declared connected"
            )
        warnings.warn(
            f"mixing matrix has rho = {rho:.6f} >= 1 (no contraction)",
            stacklevel=2,
        )
    return MixingMatrix(k=w.shape[0], weights=w, rho=rho)


def spectral_gap(weights) -> float:
    """Squared second-largest eigenvalue magnitude of a gossip matrix.

    Computed by power iteration on the deflated matrix W - (1/K) 11^T,
    which removes the eigenvalue 1 shared by all doubly-stochastic
    matrices. No dense eigensolver is used here; tests cross-check against
    one.
    """
    w = np.asarray(weights, dtype=float)
    k = w.shape[0]
    m = w - 1.0 / k
    # Deterministic start vector; any fixed seed works.
    v = np.random.default_rng(0xD5B0).standard_normal(k)
    norm = np.linalg.norm(v)
    v /= norm
    sigma_prev = -1.0
    stable = 0
    for it in range(_POWER_ITER_CAP):
        mv = m @ v
        sigma = float(np.linalg.norm(mv))
        if sigma < 1e-15:
            return 0.0
        v = mv / sigma
        if abs(sigma - sigma_prev) <= 1e-14 + 1e-13 * sigma:
            stable += 1
            if stable >= 3:
                return min(sigma * sigma, 1.0) if sigma <= 1.0 else sigma * sigma
        else:
            stable = 0
        sigma_prev = sigma
    raise NumericsError(
        f"power iteration did not converge in {_POWER_ITER_CAP} steps "
        f"(last sigma = {sigma_prev:.12e}, k = {k})"
    )


def gossip_mix(values: np.ndarray, w: MixingMatrix | np.ndarray) -> np.ndarray:
    """One gossip step: output[k] = sum_j w[k, j] * values[j].

    ``values`` is stacked with a leading agent axis.  The step is one
    matrix product over the flattened trailing axes: the same product a
    tensor contraction over the agent axis forms, bit for bit, without its
    per-call overhead.  Preserves the network average because W is doubly
    stochastic.
    """
    mat = w.weights if isinstance(w, MixingMatrix) else np.asarray(w, dtype=float)
    k = values.shape[0]
    if k != mat.shape[1]:
        raise ValueError(f"got {k} agent values for a {mat.shape[0]}-agent matrix")
    return np.dot(mat, values.reshape(k, -1)).reshape(values.shape)
