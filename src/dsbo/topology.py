"""Gossip mixing matrices: construction, validation, spectral gap.

A mixing matrix W is symmetric and doubly stochastic; one gossip step
replaces each agent's value with a W-weighted sum of its neighbors'.
``gossip_mix`` is the library's only product with W.
The contraction rate of the consensus error is governed by

    rho = ||W - (1/K) 11^T||_2^2,

the squared second-largest eigenvalue magnitude.  rho = 0 means one
gossip step reaches exact consensus (complete graph); rho = 1 means no
mixing at all (disconnected, e.g. the identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DisconnectedTopologyError,
    NegativeEntryError,
    NotDoublyStochasticError,
    NotSymmetricError,
    TopologyError,
)

# Validation tolerance for file-loaded matrices; constructed matrices are
# exact to machine precision and pass a far tighter bound.
_SUM_TOL = 1e-9
# gossip_mix mixes this many columns per matrix product.  A last block
# narrower than _MIN_COLUMNS joins the one before it: a one-column product
# is a matrix-vector product and rounds differently.
_BLOCK_COLUMNS = 4096
_MIN_COLUMNS = 64


@dataclass(frozen=True)
class MixingMatrix:
    """Validated, read-only gossip matrix with its contraction factor.

    ``MixingMatrix(weights)`` copies the weights, checks that they are
    square, nonnegative, symmetric and doubly stochastic, and sets
    ``rho = spectral_gap(weights)``.
    """

    weights: np.ndarray
    rho: float = field(init=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        _validate(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rho", spectral_gap(w))

    @property
    def k(self) -> int:
        return self.weights.shape[0]


def _validate(w: np.ndarray) -> None:
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
        raise TopologyError(f"mixing matrix must be square and nonempty, got shape {w.shape}")
    if np.any(w < 0):
        i, j = np.argwhere(w < 0)[0]
        raise NegativeEntryError(f"negative weight {w[i, j]!r} at ({i}, {j})")
    _require_symmetric(w)
    row_err = np.abs(w.sum(axis=1) - 1.0).max()
    col_err = np.abs(w.sum(axis=0) - 1.0).max()
    if row_err > _SUM_TOL or col_err > _SUM_TOL:
        raise NotDoublyStochasticError(
            f"row/column sums deviate from 1 by {max(row_err, col_err):.3e}"
        )


def _require_symmetric(w: np.ndarray) -> None:
    if not np.array_equal(w, w.T):
        raise NotSymmetricError("mixing matrix is not symmetric")


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
    return MixingMatrix(w)


def build_complete(k: int) -> MixingMatrix:
    """Complete graph: every entry 1/K, rho = 0."""
    if k < 1:
        raise TopologyError(f"agent count must be positive, got {k}")
    return MixingMatrix(np.full((k, k), 1.0 / k))


def build_custom(weights) -> MixingMatrix:
    """Validate and wrap a user-supplied matrix (e.g. loaded from a file).

    A non-contracting matrix (rho >= 1) does not mix and is an error.
    """
    w = MixingMatrix(weights)
    if w.rho >= 1.0 - 1e-12:
        raise DisconnectedTopologyError(f"rho = {w.rho:.6f} >= 1: the matrix does not mix")
    return w


def spectral_gap(weights) -> float:
    """rho = max |eig(W - (1/K) 11^T)|^2 of a symmetric gossip matrix.

    Deflating by (1/K) 11^T removes the eigenvalue 1 that every doubly
    stochastic matrix shares; one symmetric eigensolve gives the rest.
    A nonsymmetric input raises ``NotSymmetricError``: the eigensolve
    reads only one triangle and would return a wrong rho.
    """
    w = np.asarray(weights, dtype=float)
    _require_symmetric(w)
    return float(np.abs(np.linalg.eigvalsh(w - 1.0 / w.shape[0])).max() ** 2)


def gossip_mix(values: np.ndarray, w: MixingMatrix, scale: float = 1.0,
               out: np.ndarray | None = None) -> np.ndarray:
    """One gossip step, scaled: out[k] = scale * sum_j w[k, j] * values[j].

    The (K, -1) view of ``values`` is mixed in blocks of _BLOCK_COLUMNS
    columns, each scaled as it is written, into a new float64 array or
    into ``out``: a writeable, C-contiguous float64 array of ``values``'
    shape, which may be ``values`` itself, since it is written through one
    (K, block) scratch.  Preserves the network average when ``scale`` is
    1, because W is doubly stochastic.
    """
    k = values.shape[0]
    if k != w.k:
        raise ValueError(f"got {k} agent values for a {w.k}-agent matrix")
    flat = values.reshape(k, -1)
    n = flat.shape[1]
    scratch = None
    if out is None:
        out = np.empty(values.shape)
    elif (out.shape == values.shape and out.dtype == np.float64 and out.flags.c_contiguous
          and out.flags.writeable):
        scratch = np.empty((k, min(n, _BLOCK_COLUMNS + _MIN_COLUMNS - 1)))
    else:
        raise ValueError("gossip_mix writes out in place: it must be a writeable, "
                         "C-contiguous float64 array of the values' shape")
    dest = out.reshape(k, -1)
    lo = 0
    while lo < n:
        hi = n if n - lo < _BLOCK_COLUMNS + _MIN_COLUMNS else lo + _BLOCK_COLUMNS
        block = dest[:, lo:hi]
        mixed = np.matmul(w.weights, flat[:, lo:hi],
                          out=block if scratch is None else scratch[:, :hi - lo])
        if mixed is not block or scale != 1.0:
            np.multiply(mixed, scale, out=block)
        lo = hi
    return out
