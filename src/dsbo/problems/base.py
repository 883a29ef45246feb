"""Shared problem-family contracts.

A bilevel problem couples an outer objective f (averaged over agents)
with a strongly convex inner objective g whose minimizer y*(x) feeds
back into f.  Agents never see exact gradients; they query a sampling
oracle returning noisy draws of the five quantities the optimizer
consumes.  Exact evaluators exist only for metrics and tests.
"""

from __future__ import annotations

import abc
import operator
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class ProblemConstants:
    """Regularity constants a problem family declares about itself.

    ``kappa_g`` controls the spectral ball every inner-Hessian draw must
    stay inside: ||I - hyy/l_g||_2 <= 1 - kappa_g.  Families enforce the
    bound at construction time, so it may sit strictly below mu_g/l_g to
    leave headroom for Hessian noise.
    """

    d_x: int
    d_y: int
    mu_g: float
    l_g: float
    kappa_g: float
    sigma_f: float
    sigma_g: float

    def __post_init__(self):
        if self.d_x < 1 or self.d_y < 1:
            raise ConfigError(f"dimensions must be >= 1, got ({self.d_x}, {self.d_y})")
        for name in ("mu_g", "l_g", "kappa_g"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"constant {name} must be positive, got {getattr(self, name)!r}")
        if self.sigma_f < 0 or self.sigma_g < 0:
            raise ConfigError("noise levels must be nonnegative")
        if self.mu_g > self.l_g:
            raise ConfigError(
                f"mu_g = {self.mu_g!r} exceeds l_g = {self.l_g!r} (strong convexity "
                "modulus cannot exceed the smoothness bound)"
            )
        if not (0.0 < self.kappa_g <= self.mu_g / self.l_g + 1e-15):
            raise ConfigError(
                f"kappa_g = {self.kappa_g!r} outside (0, mu_g/l_g] = "
                f"(0, {self.mu_g / self.l_g!r}]"
            )

    @property
    def spectral_ball(self) -> tuple[float, float]:
        """The ball as an eigenvalue interval: (kappa_g l_g, (2 - kappa_g) l_g)."""
        return self.kappa_g * self.l_g, (2.0 - self.kappa_g) * self.l_g


class DeferredRows:
    """A read-only (R, ...) stack whose rows are built when read.

    ``build(r)`` returns row r as a fresh array of shape ``shape[1:]``;
    everything random about the row is fixed before the sequence is made,
    so a row reads the same whenever and however often it is built.  An
    int index builds one row, iteration builds them one at a time, and
    any other index or ``np.asarray`` stacks them all.  Nothing is cached:
    a reader that folds row by row holds one row at a time, and may write
    the row it was handed.
    """

    def __init__(self, shape: tuple, build: Callable[[int], np.ndarray]):
        self.shape = tuple(shape)
        self._build = build

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            r = operator.index(index)
            if not -len(self) <= r < len(self):
                raise IndexError(f"row {r} out of range for {len(self)} rows")
            return self._build(r % len(self))
        return np.asarray(self)[index]

    def __iter__(self):
        for r in range(len(self)):
            yield self._build(r)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("deferred rows are built on demand; stacking them copies")
        out = np.empty(self.shape)
        for r in range(len(self)):
            out[r] = self._build(r)
        return out if dtype is None else out.astype(dtype, copy=False)


@dataclass(frozen=True)
class StochasticSample:
    """Oracle draws stacked over rows: outer gradients, inner gradient,
    two inner Hessians.

    Row r of every field belongs to one draw.  ``hyy_g_draws[r]`` stacks
    b independent inner-Hessian draws, each symmetric and inside the
    declared spectral ball.  It is the largest field, b times the size of
    the others, so a family may return it as :class:`DeferredRows`: the
    randomness is drawn with the rest of the sample, and each (b, d_y,
    d_y) row is expanded only when a reader asks for it.  Readers index it
    by row, iterate it or call ``np.asarray``; they never write it.
    """

    gx_f: np.ndarray
    gy_f: np.ndarray
    gy_g: np.ndarray
    hxy_g: np.ndarray
    hyy_g_draws: np.ndarray | DeferredRows


class ExactGradients(NamedTuple):
    """Network-averaged exact quantities at a given (x, y)."""

    gx_f: np.ndarray
    gy_f: np.ndarray
    gy_g: np.ndarray
    hxy_g: np.ndarray
    hyy_g: np.ndarray


class BilevelProblem(abc.ABC):
    """Behavior contract every problem family implements."""

    k: int
    constants: ProblemConstants

    #: True when the family admits the compositional oracle (inner problem
    #: is a least-squares fit of an expectation), required by dsgd_run.
    compositional: bool = False

    @property
    def d_x(self) -> int:
        return self.constants.d_x

    @property
    def d_y(self) -> int:
        return self.constants.d_y

    @abc.abstractmethod
    def sample(self, agents, xs: np.ndarray, ys: np.ndarray, rngs, b: int = 1
               ) -> StochasticSample:
        """Draw one stochastic sample per row, stacked over R rows.

        Row r is agent ``agents[r]``'s draw at ``(xs[r], ys[r])``, made
        from ``rngs[r]`` alone; every field of the result has a leading
        axis of length R (``hyy_g_draws`` is (R, b, d_y, d_y), an array or
        :class:`DeferredRows`).  Rows consume their generators in row
        order, each making all of its calls before the next row starts,
        so passing one generator for every row reproduces R consecutive
        one-row calls.  Every generator call happens inside ``sample``:
        expanding a deferred row later draws nothing.
        """

    @abc.abstractmethod
    def exact_lower(self, x: np.ndarray) -> np.ndarray:
        """Unique minimizer y*(x) of the agent-averaged inner objective."""

    @abc.abstractmethod
    def exact_gradients(self, x: np.ndarray, y: np.ndarray) -> ExactGradients:
        """Agent-averaged exact oracle quantities at an arbitrary (x, y)."""

    @abc.abstractmethod
    def outer_value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Agent-averaged outer objective f(x, y) at an arbitrary (x, y)."""

    def inner_solve(self, hyy_g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """[hyy_g]^{-1} rhs for the exact inner Hessian of ``exact_gradients``.

        A dense solve; a family whose inner Hessian has structure
        overrides it.
        """
        return np.linalg.solve(hyy_g, rhs)

    def implicit_hypergrad(self, exact: ExactGradients) -> np.ndarray:
        """grad F = gx_f - hxy_g [hyy_g]^{-1} gy_f, evaluated at y = y*(x).

        The implicit-function form of the hypergradient; the round's
        estimator z = s - u q approximates the same expression.
        """
        return exact.gx_f - exact.hxy_g @ self.inner_solve(exact.hyy_g, exact.gy_f)

    def exact_hypergrad(self, x: np.ndarray) -> np.ndarray:
        """Total derivative of F(x) = f(x, y*(x)) through the inner solution."""
        return self.implicit_hypergrad(self.exact_gradients(x, self.exact_lower(x)))

    def objective(self, x: np.ndarray) -> float:
        """F(x), the outer objective at the exact inner solution."""
        return self.outer_value(x, self.exact_lower(x))

    def optimum(self) -> tuple[np.ndarray, float] | None:
        """(x*, F*) when known in closed form, else None."""
        return None


def matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``mats @ v`` for each vector v along the last axis of ``vecs``.

    Written as a broadcast matmul against a trailing unit axis: numpy runs
    one gemv per row, so each row is bit-identical to the one-row product
    (``vecs @ mats.T`` and einsum are not).
    """
    return (mats @ vecs[..., None])[..., 0]


def bounded_noise(rng: np.random.Generator, sigma: float, shape) -> np.ndarray:
    """Zero-mean bounded noise with per-coordinate variance sigma^2."""
    half_width = sigma * np.sqrt(3.0)
    return rng.uniform(-half_width, half_width, size=shape)


def clip_spectrum(mats: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Project symmetric matrices onto {M : spectrum(M) within [lo, hi]}."""
    evals, evecs = np.linalg.eigh(mats)
    evals = np.clip(evals, lo, hi)
    return np.einsum("...ij,...j,...kj->...ik", evecs, evals, evecs)
