"""Shared problem-family contracts.

A bilevel problem couples an outer objective f (averaged over agents)
with a strongly convex inner objective g whose minimizer y*(x) feeds
back into f.  Agents never see exact gradients; they query a sampling
oracle returning noisy draws of the five quantities the optimizer
consumes.  Exact evaluators exist only for metrics and tests.
"""

from __future__ import annotations

import abc
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


@dataclass(frozen=True)
class StochasticSample:
    """One oracle draw: outer gradients, inner gradient, two inner Hessians.

    ``hyy_g_draws`` stacks b independent inner-Hessian draws, each
    symmetric and inside the declared spectral ball.
    """

    gx_f: np.ndarray
    gy_f: np.ndarray
    gy_g: np.ndarray
    hxy_g: np.ndarray
    hyy_g_draws: np.ndarray


class ExactGradients(NamedTuple):
    """Network-averaged exact quantities at a given (x, y)."""

    gx_f: np.ndarray
    gy_f: np.ndarray
    gy_g: np.ndarray
    hxy_g: np.ndarray
    hyy_g: np.ndarray


def implicit_hypergrad(exact: ExactGradients) -> np.ndarray:
    """grad F = gx_f - hxy_g [hyy_g]^{-1} gy_f, evaluated at y = y*(x).

    The implicit-function form of the hypergradient; the round's
    estimator z = s - u q approximates the same expression.
    """
    return exact.gx_f - exact.hxy_g @ np.linalg.solve(exact.hyy_g, exact.gy_f)


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
    def sample(
        self, agent: int, x: np.ndarray, y: np.ndarray, rng: np.random.Generator, b: int = 1
    ) -> StochasticSample:
        """Draw one stochastic sample for the given agent at (x, y)."""

    @abc.abstractmethod
    def exact_lower(self, x: np.ndarray) -> np.ndarray:
        """Unique minimizer y*(x) of the agent-averaged inner objective."""

    @abc.abstractmethod
    def exact_gradients(self, x: np.ndarray, y: np.ndarray) -> ExactGradients:
        """Agent-averaged exact oracle quantities at an arbitrary (x, y)."""

    @abc.abstractmethod
    def outer_value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Agent-averaged outer objective f(x, y) at an arbitrary (x, y)."""

    def exact_hypergrad(self, x: np.ndarray) -> np.ndarray:
        """Total derivative of F(x) = f(x, y*(x)) through the inner solution."""
        return implicit_hypergrad(self.exact_gradients(x, self.exact_lower(x)))

    def objective(self, x: np.ndarray) -> float:
        """F(x), the outer objective at the exact inner solution."""
        return self.outer_value(x, self.exact_lower(x))

    def optimum(self) -> tuple[np.ndarray, float] | None:
        """(x*, F*) when known in closed form, else None."""
        return None


def bounded_noise(rng: np.random.Generator, sigma: float, shape) -> np.ndarray:
    """Zero-mean bounded noise with per-coordinate variance sigma^2."""
    half_width = sigma * np.sqrt(3.0)
    return rng.uniform(-half_width, half_width, size=shape)


def clip_spectrum(mats: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Project symmetric matrices onto {M : spectrum(M) within [lo, hi]}."""
    evals, evecs = np.linalg.eigh(mats)
    evals = np.clip(evals, lo, hi)
    return np.einsum("...ij,...j,...kj->...ik", evecs, evals, evecs)
