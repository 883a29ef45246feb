"""Quadratic bilevel family with closed-form solutions.

Outer:  f_k(x, y) = 1/2 ||y||^2 + 1/2 ||x - a_k||^2
Inner:  g_k(x, y) = 1/2 y^T B y - x^T C y + d_k^T y

B is shared and positive definite, so y*(x) = B^{-1}(C^T x - dbar) and
every quantity the simulator estimates has an exact counterpart.  The
per-agent shift vectors a_k, d_k carry the heterogeneity; their means
abar, dbar are exact by construction.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .base import (
    BilevelProblem,
    ExactGradients,
    ProblemConstants,
    StochasticSample,
    bounded_noise,
    clip_spectrum,
)


class QuadraticBilevel(BilevelProblem):
    def __init__(
        self,
        b_matrix,
        c_matrix,
        a_vectors,
        d_vectors,
        sigma_f: float = 0.0,
        sigma_g: float = 0.0,
        kappa_g: float | None = None,
    ):
        self._b = np.atleast_2d(np.asarray(b_matrix, dtype=float))
        self._c = np.atleast_2d(np.asarray(c_matrix, dtype=float))
        self._a = np.atleast_2d(np.asarray(a_vectors, dtype=float))
        self._d = np.atleast_2d(np.asarray(d_vectors, dtype=float))
        self.k = self._a.shape[0]
        d_x, d_y = self._c.shape
        if self._b.shape != (d_y, d_y):
            raise ConfigError(f"B must be {d_y}x{d_y}, got {self._b.shape}")
        if self._d.shape != (self.k, d_y) or self._a.shape[1] != d_x:
            raise ConfigError("per-agent vectors inconsistent with C's dimensions")
        if not np.allclose(self._b, self._b.T, atol=1e-12):
            raise ConfigError("B must be symmetric")

        evals, evecs = np.linalg.eigh(self._b)
        mu_g, l_g = float(evals[0]), float(evals[-1])
        if mu_g <= 0:
            raise ConfigError(f"B must be positive definite, min eigenvalue {mu_g!r}")

        # sigma_g sets the SPECTRAL scale of the Hessian noise (entry scale
        # sigma_g/(2 sqrt(d_y)), so ||E||_2 ~ sigma_g).  The default
        # curvature ratio reserves headroom equal to the noise's Frobenius
        # tail bound; a draw then certifiably stays inside the admissible
        # spectral ball whenever ||E||_F is below the budget, and the
        # eigenvalue clip that enforces the bound otherwise almost never
        # fires, which keeps the oracle unbiased in practice.
        if kappa_g is None:
            if sigma_g > 0:
                headroom = sigma_g * np.sqrt((d_y + 1.0) / 2.0)
                if headroom >= 0.9 * mu_g:
                    raise ConfigError(
                        f"sigma_g = {sigma_g!r} too large: Hessian noise headroom "
                        f"{headroom:.3g} erodes the strong-convexity margin {mu_g:.3g}"
                    )
                kappa_g = (mu_g - headroom) / l_g
            else:
                kappa_g = mu_g / l_g

        self._b_evals = evals
        self._b_inv = (evecs / evals) @ evecs.T
        self._abar = self._a.mean(axis=0)
        self._dbar = self._d.mean(axis=0)
        self.constants = ProblemConstants(
            d_x=d_x,
            d_y=d_y,
            mu_g=mu_g,
            l_g=l_g,
            kappa_g=float(kappa_g),
            sigma_f=sigma_f,
            sigma_g=sigma_g,
        )
        self._spec_lo = self.constants.l_g * self.constants.kappa_g
        self._spec_hi = self.constants.l_g * (2.0 - self.constants.kappa_g)
        self._fro_budget = min(mu_g - self._spec_lo, self._spec_hi - l_g)

    def sample(self, agent, x, y, rng, b=1):
        sf, sg = self.constants.sigma_f, self.constants.sigma_g
        gx_f = x - self._a[agent]
        gy_f = np.array(y, dtype=float, copy=True)
        gy_g = self._b @ y - self._c.T @ x + self._d[agent]
        hxy = -self._c
        if sf > 0:
            gx_f = gx_f + bounded_noise(rng, sf, gx_f.shape)
            gy_f = gy_f + bounded_noise(rng, sf, gy_f.shape)
        if sg > 0:
            gy_g = gy_g + bounded_noise(rng, sg, gy_g.shape)
            hxy = hxy + bounded_noise(rng, sg, hxy.shape)
            gauss = rng.standard_normal((b, self.d_y, self.d_y))
            scale = sg / (2.0 * np.sqrt(self.d_y))
            noise = scale * (gauss + gauss.transpose(0, 2, 1)) / np.sqrt(2.0)
            hyy = self._b + noise
            fro = np.sqrt((noise * noise).sum(axis=(1, 2)))
            unsafe = fro > self._fro_budget
            if np.any(unsafe):
                hyy[unsafe] = clip_spectrum(hyy[unsafe], self._spec_lo, self._spec_hi)
        else:
            hyy = np.broadcast_to(self._b, (b, self.d_y, self.d_y))
        return StochasticSample(gx_f=gx_f, gy_f=gy_f, gy_g=gy_g, hxy_g=hxy, hyy_g_draws=hyy)

    def exact_lower(self, x):
        return self._b_inv @ (self._c.T @ x - self._dbar)

    def outer_value(self, x, y):
        shift = x - self._a
        return 0.5 * float(y @ y) + 0.5 * float((shift * shift).sum()) / self.k

    def exact_gradients(self, x, y):
        return ExactGradients(
            gx_f=x - self._abar,
            gy_f=np.asarray(y, dtype=float),
            gy_g=self._b @ y - self._c.T @ x + self._dbar,
            hxy_g=-self._c,
            hyy_g=self._b,
        )

    def optimum(self):
        b_inv2 = self._b_inv @ self._b_inv
        lhs = np.eye(self.d_x) + self._c @ b_inv2 @ self._c.T
        rhs = self._abar + self._c @ (b_inv2 @ self._dbar)
        x_star = np.linalg.solve(lhs, rhs)
        return x_star, self.objective(x_star)


def make_quadratic(
    k: int,
    d_x: int,
    d_y: int,
    seed: int,
    sigma_f: float = 0.1,
    sigma_g: float = 0.1,
    mu_g: float = 0.5,
    l_g: float = 1.5,
    heterogeneity: float = 1.0,
    kappa_g: float | None = None,
) -> QuadraticBilevel:
    """Random instance with B's spectrum spanning [mu_g, l_g]."""
    if k < 1 or d_x < 1 or d_y < 1:
        raise ConfigError("k, d_x, d_y must all be >= 1")
    if mu_g > l_g:
        raise ConfigError(f"requested mu_g = {mu_g!r} exceeds l_g = {l_g!r}")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d_y, d_y)))
    evals = np.linspace(mu_g, l_g, d_y)
    b_matrix = (basis * evals) @ basis.T
    b_matrix = (b_matrix + b_matrix.T) / 2.0
    c_matrix = rng.standard_normal((d_x, d_y)) / np.sqrt(max(d_x, d_y))
    abar = rng.standard_normal(d_x)
    dbar = 0.5 * rng.standard_normal(d_y)
    a_dev = rng.standard_normal((k, d_x))
    d_dev = rng.standard_normal((k, d_y))
    a_vectors = abar + heterogeneity * (a_dev - a_dev.mean(axis=0))
    d_vectors = dbar + heterogeneity * (d_dev - d_dev.mean(axis=0))
    return QuadraticBilevel(
        b_matrix, c_matrix, a_vectors, d_vectors,
        sigma_f=sigma_f, sigma_g=sigma_g, kappa_g=kappa_g,
    )
