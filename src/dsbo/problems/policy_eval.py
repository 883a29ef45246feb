"""Policy evaluation with linear value features, as a bilevel problem.

Each of |S| states has a feature vector phi_s; the value estimate is
phi_s^T x.  Agent k observes its own random rewards with means
rbar_k[s, s'].  The inner problem fits the Bellman targets:

    g_k(x, y) = 1/2 sum_s (y_s - delta_k_s(x))^2,
    delta_k_s(x) = E_{s'}[ r_k(s, s') + gamma * phi_{s'}^T x ],

so the inner Hessian is exactly the identity (mu_g = l_g = kappa_g = 1)
and the averaged inner solution is y*(x) = cbar + gamma * P Phi x.  The
outer objective penalizes the Bellman residual plus a ridge term:

    f_k(x, y) = 1/(2|S|) sum_s (phi_s^T x - y_s)^2 + lambda/2 ||x||^2.

The family is also a compositional instance: stacking the sampled target
with x itself, h_k(x; xi) = [delta_hat_k(x); x], makes F(x) a function of
E[h_k] alone, which is the oracle shape the naive chain-rule baseline
needs.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .base import BilevelProblem, ExactGradients, ProblemConstants, StochasticSample


class PolicyEvalBilevel(BilevelProblem):
    compositional = True

    def __init__(
        self,
        phi,
        transitions,
        reward_means,
        gamma: float,
        lam: float,
        sigma_r: float = 1.0,
        exact_oracle: bool = False,
    ):
        self._phi = np.asarray(phi, dtype=float)
        self._p = np.asarray(transitions, dtype=float)
        self._rbar = np.asarray(reward_means, dtype=float)
        if self._rbar.ndim != 3:
            raise ConfigError("reward_means must be (k, n_states, n_states)")
        self.k = self._rbar.shape[0]
        n_states, feat_dim = self._phi.shape
        if self._p.shape != (n_states, n_states) or self._rbar.shape[1:] != (n_states, n_states):
            raise ConfigError("transition / reward shapes inconsistent with features")
        if not (0.0 <= gamma < 1.0):
            raise ConfigError(f"discount gamma must lie in [0, 1), got {gamma!r}")
        if lam <= 0:
            raise ConfigError(f"ridge weight lambda must be positive, got {lam!r}")
        row_err = np.abs(self._p.sum(axis=1) - 1.0).max()
        if row_err > 1e-9:
            raise ConfigError(f"transition rows must sum to 1 (max error {row_err:.2e})")

        self.gamma = float(gamma)
        self.lam = float(lam)
        self.sigma_r = float(sigma_r)
        self.exact_oracle = bool(exact_oracle)

        self._cum_p = np.cumsum(self._p, axis=1)
        self._cum_p[:, -1] = 1.0
        self._c_k = (self._p * self._rbar).sum(axis=2)  # (k, n_states)
        self._cbar = self._c_k.mean(axis=0)
        self._p_phi = self._p @ self._phi  # (n_states, feat_dim)
        self._hxy_exact = -self.gamma * self._p_phi.T  # (feat_dim, n_states)
        self._eye = np.eye(n_states)
        self._eye.setflags(write=False)

        self.constants = ProblemConstants(
            d_x=feat_dim,
            d_y=n_states,
            mu_g=1.0,
            l_g=1.0,
            kappa_g=1.0,
            sigma_f=0.0,
            sigma_g=self.sigma_r,
        )
        m = self._phi - self.gamma * self._p_phi
        lhs = m.T @ m / n_states + self.lam * np.eye(feat_dim)
        self._x_star = np.linalg.solve(lhs, m.T @ self._cbar / n_states)
        self._f_star = self.objective(self._x_star)

    # The two outer gradients carry no sampling noise in this family; all
    # randomness lives in the transition draw and the reward draw.
    def _outer_grads(self, x, y):
        resid = self._phi @ x - y
        gx_f = self._phi.T @ resid / self.d_y + self.lam * x
        gy_f = -resid / self.d_y
        return gx_f, gy_f

    def _draw_targets(self, agent, x, rng):
        """Sampled next states and Bellman targets for every state."""
        n = self.d_y
        nxt = (rng.random(n)[:, None] < self._cum_p).argmax(axis=1)
        rewards = self._rbar[agent][np.arange(n), nxt]
        if self.sigma_r > 0:
            rewards = rewards + self.sigma_r * rng.standard_normal(n)
        delta_hat = rewards + self.gamma * (self._phi[nxt] @ x)
        return nxt, delta_hat

    def sample(self, agent, x, y, rng, b=1):
        gx_f, gy_f = self._outer_grads(x, y)
        if self.exact_oracle:
            delta = self._c_k[agent] + self.gamma * (self._p_phi @ x)
            gy_g = y - delta
            hxy = self._hxy_exact
        else:
            nxt, delta_hat = self._draw_targets(agent, x, rng)
            gy_g = y - delta_hat
            hxy = -self.gamma * self._phi[nxt].T
        hyy = np.broadcast_to(self._eye, (b, self.d_y, self.d_y))
        return StochasticSample(gx_f=gx_f, gy_f=gy_f, gy_g=gy_g, hxy_g=hxy, hyy_g_draws=hyy)

    def exact_lower(self, x):
        return self._cbar + self.gamma * (self._p_phi @ x)

    def outer_value(self, x, y):
        resid = self._phi @ x - y
        return 0.5 * float(resid @ resid) / self.d_y + 0.5 * self.lam * float(x @ x)

    def exact_gradients(self, x, y):
        gx_f, gy_f = self._outer_grads(x, y)
        return ExactGradients(
            gx_f=gx_f,
            gy_f=gy_f,
            gy_g=y - self.exact_lower(x),
            hxy_g=self._hxy_exact,
            hyy_g=self._eye,
        )

    def optimum(self):
        return self._x_star, self._f_star

    # Compositional oracle: h_k(x; xi) stacks the sampled Bellman target
    # with x itself, so the outer objective becomes a function of E[h_k]
    # alone and a chain-rule product is a complete gradient estimate.
    @property
    def comp_dim(self) -> int:
        return self.d_y + self.d_x

    def comp_value(self, agent, x, rng):
        if self.exact_oracle:
            delta = self._c_k[agent] + self.gamma * (self._p_phi @ x)
        else:
            _, delta = self._draw_targets(agent, x, rng)
        return np.concatenate([delta, x])

    def comp_jac(self, agent, x, rng):
        """Transposed Jacobian draw of h_k, shape (d_x, comp_dim)."""
        if self.exact_oracle:
            top = self.gamma * self._p_phi.T
        else:
            nxt = (rng.random(self.d_y)[:, None] < self._cum_p).argmax(axis=1)
            top = self.gamma * self._phi[nxt].T
        return np.concatenate([top, np.eye(self.d_x)], axis=1)

    def comp_outer_grad(self, y_stacked, rng):
        y_delta = y_stacked[: self.d_y]
        y_x = y_stacked[self.d_y :]
        resid = self._phi @ y_x - y_delta
        return np.concatenate(
            [-resid / self.d_y, self._phi.T @ resid / self.d_y + self.lam * y_x]
        )


def make_policy_eval(
    k: int,
    n_states: int,
    feat_dim: int,
    gamma: float,
    lam: float,
    seed: int,
    sigma_r: float = 1.0,
    homogeneous: bool = False,
    exact_oracle: bool = False,
) -> PolicyEvalBilevel:
    """Random instance: uniform features, random normalized transitions,
    per-agent uniform reward means (shared across agents when homogeneous).
    """
    if n_states < 2:
        raise ConfigError(f"need n_states >= 2, got {n_states}")
    if k < 1 or feat_dim < 1:
        raise ConfigError("k and feat_dim must be >= 1")
    rng = np.random.default_rng(seed)
    phi = rng.random((n_states, feat_dim))
    p_raw = rng.random((n_states, n_states))
    transitions = p_raw / p_raw.sum(axis=1, keepdims=True)
    if homogeneous:
        reward_means = np.broadcast_to(
            rng.random((n_states, n_states)), (k, n_states, n_states)
        ).copy()
    else:
        reward_means = rng.random((k, n_states, n_states))
    return PolicyEvalBilevel(
        phi, transitions, reward_means, gamma=gamma, lam=lam,
        sigma_r=sigma_r, exact_oracle=exact_oracle,
    )
