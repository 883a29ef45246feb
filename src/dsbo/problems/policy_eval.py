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
from .base import (
    BilevelProblem,
    ExactGradients,
    ProblemConstants,
    StochasticSample,
    matvec,
)

# Next-state draws search int64 keys on Generator.random's 2**-53 grid
# (see ``_next_states``).  State s's keys reach (s + 1) * _GRID, so one
# search holds at most _SEARCH_ROWS states.
_GRID = 2**53
_SEARCH_ROWS = np.iinfo(np.int64).max // _GRID  # 1023


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
        p = np.asarray(transitions, dtype=float)
        self._rbar = np.asarray(reward_means, dtype=float)
        if self._rbar.ndim != 3:
            raise ConfigError("reward_means must be (k, n_states, n_states)")
        self.k = self._rbar.shape[0]
        n_states, feat_dim = self._phi.shape
        if p.shape != (n_states, n_states) or self._rbar.shape[1:] != (n_states, n_states):
            raise ConfigError("transition / reward shapes inconsistent with features")
        if not (0.0 <= gamma < 1.0):
            raise ConfigError(f"discount gamma must lie in [0, 1), got {gamma!r}")
        if lam <= 0:
            raise ConfigError(f"ridge weight lambda must be positive, got {lam!r}")
        row_err = np.abs(p.sum(axis=1) - 1.0).max()
        if row_err > 1e-9:
            raise ConfigError(f"transition rows must sum to 1 (max error {row_err:.2e})")
        if not (p >= 0).all():  # also catches NaN, which the row sums let through
            raise ConfigError("transition probabilities must be nonnegative")

        self.gamma = float(gamma)
        self.lam = float(lam)
        self.sigma_r = float(sigma_r)
        self.exact_oracle = bool(exact_oracle)

        # next-state search keys (see _next_states):
        # keys[s, j] = ceil(min(cum_p[s, j], 1) * 2**53) + (s mod 1023) * 2**53
        cum_p = np.cumsum(p, axis=1)
        np.minimum(cum_p, 1.0, out=cum_p)
        cum_p[:, -1] = 1.0
        cum_p *= _GRID
        self._keys = np.ceil(cum_p, out=cum_p).astype(np.int64)
        local = np.arange(n_states) % _SEARCH_ROWS
        self._key_base = local * _GRID
        self._keys += self._key_base[:, None]
        self._index_base = local * n_states
        self._c_k = (p * self._rbar).sum(axis=2)  # (k, n_states)
        self._cbar = self._c_k.mean(axis=0)
        self._p_phi = p @ self._phi  # (n_states, feat_dim)
        self._hxy_exact = -self.gamma * self._p_phi.T  # (feat_dim, n_states)
        self._eye = np.eye(n_states)
        self._eye.setflags(write=False)
        self._states = np.arange(n_states)

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
    # randomness lives in the transition draw and the reward draw.  Both
    # helpers take one row or a (R, ...) stack of rows.
    def _outer_grads(self, x, y):
        resid = matvec(self._phi, x) - y
        gx_f = matvec(self._phi.T, resid) / self.d_y + self.lam * x
        gy_f = -resid / self.d_y
        return gx_f, gy_f

    def _next_states(self, rngs, reward_noise: bool):
        """Per row, one sampled next state for every state, and (when
        ``reward_noise``) the rows' standard normal reward noise.

        Next state s' of state s is the first j with u < cum_p[s, j].
        ``Generator.random`` returns multiples of 2**-53, so u * 2**53 is
        an integer m, and u < c holds exactly when m < ceil(c * 2**53).
        Offsetting row s's keys and query by (s mod 1023) * 2**53 puts
        1023 states' keys in one sorted int64 array, so one right-sided
        ``searchsorted`` per group of 1023 states finds every row's next
        states: the same states as the comparison with the float
        cumulative rows, without an (R, n, n) comparison cube.
        """
        n = self.d_y
        u = np.empty((len(rngs), n))
        noise = np.empty((len(rngs), n)) if reward_noise else None
        for r, rng in enumerate(rngs):
            rng.random(n, out=u[r])
            if reward_noise:
                rng.standard_normal(n, out=noise[r])
        u *= _GRID
        nxt = u.astype(np.int64)
        del u
        nxt += self._key_base
        for lo in range(0, n, _SEARCH_ROWS):
            hi = min(lo + _SEARCH_ROWS, n)
            nxt[:, lo:hi] = np.searchsorted(self._keys[lo:hi].ravel(), nxt[:, lo:hi],
                                            side="right")
        nxt -= self._index_base
        return nxt, noise

    def _targets(self, agents, xs, rngs):
        """Bellman targets, one row per agent, and the features of the
        sampled next states they used, (R, n_states, d_x) (None for the
        exact oracle, which draws nothing)."""
        if self.exact_oracle:
            return None, self._c_k[agents] + self.gamma * matvec(self._p_phi, xs)
        noisy = self.sigma_r > 0
        nxt, noise = self._next_states(rngs, noisy)
        rewards = self._rbar[agents[:, None], self._states, nxt]
        if noisy:
            rewards = rewards + self.sigma_r * noise
        phi_next = self._phi[nxt]
        return phi_next, rewards + self.gamma * matvec(phi_next, xs)

    def sample(self, agents, xs, ys, rngs, b=1):
        agents = np.asarray(agents)
        rows = len(agents)
        gx_f, gy_f = self._outer_grads(xs, ys)
        phi_next, delta = self._targets(agents, xs, rngs)
        gy_g = ys - delta
        if phi_next is None:
            hxy = np.broadcast_to(self._hxy_exact, (rows, self.d_x, self.d_y))
        else:
            hxy = -self.gamma * phi_next.transpose(0, 2, 1)
        hyy = np.broadcast_to(self._eye, (rows, b, self.d_y, self.d_y))
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

    def inner_solve(self, hyy_g, rhs):
        # the exact inner Hessian is the identity
        return rhs

    def optimum(self):
        return self._x_star, self._f_star

    # Compositional oracle: h_k(x; xi) stacks the sampled Bellman target
    # with x itself, so the outer objective becomes a function of E[h_k]
    # alone and a chain-rule product is a complete gradient estimate.
    @property
    def comp_dim(self) -> int:
        return self.d_y + self.d_x

    def comp_value(self, agents, xs, rngs):
        """Draws of h_k(x; xi), one (comp_dim,) row per agent."""
        _, delta = self._targets(np.asarray(agents), xs, rngs)
        return np.concatenate([delta, xs], axis=1)

    def comp_jac(self, agents, xs, rngs):
        """Transposed Jacobian draws of h_k, shape (R, d_x, comp_dim)."""
        # Filled in place: a C-ordered result keeps each row's product with
        # a vector the same gemv as a one-row call.
        jac = np.empty((len(agents), self.d_x, self.comp_dim))
        if self.exact_oracle:
            jac[:, :, : self.d_y] = self.gamma * self._p_phi.T
        else:
            nxt, _ = self._next_states(rngs, reward_noise=False)
            jac[:, :, : self.d_y] = self.gamma * self._phi[nxt].transpose(0, 2, 1)
        jac[:, :, self.d_y :] = np.eye(self.d_x)
        return jac

    def comp_outer_grad(self, ys_stacked):
        """Gradient of the outer objective in h-coordinates, one row each."""
        y_delta = ys_stacked[:, : self.d_y]
        y_x = ys_stacked[:, self.d_y :]
        gx_f, gy_f = self._outer_grads(y_x, y_delta)
        return np.concatenate([gy_f, gx_f], axis=1)


def make_policy_eval(cfg, k: int) -> PolicyEvalBilevel:
    """Random instance of a policy-eval ``ProblemConfig``: uniform features,
    random normalized transitions, per-agent uniform reward means (shared
    across agents when homogeneous).
    """
    n_states, feat_dim = cfg.n_states, cfg.feat_dim
    if n_states < 2:
        raise ConfigError(f"need n_states >= 2, got {n_states}")
    if k < 1 or feat_dim < 1:
        raise ConfigError("k and feat_dim must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    phi = rng.random((n_states, feat_dim))
    p_raw = rng.random((n_states, n_states))
    transitions = p_raw / p_raw.sum(axis=1, keepdims=True)
    if cfg.homogeneous:
        reward_means = np.broadcast_to(
            rng.random((n_states, n_states)), (k, n_states, n_states)
        ).copy()
    else:
        reward_means = rng.random((k, n_states, n_states))
    return PolicyEvalBilevel(
        phi, transitions, reward_means, gamma=cfg.discount, lam=cfg.lam,
        sigma_r=cfg.sigma_r, exact_oracle=cfg.exact_oracle,
    )
