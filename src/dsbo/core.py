"""Per-round agent updates for the gossip-based bilevel optimizer.

Each round, every agent queries the oracle at its own iterate, then all
agents simultaneously apply: one gossip step on every state quantity,
a descent step on x driven by the assembled hypergradient estimate

    z = s - u q,

an inner descent step on y, and weighted-average refreshes of the four
estimators (s for the outer x-gradient, h for the outer y-gradient,
u for the cross Hessian, v_1..v_b for the inner Hessian).  q is the
(d_y,) vector Q_b(v) h / l_g: a truncated Neumann series in the v
matrices, approximating the inverse inner Hessian, applied to h.  It is
computed matrix-free by ``neumann_apply`` in O(b d_y^2) per agent; the
d_y x d_y matrix ``neumann_chain`` builds is never formed in a round.

All right-hand sides read the round-t snapshot, so agents can be
evaluated in any order or in parallel without changing a single bit of
the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .topology import MixingMatrix

@dataclass(frozen=True)
class AgentState:
    """One agent's iterates and estimators at a fixed round."""

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    h: np.ndarray
    u: np.ndarray
    v: np.ndarray  # (b, d_y, d_y) stack of inner-Hessian estimators
    q: np.ndarray  # (d_y,) Neumann product Q_b(v) h / l_g read by the next z


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes alpha (outer), beta (estimator mix), gamma (inner).

    Three regimes:
      constant:    alpha = c0*sqrt(k/t_total), beta = gamma = beta_scale*sqrt(k/t_total)
      diminishing: alpha = 2/(mu*(c1+t)),      beta = gamma = c1/(c1+t)
      capped:      alpha = min(alpha_cap, alpha_num/t), beta = gamma = min(beta_cap, beta_num/t)

    The capped regime reproduces the published policy-evaluation step
    sizes; it behaves like the diminishing regime after the caps unbind.
    """

    regime: str
    k: int = 0
    t_total: int = 0
    c0: float = 0.0
    beta_scale: float = 1.0
    c1: float = 0.0
    mu: float = 0.0
    alpha_cap: float = 0.0
    alpha_num: float = 0.0
    beta_cap: float = 0.0
    beta_num: float = 0.0

    def __post_init__(self):
        if self.regime == "constant":
            if self.k < 1 or self.t_total < 1 or self.c0 <= 0 or self.beta_scale <= 0:
                raise ConfigError("constant schedule needs positive c0, beta_scale, k, t_total")
            if self.beta_scale * math.sqrt(self.k / self.t_total) > 1.0:
                raise ConfigError(
                    f"constant schedule violates beta <= 1: beta_scale*sqrt(k/t_total) = "
                    f"{self.beta_scale * math.sqrt(self.k / self.t_total):.4g} "
                    f"(needs t_total >= beta_scale^2 * k)"
                )
        elif self.regime == "diminishing":
            if self.mu <= 0:
                raise ConfigError("diminishing schedule needs mu > 0")
            bound = max(1.0, 2.0 / self.mu)
            if self.c1 < bound:
                raise ConfigError(
                    f"diminishing schedule violates c1 >= max(1, 2/mu): "
                    f"c1 = {self.c1!r} < {bound!r}"
                )
        elif self.regime == "capped":
            if min(self.alpha_cap, self.alpha_num, self.beta_cap, self.beta_num) <= 0:
                raise ConfigError("capped schedule needs positive caps and numerators")
            if self.beta_cap > 1.0:
                raise ConfigError(f"capped schedule violates beta <= 1: beta_cap = {self.beta_cap!r}")
        else:
            raise ConfigError(f"unknown schedule regime {self.regime!r}")

    def _check_exhausted(self, t: int):
        if self.regime == "constant" and t >= self.t_total:
            raise ConfigError(
                f"constant schedule exhausted: round {t} >= t_total {self.t_total}"
            )

    def alpha(self, t: int) -> float:
        self._check_exhausted(t)
        if self.regime == "constant":
            return self.c0 * math.sqrt(self.k / self.t_total)
        if self.regime == "diminishing":
            return 2.0 / (self.mu * (self.c1 + t))
        return self.alpha_cap if t < 1 else min(self.alpha_cap, self.alpha_num / t)

    def beta(self, t: int) -> float:
        self._check_exhausted(t)
        if self.regime == "constant":
            return self.beta_scale * math.sqrt(self.k / self.t_total)
        if self.regime == "diminishing":
            return self.c1 / (self.c1 + t)
        return self.beta_cap if t < 1 else min(self.beta_cap, self.beta_num / t)

    def gamma(self, t: int) -> float:
        return self.beta(t)


def default_b(t_total: int, kappa_g: float) -> int:
    """Neumann truncation depth matching the analysis: 3*ceil(log T / log(1/(1-kappa)))."""
    if t_total < 2:
        raise ConfigError(f"t_total must be >= 2, got {t_total}")
    if not (0.0 < kappa_g <= 1.0):
        raise ConfigError(f"kappa_g must lie in (0, 1], got {kappa_g!r}")
    if kappa_g == 1.0:
        return 1
    ratio = math.log(t_total) / math.log(1.0 / (1.0 - kappa_g))
    return 3 * math.ceil(ratio - 1e-9)


def neumann_chain(v_list, l_g: float) -> np.ndarray:
    """Apply the truncated Neumann recursion to a list of Hessian estimates.

    Q_0 = I; Q_i = I + (I - v_i/l_g) Q_{i-1}; returns q = Q_b / l_g.
    When every v_i stays inside the spectral ball, q approximates the
    inverse of their common mean with geometrically decaying error.
    """
    v_stack = np.asarray(v_list, dtype=float)
    if v_stack.ndim != 3 or v_stack.shape[1] != v_stack.shape[2]:
        raise ConfigError(
            f"v_list must be a nonempty stack of square matrices, got shape {v_stack.shape}"
        )
    d = v_stack.shape[1]
    eye = np.eye(d)
    # First step collapses to I + (I - v/l_g) because Q_0 = I.
    q = eye + (eye - v_stack[0] / l_g)
    for i in range(1, v_stack.shape[0]):
        q = eye + (eye - v_stack[i] / l_g) @ q
    return q / l_g


def neumann_apply(v, h, l_g: float) -> np.ndarray:
    """Batched matrix-free Neumann product: row k is neumann_chain(v[k]) @ h[k].

    v is a (K, b, d, d) stack of Hessian estimates and h a (K, d) stack of
    vectors.  Runs r_0 = h, r_i = h + r_{i-1} - v_i r_{i-1} / l_g and
    returns r_b / l_g, one (K, d, d) @ (K, d, 1) product per depth step.
    """
    v = np.asarray(v, dtype=float)
    h = np.asarray(h, dtype=float)
    if v.ndim != 4 or v.shape[1] == 0 or v.shape[2] != v.shape[3]:
        raise ConfigError(
            f"v must be a (K, b, d, d) stack with b >= 1, got shape {v.shape}"
        )
    if h.shape != (v.shape[0], v.shape[2]):
        raise ConfigError(f"h must have shape {(v.shape[0], v.shape[2])}, got {h.shape}")
    h_col = h[:, :, None]
    r = h_col
    for i in range(v.shape[1]):
        r = h_col + r - (v[:, i] @ r) / l_g
    return r[:, :, 0] / l_g


def hypergrad_estimate(s, u, q) -> np.ndarray:
    """Batched z_k = s_k - u_k q_k over the leading agent axis."""
    return s - (u @ q[:, :, None])[:, :, 0]


def init_agents(problem, b: int) -> list[AgentState]:
    """All-zero iterates; v seeded at mu_g*I, so q = Q_b(v) h / l_g = 0."""
    if b < 1:
        raise ConfigError(f"Neumann depth b must be >= 1, got {b}")
    consts = problem.constants
    v0 = np.broadcast_to(consts.mu_g * np.eye(consts.d_y), (b, consts.d_y, consts.d_y)).copy()
    return [
        AgentState(
            x=np.zeros(consts.d_x),
            y=np.zeros(consts.d_y),
            s=np.zeros(consts.d_x),
            h=np.zeros(consts.d_y),
            u=np.zeros((consts.d_x, consts.d_y)),
            v=v0.copy(),
            q=np.zeros(consts.d_y),
        )
        for _ in range(problem.k)
    ]


def check_finite(arrays_by_field, t: int):
    """Raise a divergence error naming the first non-finite agent/field."""
    for name, stack in arrays_by_field:
        if not np.isfinite(stack).all():
            per_agent = np.isfinite(stack).reshape(stack.shape[0], -1).all(axis=1)
            agent = int(np.argmin(per_agent))
            raise DivergenceError(agent=agent, field=name, t=t)


def dsbo_round(
    states: list[AgentState],
    w: MixingMatrix,
    problem,
    schedule: StepSchedule,
    t: int,
    rng_streams,
    pool=None,
) -> list[AgentState]:
    """Advance every agent one round; all reads see the round-t snapshot."""
    alpha, beta, gamma = schedule.alpha(t), schedule.beta(t), schedule.gamma(t)
    n_agents = len(states)
    b = states[0].v.shape[0]

    def draw(agent: int):
        return problem.sample(agent, states[agent].x, states[agent].y, rng_streams[agent], b)

    if pool is None:
        samples = [draw(agent) for agent in range(n_agents)]
    else:
        samples = list(pool.map(draw, range(n_agents)))

    mat = w.weights
    xs = np.stack([st.x for st in states])
    ys = np.stack([st.y for st in states])
    ss = np.stack([st.s for st in states])
    hs = np.stack([st.h for st in states])
    us = np.stack([st.u for st in states])
    vs = np.stack([st.v for st in states])
    qs = np.stack([st.q for st in states])

    zs = hypergrad_estimate(ss, us, qs)
    new_x = np.tensordot(mat, xs, axes=(1, 0)) - alpha * zs
    new_y = np.tensordot(mat, ys, axes=(1, 0)) - gamma * np.stack([sm.gy_g for sm in samples])
    new_s = (1.0 - beta) * np.tensordot(mat, ss, axes=(1, 0)) + beta * np.stack(
        [sm.gx_f for sm in samples]
    )
    new_h = (1.0 - beta) * np.tensordot(mat, hs, axes=(1, 0)) + beta * np.stack(
        [sm.gy_f for sm in samples]
    )
    new_u = (1.0 - beta) * np.tensordot(mat, us, axes=(1, 0)) + beta * np.stack(
        [sm.hxy_g for sm in samples]
    )
    new_v = (1.0 - beta) * np.tensordot(mat, vs, axes=(1, 0)) + beta * np.stack(
        [sm.hyy_g_draws for sm in samples]
    )
    new_q = neumann_apply(new_v, new_h, problem.constants.l_g)

    check_finite(
        (
            ("x", new_x), ("y", new_y), ("s", new_s),
            ("h", new_h), ("u", new_u), ("v", new_v), ("q", new_q),
        ),
        t,
    )
    return [
        AgentState(
            x=new_x[agent], y=new_y[agent], s=new_s[agent], h=new_h[agent],
            u=new_u[agent], v=new_v[agent], q=new_q[agent],
        )
        for agent in range(n_agents)
    ]
