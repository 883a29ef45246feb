"""The lock-step round shared by the gossip algorithm and its federated variant.

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

The network's state is one :class:`NetworkState` of ``(K, ...)`` arrays,
and ``round_step(state, w, ...)`` is the only implementation of the
update; it mixes every field by ``topology.gossip_mix`` with ``w``.  The
gossip round feeds it each agent's own draw; the federated variant is the
same step on a one-row state with W = ``[[1.0]]`` and the agent-averaged
draw.  All right-hand sides read the round-t snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, DivergenceError
from .problems.base import DeferredRows, StochasticSample, matvec
from .topology import MixingMatrix, gossip_mix

_FIELDS = ("x", "y", "s", "h", "u", "v", "q")


@dataclass(frozen=True)
class NetworkState:
    """Every agent's iterates and estimators at one round; row k is agent k.

    ``v`` is the one (K, b, d_y, d_y) stack of the run: ``round_step``
    refreshes it in place and hands the same buffer to the next state, so a
    round holds one v stack, one agent row of draws and a K x 4096 mixing
    scratch: about 0.87 GB at the default hyperopt config (K=5,
    b = 180,849, d_y=10).
    """

    x: np.ndarray  # (K, d_x)
    y: np.ndarray  # (K, d_y)
    s: np.ndarray  # (K, d_x)
    h: np.ndarray  # (K, d_y)
    u: np.ndarray  # (K, d_x, d_y)
    v: np.ndarray  # (K, b, d_y, d_y) stacks of inner-Hessian estimators
    q: np.ndarray  # (K, d_y) Neumann products Q_b(v_k) h_k / l_g read by the next z

    def __iter__(self):
        """Per-agent views: one namespace of row views x, y, s, h, u, v, q per agent."""
        for k in range(self.x.shape[0]):
            yield SimpleNamespace(**{f: getattr(self, f)[k] for f in _FIELDS})


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
    return s - matvec(u, q)


def init_agents(problem, b: int, k: int | None = None) -> NetworkState:
    """All-zero iterates for k agents (default problem.k); v seeded at mu_g*I, so q = 0."""
    if b < 1:
        raise ConfigError(f"Neumann depth b must be >= 1, got {b}")
    consts = problem.constants
    k = problem.k if k is None else k
    d_x, d_y = consts.d_x, consts.d_y
    return NetworkState(
        x=np.zeros((k, d_x)),
        y=np.zeros((k, d_y)),
        s=np.zeros((k, d_x)),
        h=np.zeros((k, d_y)),
        u=np.zeros((k, d_x, d_y)),
        v=np.broadcast_to(consts.mu_g * np.eye(d_y), (k, b, d_y, d_y)).copy(),
        q=np.zeros((k, d_y)),
    )


def check_finite(arrays_by_field, t: int):
    """Raise a divergence error naming the first non-finite agent/field."""
    for name, stack in arrays_by_field:
        if not np.isfinite(stack).all():
            per_agent = np.isfinite(stack).reshape(stack.shape[0], -1).all(axis=1)
            agent = int(np.argmin(per_agent))
            raise DivergenceError(agent=agent, field=name, t=t)


def round_step(state: NetworkState, w: MixingMatrix, draws: StochasticSample,
               schedule: StepSchedule, t: int, l_g: float) -> NetworkState:
    """Advance every row of ``state`` one round; all reads see the round-t snapshot.

    Every field is mixed by ``gossip_mix(..., w, scale)``, with scale
    1 - beta where the update has that factor.  ``round_step`` consumes
    ``state.v``, like a donated buffer: the v stack is mixed, scaled and
    refreshed in place, and the returned state holds the same buffer.  So
    ``state.v`` must be a writeable, C-contiguous float64 array the caller
    no longer reads (``ValueError`` otherwise), and past the old state the
    round holds the new small fields, one agent row of draws and a K x 4096
    scratch, not a second v stack.  The other fields of ``state`` and the
    oracle ``draws`` stacked over the same K rows are not written.  Raises
    a divergence error naming the first non-finite agent and field; ``v``
    is then already refreshed.
    """
    v = state.v
    hyy = draws.hyy_g_draws
    if len(hyy) != len(v):
        raise ValueError(f"{len(hyy)} rows of Hessian draws for {len(v)} agents")
    alpha, beta, gamma = schedule.alpha(t), schedule.beta(t), schedule.gamma(t)
    x = gossip_mix(state.x, w) - alpha * hypergrad_estimate(state.s, state.u, state.q)
    y = gossip_mix(state.y, w) - gamma * draws.gy_g
    s = gossip_mix(state.s, w, 1.0 - beta) + beta * draws.gx_f
    h = gossip_mix(state.h, w, 1.0 - beta) + beta * draws.gy_f
    u = gossip_mix(state.u, w, 1.0 - beta) + beta * draws.hxy_g
    # The v stack is the round's largest array.  The other fields have read
    # the snapshot, so v is mixed and scaled in place, then the draws are
    # added one agent row at a time: the same products and sum as the other
    # fields, with one block of scratch and one row as the only
    # temporaries.  A deferred row is built fresh for this read and scaled
    # in place; an array row belongs to the caller and is scaled into a
    # temporary.  Index the draws by row and drop each before the next is
    # built (a ``zip`` over the draws would keep the previous one alive).
    gossip_mix(v, w, 1.0 - beta, out=v)
    deferred = isinstance(hyy, DeferredRows)
    for k, row in enumerate(v):
        draw = hyy[k]
        if deferred:
            draw *= beta
        else:
            draw = beta * draw
        row += draw
        del draw
    new = NetworkState(x=x, y=y, s=s, h=h, u=u, v=v, q=neumann_apply(v, h, l_g))
    check_finite(((name, getattr(new, name)) for name in _FIELDS), t)
    return new


def dsbo_round(
    state: NetworkState,
    w: MixingMatrix,
    problem,
    schedule: StepSchedule,
    t: int,
    rng_streams,
) -> NetworkState:
    """One gossip round: one oracle call draws every agent's row at its own
    iterate, then ``round_step``."""
    draws = problem.sample(range(state.x.shape[0]), state.x, state.y, rng_streams,
                           state.v.shape[1])
    return round_step(state, w, draws, schedule, t, problem.constants.l_g)
