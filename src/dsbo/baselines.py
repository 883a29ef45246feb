"""Comparison algorithms: star-network aggregation and two double-loop methods.

* ``fedsbo_round``: a coordinator holds one copy of every quantity, ships
  the common iterate to all agents, and averages their fresh draws.  With
  a single agent it reproduces the gossip algorithm bit for bit.
* ``dbsa_run``: double loop; outer step t runs t gossip-SGD inner steps
  on y, then descends x along the partial gradient only (the published
  pseudocode omits the implicit-gradient correction; an optional flag
  adds it back for ablation).
* ``dsgd_run``: naive chain-rule baseline for compositional instances;
  estimates the inner value by weighted gossip averaging and multiplies
  sampled Jacobians straight into the outer gradient, which is biased
  whenever agents are heterogeneous.

The double-loop runners take a ``recorder`` (see harness) so they can
emit the same trace rows as the main algorithm without importing it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import StepSchedule, hypergrad_estimate, neumann_apply, neumann_chain
from .errors import DivergenceError, UnsupportedProblemError
from .rng import agent_round_streams, stream
from .topology import MixingMatrix


@dataclass(frozen=True)
class CentralState:
    """Server-side iterates and estimators (one copy total)."""

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    h: np.ndarray
    u: np.ndarray
    v: np.ndarray  # (b, d_y, d_y)
    q: np.ndarray  # (d_y,) Neumann product Q_b(v) h / l_g, as in AgentState


def init_central(problem, b: int) -> CentralState:
    """Zero iterates, v seeded at mu_g*I, matching the gossip initializer."""
    from .core import init_agents

    st = init_agents(problem, b)[0]
    return CentralState(x=st.x, y=st.y, s=st.s, h=st.h, u=st.u, v=st.v, q=st.q)


def fedsbo_round(
    central: CentralState,
    problem,
    schedule: StepSchedule,
    t: int,
    rng_streams,
    pool=None,
) -> CentralState:
    """One coordinator round: sample at the common iterate, average, update.

    The reduction over agents is a fixed-order numpy mean, so results are
    reproducible, and with one agent every expression degenerates to the
    corresponding gossip expression exactly.
    """
    alpha, beta, gamma = schedule.alpha(t), schedule.beta(t), schedule.gamma(t)
    n_agents = problem.k
    b = central.v.shape[0]

    def draw(agent: int):
        return problem.sample(agent, central.x, central.y, rng_streams[agent], b)

    if pool is None:
        samples = [draw(agent) for agent in range(n_agents)]
    else:
        samples = list(pool.map(draw, range(n_agents)))

    # 1-row batches through the gossip kernels keep K = 1 bitwise equal.
    z = hypergrad_estimate(central.s[None], central.u[None], central.q[None])[0]
    new_x = central.x - alpha * z
    new_y = central.y - gamma * np.mean([sm.gy_g for sm in samples], axis=0)
    new_s = (1.0 - beta) * central.s + beta * np.mean([sm.gx_f for sm in samples], axis=0)
    new_h = (1.0 - beta) * central.h + beta * np.mean([sm.gy_f for sm in samples], axis=0)
    new_u = (1.0 - beta) * central.u + beta * np.mean([sm.hxy_g for sm in samples], axis=0)
    new_v = (1.0 - beta) * central.v + beta * np.mean(
        [sm.hyy_g_draws for sm in samples], axis=0
    )
    new_q = neumann_apply(new_v[None], new_h[None], problem.constants.l_g)[0]

    for name, arr in (
        ("x", new_x), ("y", new_y), ("s", new_s),
        ("h", new_h), ("u", new_u), ("v", new_v), ("q", new_q),
    ):
        if not np.isfinite(arr).all():
            raise DivergenceError(agent=0, field=name, t=t)
    return CentralState(x=new_x, y=new_y, s=new_s, h=new_h, u=new_u, v=new_v, q=new_q)


def sgd_eta(c: float = 2.0):
    """Standard strongly-convex inner step sizes: eta_i = min(0.5, c/(i+1))."""

    def eta(i: int) -> float:
        return min(0.5, c / (i + 1))

    return eta


def _check_divergence(t, named_stacks):
    for name, stack in named_stacks:
        if not np.isfinite(stack).all():
            per_agent = np.isfinite(stack).reshape(stack.shape[0], -1).all(axis=1)
            raise DivergenceError(agent=int(np.argmin(per_agent)), field=name, t=t)


def dbsa_run(
    problem,
    w: MixingMatrix,
    t_total: int,
    alpha_schedule,
    eta_schedule,
    master_seed: int,
    recorder,
    full_hypergrad: bool = False,
    corr_depth: int = 1,
):
    """Double-loop bilevel stochastic approximation over a gossip network.

    Outer step t first refines the inner iterate with t gossip-SGD steps
    (warm-started from the previous outer step), then moves x along a
    sampled partial gradient of the outer objective.  Inner samples
    therefore grow quadratically: after finishing outer step t each agent
    has consumed t(t+1)/2 inner draws.

    ``full_hypergrad`` bolts the implicit-gradient correction onto the x
    update (built from ``corr_depth`` fresh Hessian draws); the default
    reproduces the published pseudocode, which descends the partial
    gradient only.
    """
    n_agents, mat = problem.k, w.weights
    consts = problem.constants
    xs = np.zeros((n_agents, consts.d_x))
    ys = np.zeros((n_agents, consts.d_y))
    zeta = xi = 0  # per-agent cumulative draws
    recorder.record(0, xs, ys, zeta, xi)
    alpha_of = alpha_schedule.alpha if hasattr(alpha_schedule, "alpha") else alpha_schedule

    try:
        for t in range(t_total):
            for i in range(t):
                eta = eta_schedule(i)
                grads = np.stack(
                    [
                        problem.sample(
                            agent, xs[agent], ys[agent],
                            stream(master_seed, "dbsa-inner", agent, t, i), 1,
                        ).gy_g
                        for agent in range(n_agents)
                    ]
                )
                ys = np.tensordot(mat, ys, axes=(1, 0)) - eta * grads
            xi += t

            outer = [
                problem.sample(
                    agent, xs[agent], ys[agent],
                    stream(master_seed, "dbsa-outer", agent, t), corr_depth,
                )
                for agent in range(n_agents)
            ]
            steps = np.stack([sm.gx_f for sm in outer])
            if full_hypergrad:
                for agent, sm in enumerate(outer):
                    q = neumann_chain(sm.hyy_g_draws, consts.l_g)
                    steps[agent] -= sm.hxy_g @ (q @ sm.gy_f)
            xs = np.tensordot(mat, xs, axes=(1, 0)) - alpha_of(t) * steps
            zeta += 1
            _check_divergence(t, (("x", xs), ("y", ys)))
            recorder.record(t + 1, xs, ys, zeta, xi)
    except DivergenceError as err:
        err.trace = recorder.finish()
        raise
    return recorder.finish()


def dsgd_run(
    problem,
    w: MixingMatrix,
    t_total: int,
    alpha_schedule,
    eta_schedule,
    master_seed: int,
    recorder,
):
    """Naive chain-rule baseline on compositional instances.

    At outer step t each agent rebuilds an inner-value estimate from
    scratch with t weighted-average gossip steps, then multiplies one
    Jacobian draw into the outer gradient at that estimate.  For
    heterogeneous instances the product of independently sampled factors
    does not average to the true gradient, which is exactly the bias the
    corrected algorithm removes.
    """
    if not getattr(problem, "compositional", False):
        raise UnsupportedProblemError(
            "the chain-rule baseline needs a compositional problem family "
            "(inner value expressible as a sampled mapping of x); "
            f"{type(problem).__name__} is not one"
        )
    n_agents, mat = problem.k, w.weights
    xs = np.zeros((n_agents, problem.constants.d_x))
    inner = np.zeros((n_agents, problem.comp_dim))
    zeta = xi = 0
    recorder.record(0, xs, inner[:, : problem.d_y], zeta, xi)
    alpha_of = alpha_schedule.alpha if hasattr(alpha_schedule, "alpha") else alpha_schedule

    try:
        for t in range(t_total):
            inner = np.zeros((n_agents, problem.comp_dim))
            for i in range(t):
                eta = eta_schedule(i)
                fresh = np.stack(
                    [
                        problem.comp_value(
                            agent, xs[agent], stream(master_seed, "dsgd-inner", agent, t, i)
                        )
                        for agent in range(n_agents)
                    ]
                )
                inner = (1.0 - eta) * np.tensordot(mat, inner, axes=(1, 0)) + eta * fresh
            xi += t

            steps = np.empty_like(xs)
            for agent in range(n_agents):
                rng = stream(master_seed, "dsgd-outer", agent, t)
                jac_t = problem.comp_jac(agent, xs[agent], rng)
                steps[agent] = jac_t @ problem.comp_outer_grad(inner[agent], rng)
            xs = np.tensordot(mat, xs, axes=(1, 0)) - alpha_of(t) * steps
            zeta += 1
            xi += 1  # Jacobian draw
            _check_divergence(t, (("x", xs), ("y", inner)))
            recorder.record(t + 1, xs, inner[:, : problem.d_y], zeta, xi)
    except DivergenceError as err:
        err.trace = recorder.finish()
        raise
    return recorder.finish()
