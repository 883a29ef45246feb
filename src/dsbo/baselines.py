"""Comparison algorithms: star-network aggregation and two double-loop methods.

* ``fedsbo_round``: a coordinator holds one copy of every quantity, ships
  the common iterate to all agents, and averages their fresh draws.  It
  is ``core.round_step`` on a one-row state with mix ``[[1.0]]``, so with
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
They mix with ``topology.gossip_mix`` and check iterates with
``core.check_finite``, like the round kernel.
"""

from __future__ import annotations

import numpy as np

from .core import (
    NetworkState,
    StepSchedule,
    check_finite,
    combine_draws,
    init_agents,
    neumann_chain,
    round_step,
)
from .errors import DivergenceError, UnsupportedProblemError
from .rng import stream
from .topology import MixingMatrix, gossip_mix

# The coordinator's single copy mixes only with itself.
_SELF_MIX = np.ones((1, 1))
_SELF_MIX.setflags(write=False)


def _agent_mean(arrays) -> np.ndarray:
    return np.mean(arrays, axis=0)[None]


def init_central(problem, b: int) -> NetworkState:
    """The coordinator's one-row state, matching the gossip initializer."""
    return init_agents(problem, b, k=1)


def fedsbo_round(
    central: NetworkState,
    problem,
    schedule: StepSchedule,
    t: int,
    rng_streams,
) -> NetworkState:
    """One coordinator round: sample at the common iterate, average, update.

    The reduction over agents is a fixed-order numpy mean, so results are
    reproducible, and with one agent the averaged draw is the agent's own.
    """
    b = central.v.shape[1]
    samples = [
        problem.sample(agent, central.x[0], central.y[0], rng_streams[agent], b)
        for agent in range(problem.k)
    ]
    return round_step(central, _SELF_MIX, combine_draws(samples, _agent_mean), schedule, t,
                      problem.constants.l_g)


def sgd_eta(c: float = 2.0):
    """Standard strongly-convex inner step sizes: eta_i = min(0.5, c/(i+1))."""

    def eta(i: int) -> float:
        return min(0.5, c / (i + 1))

    return eta


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
    n_agents = problem.k
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
                ys = gossip_mix(ys, w) - eta * grads
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
            xs = gossip_mix(xs, w) - alpha_of(t) * steps
            zeta += 1
            check_finite((("x", xs), ("y", ys)), t)
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
    n_agents = problem.k
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
                inner = (1.0 - eta) * gossip_mix(inner, w) + eta * fresh
            xi += t

            steps = np.empty_like(xs)
            for agent in range(n_agents):
                rng = stream(master_seed, "dsgd-outer", agent, t)
                jac_t = problem.comp_jac(agent, xs[agent], rng)
                steps[agent] = jac_t @ problem.comp_outer_grad(inner[agent], rng)
            xs = gossip_mix(xs, w) - alpha_of(t) * steps
            zeta += 1
            xi += 1  # Jacobian draw
            check_finite((("x", xs), ("y", inner)), t)
            recorder.record(t + 1, xs, inner[:, : problem.d_y], zeta, xi)
    except DivergenceError as err:
        err.trace = recorder.finish()
        raise
    return recorder.finish()
