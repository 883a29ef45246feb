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

The double-loop runners are generators of trace steps; ``harness.run``
alone records them and attaches a divergence's partial trace.  They mix
with ``topology.gossip_mix`` and check iterates with
``core.check_finite``, like the round kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    NetworkState,
    StepSchedule,
    check_finite,
    init_agents,
    neumann_chain,
    round_step,
)
from .errors import UnsupportedProblemError
from .problems.base import StochasticSample, matvec
from .rng import stream
from .topology import MixingMatrix, gossip_mix

# The coordinator's single copy mixes only with itself.
_SELF_MIX = np.ones((1, 1))
_SELF_MIX.setflags(write=False)


def init_central(problem, b: int) -> NetworkState:
    """The coordinator's one-row state, matching the gossip initializer."""
    return init_agents(problem, b, k=1)


def agent_mean(field: np.ndarray) -> np.ndarray:
    """Mean over axis 0, summed row by row in agent order into one buffer.

    It has the bits of ``np.mean(np.ascontiguousarray(field), axis=0)``
    without the contiguous copy, which for a broadcast field (policy-eval's
    identity Hessian draws) is K identical rows.  The rows are walked with
    an iterator, so a :class:`~dsbo.problems.base.DeferredRows` field
    (hyperopt's Hessian draws) is built one row at a time.  numpy sums a
    field of one element per row pairwise instead; that case is K numbers,
    so it takes the copying path.
    """
    if math.prod(field.shape[1:]) == 1:
        return np.mean(np.ascontiguousarray(field), axis=0)
    rows = iter(field)
    acc = np.array(next(rows))
    for row in rows:
        acc += row
        del row  # a deferred row is freed before the next one is built
    acc /= len(field)
    return acc


def fedsbo_round(
    central: NetworkState,
    problem,
    schedule: StepSchedule,
    t: int,
    rng_streams,
) -> NetworkState:
    """One coordinator round: sample at the common iterate, average, update.

    The reduction over agents is ``agent_mean`` of each (K, ...) field, so
    results are reproducible and with one agent the averaged draw is the
    agent's own.
    """
    k = problem.k
    draws = problem.sample(
        range(k),
        np.broadcast_to(central.x, (k, problem.d_x)),
        np.broadcast_to(central.y, (k, problem.d_y)),
        rng_streams,
        central.v.shape[1],
    )
    mean = StochasticSample(**{
        name: agent_mean(field)[None] for name, field in vars(draws).items()
    })
    return round_step(central, _SELF_MIX, mean, schedule, t, problem.constants.l_g)


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
    full_hypergrad: bool = False,
    corr_depth: int = 1,
):
    """Double-loop bilevel stochastic approximation over a gossip network.

    Outer step t first refines the inner iterate with t gossip-SGD steps
    (warm-started from the previous outer step), then moves x along a
    sampled partial gradient of the outer objective.  Inner samples
    therefore grow quadratically: after finishing outer step t each agent
    has consumed t(t+1)/2 inner draws.  ``alpha_schedule(t)`` and
    ``eta_schedule(i)`` give the outer and inner step sizes.  Yields
    ``(t, xs, ys, samples_zeta, samples_xi)``, the draw counts cumulative
    per agent, at round 0 and after each outer step.

    ``full_hypergrad`` bolts the implicit-gradient correction onto the x
    update (built from ``corr_depth`` fresh Hessian draws); the default
    reproduces the published pseudocode, which descends the partial
    gradient only.
    """
    n_agents = problem.k
    agents = np.arange(n_agents)
    consts = problem.constants
    xs = np.zeros((n_agents, consts.d_x))
    ys = np.zeros((n_agents, consts.d_y))
    yield 0, xs, ys, 0, 0

    for t in range(t_total):
        for i in range(t):
            eta = eta_schedule(i)
            rngs = stream(master_seed, "dbsa-inner", agents, t, i)
            grads = problem.sample(agents, xs, ys, rngs, 1).gy_g
            ys = gossip_mix(ys, w) - eta * grads

        rngs = stream(master_seed, "dbsa-outer", agents, t)
        outer = problem.sample(agents, xs, ys, rngs, corr_depth)
        steps = outer.gx_f
        if full_hypergrad:
            steps = steps - np.stack([
                outer.hxy_g[agent]
                @ (neumann_chain(outer.hyy_g_draws[agent], consts.l_g) @ outer.gy_f[agent])
                for agent in agents
            ])
        xs = gossip_mix(xs, w) - alpha_schedule(t) * steps
        check_finite((("x", xs), ("y", ys)), t)
        # per agent: one outer draw a step, t inner draws at step t
        yield t + 1, xs, ys, t + 1, t * (t + 1) // 2


def check_compositional(problem):
    """Raise unless ``problem`` can run the chain-rule baseline."""
    if not getattr(problem, "compositional", False):
        raise UnsupportedProblemError(
            "the chain-rule baseline needs a compositional problem family "
            "(inner value expressible as a sampled mapping of x); "
            f"{type(problem).__name__} is not one"
        )


def dsgd_run(
    problem,
    w: MixingMatrix,
    t_total: int,
    alpha_schedule,
    eta_schedule,
    master_seed: int,
):
    """Naive chain-rule baseline on compositional instances.

    At outer step t each agent rebuilds an inner-value estimate from
    scratch with t weighted-average gossip steps, then multiplies one
    Jacobian draw into the outer gradient at that estimate.  For
    heterogeneous instances the product of independently sampled factors
    does not average to the true gradient, which is exactly the bias the
    corrected algorithm removes.  Step sizes and steps are as in
    ``dbsa_run``; ``ys`` is the inner estimate's first d_y entries.
    """
    check_compositional(problem)
    n_agents = problem.k
    agents = np.arange(n_agents)
    xs = np.zeros((n_agents, problem.constants.d_x))
    inner = np.zeros((n_agents, problem.comp_dim))
    yield 0, xs, inner[:, : problem.d_y], 0, 0

    for t in range(t_total):
        inner = np.zeros((n_agents, problem.comp_dim))
        for i in range(t):
            eta = eta_schedule(i)
            rngs = stream(master_seed, "dsgd-inner", agents, t, i)
            fresh = problem.comp_value(agents, xs, rngs)
            inner = (1.0 - eta) * gossip_mix(inner, w) + eta * fresh

        rngs = stream(master_seed, "dsgd-outer", agents, t)
        steps = matvec(problem.comp_jac(agents, xs, rngs), problem.comp_outer_grad(inner))
        xs = gossip_mix(xs, w) - alpha_schedule(t) * steps
        check_finite((("x", xs), ("y", inner)), t)
        # per agent: one outer draw a step; t inner draws and a Jacobian draw at step t
        yield t + 1, xs, inner[:, : problem.d_y], t + 1, t * (t + 1) // 2 + t + 1
