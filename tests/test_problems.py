"""Problem families: closed forms, oracle statistics, and data plumbing."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsbo import (
    ConfigError,
    DataFormatError,
    HyperoptBilevel,
    PolicyEvalBilevel,
    ProblemConfig,
    ProblemConstants,
    QuadraticBilevel,
    Recorder,
    StochasticSample,
    build_problem,
    densify,
    init_agents,
    parse_libsvm,
    split_partition,
    stream,
    train_val_split,
)
from dsbo.harness import resolve_reference
from dsbo.problems import DeferredRows
from dsbo.problems.base import clip_spectrum, matvec
from dsbo.problems.hyperopt import logistic_grad, logistic_loss, sigmoid, softplus


def draw(problem, agent, x, y, rng, b=1):
    """One agent's draw at (x, y): a one-row ``sample`` call, unstacked."""
    sm = problem.sample([agent], x[None], y[None], [rng], b)
    return StochasticSample(**{name: field[0] for name, field in vars(sm).items()})


def finite_diff_hypergrad(problem, x, step=1e-5):
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (problem.objective(x + e) - problem.objective(x - e)) / (2 * step)
    return grad


class TestProblemConstants:
    def test_accepts_valid(self):
        c = ProblemConstants(d_x=2, d_y=3, mu_g=0.5, l_g=1.5, kappa_g=0.2,
                             sigma_f=0.1, sigma_g=0.1)
        assert (c.d_x, c.d_y, c.kappa_g) == (2, 3, 0.2)

    def test_spectral_ball_ends_sit_on_the_contraction_bound(self):
        c = ProblemConstants(d_x=2, d_y=3, mu_g=0.5, l_g=1.5, kappa_g=0.2,
                             sigma_f=0.1, sigma_g=0.1)
        lo, hi = c.spectral_ball
        assert (lo, hi) == pytest.approx((0.3, 2.7))
        # ||I - H/l_g||_2 = 1 - kappa_g at either end of the ball
        assert abs(1.0 - np.array([lo, hi]) / c.l_g) == pytest.approx([0.8, 0.8])

    def test_rejects_kappa_above_ratio(self):
        with pytest.raises(ConfigError):
            ProblemConstants(d_x=2, d_y=3, mu_g=0.5, l_g=1.5, kappa_g=0.5,
                             sigma_f=0.0, sigma_g=0.0)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ConfigError):
            ProblemConstants(d_x=2, d_y=3, mu_g=0.5, l_g=1.5, kappa_g=0.0,
                             sigma_f=0.0, sigma_g=0.0)

    def test_rejects_mu_above_l(self):
        with pytest.raises(ConfigError):
            ProblemConstants(d_x=2, d_y=3, mu_g=2.0, l_g=1.5, kappa_g=0.5,
                             sigma_f=0.0, sigma_g=0.0)


class TestQuadraticScalarExample:
    """The 1-D instance g = (y-x)^2/2, f = y^2/2 + x^2/2."""

    @pytest.fixture()
    def problem(self):
        return QuadraticBilevel(
            b_matrix=[[1.0]], c_matrix=[[1.0]],
            a_vectors=[[0.0]], d_vectors=[[0.0]],
        )

    def test_lower_solution(self, problem):
        assert problem.exact_lower(np.array([2.0]))[0] == pytest.approx(2.0)

    def test_hypergrad_is_2x(self, problem):
        assert problem.exact_hypergrad(np.array([1.0]))[0] == pytest.approx(2.0)
        fd = finite_diff_hypergrad(problem, np.array([0.7]))
        assert fd[0] == pytest.approx(1.4, rel=1e-6)

    def test_optimum_at_origin(self, problem):
        x_star, f_star = problem.optimum()
        assert abs(x_star[0]) < 1e-12 and abs(f_star) < 1e-12


class TestQuadraticFamily:
    def test_hessian_noise_holds_two_stacks(self):
        # the symmetrized noise is built in place over the Gaussian draw:
        # past the live set a sample holds at most the draw and the
        # returned Hessian stack at once (plus the small fields); out of
        # place it peaked at four stacks
        k, b, d = 10, 90, 10
        p = build_problem(ProblemConfig(family="quadratic", d_x=4, d_y=d, seed=2), k)
        rng = np.random.default_rng(0)
        xs, ys = rng.standard_normal((k, 4)), rng.standard_normal((k, d))
        p.sample(range(k), xs, ys, [stream(0, "warm", r) for r in range(k)], b)
        rngs = [stream(0, "noise", r) for r in range(k)]
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            out = p.sample(range(k), xs, ys, rngs, b)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        stack = out.hyy_g_draws.nbytes
        assert stack == k * b * d * d * 8
        assert peak <= 2.2 * stack, (peak, stack)

    def test_lower_matches_solve(self):
        p = build_problem(ProblemConfig(family="quadratic", d_x=6, d_y=5, seed=2), 4)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(6)
            y = p.exact_lower(x)
            # direct linear solve, independent of the cached inverse
            b = p.exact_gradients(x, np.zeros(5)).hyy_g
            expect = np.linalg.solve(b, p.exact_gradients(x, np.zeros(5)).gy_g * -1)
            assert np.allclose(y, expect, atol=1e-10)

    def test_inner_gradient_zero_at_solution(self):
        p = build_problem(ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=5), 3)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(4)
            grad = p.exact_gradients(x, p.exact_lower(x)).gy_g
            assert np.abs(grad).max() < 1e-8

    def test_hypergrad_matches_finite_differences(self):
        p = build_problem(ProblemConfig(family="quadratic", d_x=5, d_y=4, seed=7), 3)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal(5)
            exact = p.exact_hypergrad(x)
            fd = finite_diff_hypergrad(p, x)
            assert np.linalg.norm(fd - exact) / max(np.linalg.norm(exact), 1e-12) < 1e-5

    def test_optimum_is_stationary(self):
        p = build_problem(ProblemConfig(family="quadratic", d_x=5, d_y=4, seed=7), 3)
        x_star, f_star = p.optimum()
        assert np.abs(p.exact_hypergrad(x_star)).max() < 1e-8
        assert p.objective(x_star) == pytest.approx(f_star)

    def test_agent_means_exact(self):
        p = build_problem(ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=3,
                                        heterogeneity=2.0), 5)
        gx = np.mean([draw(p, a, np.zeros(4), np.zeros(4),
                               np.random.default_rng(0), 1).gx_f for a in range(5)], axis=0)
        # sigma_f noise is zero-mean but nonzero per draw; compare the
        # noiseless structure instead via exact_gradients
        assert np.allclose(p.exact_gradients(np.zeros(4), np.zeros(4)).gx_f,
                           -p._abar)  # noqa: SLF001 - structural check

    def test_k1_heterogeneity_collapses(self):
        p = build_problem(ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=3,
                                        heterogeneity=5.0), 1)
        x = np.ones(4)
        sample = draw(p, 0, x, np.zeros(4), np.random.default_rng(0), 1)
        # single agent: a_0 == abar exactly, so the draw is exact plus noise
        exact = p.exact_gradients(x, np.zeros(4)).gx_f
        assert np.abs(sample.gx_f - exact).max() <= p.constants.sigma_f * math.sqrt(3) + 1e-12

    def test_zero_noise_draws_are_exact(self):
        p = build_problem(ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=11, sigma_f=0.0,
                                        sigma_g=0.0), 3)
        x, y = np.ones(4), np.full(4, 0.5)
        sm = draw(p, 1, x, y, np.random.default_rng(0), 2)
        assert np.allclose(sm.hyy_g_draws[0], sm.hyy_g_draws[1])
        assert np.allclose(sm.gy_f, y)

    def test_sigma_g_too_large_rejected(self):
        with pytest.raises(ConfigError):
            build_problem(ProblemConfig(family="quadratic", d_x=3, d_y=8, seed=1, mu_g=0.1,
                                        l_g=1.0, sigma_g=0.5), 2)

    def test_mu_above_l_rejected(self):
        with pytest.raises(ConfigError):
            build_problem(ProblemConfig(family="quadratic", d_x=3, d_y=3, seed=1, mu_g=2.0,
                                        l_g=1.0), 2)


class TestPolicyEval:
    def test_gamma_zero_zero_rewards(self):
        p = build_problem(ProblemConfig(family="policy-eval", n_states=8, feat_dim=3, discount=0.0,
                                        lam=0.5, seed=4), 2)
        # force zero reward means through a fresh instance with the same
        # features: construct directly
        from dsbo import PolicyEvalBilevel

        rng = np.random.default_rng(4)
        phi = rng.uniform(size=(8, 3))
        trans = rng.uniform(size=(8, 8))
        trans /= trans.sum(axis=1, keepdims=True)
        q = PolicyEvalBilevel(phi, trans, np.zeros((2, 8, 8)), gamma=0.0, lam=0.5,
                              sigma_r=0.0)
        x = rng.standard_normal(3)
        assert np.allclose(q.exact_lower(x), 0.0)
        expect = 0.5 * ((phi @ x) ** 2).mean() + 0.25 * (x @ x)
        assert q.objective(x) == pytest.approx(expect)
        x_star, _ = q.optimum()
        assert np.allclose(x_star, 0.0, atol=1e-12)

    def test_deterministic_transition_target(self):
        from dsbo import PolicyEvalBilevel

        rng = np.random.default_rng(5)
        phi = rng.uniform(size=(4, 2))
        trans = np.zeros((4, 4))
        nxt = [1, 2, 3, 0]
        for s, s2 in enumerate(nxt):
            trans[s, s2] = 1.0
        p = PolicyEvalBilevel(phi, trans, np.zeros((1, 4, 4)), gamma=0.9, lam=1.0,
                              sigma_r=0.0)
        x = rng.standard_normal(2)
        assert np.allclose(p.exact_lower(x), 0.9 * phi[nxt] @ x)
        sm = draw(p, 0, x, np.zeros(4), np.random.default_rng(0), 1)
        # point-mass transition + zero noise: the sampled inner gradient is exact
        assert np.allclose(sm.gy_g, np.zeros(4) - 0.9 * phi[nxt] @ x)

    def test_optimum_gradient_small(self):
        p = build_problem(ProblemConfig(family="policy-eval", n_states=20, feat_dim=5,
                                        discount=0.5, lam=1.0, seed=6), 3)
        x_star, f_star = p.optimum()
        assert np.linalg.norm(p.exact_hypergrad(x_star)) <= 1e-8
        assert p.objective(x_star) == pytest.approx(f_star)

    def test_hypergrad_matches_finite_differences(self):
        p = build_problem(ProblemConfig(family="policy-eval", n_states=12, feat_dim=4,
                                        discount=0.7, lam=1.0, seed=8), 2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(4)
            exact = p.exact_hypergrad(x)
            fd = finite_diff_hypergrad(p, x)
            assert np.linalg.norm(fd - exact) / np.linalg.norm(exact) < 1e-5

    def test_unit_inner_curvature(self):
        p = build_problem(ProblemConfig(family="policy-eval", n_states=10, feat_dim=3,
                                        discount=0.5, lam=1.0, seed=9), 2)
        c = p.constants
        assert (c.mu_g, c.l_g, c.kappa_g) == (1.0, 1.0, 1.0)
        sm = draw(p, 0, np.zeros(3), np.zeros(10), np.random.default_rng(0), 2)
        assert np.allclose(sm.hyy_g_draws, np.eye(10))

    def test_gamma_one_rejected(self):
        with pytest.raises(ConfigError):
            build_problem(ProblemConfig(family="policy-eval", n_states=5, feat_dim=2, discount=1.0,
                                        lam=1.0, seed=1), 2)
        with pytest.raises(ConfigError):
            build_problem(ProblemConfig(family="policy-eval", n_states=5, feat_dim=2, discount=0.5,
                                        lam=0.0, seed=1), 2)

    def test_homogeneous_instances_share_rewards(self):
        p = build_problem(ProblemConfig(family="policy-eval", n_states=6, feat_dim=3, discount=0.5,
                                        lam=1.0, seed=10, homogeneous=True), 4)
        g0 = p.exact_gradients(np.ones(3), np.zeros(6))
        # all agents' deterministic targets coincide: sample with exact
        # oracle and compare across agents
        q = build_problem(ProblemConfig(family="policy-eval", n_states=6, feat_dim=3, discount=0.5,
                                        lam=1.0, seed=10, homogeneous=True, exact_oracle=True), 4)
        rng = np.random.default_rng(0)
        draws = [draw(q, a, np.ones(3), np.zeros(6), rng, 1).gy_g for a in range(4)]
        for d in draws[1:]:
            assert np.allclose(d, draws[0])
        assert np.allclose(g0.gy_g, draws[0])

    def test_compositional_interface(self):
        p = build_problem(ProblemConfig(family="policy-eval", n_states=6, feat_dim=3, discount=0.5,
                                        lam=1.0, seed=12, exact_oracle=True), 2)
        x = np.ones(3)
        val = p.comp_value([0], x[None], [np.random.default_rng(0)])[0]
        assert val.shape == (p.comp_dim,)
        assert np.allclose(val[p.d_y:], x)
        jac = p.comp_jac([0], x[None], [np.random.default_rng(0)])[0]
        assert jac.shape == (p.d_x, p.comp_dim)
        assert np.allclose(jac[:, p.d_y:], np.eye(3))

    @pytest.mark.parametrize("bad", [-0.5, np.nan])
    def test_negative_transition_rejected(self, bad):
        trans = np.array([[1.0 - bad, bad], [0.5, 0.5]])
        with pytest.raises(ConfigError, match="nonnegative"):
            PolicyEvalBilevel(np.ones((2, 1)), trans, np.zeros((1, 2, 2)), gamma=0.5,
                              lam=1.0)

    def test_sample_builds_no_comparison_cube(self):
        # past the live set a K=20 sample holds its outputs, the gathered
        # next-state features and row-sized temporaries; the (R, n, n)
        # comparison cube of a float next-state search peaked 197 KB
        k, n = 20, 50
        p = build_problem(ProblemConfig(family="policy-eval", n_states=n, feat_dim=5, discount=0.5,
                                        lam=1.0, seed=7), k)
        rng = np.random.default_rng(0)
        agents = np.arange(k)
        xs, ys = rng.standard_normal((k, 5)), rng.standard_normal((k, n))
        p.sample(agents, xs, ys, stream(0, "warm", agents), 1)
        rngs = stream(0, "oracle", agents)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            p.sample(agents, xs, ys, rngs, 1)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak <= 120_000, peak

    def test_instance_holds_rewards_keys_and_identity(self):
        # the (n, n) arrays an instance keeps are the K reward-mean
        # matrices, the next-state search keys and the identity; the
        # transition matrix is read in construction only
        k, n = 5, 50
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p = build_problem(ProblemConfig(family="policy-eval", n_states=n, feat_dim=5,
                                            discount=0.5, lam=1.0, seed=7), k)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert p.d_y == n
        assert kept <= 8 * (k + 2) * n * n + 16 * 1024, kept


    def test_record_runs_no_dense_solve(self, monkeypatch):
        # the exact inner Hessian is the identity, so the family skips the solve
        p = build_problem(ProblemConfig(family="policy-eval", n_states=20, feat_dim=4,
                                        discount=0.6, lam=1.0, seed=13), 3)
        x_star, f_star = p.optimum()
        state = init_agents(p, b=2)
        recorder = Recorder(p, cadence=1, t_total=2, x_star=x_star, f_star=f_star)

        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        recorder.record(0, state.x + 0.3, state.y, 0, 0, est=state)
        recorder.record(1, state.x - 0.2, state.y, 1, 1)
        assert len(recorder.records) == 2


class FixedDraws:
    """Stands in for a Generator whose ``random`` returns the given values."""

    def __init__(self, u):
        self.u = u

    def random(self, n, out):
        out[:] = self.u


GRID = 2.0**-53  # spacing of Generator.random's doubles


def cube_next_states(trans, u):
    """The float search: the first j with u < cumsum(trans)[s, j], via the
    (R, n, n) comparison cube, with each cumulative row's last entry set to 1."""
    cum_p = np.cumsum(trans, axis=1)
    cum_p[:, -1] = 1.0
    return (u[:, :, None] < cum_p).argmax(axis=2)


def random_transitions(rng, n, zero_frac):
    trans = rng.random((n, n)) * (rng.random((n, n)) >= zero_frac)
    trans[np.arange(n), rng.integers(0, n, n)] += 0.5  # no all-zero row
    return trans / trans.sum(axis=1, keepdims=True)


def policy_eval_with(trans, k=1):
    n = trans.shape[0]
    return PolicyEvalBilevel(np.ones((n, 2)), trans, np.zeros((k, n, n)), gamma=0.5, lam=1.0)


def boundary_draws(trans, cols=slice(None)):
    """Grid draws at and around cumulative entries, with 0 and 1 - 2**-53.

    Row r of the result holds, for each state s, the r-th candidate of s:
    the grid points just below, at and above ``cum_p[s, j]`` for each
    column j in ``cols``, clipped to [0, 1 - 2**-53].
    """
    cum_p = np.minimum(np.cumsum(trans, axis=1), 1.0)[:, cols]
    lo = np.floor(cum_p / GRID) * GRID
    hi = np.ceil(cum_p / GRID) * GRID
    ends = np.zeros((len(trans), 2))
    ends[:, 1] = 1.0 - GRID
    cand = np.concatenate([lo - GRID, lo, hi, hi + GRID, ends], axis=1)
    return np.clip(cand, 0.0, 1.0 - GRID).T.copy()


class TestPolicyEvalNextStates:
    """The integer search picks the states the float comparison cube picks."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), k=st.integers(1, 20),
           zero_frac=st.sampled_from([0.0, 0.5, 0.9]))
    @settings(max_examples=40, deadline=None)
    def test_matches_comparison_cube(self, seed, n, k, zero_frac):
        rng = np.random.default_rng(seed)
        trans = random_transitions(rng, n, zero_frac)
        p = policy_eval_with(trans, k)
        rngs = stream(seed, "next", np.arange(k))
        u = np.stack([g.random(n) for g in stream(seed, "next", np.arange(k))])
        got, noise = p._next_states(rngs, reward_noise=False)
        assert noise is None
        assert np.array_equal(got, cube_next_states(trans, u))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_boundary_draws(self, seed, n):
        rng = np.random.default_rng(seed)
        trans = random_transitions(rng, n, 0.3)
        u = boundary_draws(trans)
        got, _ = policy_eval_with(trans)._next_states([FixedDraws(row) for row in u], False)
        assert np.array_equal(got, cube_next_states(trans, u))

    @pytest.mark.parametrize("trans, u, expect", [
        # quarter probabilities put every cumulative entry on the grid: a
        # draw equal to an entry moves past it, its lower neighbour does not
        ([[0.25, 0.25, 0.5], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]],
         [[0.0, 0.0, 0.0], [0.25 - GRID, 0.5 - GRID, 1 - GRID], [0.25, 0.5, 0.5],
          [0.25 + GRID, 0.5 + GRID, 0.25], [0.5, 1 - GRID, 0.75]],
         [[0, 0, 2], [0, 0, 2], [1, 2, 2], [1, 2, 2], [2, 2, 2]]),
        # row 0's cumsum passes 1 at column 1, so column 2 is never drawn
        ([[0.6, 0.4 + 1e-10, 1e-11], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]],
         [[0.0, 0.0, 0.0], [0.6 - GRID, 0.5 - GRID, 0.25], [0.6, 0.5, 0.5],
          [1 - GRID, 1 - GRID, 1 - GRID]],
         [[0, 0, 0], [0, 0, 1], [1, 1, 2], [1, 1, 2]]),
    ], ids=["grid-entries", "cumsum-passes-one"])
    def test_boundary_examples(self, trans, u, expect):
        trans, u = np.array(trans), np.array(u)
        got, _ = policy_eval_with(trans)._next_states([FixedDraws(row) for row in u], False)
        assert got.tolist() == expect
        assert np.array_equal(got, cube_next_states(trans, u))

    def test_more_states_than_one_search_holds(self):
        from dsbo.problems.policy_eval import _SEARCH_ROWS

        n = 1100
        assert n > _SEARCH_ROWS  # the keys span two int64 searches
        trans = random_transitions(np.random.default_rng(5), n, 0.0)
        p = policy_eval_with(trans)
        u = np.stack([g.random(n) for g in stream(5, "wide", np.arange(2))])
        got, _ = p._next_states(stream(5, "wide", np.arange(2)), reward_noise=False)
        assert np.array_equal(got, cube_next_states(trans, u))
        # and on every state's boundary draws at two columns
        u = boundary_draws(trans, cols=[3, 700])
        got, _ = p._next_states([FixedDraws(row) for row in u], False)
        assert np.array_equal(got, cube_next_states(trans, u))


@pytest.mark.parametrize("problem", [
    build_problem(ProblemConfig(family="quadratic", d_x=4, d_y=5, seed=21), 3),
    build_problem(ProblemConfig(family="policy-eval", n_states=20, feat_dim=4, discount=0.6,
                                lam=1.0, seed=13), 3),
    build_problem(ProblemConfig(family="hyperopt", n_points=40, dim=4, seed=5), 3),
], ids=["quadratic", "policy-eval", "hyperopt"])
def test_exact_hypergrad_equals_solve_form(problem):
    # a family's own inner solve must give the dense solve's bits
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = rng.standard_normal(problem.d_x)
        exact = problem.exact_gradients(x, problem.exact_lower(x))
        dense = exact.gx_f - exact.hxy_g @ np.linalg.solve(exact.hyy_g, exact.gy_f)
        assert np.array_equal(problem.exact_hypergrad(x), dense)


class TestHyperopt:
    def test_logistic_loss_at_zero(self):
        w = np.array([1.0, -2.0])
        assert logistic_loss(np.zeros(2), w, 1.0) == pytest.approx(math.log(2))
        assert np.allclose(logistic_grad(np.zeros(2), w, 1.0), -0.5 * w)
        assert np.allclose(logistic_grad(np.zeros(2), w, 0.0), 0.5 * w)

    def test_worked_hessian_example(self):
        # one training point w=(1,0), y=0, regularizer weight 0.1 per
        # coordinate -> inner Hessian diag(0.1, 0.1) + ww^T/4
        w = np.array([[1.0, 0.0]])
        z = np.array([1.0])
        prob = HyperoptBilevel(w, z, [[0]], [[0]], lam_min=0.1)
        # softplus(x) + 0.1 == 0.1 requires softplus(x) -> 0: x -> -inf;
        # x = -50 is far past double precision underflow of softplus
        x = np.full(2, -50.0)
        sm = draw(prob, 0, x, np.zeros(2), np.random.default_rng(0), 1)
        assert np.allclose(sm.hyy_g_draws[0], np.array([[0.35, 0.0], [0.0, 0.1]]),
                           atol=1e-12)

    def test_hessian_matches_finite_difference_of_inner_grad(self):
        prob = build_problem(ProblemConfig(family="hyperopt", n_points=30, dim=3, seed=3), 2)
        x = np.zeros(3)
        y = np.full(3, 0.2)
        exact = prob.exact_gradients(x, y)
        step = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = step
            col = (prob.exact_gradients(x, y + e).gy_g
                   - prob.exact_gradients(x, y - e).gy_g) / (2 * step)
            assert np.allclose(col, exact.hyy_g[:, i], atol=1e-5)

    def test_inner_solver_reaches_stationarity(self):
        prob = build_problem(ProblemConfig(family="hyperopt", n_points=40, dim=4, seed=5), 3)
        x = np.linspace(-1, 1, 4)
        y = prob.exact_lower(x)
        assert np.linalg.norm(prob.exact_gradients(x, y).gy_g) < 1e-10

    def test_newton_carries_the_accepted_trial_gradient(self, monkeypatch):
        def reference_lower(prob, x):
            # The damped-Newton loop that recomputed the gradient of the
            # accepted trial at the top of each iteration.
            y = np.zeros(prob.d_y)
            for iters in range(1, 101):
                grad = prob._full_inner_grad(x, y)
                gnorm = np.linalg.norm(grad)
                if gnorm <= 1e-12:
                    return y, iters
                step = np.linalg.solve(prob._full_inner_hess(x, y), grad)
                scale = 1.0
                for _ in range(40):
                    trial = y - scale * step
                    if np.linalg.norm(prob._full_inner_grad(x, trial)) < gnorm:
                        y = trial
                        break
                    scale *= 0.5
            raise AssertionError("reference solve did not converge")

        prob = build_problem(ProblemConfig(family="hyperopt", n_points=60, dim=4, seed=5), 3)
        calls = []
        grad = prob._full_inner_grad

        def counting_grad(x, y):
            calls.append(1)
            return grad(x, y)

        monkeypatch.setattr(prob, "_full_inner_grad", counting_grad)
        rng = np.random.default_rng(8)
        for x in (np.zeros(4), np.linspace(-1, 1, 4), 3.0 * rng.standard_normal(4),
                  np.full(4, -30.0)):
            calls.clear()
            expect, iters = reference_lower(prob, x)
            reference_calls = len(calls)
            calls.clear()
            got = prob.exact_lower(x)
            assert np.array_equal(got, expect)
            # one evaluation per line-search trial plus the start point,
            # where the reference paid one more per iteration
            assert len(calls) == reference_calls - iters + 1

    def test_hypergrad_matches_finite_differences(self):
        prob = build_problem(ProblemConfig(family="hyperopt", n_points=30, dim=3, seed=7), 2)
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = rng.standard_normal(3)
            exact = prob.exact_hypergrad(x)
            fd = finite_diff_hypergrad(prob, x)
            assert np.linalg.norm(fd - exact) / np.linalg.norm(exact) < 1e-5

    def test_regularizer_floor_keeps_convexity(self):
        prob = build_problem(ProblemConfig(family="hyperopt", n_points=20, dim=3, seed=9,
                                           reg_floor=1e-3), 2)
        x = np.full(3, -40.0)  # softplus underflows to 0
        sm = draw(prob, 0, x, np.zeros(3), np.random.default_rng(0), 1)
        assert np.linalg.eigvalsh(sm.hyy_g_draws[0]).min() >= 1e-3 - 1e-15

    def test_empty_partition_rejected(self):
        w = np.ones((2, 2))
        z = np.ones(2)
        with pytest.raises(ConfigError, match="agent 1 has an empty train shard"):
            HyperoptBilevel(w, z, [[0], []], [[0], [1]])

    def test_label_count_must_match_feature_rows(self):
        with pytest.raises(ConfigError, match="do not match features"):
            HyperoptBilevel(np.ones((3, 2)), np.ones(2), [[0], [1]], [[0], [1]])

    def test_optimum_not_closed_form(self):
        prob = build_problem(ProblemConfig(family="hyperopt", n_points=20, dim=3, seed=11), 2)
        assert prob.optimum() is None

    @given(
        st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=4),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_pooled_evaluators_match_per_agent_loop(self, sizes, dim, seed):
        # Unequal (train, validation) shard sizes per agent; the reference
        # averages per-point logistic terms within each shard, then over
        # agents. atol covers cancellation between O(1) per-point terms.
        rng = np.random.default_rng(seed)
        datasets = [
            tuple((rng.standard_normal((n, dim)), (rng.random(n) < 0.5).astype(float))
                  for n in (n_tr, n_va))
            for n_tr, n_va in sizes
        ]
        k = len(datasets)
        prob = HyperoptBilevel(*_pooled(datasets), lam_min=0.01)
        x, y = rng.standard_normal(dim), rng.standard_normal(dim)

        def agent_mean(term, part):
            w, z = part
            return np.mean([term(y, w_j, z_j) for w_j, z_j in zip(w, z)], axis=0)

        def curvature(y, w, z):
            s = float(sigmoid(np.dot(w, y)))
            return s * (1.0 - s) * np.outer(w, w)

        reg = softplus(x) + 0.01
        want_gy_g = sum(agent_mean(logistic_grad, tr) for tr, _ in datasets) / k + reg * y
        want_hyy = sum(agent_mean(curvature, tr) for tr, _ in datasets) / k + np.diag(reg)
        want_gy_f = sum(agent_mean(logistic_grad, va) for _, va in datasets) / k
        want_f = sum(agent_mean(logistic_loss, va) for _, va in datasets) / k

        exact = prob.exact_gradients(x, y)
        np.testing.assert_allclose(exact.gy_g, want_gy_g, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(exact.hyy_g, want_hyy, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(exact.gy_f, want_gy_f, rtol=1e-12, atol=1e-13)
        assert prob.outer_value(x, y) == pytest.approx(want_f, rel=1e-12)

    def test_one_inner_solve_per_exact_evaluation(self, monkeypatch):
        from scipy import optimize

        prob = build_problem(ProblemConfig(family="hyperopt", n_points=30, dim=3, seed=7), 2)
        solves = []
        newton = prob.exact_lower

        def counting_lower(x):
            solves.append(1)
            return newton(x)

        monkeypatch.setattr(prob, "exact_lower", counting_lower)
        state = init_agents(prob, b=2)
        recorder = Recorder(prob, cadence=1, t_total=1, x_star=np.zeros(3), f_star=0.0)
        recorder.record(0, state.x, state.y, 0, 0, est=state)
        assert len(solves) == 1

        evals = []
        minimize = optimize.minimize

        def counting_minimize(fun, x0, **kwargs):
            def counted(x):
                evals.append(1)
                return fun(x)

            return minimize(counted, x0, **kwargs)

        monkeypatch.setattr(optimize, "minimize", counting_minimize)
        solves.clear()
        resolve_reference(prob)
        assert len(evals) > 1 and len(solves) == len(evals)


class TestParseLibsvm:
    def test_basic_record(self):
        recs = parse_libsvm("1 1:0.5 3:-2\n")
        assert recs == [(1, {1: 0.5, 3: -2.0})]

    def test_negative_label_maps_to_zero(self):
        assert parse_libsvm("-1 2:1\n") == [(0, {2: 1.0})]

    def test_nonincreasing_indices_error(self):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_libsvm("1 3:1 2:4\n")

    def test_malformed_token_error(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_libsvm("1 1:1\n0 2:abc\n")

    def test_non_numeric_label_error(self):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_libsvm("spam 1:1\n")

    def test_blank_lines_skipped(self):
        assert len(parse_libsvm("1 1:1\n\n \n0 1:2\n")) == 2

    def test_accepts_file_object(self):
        recs = parse_libsvm(io.StringIO("1 1:0.5\n"))
        assert recs == [(1, {1: 0.5})]

    def test_densify_shapes(self):
        feats, labels = densify(parse_libsvm("1 1:0.5 3:-2\n0 2:1\n"))
        assert feats.shape == (2, 3)
        assert feats[0, 0] == 0.5 and feats[0, 2] == -2.0 and feats[1, 1] == 1.0
        assert labels.tolist() == [1, 0]


class TestSplits:
    def test_even_split(self):
        shards = split_partition(list(range(10)), 2, seed=0)
        assert sorted(len(s) for s in shards) == [5, 5]

    def test_remainder_spread(self):
        shards = split_partition(list(range(10)), 3, seed=0)
        assert [len(s) for s in shards] == [4, 3, 3]

    def test_deterministic(self):
        a = split_partition(list(range(20)), 4, seed=9)
        b = split_partition(list(range(20)), 4, seed=9)
        assert a == b

    def test_partition_is_exact(self):
        shards = split_partition(list(range(17)), 4, seed=3)
        merged = sorted(x for s in shards for x in s)
        assert merged == list(range(17))

    def test_too_many_agents_rejected(self):
        with pytest.raises(ConfigError):
            split_partition(list(range(3)), 4, seed=0)

    def test_train_val_split_fraction(self):
        train, val = train_val_split(list(range(10)), seed=0, fraction=0.7)
        assert len(train) == 7 and len(val) == 3
        assert sorted(train + val) == list(range(10))

    @given(st.integers(2, 40), st.integers(1, 8), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_split_property(self, n, k, seed):
        if k > n:
            return
        shards = split_partition(list(range(n)), k, seed)
        sizes = [len(s) for s in shards]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


class TestOracleMoments:
    """Smaller-N cousins of the acceptance unbiasedness gate."""

    @staticmethod
    def run_moment_check(problem, n_draws=4000, n_se=5.0, seed=123):
        rng = stream(seed, "moment-point")
        x = 0.5 * rng.standard_normal(problem.d_x)
        y = 0.5 * rng.standard_normal(problem.d_y)
        exact = problem.exact_gradients(x, y)
        fields = {"gx_f": exact.gx_f, "gy_f": exact.gy_f, "gy_g": exact.gy_g,
                  "hxy_g": exact.hxy_g, "hyy_g": exact.hyy_g}
        sums = {f: np.zeros_like(v) for f, v in fields.items()}
        sqs = {f: np.zeros_like(v) for f, v in fields.items()}
        per_agent = n_draws // problem.k
        total = per_agent * problem.k
        for agent in range(problem.k):
            for i in range(per_agent):
                sm = draw(problem, agent, x, y, stream(seed, "moment", agent, i), 1)
                for f, v in (("gx_f", sm.gx_f), ("gy_f", sm.gy_f), ("gy_g", sm.gy_g),
                             ("hxy_g", sm.hxy_g), ("hyy_g", sm.hyy_g_draws[0])):
                    sums[f] += v
                    sqs[f] += v * v
        for f, target in fields.items():
            mean = sums[f] / total
            var = np.maximum(sqs[f] / total - mean**2, 0.0)
            se = math.sqrt(float(var.sum()) / total)
            gap = float(np.linalg.norm(mean - target))
            assert gap <= n_se * se + 1e-12, f"{f}: gap {gap:.3e} > {n_se} SE {se:.3e}"

    def test_quadratic(self):
        self.run_moment_check(build_problem(ProblemConfig(family="quadratic", d_x=4, d_y=5,
                                                          seed=21), 2))

    def test_policy_eval(self):
        self.run_moment_check(build_problem(ProblemConfig(family="policy-eval", n_states=10,
                                                          feat_dim=3, discount=0.6, lam=1.0,
                                                          seed=22), 2))

    def test_hyperopt(self):
        self.run_moment_check(build_problem(ProblemConfig(family="hyperopt", n_points=24, dim=3,
                                                          seed=23), 2))


def _pooled(datasets):
    """Stack per-agent ((train_w, train_z), (val_w, val_z)) parts into one
    dataset: ``(features, labels, train_shards, val_shards)``."""
    parts = [part for agent in datasets for part in agent]
    bounds = np.cumsum([0] + [len(z) for _, z in parts])
    shards = [list(range(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return (np.concatenate([w for w, _ in parts]), np.concatenate([z for _, z in parts]),
            shards[0::2], shards[1::2])


def _unequal_hyperopt(minibatch=3, dim=4):
    """Four agents with unequal (train, validation) shards."""
    rng = np.random.default_rng(5)
    datasets = [
        tuple((rng.standard_normal((n, dim)), (rng.random(n) < 0.5).astype(float))
              for n in sizes)
        for sizes in ((3, 4), (7, 2), (5, 6), (1, 3))
    ]
    return HyperoptBilevel(*_pooled(datasets), lam_min=0.01, minibatch=minibatch)


# name -> (problem, scale of every third row's x, module whose clip_spectrum
# the case must reach).  Hyperopt x = O(60) pushes softplus past the
# spectral ball; quadratic kappa_g = 0.2 leaves a Frobenius budget of 0.2,
# which sigma_g = 0.2 noise often exceeds.
BATCH_CASES = {
    "policy-eval": (build_problem(ProblemConfig(family="policy-eval", n_states=8, feat_dim=3,
                                                discount=0.6, lam=1.0, seed=3), 3), 1.0, None),
    "policy-eval-exact": (
        build_problem(ProblemConfig(family="policy-eval", n_states=8, feat_dim=3, discount=0.6,
                                    lam=1.0, seed=3, exact_oracle=True), 3), 1.0, None),
    "quadratic-clip": (
        build_problem(ProblemConfig(family="quadratic", d_x=3, d_y=5, seed=13, sigma_f=0.2,
                                    sigma_g=0.2, kappa_g=0.2), 3),
        1.0, "dsbo.problems.quadratic"),
    "hyperopt-mb3": (_unequal_hyperopt(), 60.0, "dsbo.problems.hyperopt"),
}
DRAW_FIELDS = ("gx_f", "gy_f", "gy_g", "hxy_g", "hyy_g_draws")


class TestBatchedSample:
    """Row r of a batched draw depends on row r's agent, x, y and generator only."""

    @staticmethod
    def inputs(problem, scale, seed, rows):
        rng = np.random.default_rng(seed)
        agents = rng.integers(0, problem.k, rows).tolist()
        xs = rng.standard_normal((rows, problem.d_x))
        xs[::3] *= scale
        ys = rng.standard_normal((rows, problem.d_y))
        return agents, xs, ys, [stream(seed, "batch", r) for r in range(rows)]

    @pytest.mark.parametrize("case", BATCH_CASES)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 7), b=st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_row_equals_one_row_call(self, case, seed, rows, b):
        problem, scale, _ = BATCH_CASES[case]
        agents, xs, ys, rngs = self.inputs(problem, scale, seed, rows)
        full = problem.sample(agents, xs, ys, rngs, b)
        _, _, _, rngs = self.inputs(problem, scale, seed, rows)
        for r in range(rows):
            one = problem.sample([agents[r]], xs[r:r + 1], ys[r:r + 1], [rngs[r]], b)
            for name in DRAW_FIELDS:
                assert getattr(full, name).shape[0] == rows
                assert np.array_equal(getattr(full, name)[r], getattr(one, name)[0]), (
                    f"{case}: row {r} field {name}")

    @pytest.mark.parametrize("case", BATCH_CASES)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 7), b=st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_other_rows_do_not_leak(self, case, seed, rows, b):
        problem, scale, _ = BATCH_CASES[case]
        agents, xs, ys, rngs = self.inputs(problem, scale, seed, rows)
        base = problem.sample(agents, xs, ys, rngs, b)
        keep = seed % rows
        others = np.arange(rows) != keep
        _, xs2, ys2, rngs2 = self.inputs(problem, scale, seed + 1, rows)
        _, _, _, rngs = self.inputs(problem, scale, seed, rows)
        rngs2[keep] = rngs[keep]
        xs2[keep], ys2[keep] = xs[keep], ys[keep]
        assert not np.array_equal(xs2[others], xs[others])
        moved = problem.sample(agents, xs2, ys2, rngs2, b)
        for name in DRAW_FIELDS:
            assert np.array_equal(getattr(moved, name)[keep], getattr(base, name)[keep]), (
                f"{case}: row {keep} field {name} moved with the other rows")

    @pytest.mark.parametrize("case", [c for c, (_, _, mod) in BATCH_CASES.items() if mod])
    def test_clipping_cases_reach_the_clip(self, case, monkeypatch):
        problem, scale, module = BATCH_CASES[case]
        hyperopt = case.startswith("hyperopt")
        clipped = []
        clip = clip_spectrum

        def counting_clip(mats, lo, hi):
            # hyperopt clips one row's (b, d, d) stack a call, quadratic a
            # stack of single Hessian draws
            clipped.append(1 if hyperopt else mats.shape[0])
            return clip(mats, lo, hi)

        monkeypatch.setattr(f"{module}.clip_spectrum", counting_clip)
        # hyperopt expands (and clips) its Hessian rows when they are read
        np.asarray(problem.sample(*self.inputs(problem, scale, 0, 12), 3).hyy_g_draws)
        # hyperopt clips whole rows, quadratic single Hessian draws; the
        # batch must mix clipped and unclipped ones
        units = 12 if hyperopt else 12 * 3
        assert 0 < sum(clipped) < units


# name -> (problem, x on every third draw, module whose clip_spectrum the
# case must reach).  Quadratic certifies each draw by its Frobenius budget
# or clips it; hyperopt's reg >= lam_min keeps its rows above the ball's
# floor, and x = 60 lifts softplus past its ceiling, so those rows clip;
# policy-eval draws the identity.
SPECTRAL_CASES = {
    "quadratic": (build_problem(ProblemConfig(family="quadratic", d_x=3, d_y=6, seed=13,
                                              sigma_g=0.12), 2), 0.0, None),
    "hyperopt": (_unequal_hyperopt(), 60.0, "dsbo.problems.hyperopt"),
    "policy-eval": (build_problem(ProblemConfig(family="policy-eval", n_states=8, feat_dim=3,
                                                discount=0.6, lam=1.0, seed=3), 3), 0.0, None),
}


class TestSpectralSafety:
    """Every family's inner-Hessian draws are symmetric and inside the
    spectral ball ||I - H/l_g||_2 <= 1 - kappa_g, clipped or not."""

    @pytest.mark.parametrize("case", SPECTRAL_CASES)
    def test_spectral_safety_every_draw(self, case, monkeypatch):
        p, x_far, module = SPECTRAL_CASES[case]
        c = p.constants
        clip_calls = []
        if module:
            def counting_clip(mats, lo, hi):
                clip_calls.append(1)
                return clip_spectrum(mats, lo, hi)

            monkeypatch.setattr(f"{module}.clip_spectrum", counting_clip)
        y = np.zeros(p.d_y)
        for i in range(300):
            x = np.full(p.d_x, x_far if i % 3 == 0 else 0.0)
            sm = draw(p, i % p.k, x, y, stream(99, "spectest", i), 3)
            for hyy in sm.hyy_g_draws:
                assert np.abs(hyy - hyy.T).max() < 1e-12
                evals = np.linalg.eigvalsh(hyy)
                assert np.abs(1 - evals / c.l_g).max() <= 1 - c.kappa_g + 1e-12
        if module:
            # each far draw's row clips once and no other row clips
            assert len(clip_calls) == 100


def batched_hessians(problem, agents, xs, ys, rngs, b):
    """Hyperopt's Hessian draws expanded for every row at once, as one stack.

    A plain copy of the whole-stack expansion: the same generator calls
    per row, a three-operand einsum over all rows, and one
    ``clip_spectrum`` call on the rows whose bound can leave the ball.
    Returns the (rows, b, d, d) stack and the clipped-row mask.
    """
    mb, dim = problem.minibatch, problem.d_y
    h_idx = np.empty((len(agents), b, mb), dtype=np.int64)
    for r, (agent, rng) in enumerate(zip(agents, rngs)):
        size = problem._train_size[agent]
        rng.integers(0, problem._val_size[agent], size=mb)  # validation minibatch
        rng.integers(0, size, size=mb)  # training minibatch
        h_idx[r] = problem._train_start[agent] + rng.integers(0, size, size=(b, mb))
    reg = softplus(xs) + problem.lam_min
    wh = problem._train_w[h_idx]
    curv = sigmoid(matvec(wh, ys[:, None]))
    curv = curv * (1.0 - curv)
    hyy = np.einsum("rbm,rbmi,rbmj->rbij", curv, wh, wh) / mb
    diag = np.arange(dim)
    hyy[:, :, diag, diag] += reg[:, None]
    top = 0.25 * problem._train_sq[h_idx].max(axis=(1, 2)) + reg.max(axis=1)
    lo, hi = problem.constants.spectral_ball
    clip = top > hi
    if np.any(clip):
        hyy[clip] = clip_spectrum(hyy[clip], lo, hi)
    return hyy, clip


class TestDeferredHessians:
    """Hyperopt's Hessian draws are built per row when read."""

    @pytest.mark.parametrize("minibatch", [1, 3])
    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("dim", [1, 4])
    @pytest.mark.parametrize("scale", [1.0, 60.0], ids=["unclipped", "clipped"])
    def test_rows_equal_the_batched_expansion(self, minibatch, b, dim, scale):
        # dim 1 takes the three-operand einsum: numpy sums 1 x 1 products
        # over the minibatch in another order in the two-operand form
        problem = _unequal_hyperopt(minibatch, dim)
        rows = 12
        deferred = problem.sample(*TestBatchedSample.inputs(problem, scale, 0, rows), b)
        want, clip = batched_hessians(
            problem, *TestBatchedSample.inputs(problem, scale, 0, rows), b)
        # x = 60 on every third row clips some rows and leaves the others
        assert (0 < clip.sum() < rows) if scale > 1 else not clip.any()
        hyy = deferred.hyy_g_draws
        assert isinstance(hyy, DeferredRows)
        assert hyy.shape == want.shape and len(hyy) == rows
        for r in range(rows):
            assert np.array_equal(hyy[r], want[r]), f"row {r}, clipped {clip[r]}"
        assert np.array_equal(np.asarray(hyy), want)
        assert np.array_equal(np.stack(list(hyy)), want)

    def test_sequence_semantics(self):
        problem = _unequal_hyperopt()
        hyy = problem.sample(*TestBatchedSample.inputs(problem, 60.0, 1, 5), 2).hyy_g_draws
        full = np.asarray(hyy)
        assert full.shape == hyy.shape == (5, 2, 4, 4)
        assert np.array_equal(hyy[-1], full[4])
        assert np.array_equal(hyy[np.int64(2)], full[2])
        assert np.array_equal(hyy[1:3], full[1:3])
        assert np.array_equal(hyy[:, 0], full[:, 0])
        with pytest.raises(IndexError):
            hyy[5]
        with pytest.raises(ValueError):
            np.asarray(hyy, copy=False)

    def test_expanding_draws_nothing(self):
        # every generator call happens in sample: expanding rows later, in
        # any order, leaves the generators where sample left them
        problem = _unequal_hyperopt()
        agents, xs, ys, rngs = TestBatchedSample.inputs(problem, 1.0, 2, 4)
        hyy = problem.sample(agents, xs, ys, rngs, 3).hyy_g_draws
        states = [rng.bit_generator.state for rng in rngs]
        backwards = [hyy[r] for r in reversed(range(4))][::-1]
        assert [rng.bit_generator.state for rng in rngs] == states
        assert np.array_equal(np.stack(backwards), np.asarray(hyy))
