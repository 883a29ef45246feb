"""Round updates, Neumann inversion, schedules, and divergence detection."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from dsbo import (
    ConfigError,
    DivergenceError,
    MixingMatrix,
    StepSchedule,
    agent_round_streams,
    build_ring,
    check_finite,
    default_b,
    dsbo_round,
    init_agents,
    make_quadratic,
    neumann_apply,
    neumann_chain,
)

# Frozen from an independent scalar recursion Q_i = 1 + (1 - mu/L) Q_{i-1}:
# mu = 0.5, L = 1, ten terms -> 2 - 2**-10, matching the closed form
# (1/mu) * (1 - (1 - mu/L)**(b+1)).
NEUMANN_SCALAR_10 = 1.9990234375

STATE_FIELDS = ("x", "y", "s", "h", "u", "v", "q")


class TestNeumannChain:
    def test_frozen_scalar_value(self):
        v = [np.array([[0.5]])] * 10
        q = neumann_chain(v, 1.0)
        assert q.shape == (1, 1)
        assert q[0, 0] == NEUMANN_SCALAR_10

    def test_matches_closed_form_scalar(self):
        for b in (1, 3, 7):
            q = neumann_chain([np.array([[0.5]])] * b, 1.0)
            assert q[0, 0] == pytest.approx(2.0 * (1.0 - 0.5 ** (b + 1)), abs=1e-15)

    def test_all_v_equal_l_gives_identity_over_l(self):
        l_g = 1.5
        v = [l_g * np.eye(4)] * 6
        assert np.array_equal(neumann_chain(v, l_g), np.eye(4) / l_g)

    def test_identical_matrices_match_eigen_closed_form(self):
        rng = np.random.default_rng(0)
        basis, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        evals = np.linspace(0.5, 1.4, 5)
        a = basis @ np.diag(evals) @ basis.T
        l_g, b = 1.5, 12
        q = neumann_chain([a] * b, l_g)
        expect_evals = (1.0 / evals) * (1.0 - (1.0 - evals / l_g) ** (b + 1))
        expect = basis @ np.diag(expect_evals) @ basis.T
        assert np.allclose(q, expect, atol=1e-12)
        assert np.abs(q - q.T).max() < 1e-12  # symmetric when all v_i coincide

    def test_inverse_error_bound(self):
        # spectrum in [mu, L] -> error decays like (1 - mu/L)^(b+1)
        rng = np.random.default_rng(1)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        mu, l_g = 0.5, 1.5
        evals = np.linspace(mu, l_g, 6)
        a = basis @ np.diag(evals) @ basis.T
        kappa = mu / l_g
        inv = np.linalg.inv(a)
        prev = None
        for b in (5, 10, 20, 40):
            err = np.linalg.norm(neumann_chain([a] * b, l_g) - inv, ord=2)
            bound = (1.0 - kappa) ** (b + 1) / (l_g * kappa**3)
            assert err <= bound
            if prev is not None:
                # five extra terms shrink the error by about (1-kappa)^5
                assert err / prev <= 1.1 * (1.0 - kappa) ** 5
            prev = err

    def test_varying_matrices_stay_bounded(self):
        rng = np.random.default_rng(2)
        l_g = 1.0
        vs = []
        for _ in range(8):
            basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            vs.append(basis @ np.diag(rng.uniform(0.4, 1.0, 3)) @ basis.T)
        q = neumann_chain(vs, l_g)
        # ||q|| <= (1/L) sum (1-kappa)^i <= 1/(L*kappa) with kappa = 0.4
        assert np.linalg.norm(q, ord=2) <= 1.0 / 0.4 + 1e-9

    def test_rejects_flat_matrix(self):
        with pytest.raises(ConfigError):
            neumann_chain(np.eye(3), 1.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ConfigError):
            neumann_chain(np.ones((2, 3, 4)), 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            neumann_chain([], 1.0)


class TestNeumannApply:
    @given(hst.integers(1, 4), hst.integers(1, 8), hst.integers(1, 6),
           hst.floats(0.05, 1.0), hst.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_agent_chain(self, k, b, d, kappa, seed):
        # symmetric draws with spectrum in [kappa*l_g, (2-kappa)*l_g], i.e.
        # ||I - v/l_g||_2 <= 1 - kappa: inside the spectral ball
        rng = np.random.default_rng(seed)
        l_g = rng.uniform(0.5, 3.0)
        basis, _ = np.linalg.qr(rng.standard_normal((k, b, d, d)))
        evals = rng.uniform(kappa * l_g, (2.0 - kappa) * l_g, (k, b, d))
        v = np.einsum("kbij,kbj,kblj->kbil", basis, evals, basis)
        h = rng.standard_normal((k, d))
        got = neumann_apply(v, h, l_g)
        assert got.shape == (k, d)
        for agent in range(k):
            expect = neumann_chain(v[agent], l_g) @ h[agent]
            assert np.allclose(got[agent], expect, rtol=1e-12, atol=0.0)

    def test_frozen_scalar_value(self):
        v = np.full((1, 10, 1, 1), 0.5)
        assert neumann_apply(v, np.ones((1, 1)), 1.0)[0, 0] == NEUMANN_SCALAR_10

    def test_allocates_no_depth_sized_temporary(self):
        rng = np.random.default_rng(4)
        v = np.broadcast_to(0.5 * np.eye(8), (3, 60, 8, 8)).copy()
        h = rng.standard_normal((3, 8))
        tracemalloc.start()
        try:
            neumann_apply(v, h, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < v[:, 0].nbytes * 4  # far below the (K, b, d, d) stack

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            neumann_apply(np.ones((4, 3, 3)), np.ones((4, 3)), 1.0)
        with pytest.raises(ConfigError):
            neumann_apply(np.ones((2, 0, 3, 3)), np.ones((2, 3)), 1.0)
        with pytest.raises(ConfigError):
            neumann_apply(np.ones((2, 1, 3, 3)), np.ones((3, 3)), 1.0)


class TestDefaultDepth:
    def test_frozen_examples(self):
        assert default_b(100, 0.5) == 21
        assert default_b(20000, 0.9) == 15

    def test_unit_condition_number(self):
        assert default_b(100, 1.0) == 1
        assert default_b(10**6, 1.0) == 1

    def test_integer_boundary_not_overshot(self):
        # log(8)/log(2) == 3 up to float fuzz; the guard keeps ceil at 3
        assert default_b(8, 0.5) == 9

    def test_monotone_in_horizon(self):
        depths = [default_b(t, 0.5) for t in (10, 100, 1000, 10000)]
        assert depths == sorted(depths)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            default_b(1, 0.5)
        with pytest.raises(ConfigError):
            default_b(100, 0.0)
        with pytest.raises(ConfigError):
            default_b(100, 1.5)


class TestStepSchedule:
    def test_constant_worked_example(self):
        sched = StepSchedule("constant", k=4, t_total=100, c0=0.1, beta_scale=1.0)
        assert sched.alpha(0) == pytest.approx(0.02)
        assert sched.beta(17) == pytest.approx(0.2)
        assert sched.gamma(17) == sched.beta(17)

    def test_constant_hyperopt_example(self):
        sched = StepSchedule("constant", k=5, t_total=20000, c0=0.1, beta_scale=10.0)
        assert sched.alpha(0) == pytest.approx(1.5811e-3, rel=1e-4)
        assert sched.beta(0) == pytest.approx(0.15811, rel=1e-4)

    def test_constant_exhaustion(self):
        sched = StepSchedule("constant", k=4, t_total=100, c0=0.1)
        sched.alpha(99)
        with pytest.raises(ConfigError, match="exhausted"):
            sched.alpha(100)

    def test_constant_beta_cap_enforced(self):
        with pytest.raises(ConfigError, match="beta <= 1"):
            StepSchedule("constant", k=4, t_total=100, c0=0.1, beta_scale=10.0)

    def test_diminishing_worked_example(self):
        sched = StepSchedule("diminishing", c1=50.0, mu=1.0)
        assert sched.alpha(0) == pytest.approx(0.04)
        assert sched.beta(0) == 1.0
        assert sched.alpha(50) == pytest.approx(0.02)
        assert sched.beta(50) == pytest.approx(0.5)

    def test_diminishing_no_horizon_needed(self):
        sched = StepSchedule("diminishing", c1=2.0, mu=2.0)
        assert sched.alpha(10**9) > 0  # never exhausts

    def test_diminishing_offset_bound_named_in_error(self):
        with pytest.raises(ConfigError) as exc:
            StepSchedule("diminishing", c1=1.0, mu=1.0)
        msg = str(exc.value)
        assert "c1" in msg and "2.0" in msg

    def test_diminishing_needs_positive_mu(self):
        with pytest.raises(ConfigError):
            StepSchedule("diminishing", c1=50.0, mu=0.0)

    def test_capped_worked_example(self):
        sched = StepSchedule("capped", alpha_cap=0.01, alpha_num=2.0,
                             beta_cap=0.5, beta_num=50.0)
        assert sched.alpha(0) == 0.01  # cap binds before t = 1
        assert sched.beta(0) == 0.5
        assert sched.alpha(1000) == pytest.approx(0.002)
        assert sched.beta(200) == pytest.approx(0.25)
        assert sched.beta(10) == 0.5  # 50/10 exceeds the cap

    def test_capped_beta_cap_must_stay_below_one(self):
        with pytest.raises(ConfigError, match="beta <= 1"):
            StepSchedule("capped", alpha_cap=0.01, alpha_num=2.0,
                         beta_cap=1.5, beta_num=50.0)

    def test_unknown_regime(self):
        with pytest.raises(ConfigError, match="regime"):
            StepSchedule("warmup")


class TestInitAgents:
    def test_shapes_and_values(self):
        p = make_quadratic(3, 4, 5, seed=1)
        state = init_agents(p, b=6)
        assert state.x.shape == (3, 4) and not state.x.any()
        assert state.y.shape == (3, 5) and state.s.shape == (3, 4) and state.h.shape == (3, 5)
        assert state.u.shape == (3, 4, 5)
        assert state.v.shape == (3, 6, 5, 5)
        assert np.array_equal(state.v[0, 0], p.constants.mu_g * np.eye(5))
        assert state.q.shape == (3, 5)
        assert np.allclose(state.q[0], neumann_chain(state.v[0], p.constants.l_g) @ state.h[0])

    def test_agents_do_not_share_storage(self):
        p = make_quadratic(2, 3, 3, seed=1)
        state = init_agents(p, b=2)
        state.v[0, 0, 0, 0] = 99.0
        assert state.v[1, 0, 0, 0] != 99.0

    def test_row_count_override(self):
        p = make_quadratic(4, 3, 2, seed=1)
        state = init_agents(p, b=2, k=1)
        assert state.x.shape == (1, 3) and state.v.shape == (1, 2, 2, 2)

    def test_iterates_per_agent_row_views(self):
        p = make_quadratic(3, 4, 5, seed=1)
        state = init_agents(p, b=2)
        rows = list(state)
        assert len(rows) == 3
        for k, row in enumerate(rows):
            for f in STATE_FIELDS:
                assert getattr(row, f).shape == getattr(state, f).shape[1:]
                assert np.shares_memory(getattr(row, f), getattr(state, f)[k])

    def test_depth_must_be_positive(self):
        p = make_quadratic(2, 3, 3, seed=1)
        with pytest.raises(ConfigError):
            init_agents(p, b=0)


class TestCheckFinite:
    def test_passes_on_finite(self):
        check_finite((("x", np.ones((3, 2))),), t=5)

    def test_names_agent_field_round(self):
        bad = np.ones((4, 3))
        bad[2, 1] = np.nan
        with pytest.raises(DivergenceError) as exc:
            check_finite((("x", np.ones((4, 2))), ("s", bad)), t=7)
        err = exc.value
        assert (err.agent, err.field, err.t) == (2, "s", 7)
        assert "agent 2" in str(err) and "'s'" in str(err) and "round 7" in str(err)

    def test_inf_also_detected(self):
        bad = np.zeros((2, 2, 2))
        bad[1, 0, 1] = np.inf
        with pytest.raises(DivergenceError) as exc:
            check_finite((("v", bad),), t=0)
        assert exc.value.agent == 1


class TestDsboRound:
    @pytest.fixture()
    def setup(self):
        p = make_quadratic(3, 4, 4, seed=5, sigma_f=0.0, sigma_g=0.0)
        w = build_ring(3)
        sched = StepSchedule("diminishing", c1=50.0, mu=1.0)
        return p, w, sched

    @given(k=hst.integers(1, 5), d_x=hst.integers(1, 4), d_y=hst.integers(1, 4),
           b=hst.integers(1, 4), seed=hst.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_matches_manual_update(self, k, d_x, d_y, b, seed):
        p = make_quadratic(k, d_x, d_y, seed=5, sigma_f=0.3, sigma_g=0.1)
        l_g = p.constants.l_g
        rng = np.random.default_rng(seed)
        # a random symmetric doubly-stochastic mix: a convex sum of (P + P^T) / 2
        perms = [np.eye(k)[rng.permutation(k)] for _ in range(3)]
        mat = sum(c * (pm + pm.T) / 2 for c, pm in zip(rng.dirichlet(np.ones(3)), perms))
        w = MixingMatrix(mat)
        sched = StepSchedule("diminishing", c1=50.0, mu=1.0)
        # desynchronize the agents so gossip actually mixes something
        state = init_agents(p, b)
        noise = rng.standard_normal((k, b, d_y, d_y)) * 0.05
        state = dataclasses.replace(
            state,
            x=rng.standard_normal((k, d_x)), y=rng.standard_normal((k, d_y)),
            s=rng.standard_normal((k, d_x)), h=rng.standard_normal((k, d_y)),
            u=rng.standard_normal((k, d_x, d_y)),
            v=state.v + noise + noise.transpose(0, 1, 3, 2),
        )
        # keep the invariant q = Q_b(v) h / l_g so z carries a nonzero u q term
        state = dataclasses.replace(state, q=np.stack(
            [neumann_chain(state.v[a], l_g) @ state.h[a] for a in range(k)]))
        t = 4
        out = dsbo_round(state, w, p, sched, t, agent_round_streams(0, "oracle", k, t))

        alpha, beta, gamma = sched.alpha(t), sched.beta(t), sched.gamma(t)
        samples = [
            p.sample(a, state.x[a], state.y[a], r, b)
            for a, r in enumerate(agent_round_streams(0, "oracle", k, t))
        ]
        for i in range(k):
            def mixed(f):
                return sum(mat[i, j] * getattr(state, f)[j] for j in range(k))

            z_i = state.s[i] - state.u[i] @ state.q[i]
            expect = {
                "x": mixed("x") - alpha * z_i,
                "y": mixed("y") - gamma * samples[i].gy_g,
                "s": (1 - beta) * mixed("s") + beta * samples[i].gx_f,
                "h": (1 - beta) * mixed("h") + beta * samples[i].gy_f,
                "u": (1 - beta) * mixed("u") + beta * samples[i].hxy_g,
                "v": (1 - beta) * mixed("v") + beta * samples[i].hyy_g_draws,
            }
            expect["q"] = neumann_chain(expect["v"], l_g) @ expect["h"]
            assert set(expect) == set(STATE_FIELDS)
            for f, value in expect.items():
                np.testing.assert_allclose(getattr(out, f)[i], value, rtol=1e-12, atol=1e-12,
                                           err_msg=f"field {f}, agent {i}")

    def test_reads_snapshot_not_partial_updates(self, setup):
        # agent 0's new x must combine the OLD x of its neighbors; verify by
        # checking the average-iterate recursion mean(x') = mean(x) - alpha*mean(z)
        p, w, sched = setup
        state = init_agents(p, 2)
        rng = np.random.default_rng(3)
        state = dataclasses.replace(state, x=rng.standard_normal((3, 4)),
                                    s=rng.standard_normal((3, 4)))
        t = 1
        out = dsbo_round(state, w, p, sched, t, agent_round_streams(1, "oracle", 3, t))
        zbar = np.mean([state.s[a] - state.u[a] @ state.q[a] for a in range(3)], axis=0)
        expect = state.x.mean(axis=0) - sched.alpha(t) * zbar
        assert np.allclose(out.x.mean(axis=0), expect, atol=1e-12)

    def test_inputs_left_untouched(self, setup):
        p, w, sched = setup
        state = init_agents(p, 2)
        before = {f: getattr(state, f).copy() for f in STATE_FIELDS}
        dsbo_round(state, w, p, sched, 0, agent_round_streams(0, "oracle", 3, 0))
        for f, old in before.items():
            assert np.array_equal(getattr(state, f), old)

    def test_deterministic_replay(self, setup):
        p, w, sched = setup
        runs = []
        for _ in range(2):
            state = init_agents(p, 2)
            for t in range(5):
                state = dsbo_round(state, w, p, sched, t,
                                   agent_round_streams(7, "oracle", 3, t))
            runs.append(state)
        for f in STATE_FIELDS:
            assert np.array_equal(getattr(runs[0], f), getattr(runs[1], f))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_raises_with_location(self, setup):
        p, w, _ = setup
        huge = StepSchedule("constant", k=3, t_total=4, c0=1e300)
        state = init_agents(p, 2)
        rng = np.random.default_rng(0)
        state = dataclasses.replace(state, x=rng.standard_normal((3, 4)),
                                    s=np.full((3, 4), 1e300))
        with pytest.raises(DivergenceError) as exc:
            dsbo_round(state, w, p, huge, 0, agent_round_streams(0, "oracle", 3, 0))
        assert exc.value.field == "x"

    def test_converges_on_noiseless_quadratic(self, setup):
        p, w, sched = setup
        x_star, _ = p.optimum()
        # deep chain so the inversion bias floor sits far below the target
        state = init_agents(p, 30)
        for t in range(800):
            state = dsbo_round(state, w, p, sched, t,
                               agent_round_streams(0, "oracle", 3, t))
        xbar = state.x.mean(axis=0)
        assert float(np.sum((xbar - x_star) ** 2)) < 1e-6


def test_schedule_ratio_matches_depth_tradeoff():
    # sanity tie between default_b and the geometric error model: the
    # chosen depth drives (1-kappa)^(b+1) below 1/T^3
    for t_total, kappa in ((100, 0.5), (20000, 0.9), (500, 0.3)):
        b = default_b(t_total, kappa)
        assert (1.0 - kappa) ** (b + 1) <= 1.0 / t_total**3 + 1e-12
