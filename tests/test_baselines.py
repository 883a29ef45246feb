"""Coordinator variant and double-loop baselines."""

import dataclasses

import numpy as np
import pytest

from dsbo import (
    DivergenceError,
    StepSchedule,
    UnsupportedProblemError,
    agent_round_streams,
    build_complete,
    build_ring,
    dbsa_run,
    dsbo_round,
    dsgd_run,
    fedsbo_round,
    init_agents,
    init_central,
    make_policy_eval,
    make_quadratic,
    sgd_eta,
)

STATE_FIELDS = ("x", "y", "s", "h", "u", "v", "q")


class ListRecorder:
    """Minimal stand-in for the harness recorder."""

    def __init__(self):
        self.rows = []

    def record(self, t, xs, ys, samples_zeta, samples_xi, est=None):
        self.rows.append((t, np.array(xs, copy=True), np.array(ys, copy=True),
                          samples_zeta, samples_xi))

    def finish(self):
        return self.rows


class SpyProblem:
    """Delegates to a real problem while logging oracle call sites."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def sample(self, agent, x, y, rng, b=1):
        self.calls.append((agent, np.array(x, copy=True)))
        return self._inner.sample(agent, x, y, rng, b)


class TestSgdEta:
    def test_default_sequence(self):
        eta = sgd_eta()
        assert [eta(i) for i in (0, 1, 2, 3, 4, 19)] == [0.5, 0.5, 0.5, 0.5, 0.4, 0.1]

    def test_custom_constant(self):
        eta = sgd_eta(c=1.0)
        assert eta(0) == 0.5
        assert eta(9) == pytest.approx(0.1)


class TestFedSbo:
    def test_single_agent_matches_gossip_bitwise(self):
        p = make_quadratic(1, 3, 3, seed=4, sigma_f=0.2, sigma_g=0.1)
        w = build_complete(1)
        sched = StepSchedule("diminishing", c1=50.0, mu=1.0)
        state = init_agents(p, b=3)
        central = init_central(p, b=3)
        for t in range(40):
            streams = agent_round_streams(11, "oracle", 1, t)
            state = dsbo_round(state, w, p, sched, t, streams)
            central = fedsbo_round(
                central, p, sched, t, agent_round_streams(11, "oracle", 1, t)
            )
            for f in STATE_FIELDS:
                assert np.array_equal(getattr(state, f), getattr(central, f)), (
                    f"field {f} diverged at round {t}"
                )

    def test_samples_at_common_iterate(self):
        p = SpyProblem(make_quadratic(4, 3, 3, seed=5, sigma_f=0.1, sigma_g=0.0))
        sched = StepSchedule("diminishing", c1=50.0, mu=1.0)
        central = init_central(p, b=2)
        central = fedsbo_round(central, p, sched, 0, agent_round_streams(0, "oracle", 4, 0))
        fedsbo_round(central, p, sched, 1, agent_round_streams(0, "oracle", 4, 1))
        last_round = p.calls[-4:]
        assert [c[0] for c in last_round] == [0, 1, 2, 3]
        for _, x_seen in last_round:
            assert np.array_equal(x_seen, central.x[0])

    def test_full_mix_replaces_estimators(self):
        # beta = 1 discards the previous estimators entirely
        p = make_quadratic(3, 3, 3, seed=6, sigma_f=0.0, sigma_g=0.0)
        sched = StepSchedule("diminishing", c1=2.0, mu=1.0)  # beta(0) = 1
        central = init_central(p, b=2)
        out = fedsbo_round(central, p, sched, 0, agent_round_streams(0, "oracle", 3, 0))
        draws = [p.sample(a, central.x[0], central.y[0], r, 2)
                 for a, r in enumerate(agent_round_streams(0, "oracle", 3, 0))]
        assert np.allclose(out.s[0], np.mean([d.gx_f for d in draws], axis=0), atol=1e-15)
        assert np.allclose(out.u[0], np.mean([d.hxy_g for d in draws], axis=0), atol=1e-15)

    def test_estimator_bias_contracts_geometrically(self):
        # zero noise, frozen iterates: s_t - target shrinks by (1 - beta)
        p = make_quadratic(2, 3, 3, seed=7, sigma_f=0.0, sigma_g=0.0)
        central = init_central(p, b=2)
        sched = StepSchedule("constant", k=2, t_total=400, c0=1e-12, beta_scale=1.0)
        beta = sched.beta(0)
        target = np.mean([p.sample(a, central.x[0], central.y[0], None, 1).gx_f
                          for a in range(2)], axis=0)
        errs = []
        for t in range(3):
            errs.append(np.linalg.norm(central.s[0] - target))
            central = fedsbo_round(central, p, sched, t,
                                   agent_round_streams(0, "oracle", 2, t))
        # alpha ~ 1e-12 freezes x, so the target is static and the recursion exact
        assert errs[1] == pytest.approx((1 - beta) * errs[0], rel=1e-9)
        assert errs[2] == pytest.approx((1 - beta) ** 2 * errs[0], rel=1e-9)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_detection(self):
        p = make_quadratic(2, 3, 3, seed=8, sigma_f=0.0, sigma_g=0.0)
        sched = StepSchedule("constant", k=2, t_total=10, c0=1e160)
        central = init_central(p, b=2)
        central = dataclasses.replace(central, s=np.full((1, 3), 1e160))
        with pytest.raises(DivergenceError) as exc:
            fedsbo_round(central, p, sched, 0, agent_round_streams(0, "oracle", 2, 0))
        assert exc.value.agent == 0 and exc.value.field == "x"


class TestDbsa:
    @pytest.fixture()
    def quiet_problem(self):
        return make_quadratic(3, 3, 3, seed=9, sigma_f=0.0, sigma_g=0.0)

    def test_first_outer_step_runs_no_inner_steps(self, quiet_problem):
        rec = ListRecorder()
        dbsa_run(quiet_problem, build_ring(3), 1, lambda t: 0.1, sgd_eta(), 0, rec)
        t1 = rec.rows[1]
        assert t1[0] == 1
        assert not t1[2].any()  # y untouched: zero inner steps at t = 0
        assert t1[1].any()  # x moved along the sampled outer gradient

    def test_sample_counters_quadratic_inner_growth(self, quiet_problem):
        rec = ListRecorder()
        t_total = 30
        dbsa_run(quiet_problem, build_ring(3), t_total, lambda t: 0.01, sgd_eta(), 0, rec)
        t, _, _, zeta, xi = rec.rows[-1]
        assert t == t_total
        assert zeta == t_total  # one outer draw per agent per outer step
        assert xi == t_total * (t_total - 1) // 2  # 0 + 1 + ... + (T-1)
        mids = {row[0]: (row[3], row[4]) for row in rec.rows}
        assert mids[10] == (10, 45)

    def test_inner_residual_shrinks_with_warm_start(self, quiet_problem):
        p = quiet_problem
        rec = ListRecorder()
        dbsa_run(p, build_ring(3), 60, lambda t: 0.05, sgd_eta(), 3, rec)
        def residual(row):
            xbar, ybar = row[1].mean(axis=0), row[2].mean(axis=0)
            return float(np.linalg.norm(ybar - p.exact_lower(xbar)))
        early = residual(rec.rows[5])
        late = residual(rec.rows[60])
        assert late < early / 15

    def test_partial_gradient_settles_at_outer_shift_mean(self, quiet_problem):
        # gx_f = x - a_k ignores y entirely, so the published update can only
        # find the mean shift vector, not the bilevel optimum
        p = quiet_problem
        rec = ListRecorder()
        dbsa_run(p, build_ring(3), 120, lambda t: 0.2, sgd_eta(), 3, rec)
        xbar = rec.rows[-1][1].mean(axis=0)
        abar = p.exact_gradients(np.zeros(3), np.zeros(3)).gx_f * -1
        x_star, _ = p.optimum()
        assert np.linalg.norm(xbar - abar) < 1e-9
        assert np.linalg.norm(xbar - x_star) > 1.0

    def test_correction_flag_recovers_bilevel_optimum(self, quiet_problem):
        p = quiet_problem
        finals = {}
        for flag in (False, True):
            rec = ListRecorder()
            dbsa_run(p, build_ring(3), 150, lambda t: 0.1, sgd_eta(), 3, rec,
                     full_hypergrad=flag, corr_depth=40)
            xbar = rec.rows[-1][1].mean(axis=0)
            x_star, _ = p.optimum()
            finals[flag] = float(np.sum((xbar - x_star) ** 2))
        assert finals[True] < 1e-12
        assert finals[False] > 1.0

    def test_deterministic_replay(self):
        p = make_quadratic(3, 3, 3, seed=10, sigma_f=0.3, sigma_g=0.1)
        traces = []
        for _ in range(2):
            rec = ListRecorder()
            dbsa_run(p, build_ring(3), 12, lambda t: 0.05, sgd_eta(), 21, rec)
            traces.append(rec.rows)
        for ra, rb in zip(*traces):
            assert ra[0] == rb[0]
            assert np.array_equal(ra[1], rb[1]) and np.array_equal(ra[2], rb[2])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_attaches_partial_trace(self, quiet_problem):
        rec = ListRecorder()
        with pytest.raises(DivergenceError) as exc:
            dbsa_run(quiet_problem, build_ring(3), 50, lambda t: 1e200, sgd_eta(), 0, rec)
        err = exc.value
        assert err.trace is not None and len(err.trace) >= 1
        assert err.t < 50


class TestDsgd:
    def test_rejects_non_compositional(self):
        p = make_quadratic(3, 3, 3, seed=1)
        with pytest.raises(UnsupportedProblemError, match="compositional"):
            dsgd_run(p, build_ring(3), 5, lambda t: 0.1, sgd_eta(), 0, ListRecorder())

    def test_cold_start_geometric_fill_in(self):
        # frozen x (alpha = 0), constant inner weight 1/2, exact oracle:
        # the inner estimate rebuilt at outer step t is (1 - 2^-t) * value
        p = make_policy_eval(1, 6, 3, gamma=0.5, lam=1.0, seed=2,
                             exact_oracle=True, homogeneous=True)
        rec = ListRecorder()
        dsgd_run(p, build_complete(1), 6, lambda t: 0.0, lambda i: 0.5, 0, rec)
        val = p.comp_value(0, np.zeros(3), None)[: p.d_y]
        for t, _, ys, _, _ in rec.rows[1:]:
            frac = 1.0 - 0.5 ** (t - 1)  # outer step t-1 ran t-1 inner steps
            assert np.allclose(ys[0], frac * val, atol=1e-12), f"row {t}"

    def test_sample_counters(self):
        p = make_policy_eval(2, 5, 2, gamma=0.5, lam=1.0, seed=3, exact_oracle=True)
        rec = ListRecorder()
        t_total = 10
        dsgd_run(p, build_complete(2), t_total, lambda t: 0.01, sgd_eta(), 0, rec)
        _, _, _, zeta, xi = rec.rows[-1]
        assert zeta == t_total
        assert xi == t_total * (t_total - 1) // 2 + t_total  # inner + jacobian draws

    def test_homogeneous_exact_oracle_converges(self):
        p = make_policy_eval(2, 10, 3, gamma=0.5, lam=1.0, seed=4,
                             exact_oracle=True, homogeneous=True)
        rec = ListRecorder()
        dsgd_run(p, build_complete(2), 120, lambda t: 0.3, sgd_eta(), 0, rec)
        x_star, _ = p.optimum()
        xbar = rec.rows[-1][1].mean(axis=0)
        assert float(np.sum((xbar - x_star) ** 2)) < 1e-8

    def test_lags_gossip_algorithm_at_matched_sample_budget(self):
        # the inner estimate costs t draws at outer step t, so for the same
        # per-agent oracle budget the chain-rule baseline completes only
        # O(sqrt(budget)) outer steps and sits far up its transient
        het = make_policy_eval(4, 10, 3, gamma=0.5, lam=1.0, seed=5)
        x_star, _ = het.optimum()
        w = build_ring(4)
        cap = StepSchedule("capped", alpha_cap=0.01, alpha_num=2.0,
                           beta_cap=0.5, beta_num=50.0)
        t_rounds = 2000  # 2 draws per round (b = 1): 4000 per agent
        state = init_agents(het, 1)
        for t in range(t_rounds):
            state = dsbo_round(state, w, het, cap, t,
                               agent_round_streams(0, "oracle", 4, t))
        gossip_mse = float(np.sum((state.x.mean(axis=0) - x_star) ** 2))
        t_outer = 88  # 88*89/2 + 88 = 4004 draws per agent
        rec = ListRecorder()
        dsgd_run(het, w, t_outer, cap, sgd_eta(), 0, rec)
        naive_mse = float(np.sum((rec.rows[-1][1].mean(axis=0) - x_star) ** 2))
        assert naive_mse > 20 * gossip_mse

    def test_deterministic_replay(self):
        p = make_policy_eval(3, 6, 2, gamma=0.5, lam=1.0, seed=6)
        traces = []
        for _ in range(2):
            rec = ListRecorder()
            dsgd_run(p, build_ring(3), 15, lambda t: 0.02, sgd_eta(), 31, rec)
            traces.append(rec.rows)
        for ra, rb in zip(*traces):
            assert np.array_equal(ra[1], rb[1]) and np.array_equal(ra[2], rb[2])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_attaches_partial_trace(self):
        p = make_policy_eval(2, 5, 2, gamma=0.5, lam=1.0, seed=7, exact_oracle=True)
        rec = ListRecorder()
        with pytest.raises(DivergenceError) as exc:
            dsgd_run(p, build_complete(2), 40, lambda t: 1e200, sgd_eta(), 0, rec)
        assert exc.value.trace is not None and len(exc.value.trace) >= 1
