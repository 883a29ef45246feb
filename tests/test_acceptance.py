"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Covers hypergradient correctness, the truncated-inverse error bound, gossip
contraction, convergence rates, linear speedup, bias separation from the
naive baseline, single-agent equivalence, determinism, and oracle
unbiasedness.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines; each test also enforces its own wall-clock budget.
"""

import contextlib
import dataclasses
import time

import numpy as np

from dsbo import (
    ProblemConfig,
    RunConfig,
    ScheduleConfig,
    TopologyConfig,
    Trace,
    TraceRecord,
    build_problem,
    build_ring,
    gossip_mix,
    loglog_slope,
    mean_grad_norm,
    neumann_chain,
    run,
    speedup_analysis,
    stream,
    trace_to_csv,
)

# Frozen second-eigenvalue contraction factor of the 5-agent ring
# (eigendecomposition oracle; the 1/3-weight ring is circulant, so
# rho = (1/3 + 2/3 cos(2 pi/5))^2).
RING5_RHO = 0.290892665416655


@contextlib.contextmanager
def criterion(num: int, label: str, budget_s: float):
    """Print exactly one PASS/FAIL line for the enclosed criterion."""
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, (
            f"criterion {num} exceeded its {budget_s:.0f}s budget: {elapsed:.1f}s"
        )
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {label} "
              f"[{elapsed:.1f}s]")


def _rec(t, **kw) -> TraceRecord:
    base = dict(grad_norm_sq=0.0, subopt=0.0, mse=0.0, consensus_x=0.0,
                consensus_y=0.0, est_err_s=0.0, est_err_h=0.0, est_err_u=0.0,
                est_err_v=0.0, samples_zeta=0, samples_xi=0)
    base.update(kw)
    return TraceRecord(t=t, **base)


def _central_fd(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.empty_like(x, dtype=float)
    for i in range(x.size):
        step = np.zeros_like(x, dtype=float)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def test_criterion_01_hypergradient_matches_finite_differences():
    with criterion(1, "exact hypergradient vs central finite differences "
                      "(20 points per family, rel err < 1e-5)", 5.0):
        cases = [
            ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=3,
                          sigma_f=0.1, sigma_g=0.1),
            ProblemConfig(family="policy-eval", seed=3, n_states=30,
                          feat_dim=4, discount=0.5, lam=1.0),
        ]
        for idx, cfg in enumerate(cases):
            problem = build_problem(cfg, k=3)
            rng = stream(11, "accept-fd", idx)
            for _ in range(20):
                x = 0.7 * rng.standard_normal(problem.d_x)
                exact = problem.exact_hypergrad(x)
                approx = _central_fd(problem.objective, x)
                rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
                assert rel < 1e-5, f"{cfg.family}: relative error {rel:.2e}"


def test_criterion_02_truncated_inverse_error_bound():
    with criterion(2, "truncated-chain inverse error bound and geometric "
                      "decay (b in {5,10,20,40})", 1.0):
        mu, l_g = 0.5, 1.5
        kappa = mu / l_g
        rng = stream(5, "accept-neumann")
        basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        eigs = np.linspace(mu, l_g, 6)
        mat = (basis * eigs) @ basis.T
        mat = 0.5 * (mat + mat.T)
        mat_inv = np.linalg.inv(mat)

        errors = {}
        for depth in range(5, 41, 5):
            q = neumann_chain([mat] * depth, l_g)
            errors[depth] = float(np.linalg.norm(q - mat_inv, 2))
        for depth in (5, 10, 20, 40):
            bound = (1.0 - kappa) ** (depth + 1) / (l_g * kappa**3)
            assert errors[depth] <= bound, (
                f"b={depth}: error {errors[depth]:.3e} above bound {bound:.3e}"
            )
        geo = (1.0 - kappa) ** 5
        for depth in range(5, 36, 5):
            ratio = errors[depth + 5] / errors[depth]
            assert 0.45 * geo <= ratio <= 1.1 * geo, (
                f"b={depth}->{depth + 5}: ratio {ratio:.4f} not geometric"
            )


def test_criterion_03_gossip_contraction():
    with criterion(3, "gossip contracts dispersion by sqrt(rho) on the "
                      "5-agent ring (100 random sets)", 1.0):
        w = build_ring(5)
        assert abs(w.rho - RING5_RHO) < 1e-9
        root = np.sqrt(w.rho)
        rng = stream(9, "accept-gossip")
        for _ in range(100):
            values = rng.standard_normal((5, 7))
            mean = values.mean(axis=0, keepdims=True)
            mixed = gossip_mix(values, w)
            before = np.linalg.norm(values - mean)
            after = np.linalg.norm(mixed - mean)
            assert after <= root * before + 1e-10


def test_criterion_04_strongly_convex_rate():
    with criterion(4, "tail log-log slope of the 10-seed median mse curve "
                      "in [-1.25, -0.75]", 180.0):
        curves, ts = [], None
        for seed in range(10):
            cfg = RunConfig(
                algorithm="dsbo", t_total=10_000, b=1, seed=seed,
                problem=ProblemConfig(family="policy-eval", seed=7,
                                      n_states=50, feat_dim=5, discount=0.5,
                                      lam=1.0, sigma_r=1.0),
                topology=TopologyConfig(kind="ring", k=5),
                schedule=ScheduleConfig(regime="diminishing", c1=50.0, mu=1.0),
            )
            trace = run(cfg)
            curves.append(trace.column("mse"))
            ts = [r.t for r in trace.records]
        median_curve = np.median(np.vstack(curves), axis=0)
        median_trace = Trace(
            header={},
            records=[_rec(t, mse=m) for t, m in zip(ts, median_curve)],
        )
        slope = loglog_slope(median_trace, "mse", window=0.1)
        assert -1.25 <= slope <= -0.75, f"slope {slope:+.4f} outside band"


def test_criterion_05_mean_gradient_statistic_scaling():
    with criterion(5, "mean squared-gradient statistic at T=6400 at most "
                      "0.65x its value at T=1600 (10-seed means)", 120.0):
        def statistic(t_total: int, seed: int) -> float:
            cfg = RunConfig(
                algorithm="dsbo", t_total=t_total, b=15, seed=seed,
                problem=ProblemConfig(family="quadratic", d_x=4, d_y=4,
                                      seed=3, sigma_f=0.1, sigma_g=0.1),
                topology=TopologyConfig(kind="ring", k=4),
                schedule=ScheduleConfig(regime="constant", c0=1.0,
                                        beta_scale=4.0),
            )
            return mean_grad_norm(run(cfg))

        small = np.mean([statistic(1600, seed) for seed in range(10)])
        large = np.mean([statistic(6400, seed) for seed in range(10)])
        ratio = large / small
        assert ratio <= 0.65, f"ratio {ratio:.3f} (expected about 0.5)"


def test_criterion_06_linear_speedup():
    with criterion(6, "samples-to-accuracy: totals within 2x across "
                      "K in {2,4,8}, per-agent monotone decreasing", 300.0):
        def cfg_k(k: int) -> RunConfig:
            return RunConfig(
                algorithm="dsbo", t_total=12_000, b=1, seed=0,
                problem=ProblemConfig(family="policy-eval", seed=13,
                                      n_states=50, feat_dim=5, discount=0.5,
                                      lam=1.0, sigma_r=1.0, homogeneous=True),
                topology=TopologyConfig(kind="complete", k=k),
                schedule=ScheduleConfig(regime="capped", alpha_cap=0.01,
                                        alpha_num=2.0, beta_cap=0.5,
                                        beta_num=50.0),
            )

        eps = 1.5e-6
        table = speedup_analysis([cfg_k(k) for k in (2, 4, 8)], eps,
                                 seeds=range(7))
        assert [row["k"] for row in table] == [2, 4, 8]
        for row in table:
            assert row["censored"] == 0, (
                f"k={row['k']}: {row['censored']} of {row['n_runs']} runs "
                f"never reached eps={eps}"
            )
        totals = [row["median"] for row in table]
        spread = max(totals) / min(totals)
        assert spread <= 2.0, f"median totals {totals} spread {spread:.2f}x"
        per_agent = [row["median"] / row["k"] for row in table]
        assert per_agent[0] > per_agent[1] > per_agent[2], (
            f"per-agent medians not decreasing: {per_agent}"
        )


def test_criterion_07_bias_separation_from_naive_gradient():
    with criterion(7, "naive chain-rule baseline plateaus at least 3x above "
                      "the gossip algorithm at matched sample budgets", 180.0):
        het = ProblemConfig(family="policy-eval", seed=5, n_states=50,
                            feat_dim=5, discount=0.5, lam=1.0, sigma_r=1.0,
                            homogeneous=False)
        ring4 = TopologyConfig(kind="ring", k=4)
        capped = ScheduleConfig(regime="capped", alpha_cap=0.01, alpha_num=2.0,
                                beta_cap=0.5, beta_num=50.0)

        # 2000 gossip rounds consume 6000 draws per agent; 125 outer steps of
        # the double-loop baseline consume 8000, so the baseline is compared
        # at a budget at least as large.
        gossip_finals, naive_tails = [], []
        budget_gossip = budget_naive = None
        for seed in range(10):
            trace = run(RunConfig(algorithm="dsbo", t_total=2000, b=1,
                                  seed=seed, problem=het, topology=ring4,
                                  schedule=capped))
            last = trace.records[-1]
            gossip_finals.append(last.mse)
            budget_gossip = last.samples_zeta + last.samples_xi

            trace = run(RunConfig(algorithm="dsgd", t_total=125, seed=seed,
                                  problem=het, topology=ring4,
                                  schedule=capped))
            last = trace.records[-1]
            budget_naive = last.samples_zeta + last.samples_xi
            tail = [r.mse for r in trace.records if r.t >= 0.75 * 125]
            naive_tails.append(float(np.median(tail)))
        assert budget_naive >= budget_gossip, "budget comparison is unfair"

        gossip_mse = float(np.median(gossip_finals))
        naive_mse = float(np.median(naive_tails))
        assert naive_mse >= 3.0 * gossip_mse, (
            f"plateau separation only {naive_mse / gossip_mse:.2f}x "
            f"(naive {naive_mse:.3e} vs gossip {gossip_mse:.3e})"
        )

        # On the homogeneous noiseless instance both methods are unbiased and
        # must converge to the optimum.
        hom = dataclasses.replace(het, homogeneous=True, exact_oracle=True,
                                  sigma_r=0.0)
        mse_gossip = run(RunConfig(
            algorithm="dsbo", t_total=400, b=1, seed=0, problem=hom,
            topology=ring4,
            schedule=ScheduleConfig(regime="constant", c0=1.0, beta_scale=5.0),
        )).records[-1].mse
        mse_naive = run(RunConfig(
            algorithm="dsgd", t_total=125, seed=0, problem=hom,
            topology=ring4,
            schedule=ScheduleConfig(regime="constant", c0=1.0, beta_scale=1.0),
        )).records[-1].mse
        assert mse_gossip < 1e-6, f"gossip homogeneous mse {mse_gossip:.3e}"
        assert mse_naive < 1e-6, f"naive homogeneous mse {mse_naive:.3e}"


def test_criterion_08_single_agent_equivalence():
    with criterion(8, "single-agent federated variant and gossip variant "
                      "produce identical traces", 10.0):
        base = RunConfig(
            algorithm="dsbo", t_total=300, b=5, seed=4,
            problem=ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=2,
                                  sigma_f=0.1, sigma_g=0.1),
            topology=TopologyConfig(kind="complete", k=1),
            schedule=ScheduleConfig(regime="diminishing", c1=50.0, mu=1.0),
        )
        trace_a = run(base)
        trace_b = run(dataclasses.replace(base, algorithm="fedsbo"))
        # The CSV header embeds the config (which names the algorithm), so
        # bitwise identity is asserted on everything below it.
        body_a = trace_to_csv(trace_a).split("\n", 1)[1]
        body_b = trace_to_csv(trace_b).split("\n", 1)[1]
        assert body_a == body_b


def test_criterion_09_rerun_determinism():
    with criterion(9, "byte-identical CSV across reruns", 30.0):
        cfg = RunConfig(
            algorithm="dsbo", t_total=200, b=5, seed=6,
            problem=ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=2,
                                  sigma_f=0.1, sigma_g=0.1),
            topology=TopologyConfig(kind="ring", k=4),
            schedule=ScheduleConfig(regime="diminishing", c1=50.0, mu=1.0),
        )
        outputs = [trace_to_csv(run(cfg)) for _ in range(4)]
        assert all(out == outputs[0] for out in outputs[1:])


def test_criterion_10_oracle_unbiasedness():
    with criterion(10, "each sampled oracle quantity within 3 standard "
                       "errors of exact over 1e5 draws, all families", 30.0):
        cases = [
            ProblemConfig(family="quadratic", d_x=3, d_y=3, seed=3,
                          sigma_f=0.1, sigma_g=0.1),
            ProblemConfig(family="policy-eval", seed=3, n_states=30,
                          feat_dim=4, sigma_r=1.0),
            ProblemConfig(family="hyperopt", seed=3, n_points=80, dim=6),
        ]
        n_draws = 100_000
        for cfg in cases:
            problem = build_problem(cfg, k=3)
            rng = stream(21, "accept-point")
            x = 0.3 * rng.standard_normal(problem.d_x)
            y = 0.3 * rng.standard_normal(problem.d_y)
            exact = problem.exact_gradients(x, y)
            targets = {"gx_f": exact.gx_f, "gy_f": exact.gy_f,
                       "gy_g": exact.gy_g, "hxy_g": exact.hxy_g,
                       "hyy_g": exact.hyy_g}
            sums = {q: np.zeros_like(v, dtype=float)
                    for q, v in targets.items()}
            sumsq = {q: np.zeros_like(v, dtype=float)
                     for q, v in targets.items()}
            per_agent = n_draws // problem.k
            total = per_agent * problem.k
            for agent in range(problem.k):
                # every row shares the agent's one stream; rows consume it
                # in row order, as consecutive one-row calls would
                draws = [stream(17, "accept-unbiased", agent)] * per_agent
                sm = problem.sample([agent] * per_agent,
                                    np.broadcast_to(x, (per_agent, problem.d_x)),
                                    np.broadcast_to(y, (per_agent, problem.d_y)), draws, 1)
                for q, rows in (("gx_f", sm.gx_f), ("gy_f", sm.gy_f),
                                ("gy_g", sm.gy_g), ("hxy_g", sm.hxy_g),
                                ("hyy_g", sm.hyy_g_draws[:, 0])):
                    for d in rows:
                        sums[q] += d
                        sumsq[q] += d * d
            for q, target in targets.items():
                mean = sums[q] / total
                var = np.maximum(sumsq[q] / total - mean**2, 0.0)
                se_norm = float(np.sqrt(var.sum() / total))
                gap = float(np.sqrt(((mean - target) ** 2).sum()))
                assert gap <= 3.0 * se_norm + 1e-12, (
                    f"{cfg.family}/{q}: |mean - exact| = {gap:.3e} exceeds "
                    f"3 SE = {3 * se_norm:.3e}"
                )
