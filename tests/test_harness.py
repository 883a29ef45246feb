"""Config plumbing, trace serialization, the run driver, and analyses."""

import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from dsbo import (
    ConfigError,
    DivergenceError,
    NumericsError,
    ProblemConfig,
    RunConfig,
    ScheduleConfig,
    TopologyConfig,
    Trace,
    TraceRecord,
    TRACE_COLUMNS,
    build_problem,
    load_config,
    loglog_slope,
    make_schedule,
    mean_grad_norm,
    read_trace,
    run,
    samples_to_eps,
    speedup_analysis,
    trace_to_csv,
    write_trace,
)
from dsbo.harness import default_cadence, resolve_reference


def rec(t, **kw):
    base = dict(grad_norm_sq=0.0, subopt=0.0, mse=0.0, consensus_x=0.0,
                consensus_y=0.0, est_err_s=0.0, est_err_h=0.0, est_err_u=0.0,
                est_err_v=0.0, samples_zeta=0, samples_xi=0)
    base.update(kw)
    return TraceRecord(t=t, **base)


def quad_config(**kw):
    """Small, fast quadratic run config; keyword overrides applied on top."""
    cfg = RunConfig(
        algorithm="dsbo",
        t_total=50,
        b=3,
        seed=0,
        problem=ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=2,
                              sigma_f=0.1, sigma_g=0.1),
        topology=TopologyConfig(kind="ring", k=3),
        schedule=ScheduleConfig(regime="diminishing", c1=50.0, mu=1.0),
    )
    return dataclasses.replace(cfg, **kw)


class TestMakeSchedule:
    def test_constant_example(self):
        s = make_schedule("constant", {"c0": 0.1}, k=4, t_total=100)
        assert s.alpha(3) == pytest.approx(0.02)
        assert s.beta(3) == pytest.approx(0.2)

    def test_diminishing_example(self):
        s = make_schedule("diminishing", {"c1": 50.0, "mu": 1.0}, k=4, t_total=100)
        assert s.alpha(0) == pytest.approx(0.04)
        assert s.beta(0) == 1.0

    def test_capped_example(self):
        s = make_schedule("capped", {"alpha_cap": 0.01, "alpha_num": 2.0,
                                     "beta_cap": 0.5, "beta_num": 50.0},
                          k=5, t_total=100)
        assert s.alpha(400) == pytest.approx(0.005)
        assert s.beta(400) == pytest.approx(0.125)

    def test_rejects_cross_regime_constants(self):
        with pytest.raises(ConfigError, match="do not apply"):
            make_schedule("constant", {"c0": 0.1, "c1": 50.0}, k=4, t_total=100)

    def test_rejects_unknown_regime(self):
        with pytest.raises(ConfigError, match="regime"):
            make_schedule("linear", {}, k=4, t_total=100)


class TestConfig:
    def test_round_trip_identity(self):
        cfg = quad_config(t_total=77, cadence=5, out="x.csv")
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'horizon'"):
            RunConfig.from_dict({"horizon": 10})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="problem.gamma"):
            RunConfig.from_dict({"problem": {"gamma": 0.5}})

    def test_type_coercion_rules(self):
        cfg = RunConfig.from_dict({"t_total": "250", "problem": {"sigma_f": 1}})
        assert cfg.t_total == 250 and cfg.problem.sigma_f == 1.0
        with pytest.raises(ConfigError, match="expected an integer"):
            RunConfig.from_dict({"t_total": 2.5})
        with pytest.raises(ConfigError, match="expected a number"):
            RunConfig.from_dict({"problem": {"sigma_f": True}})
        with pytest.raises(ConfigError, match="expected a boolean"):
            RunConfig.from_dict({"problem": {"homogeneous": "maybe"}})

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_in_file_rejected(self, tmp_path, text):
        path = tmp_path / "run.json"
        path.write_text('{"schedule": {"c0": %s}}' % text)
        with pytest.raises(ConfigError, match="schedule.c0: expected a finite number"):
            load_config(str(path))

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_override_rejected(self, raw):
        with pytest.raises(ConfigError, match="schedule.c0: expected a finite number"):
            quad_config().apply_overrides([f"schedule.c0={raw}"])

    def test_apply_overrides(self):
        cfg = quad_config()
        out = cfg.apply_overrides(["topology.k=8", "problem.homogeneous=true",
                                   "schedule.regime=constant", "t_total=99"])
        assert out.topology.k == 8
        assert out.problem.homogeneous is True
        assert out.schedule.regime == "constant"
        assert out.t_total == 99
        assert cfg.topology.k == 3  # original untouched

    def test_override_errors(self):
        cfg = quad_config()
        with pytest.raises(ConfigError, match="unknown config key 'foo.bar'"):
            cfg.apply_overrides(["foo.bar=1"])
        with pytest.raises(ConfigError, match="unknown config key 'problem.zeta'"):
            cfg.apply_overrides(["problem.zeta=1"])
        with pytest.raises(ConfigError, match="expected an integer"):
            cfg.apply_overrides(["topology.k=ten"])
        with pytest.raises(ConfigError, match="section.key=value"):
            cfg.apply_overrides(["topology.k"])

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"algorithm": "fedsbo", "t_total": 12}))
        cfg = load_config(str(path))
        assert cfg.algorithm == "fedsbo" and cfg.t_total == 12

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "nope.json"))

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))


class TestTraceSerialization:
    def test_csv_shape(self):
        trace = Trace(header={"config": {"z": 1, "a": 2}},
                      records=[rec(0, mse=0.5, samples_xi=3), rec(1, mse=0.25)])
        text = trace_to_csv(trace)
        lines = text.splitlines()
        assert lines[0] == '# {"config":{"a":2,"z":1}}'  # sorted, compact
        assert lines[1] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 4 and text.endswith("\n")
        cells = lines[2].split(",")
        assert cells[0] == "0"  # int column: no decimal point
        assert cells[TRACE_COLUMNS.index("mse")] == "0.5"
        assert cells[TRACE_COLUMNS.index("samples_xi")] == "3"

    def test_floats_survive_round_trip_exactly(self, tmp_path):
        vals = [1 / 3, 1e-300, math.pi, 6.02e23]
        trace = Trace(header={"config": {}},
                      records=[rec(i, mse=v) for i, v in enumerate(vals)])
        path = tmp_path / "t.csv"
        write_trace(trace, str(path))
        back = read_trace(str(path))
        assert [r.mse for r in back.records] == vals
        assert [r.t for r in back.records] == [0, 1, 2, 3]
        assert back.header == {"config": {}}

    def test_read_rejects_missing_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,mse\n0,1\n")
        with pytest.raises(ConfigError, match="header"):
            read_trace(str(path))

    def test_read_rejects_wrong_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('# {}\nt,mse\n0,1\n')
        with pytest.raises(ConfigError, match="column"):
            read_trace(str(path))

    @pytest.mark.parametrize("index,bad,match", [
        (0, "# {not json", "1: header is not valid JSON"),
        (3, "1,0.0,0.0", "4: expected 12 cells, got 3"),
        (3, ",".join(["1", "abc"] + ["0.0"] * 10), "4: column 'grad_norm_sq' holds 'abc'"),
    ])
    def test_read_rejects_malformed_lines(self, tmp_path, index, bad, match):
        lines = trace_to_csv(Trace(header={}, records=[rec(0), rec(1)])).splitlines()
        lines[index] = bad
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:{match}")):
            read_trace(str(path))

    def test_column_accessor(self):
        trace = Trace(header={}, records=[rec(0, mse=2.0), rec(1, mse=4.0)])
        assert trace.column("mse").tolist() == [2.0, 4.0]
        with pytest.raises(ConfigError, match="unknown trace field"):
            trace.column("loss")


class TestAnalyses:
    def test_mean_grad_norm_small_example(self):
        records = [rec(1, grad_norm_sq=1.0), rec(2, grad_norm_sq=3.0)]
        assert mean_grad_norm(records) == pytest.approx(2.0)

    def test_mean_grad_norm_zeros(self):
        assert mean_grad_norm([rec(t) for t in range(5)]) == 0.0

    def test_mean_grad_norm_needs_every_round(self):
        with pytest.raises(ConfigError, match="cadence-1"):
            mean_grad_norm([rec(0), rec(2), rec(4)])
        with pytest.raises(ConfigError, match="nonempty"):
            mean_grad_norm([])

    def test_loglog_slope_recovers_power_law(self):
        records = [rec(t, mse=100.0 / t) for t in range(1, 101)]
        assert loglog_slope(records, "mse") == pytest.approx(-1.0, abs=1e-9)
        squared = [rec(t, mse=5.0 / t**2) for t in range(1, 101)]
        assert loglog_slope(squared, "mse") == pytest.approx(-2.0, abs=1e-9)

    def test_loglog_slope_flat_is_zero(self):
        records = [rec(t, mse=0.7) for t in range(1, 50)]
        assert loglog_slope(records, "mse") == pytest.approx(0.0, abs=1e-12)

    def test_loglog_slope_window_selects_tail(self):
        # kinked curve: flat until t=50, then 1/t; a 0.6 window sees only 1/t
        records = [rec(t, mse=1.0 if t < 60 else 60.0 / t) for t in range(1, 101)]
        assert loglog_slope(records, "mse", window=0.6) == pytest.approx(-1.0, abs=1e-9)

    def test_loglog_slope_skips_round_zero(self):
        records = [rec(0, mse=123.0)] + [rec(t, mse=9.0 / t) for t in range(1, 40)]
        assert loglog_slope(records, "mse") == pytest.approx(-1.0, abs=1e-9)

    def test_loglog_slope_rejects_nonpositive(self):
        records = [rec(t, mse=(0.0 if t == 95 else 1.0 / t)) for t in range(1, 101)]
        with pytest.raises(NumericsError, match="nonpositive"):
            loglog_slope(records, "mse")

    def test_loglog_slope_needs_tail_points(self):
        with pytest.raises(ConfigError):
            loglog_slope([rec(1, mse=1.0)], "mse")

    def test_samples_to_eps(self):
        records = [rec(t, mse=1.0 / (t + 1), samples_xi=4 * t) for t in range(10)]
        assert samples_to_eps(records, eps=0.25) == 12  # first t with mse <= 0.25
        assert samples_to_eps(records, eps=1e-9) is None

    def test_default_cadence(self):
        assert default_cadence(100) == 1
        assert default_cadence(10_000) == 1
        assert default_cadence(20_000) == 2
        assert default_cadence(1_000_001) == 101


class TestResolveReference:
    def test_closed_form_families(self):
        p = build_problem(ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=3), k=2)
        x_star, f_star, kind = resolve_reference(p)
        assert kind == "closed-form"
        assert np.abs(p.exact_hypergrad(x_star)).max() < 1e-8

    def test_numeric_fallback_for_hyperopt(self):
        p = build_problem(ProblemConfig(family="hyperopt", n_points=30, dim=3, seed=3), k=2)
        x_star, f_star, kind = resolve_reference(p)
        assert kind == "numerically-derived"
        assert np.linalg.norm(p.exact_hypergrad(x_star)) < 1e-6
        assert f_star == pytest.approx(p.objective(x_star))


class TestRun:
    def test_noiseless_single_agent_converges(self):
        cfg = quad_config(
            algorithm="dsbo", t_total=2500, b=30,
            problem=ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=2,
                                  sigma_f=0.0, sigma_g=0.0),
            topology=TopologyConfig(kind="complete", k=1),
        )
        trace = run(cfg)
        assert trace.records[-1].mse < 1e-6
        assert trace.records[-1].t == 2500

    def test_complete_graph_zero_heterogeneity_stays_consensual(self):
        cfg = quad_config(
            t_total=60,
            problem=ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=2,
                                  sigma_f=0.0, sigma_g=0.0, heterogeneity=0.0),
            topology=TopologyConfig(kind="complete", k=4),
        )
        trace = run(cfg)
        assert all(r.consensus_x <= 1e-20 for r in trace.records)
        assert all(r.consensus_y <= 1e-20 for r in trace.records)

    def test_header_resolves_defaults(self):
        cfg = quad_config(t_total=100, b=0, cadence=0,
                          topology=TopologyConfig(kind="ring", k=5))
        trace = run(cfg)
        header = trace.header
        assert header["config"]["b"] > 0
        assert header["config"]["cadence"] == 1
        assert header["reference"]["kind"] == "closed-form"
        assert header["reference"]["rho"] == pytest.approx(0.290892665416655, abs=1e-12)
        assert header["config"]["topology"]["k"] == 5

    def test_cadence_filters_records(self):
        cfg = quad_config(t_total=50, cadence=7)
        trace = run(cfg)
        assert [r.t for r in trace.records] == [0, 7, 14, 21, 28, 35, 42, 49, 50]

    def test_sample_counters_linear_in_rounds(self):
        cfg = quad_config(t_total=20, b=4)
        trace = run(cfg)
        last = trace.records[-1]
        assert last.samples_zeta == 20
        assert last.samples_xi == 20 * (1 + 4)

    def test_estimator_errors_tracked_for_gossip_only(self):
        gossip = run(quad_config(t_total=30))
        assert any(r.est_err_v > 0 for r in gossip.records[1:])
        double_loop = run(quad_config(algorithm="dbsa", t_total=10))
        assert all(
            r.est_err_s == r.est_err_h == r.est_err_u == r.est_err_v == 0.0
            for r in double_loop.records
        )

    def test_repeat_run_byte_identical(self):
        cfg = quad_config(t_total=40)
        a = trace_to_csv(run(cfg))
        b = trace_to_csv(run(cfg))
        assert a == b

    def test_coordinator_matches_gossip_single_agent(self):
        base = dict(
            t_total=60, b=3, seed=9,
            problem=ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=5,
                                  sigma_f=0.2, sigma_g=0.1),
            topology=TopologyConfig(kind="complete", k=1),
        )
        gossip = run(quad_config(algorithm="dsbo", **base))
        star = run(quad_config(algorithm="fedsbo", **base))
        assert len(gossip.records) == len(star.records)
        for ra, rb in zip(gossip.records, star.records):
            assert ra == rb

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            run(quad_config(algorithm="sgd"))

    def test_nonpositive_horizon(self):
        with pytest.raises(ConfigError, match="t_total"):
            run(quad_config(t_total=0))

    @pytest.mark.parametrize("key,value", [("b", -3), ("cadence", -2)])
    def test_negative_depth_or_cadence_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be >= 0"):
            run(quad_config(**{key: value}))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_carries_partial_trace(self):
        cfg = quad_config(
            t_total=50,
            schedule=ScheduleConfig(regime="constant", c0=1e200, beta_scale=1.0),
        )
        with pytest.raises(DivergenceError) as exc:
            run(cfg)
        partial = exc.value.trace
        assert isinstance(partial, Trace)
        assert partial.header["config"]["t_total"] == 50
        assert len(partial.records) >= 1

    def test_double_loop_counters_via_runner(self):
        trace = run(quad_config(algorithm="dbsa", t_total=12))
        last = trace.records[-1]
        assert last.samples_zeta == 12
        assert last.samples_xi == 12 * 11 // 2

    def test_chain_rule_baseline_via_runner(self):
        cfg = quad_config(
            algorithm="dsgd", t_total=10,
            problem=ProblemConfig(family="policy-eval", n_states=8, feat_dim=3,
                                  discount=0.5, lam=1.0, seed=4),
        )
        trace = run(cfg)
        last = trace.records[-1]
        assert last.samples_xi == 10 * 9 // 2 + 10

    def test_chain_rule_rejects_quadratic(self):
        with pytest.raises(ConfigError, match="compositional"):
            run(quad_config(algorithm="dsgd"))


class TestHyperoptDataFile:
    @staticmethod
    def write_libsvm(path, n_rows=40, dim=4):
        rng = np.random.default_rng(0)
        lines = []
        for row in rng.standard_normal((n_rows, dim)):
            feats = " ".join(f"{j + 1}:{v:.6f}" for j, v in enumerate(row))
            lines.append(f"{1 if row.sum() > 0 else -1} {feats}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_builds_shards_and_runs(self, tmp_path):
        data = tmp_path / "data.libsvm"
        self.write_libsvm(data)
        cfg = ProblemConfig(family="hyperopt", data_path=str(data), seed=3)
        problem = build_problem(cfg, k=4)
        assert problem.k == 4 and problem.d_x == problem.d_y == 4
        # 40 rows over 4 agents, each shard split half train, half validation
        for shards in (problem._train, problem._val):
            assert [w.shape for w, _ in shards] == [(5, 4)] * 4
            assert [z.shape for _, z in shards] == [(5,)] * 4
            assert all(set(np.unique(z)) <= {0.0, 1.0} for _, z in shards)
        trace = run(RunConfig(
            algorithm="dsbo", t_total=5, b=3, problem=cfg,
            topology=TopologyConfig(kind="ring", k=4),
            schedule=ScheduleConfig(regime="constant", c0=0.1),
        ))
        assert [r.t for r in trace.records] == list(range(6))
        assert all(np.isfinite(r.subopt) for r in trace.records)


class TestSpeedupAnalysis:
    @staticmethod
    def small_cfg(k):
        return quad_config(
            t_total=150, b=3,
            problem=ProblemConfig(family="quadratic", d_x=3, d_y=3, seed=6,
                                  sigma_f=0.05, sigma_g=0.05),
            topology=TopologyConfig(kind="complete", k=k),
        )

    def test_table_shape_and_totals(self):
        configs = [self.small_cfg(2), self.small_cfg(4)]
        table = speedup_analysis(configs, eps=0.05, seeds=range(2))
        assert [row["k"] for row in table] == [2, 4]
        for row in table:
            assert row["n_runs"] == 2 and row["censored"] == 0
            assert len(row["totals"]) == 2
            assert row["median"] == pytest.approx(float(np.median(row["totals"])))
            # totals are whole multiples of k * (1 + b)
            assert all(tot % (row["k"] * 4) == 0 for tot in row["totals"])

    def test_censored_runs_counted(self):
        table = speedup_analysis([self.small_cfg(2)], eps=1e-30, seeds=range(2))
        assert table[0]["censored"] == 2
        assert table[0]["median"] is None and table[0]["totals"] == []

    def test_rejects_mismatched_configs(self):
        a = self.small_cfg(2)
        b = dataclasses.replace(self.small_cfg(4), t_total=999)
        with pytest.raises(ConfigError, match="identical except"):
            speedup_analysis([a, b], eps=0.1, seeds=[0])

    def test_rejects_duplicate_sizes(self):
        with pytest.raises(ConfigError, match="duplicate"):
            speedup_analysis([self.small_cfg(2), self.small_cfg(2)], eps=0.1, seeds=[0])

    def test_seed_generator_accepted(self):
        table = speedup_analysis([self.small_cfg(2)], eps=0.5, seeds=iter([0, 1]))
        assert table[0]["n_runs"] == 2
