"""Config plumbing, trace serialization, the run driver, and analyses."""

import copy
import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import dsbo
from dsbo import (
    ConfigError,
    DbsaConfig,
    DivergenceError,
    NumericsError,
    ProblemConfig,
    RunConfig,
    ScheduleConfig,
    Recorder,
    TopologyConfig,
    Trace,
    TopologyError,
    TraceRecord,
    TRACE_COLUMNS,
    build_problem,
    densify,
    load_config,
    loglog_slope,
    mean_grad_norm,
    parse_libsvm,
    read_trace,
    run,
    samples_to_eps,
    speedup_analysis,
    split_partition,
    trace_to_csv,
    train_val_split,
    write_trace,
)
from dsbo.harness import (TRACE_DTYPE, check_run, default_cadence, resolve_reference,
                          schedule_from_config)


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
        s = schedule_from_config(ScheduleConfig(regime="constant", c0=0.1), k=4, t_total=100)
        assert s.alpha(3) == pytest.approx(0.02)
        assert s.beta(3) == pytest.approx(0.2)

    def test_diminishing_example(self):
        s = schedule_from_config(ScheduleConfig(regime="diminishing", c1=50.0, mu=1.0),
                                 k=4, t_total=100)
        assert s.alpha(0) == pytest.approx(0.04)
        assert s.beta(0) == 1.0

    def test_capped_example(self):
        s = schedule_from_config(ScheduleConfig(regime="capped", alpha_cap=0.01, alpha_num=2.0,
                                                beta_cap=0.5, beta_num=50.0),
                                 k=5, t_total=100)
        assert s.alpha(400) == pytest.approx(0.005)
        assert s.beta(400) == pytest.approx(0.125)

    def test_rejects_unknown_regime(self):
        with pytest.raises(ConfigError, match="regime"):
            schedule_from_config(ScheduleConfig(regime="linear"), k=4, t_total=100)


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

    def test_record_has_slots_not_dict(self, tmp_path):
        # a long trace holds thousands of records: no per-record __dict__
        record = rec(3, mse=0.25, samples_zeta=3)
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.mse = 1.0
        moved = dataclasses.replace(record, mse=0.5)
        assert (moved.t, moved.mse, record.mse) == (3, 0.5, 0.25)
        assert dataclasses.asdict(record) == {c: getattr(record, c) for c in TRACE_COLUMNS}
        trace = Trace(header={"config": {}}, records=[record, moved])
        path = tmp_path / "t.csv"
        write_trace(trace, str(path))
        back = read_trace(str(path))
        assert back.records == trace.records
        assert trace_to_csv(back) == trace_to_csv(trace)

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

    def test_read_skips_blank_lines(self, tmp_path):
        trace = Trace(header={"config": {}}, records=[rec(0, mse=0.5), rec(1), rec(2, mse=0.25)])
        lines = trace_to_csv(trace).splitlines()
        lines[3:3] = ["", "  "]  # between the first and second rows
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        back = read_trace(str(path))
        assert back.records == trace.records
        assert trace_to_csv(back) == trace_to_csv(trace)

    def test_column_accessor(self):
        trace = Trace(header={}, records=[rec(0, mse=2.0), rec(1, mse=4.0)])
        assert trace.column("mse").tolist() == [2.0, 4.0]
        with pytest.raises(ConfigError, match="unknown trace field"):
            trace.column("loss")


_QUAD = build_problem(ProblemConfig(family="quadratic", d_x=2, d_y=2, seed=3), 2)


class TestTraceStore:
    def test_row_takes_96_bytes(self):
        assert TRACE_DTYPE.names == TRACE_COLUMNS
        assert TRACE_DTYPE.itemsize == 96
        for name in TRACE_COLUMNS:
            kind = "i" if name in ("t", "samples_zeta", "samples_xi") else "f"
            assert TRACE_DTYPE[name].kind == kind

    def test_schema_is_the_pinned_literal(self):
        # both derive from TraceRecord's fields; a reordered or retyped
        # field would change every CSV
        assert TRACE_COLUMNS == (
            "t", "grad_norm_sq", "subopt", "mse", "consensus_x", "consensus_y",
            "est_err_s", "est_err_h", "est_err_u", "est_err_v",
            "samples_zeta", "samples_xi",
        )
        ints = ("t", "samples_zeta", "samples_xi")
        assert TRACE_DTYPE == np.dtype([
            (name, np.int64 if name in ints else np.float64) for name in TRACE_COLUMNS])

    @given(t_total=hst.integers(1, 60), cadence=hst.integers(1, 15))
    @settings(max_examples=60, deadline=None)
    def test_recorder_rows_match_recorded_rounds(self, t_total, cadence):
        recorder = Recorder(_QUAD, cadence, t_total, np.zeros(2), 0.0)
        xs = np.zeros((2, 2))
        for t in range(t_total + 1):
            recorder.record(t, xs, xs, t, 2 * t)
        expected = [t for t in range(t_total + 1) if t % cadence == 0 or t == t_total]
        rows = recorder.records.rows
        assert rows["t"].tolist() == expected
        assert rows["samples_xi"].tolist() == [2 * t for t in expected]
        assert rows["t"][-1] == t_total
        assert len(recorder._rows) == len(expected)  # preallocated exactly

    def test_recorder_grows_past_its_preallocation(self):
        recorder = Recorder(_QUAD, 1, 2, np.zeros(2), 0.0)
        xs = np.zeros((2, 2))
        for t in range(10):
            recorder.record(t, xs, xs, t, t)
        assert [r.t for r in recorder.records] == list(range(10))

    def test_records_sequence_semantics(self):
        trace = Trace(header={}, records=[rec(t, mse=1.0 / (t + 1)) for t in range(5)])
        records = trace.records
        assert len(records) == 5
        assert records[-1] == rec(4, mse=0.2)
        assert isinstance(records[1:3], list) and [r.t for r in records[1:3]] == [1, 2]
        assert [r.t for r in records] == list(range(5))
        assert records == [rec(t, mse=1.0 / (t + 1)) for t in range(5)]
        assert records != records[:-1]
        with pytest.raises(IndexError):
            records[5]
        with pytest.raises(ValueError):
            records.rows["mse"][0] = 0.0  # the rows are read-only
        cell = records[0]
        assert type(cell.t) is int and type(cell.mse) is float

    def test_list_edits_convert_back_to_rows(self):
        # the idiom of replacing one record in a copy of the list
        trace = Trace(header={}, records=[rec(t, mse=1.0) for t in range(4)])
        rising = dataclasses.replace(trace.records[-1], mse=2.0)
        edited = Trace(trace.header, trace.records[:-1] + [rising])
        assert edited.records.rows.dtype == TRACE_DTYPE
        assert edited.column("mse").tolist() == [1.0, 1.0, 1.0, 2.0]
        assert trace.column("mse").tolist() == [1.0] * 4
        assert edited != trace
        assert Trace(trace.header, list(trace.records)) == trace

    def test_read_then_write_gives_the_same_bytes(self, tmp_path):
        trace = run(quad_config(t_total=30, cadence=4))
        path = tmp_path / "t.csv"
        write_trace(trace, str(path))
        back = read_trace(str(path))
        assert back.records == trace.records
        assert trace_to_csv(back).encode() == path.read_bytes()

    def test_long_trace_holds_96_bytes_a_record(self):
        # policy-eval fedsbo, 2,001 records: 96 B each is 192 KB, where a
        # list of TraceRecord objects held about 0.85 MiB
        cfg = quad_config(
            algorithm="fedsbo", t_total=2000, b=1,
            problem=ProblemConfig(family="policy-eval", n_states=10, feat_dim=3, seed=7),
            topology=TopologyConfig(kind="ring", k=5),
        )
        tracemalloc.start()
        try:
            trace = run(cfg)
            gc.collect()
            with_trace = tracemalloc.get_traced_memory()[0]
            n_records = len(trace.records)
            del trace
            gc.collect()
            held = with_trace - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n_records == 2001
        assert held <= 250_000, held

    @given(k=hst.integers(1, 20), b=hst.integers(1, 4), seed=hst.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_recorded_means_match_numpy_mean(self, k, b, seed):
        # the recorder takes means as np.add.reduce / n; every cell must
        # have the bits of the same record computed with np.mean
        problem = build_problem(ProblemConfig(family="quadratic", d_x=3, d_y=2, seed=3), k)
        rng = np.random.default_rng(seed)
        xs, ys = rng.standard_normal((k, 3)) * 1e3, rng.standard_normal((k, 2))
        est = SimpleNamespace(s=rng.standard_normal((k, 3)), h=rng.standard_normal((k, 2)),
                              u=rng.standard_normal((k, 3, 2)),
                              v=rng.standard_normal((k, b, 2, 2)))
        x_star = rng.standard_normal(3)
        recorder = Recorder(problem, 1, 1, x_star, 0.25)
        recorder.record(1, xs, ys, 7, 9, est=est)

        xbar, ybar = np.mean(xs, axis=0), np.mean(ys, axis=0)
        y_star = problem.exact_lower(xbar)
        exact = problem.exact_gradients(xbar, y_star)
        grad = problem.implicit_hypergrad(exact)
        want = np.array([(
            1, grad @ grad, problem.outer_value(xbar, y_star) - 0.25,
            (xbar - x_star) @ (xbar - x_star),
            ((xs - xbar) ** 2).sum(), ((ys - ybar) ** 2).sum(),
            ((np.mean(est.s, axis=0) - exact.gx_f) ** 2).sum(),
            ((np.mean(est.h, axis=0) - exact.gy_f) ** 2).sum(),
            ((np.mean(est.u, axis=0) - exact.hxy_g) ** 2).sum(),
            ((np.mean(est.v, axis=(0, 1)) - exact.hyy_g) ** 2).sum(),
            7, 9,
        )], dtype=TRACE_DTYPE)
        assert recorder.records.rows.tobytes() == want.tobytes()


class TestAnalyses:
    def test_mean_grad_norm_small_example(self):
        records = [rec(1, grad_norm_sq=1.0), rec(2, grad_norm_sq=3.0)]
        assert mean_grad_norm(Trace({}, records)) == pytest.approx(2.0)

    def test_mean_grad_norm_zeros(self):
        assert mean_grad_norm(Trace({}, [rec(t) for t in range(5)])) == 0.0

    def test_mean_grad_norm_needs_every_round(self):
        with pytest.raises(ConfigError, match="cadence-1"):
            mean_grad_norm(Trace({}, [rec(0), rec(2), rec(4)]))
        with pytest.raises(ConfigError, match="nonempty"):
            mean_grad_norm(Trace({}, []))

    def test_loglog_slope_recovers_power_law(self):
        records = [rec(t, mse=100.0 / t) for t in range(1, 101)]
        assert loglog_slope(Trace({}, records), "mse") == pytest.approx(-1.0, abs=1e-9)
        squared = [rec(t, mse=5.0 / t**2) for t in range(1, 101)]
        assert loglog_slope(Trace({}, squared), "mse") == pytest.approx(-2.0, abs=1e-9)

    def test_loglog_slope_flat_is_zero(self):
        records = [rec(t, mse=0.7) for t in range(1, 50)]
        assert loglog_slope(Trace({}, records), "mse") == pytest.approx(0.0, abs=1e-12)

    def test_loglog_slope_window_selects_tail(self):
        # kinked curve: flat until t=50, then 1/t; a 0.6 window sees only 1/t
        records = [rec(t, mse=1.0 if t < 60 else 60.0 / t) for t in range(1, 101)]
        assert loglog_slope(Trace({}, records), "mse", window=0.6) == pytest.approx(-1.0, abs=1e-9)

    def test_loglog_slope_skips_round_zero(self):
        records = [rec(0, mse=123.0)] + [rec(t, mse=9.0 / t) for t in range(1, 40)]
        assert loglog_slope(Trace({}, records), "mse") == pytest.approx(-1.0, abs=1e-9)

    def test_loglog_slope_rejects_nonpositive(self):
        records = [rec(t, mse=(0.0 if t == 95 else 1.0 / t)) for t in range(1, 101)]
        with pytest.raises(NumericsError, match="nonpositive"):
            loglog_slope(Trace({}, records), "mse")

    def test_loglog_slope_needs_tail_points(self):
        with pytest.raises(ConfigError):
            loglog_slope(Trace({}, [rec(1, mse=1.0)]), "mse")

    def test_samples_to_eps(self):
        records = [rec(t, mse=1.0 / (t + 1), samples_xi=4 * t) for t in range(10)]
        assert samples_to_eps(Trace({}, records), eps=0.25) == 12  # first t with mse <= 0.25
        assert samples_to_eps(Trace({}, records), eps=1e-9) is None

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

    @pytest.mark.parametrize("algorithm", ["dsbo", "fedsbo", "dbsa", "dsgd"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_carries_partial_trace(self, algorithm):
        # run records every step it got before the failing round err.t
        cfg = quad_config(
            algorithm=algorithm, t_total=50, cadence=1,
            problem=ProblemConfig(family="policy-eval", n_states=8, feat_dim=3, seed=4),
            schedule=ScheduleConfig(regime="constant", c0=1e200, beta_scale=1.0),
        )
        with pytest.raises(DivergenceError) as exc:
            run(cfg)
        err = exc.value
        assert isinstance(err.trace, Trace)
        assert err.trace.header["config"]["algorithm"] == algorithm
        assert err.trace.header["config"]["t_total"] == 50
        assert err.trace.records.rows["t"].tolist() == list(range(err.t + 1))
        assert err.t < 50

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

    @pytest.mark.parametrize("algorithm, family, calls", [
        ("dsbo", "quadratic", 7),  # one per round
        ("fedsbo", "quadratic", 7),
        ("dbsa", "quadratic", 7 * 6 // 2 + 7),  # one per inner and per outer step
        ("dsgd", "policy-eval", 7 * 6 // 2 + 7),
    ])
    def test_one_stream_call_per_round_or_step(self, monkeypatch, algorithm, family, calls):
        # every agent's stream for a round or step comes from one call
        import dsbo.baselines
        import dsbo.rng

        seen = []
        derive = dsbo.rng.stream

        def counting(*args):
            seen.append(args[1])
            return derive(*args)

        monkeypatch.setattr(dsbo.rng, "stream", counting)
        monkeypatch.setattr(dsbo.baselines, "stream", counting)
        problem = ProblemConfig(family=family, d_x=4, d_y=4, n_states=8, feat_dim=3, seed=2)
        run(quad_config(algorithm=algorithm, t_total=7, problem=problem,
                        topology=TopologyConfig(kind="ring", k=4)))
        assert len(seen) == calls

    def test_chain_rule_rejects_quadratic(self):
        with pytest.raises(ConfigError, match="compositional"):
            run(quad_config(algorithm="dsgd"))

    def test_bad_topology_rejected_before_reference_solve(self, monkeypatch):
        def no_solve(problem):
            raise AssertionError("the reference solve ran")

        monkeypatch.setattr(dsbo.harness, "resolve_reference", no_solve)
        cfg = quad_config(topology=TopologyConfig(kind="ring", k=2))
        with pytest.raises(TopologyError, match="k >= 3"):
            check_run(cfg)
        with pytest.raises(TopologyError, match="k >= 3"):
            run(cfg)


    def test_algorithms_ignore_inner_loop_knobs_they_do_not_read(self):
        # dsbo reads neither knob; dsgd has no correction term, so no corr_depth
        odd = DbsaConfig(eta_c=0.0, corr_depth=-1)
        check_run(quad_config(dbsa=odd))
        check_run(quad_config(algorithm="dsgd", dbsa=dataclasses.replace(odd, eta_c=1.0),
                              problem=ProblemConfig(family="policy-eval")))


# Runs the RunConfig given as JSON in argv[1] and prints its CSV's SHA-1.
_SHA1_SCRIPT = """
import hashlib, json, sys
from dsbo import RunConfig, run, trace_to_csv
csv = trace_to_csv(run(RunConfig.from_dict(json.loads(sys.argv[1]))))
print(hashlib.sha1(csv.encode()).hexdigest())
"""


class TestThreadSettings:
    """A rerun with any BLAS/OpenMP thread setting writes the same CSV bytes."""

    CONFIGS = {
        "policy-eval": RunConfig(
            algorithm="dsbo", t_total=20, b=2, seed=3,
            problem=ProblemConfig(family="policy-eval", n_states=50, feat_dim=5, seed=7),
            topology=TopologyConfig(kind="ring", k=20),
            schedule=ScheduleConfig(regime="capped"),
        ),
        "hyperopt": RunConfig(
            algorithm="dsbo", t_total=10, b=8, seed=3,
            problem=ProblemConfig(family="hyperopt", n_points=60, dim=4, seed=11),
            topology=TopologyConfig(kind="ring", k=3),
            schedule=ScheduleConfig(regime="capped"),
        ),
        "quadratic-k33": RunConfig(
            algorithm="dsbo", t_total=10, b=1, seed=3,
            problem=ProblemConfig(family="quadratic", d_x=5, d_y=50, sigma_g=0.01, seed=5),
            topology=TopologyConfig(kind="ring", k=33),
            schedule=ScheduleConfig(regime="capped"),
        ),
        # golden_traces.json's dsbo-policy-eval-1100-states entry
        "policy-eval-1100-states": RunConfig(
            algorithm="dsbo", t_total=3, b=3, seed=5,
            problem=ProblemConfig(family="policy-eval", n_states=1100, feat_dim=3, seed=7),
            topology=TopologyConfig(kind="ring", k=3),
            schedule=ScheduleConfig(regime="capped"),
        ),
    }

    @staticmethod
    def csv_sha1(cfg, threads: int) -> str:
        src = os.path.dirname(os.path.dirname(os.path.abspath(dsbo.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=src if not path else os.pathsep.join((src, path)))
        done = subprocess.run(
            [sys.executable, "-c", _SHA1_SCRIPT, json.dumps(cfg.to_dict())],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        return done.stdout.strip()

    @pytest.mark.parametrize("family", [
        "policy-eval", "hyperopt",
        # At K >= 16 how OpenBLAS splits gossip_mix's product across threads
        # changes its rounding, so these bytes depend on the thread count.
        pytest.param("quadratic-k33", marks=pytest.mark.xfail(
            strict=True, reason="gossip_mix rounds by OpenBLAS thread split at K >= 16")),
        # At 1,100 states the exact evaluators' products (m.T @ m, _p_phi @ x)
        # round by the thread split too, even at K = 3.
        pytest.param("policy-eval-1100-states", marks=pytest.mark.xfail(
            strict=True, reason="policy-eval's exact evaluators round by OpenBLAS thread "
                                "split at 1,100 states")),
    ])
    def test_thread_setting_does_not_change_bytes(self, family):
        cfg = self.CONFIGS[family]
        one, two = self.csv_sha1(cfg, 1), self.csv_sha1(cfg, 2)
        assert re.fullmatch(r"[0-9a-f]{40}", one)
        assert one == two
        assert one == hashlib.sha1(trace_to_csv(run(cfg)).encode()).hexdigest()


class _ReadLog:
    """A ProblemConfig stand-in that records the name of each field read."""

    def __init__(self, cfg):
        self._cfg = cfg
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._cfg, name)


class TestBuildProblem:
    # README "Config schema" lists the same fields per family
    FIELDS = {
        "quadratic": {"family", "seed", "d_x", "d_y", "sigma_f", "sigma_g", "mu_g", "l_g",
                      "heterogeneity", "kappa_g"},
        "policy-eval": {"family", "seed", "n_states", "feat_dim", "discount", "lam", "sigma_r",
                        "homogeneous", "exact_oracle"},
        "hyperopt": {"family", "seed", "n_points", "dim", "reg_floor", "minibatch",
                     "val_fraction", "data_path"},
    }

    @pytest.mark.parametrize("family", FIELDS)
    def test_each_family_reads_its_fields(self, family):
        log = _ReadLog(ProblemConfig(family=family, n_states=8, n_points=40))
        build_problem(log, 3)
        assert log.read == self.FIELDS[family]

    def test_every_config_field_is_read_by_some_family(self):
        assert set().union(*self.FIELDS.values()) == {
            f.name for f in dataclasses.fields(ProblemConfig)}

    def test_unknown_family_message(self):
        with pytest.raises(ConfigError) as exc:
            build_problem(ProblemConfig(family="lasso"), 3)
        assert str(exc.value) == ("unknown problem family 'lasso' "
                                  "(expected one of ('quadratic', 'policy-eval', 'hyperopt'))")

    def test_zero_kappa_g_derives_from_noise_headroom(self):
        derived = build_problem(ProblemConfig(), 3).constants.kappa_g
        sigma_g, d_y = ProblemConfig.sigma_g, ProblemConfig.d_y
        assert derived == pytest.approx((0.5 - sigma_g * math.sqrt((d_y + 1) / 2)) / 1.5)


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
        for w, z, starts, sizes in (
            (problem._train_w, problem._train_z, problem._train_start, problem._train_size),
            (problem._val_w, problem._val_z, problem._val_start, problem._val_size),
        ):
            shards = [(w[lo:lo + n], z[lo:lo + n]) for lo, n in zip(starts, sizes)]
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


    def test_shards_match_row_tuple_reference(self, tmp_path):
        # reference: rows zipped into (features, label) tuples, sharded,
        # split, then stacked per part; 43 rows give uneven shards
        data = tmp_path / "data.libsvm"
        self.write_libsvm(data, n_rows=43)
        cfg = ProblemConfig(family="hyperopt", data_path=str(data), seed=3, val_fraction=0.3)
        problem = build_problem(cfg, k=4)
        with open(data, encoding="utf-8") as fh:
            features, labels = densify(parse_libsvm(fh))
        parts = {"train": [], "val": []}
        for shard in split_partition(list(zip(features, labels)), 4, cfg.seed):
            split = train_val_split(shard, cfg.seed + 1, fraction=1.0 - cfg.val_fraction)
            for name, part in zip(parts, split):
                parts[name].append((np.stack([w for w, _ in part]), np.array([z for _, z in part])))
        for name, shards in parts.items():
            sizes = [len(z) for _, z in shards]
            np.testing.assert_array_equal(getattr(problem, f"_{name}_size"), sizes)
            np.testing.assert_array_equal(getattr(problem, f"_{name}_start"),
                                          np.cumsum([0] + sizes[:-1]))
            np.testing.assert_array_equal(getattr(problem, f"_{name}_w"),
                                          np.concatenate([w for w, _ in shards]))
            np.testing.assert_array_equal(getattr(problem, f"_{name}_z"),
                                          np.concatenate([z for _, z in shards]))

    def test_rejects_single_class_labels(self, tmp_path):
        # labels 1/2, as in LIBSVM's covtype.binary, all map to class 1
        data = tmp_path / "data.libsvm"
        self.write_libsvm(data)
        relabel = {"-1": "1", "1": "2"}
        lines = [line.split(" ", 1) for line in data.read_text(encoding="utf-8").splitlines()]
        data.write_text("".join(f"{relabel[label]} {feats}\n" for label, feats in lines),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="maps to class 1") as exc:
            build_problem(ProblemConfig(family="hyperopt", data_path=str(data)), k=4)
        assert str(data) in str(exc.value) and "labels > 0 to 1" in str(exc.value)


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
