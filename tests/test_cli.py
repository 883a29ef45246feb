"""End-to-end exercise of the ``dsbo`` command-line interface.

Every test drives ``main(argv)`` directly and asserts on exit codes,
written files, and printed output.
"""

import json
import os

import numpy as np
import pytest

from dsbo import (
    ProblemConfig,
    RunConfig,
    ScheduleConfig,
    TopologyConfig,
    Trace,
    TraceRecord,
    read_trace,
    write_trace,
)
from dsbo.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    _trace_name,
    main,
)


def base_config() -> dict:
    """Small, fast quadratic run that finishes in well under a second."""
    return {
        "algorithm": "dsbo",
        "t_total": 40,
        "b": 3,
        "seed": 0,
        "problem": {"family": "quadratic", "d_x": 3, "d_y": 3, "seed": 2,
                    "sigma_f": 0.05, "sigma_g": 0.05},
        "topology": {"kind": "ring", "k": 3},
        "schedule": {"regime": "diminishing", "c1": 50.0, "mu": 1.0},
    }


def write_config(tmp_path, updates=None, name="cfg.json") -> str:
    cfg = base_config()
    for key, val in (updates or {}).items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def rec(t, **kw) -> TraceRecord:
    base = dict(grad_norm_sq=0.0, subopt=0.0, mse=0.0, consensus_x=0.0,
                consensus_y=0.0, est_err_s=0.0, est_err_h=0.0, est_err_u=0.0,
                est_err_v=0.0, samples_zeta=0, samples_xi=0)
    base.update(kw)
    return TraceRecord(t=t, **base)


class TestTraceName:
    def test_encodes_algorithm_family_size_and_seed(self):
        cfg = RunConfig(
            algorithm="dsgd",
            seed=3,
            problem=ProblemConfig(family="policy-eval"),
            topology=TopologyConfig(kind="ring", k=7),
        )
        assert _trace_name(cfg) == "trace_dsgd_policy-eval_k7_s3.csv"


class TestRun:
    def test_writes_named_trace_and_reports(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "results"
        code = main(["run", "--config", cfg_path, "--out", str(out)])
        assert code == EXIT_OK
        trace_path = out / "trace_dsbo_quadratic_k3_s0.csv"
        assert trace_path.is_file()
        trace = read_trace(str(trace_path))
        # cadence defaults to every round: t = 0..40 inclusive
        assert [r.t for r in trace.records] == list(range(41))
        assert trace.header["config"]["t_total"] == 40
        message = capsys.readouterr().out
        assert str(trace_path) in message
        assert "(41 records)" in message

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_out_dir_falls_back_to_config(self, tmp_path):
        dest = tmp_path / "fromcfg"
        cfg_path = write_config(tmp_path, {"out": str(dest)})
        assert main(["run", "--config", cfg_path, "--quiet"]) == EXIT_OK
        assert (dest / "trace_dsbo_quadratic_k3_s0.csv").is_file()

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == EXIT_USAGE
        assert "config file not found" in capsys.readouterr().err

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_overrides_change_run_and_trace_name(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "o"
        code = main(["run", "--config", cfg_path, "--out", str(out),
                     "--set", "topology.k=4", "--set", "seed=3", "--quiet"])
        assert code == EXIT_OK
        trace_path = out / "trace_dsbo_quadratic_k4_s3.csv"
        assert trace_path.is_file()
        header = read_trace(str(trace_path)).header
        assert header["config"]["topology"]["k"] == 4
        assert header["config"]["seed"] == 3

    def test_bad_override_is_config_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        code = main(["run", "--config", cfg_path, "--set", "topology.k=ten"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_schedule_violation_exits_config(self, tmp_path, capsys):
        # diminishing requires c1 >= max(1, 2/mu) = 2
        cfg_path = write_config(tmp_path, {"schedule": {"c1": 1.0, "mu": 1.0}})
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_data_file_is_config_error(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.libsvm")
        cfg_path = write_config(tmp_path, {"problem": {"family": "hyperopt",
                                                       "data_path": absent}})
        code = main(["run", "--config", cfg_path, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and absent in err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_exits_4_and_keeps_partial_trace(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            {"schedule": {"regime": "constant", "c0": 1e200}},
        )
        out = tmp_path / "o"
        code = main(["run", "--config", cfg_path, "--out", str(out)])
        assert code == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert "non-finite value" in err
        assert "partial trace" in err
        final = out / "trace_dsbo_quadratic_k3_s0.csv"
        assert not final.is_file()
        partial = read_trace(str(final) + ".partial")
        assert len(partial.records) >= 1
        assert partial.header["config"]["schedule"]["c0"] == 1e200


class TestArgumentParsing:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "run" in capsys.readouterr().out


class TestSweep:
    def test_writes_per_seed_traces_and_summary(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"seed": 99})  # base seed is ignored
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg_path, "--seeds", "2",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        traces = [out / f"trace_dsbo_quadratic_k3_s{s}.csv" for s in (0, 1)]
        assert all(p.is_file() for p in traces)

        with open(out / "sweep_summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["seeds"] == [0, 1]
        assert [os.path.basename(p) for p in summary["traces"]] == \
            [p.name for p in traces]
        finals = [read_trace(str(p)).records[-1].mse for p in traces]
        quants = summary["final"]["mse"]
        assert set(quants) == {"q125", "q500", "q875"}
        assert quants["q500"] == pytest.approx(float(np.median(finals)), rel=1e-12)
        for field in ("mse", "subopt", "grad_norm_sq"):
            assert field in summary["final"]

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seed_count_below_one_is_usage_error(self, tmp_path, capsys, seeds):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg_path, "--seeds", seeds, "--out", str(out)])
        assert code == EXIT_USAGE
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_well_posed_config_passes_all_checks(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        code = main(["validate", "--config", cfg_path])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "all checks passed" in out
        assert "FAIL" not in out
        for check in ("doubly-stochastic", "symmetric", "contraction-factor",
                      "curvature-bounds", "hessian-spectral-safety",
                      "unbiased-gx_f", "unbiased-gy_g", "unbiased-hyy_g"):
            assert f"PASS {check}" in out

    def test_asymmetric_custom_weights_fail_construction(self, tmp_path, capsys):
        weights = tmp_path / "w.txt"
        # doubly stochastic but directed: symmetry check must trip
        np.savetxt(weights, np.array([[0.5, 0.5, 0.0],
                                      [0.0, 0.5, 0.5],
                                      [0.5, 0.0, 0.5]]))
        cfg_path = write_config(
            tmp_path,
            {"topology": {"kind": "custom", "k": 3,
                          "weights_path": str(weights)}},
        )
        code = main(["validate", "--config", cfg_path])
        out = capsys.readouterr().out
        assert code == EXIT_CONFIG
        assert "FAIL construction (NotSymmetricError)" in out

    def test_missing_data_file_fails_construction(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.libsvm")
        cfg_path = write_config(tmp_path, {"problem": {"family": "hyperopt",
                                                       "data_path": absent}})
        code = main(["validate", "--config", cfg_path])
        out = capsys.readouterr().out
        assert code == EXIT_CONFIG
        assert "FAIL construction (ConfigError)" in out and absent in out

    def test_oversized_hessian_noise_fails_construction(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"problem": {"sigma_g": 5.0}})
        code = main(["validate", "--config", cfg_path])
        out = capsys.readouterr().out
        assert code == EXIT_CONFIG
        assert "FAIL construction" in out


class TestPlotdata:
    def _make_traces(self, tmp_path, n=2, cadences=None):
        paths = []
        for seed in range(n):
            updates = {"seed": seed}
            if cadences:
                updates["cadence"] = cadences[seed]
            cfg_path = write_config(tmp_path, updates, name=f"cfg{seed}.json")
            out = tmp_path / "traces"
            assert main(["run", "--config", cfg_path, "--out", str(out),
                         "--quiet"]) == EXIT_OK
            paths.append(str(out / f"trace_dsbo_quadratic_k3_s{seed}.csv"))
        return paths

    def test_merges_traces_into_long_csv(self, tmp_path, capsys):
        paths = self._make_traces(tmp_path)
        out = tmp_path / "plot"
        code = main(["plotdata", *paths, "--fields", "mse,grad_norm_sq",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        lines = (out / "plotdata.csv").read_text().splitlines()
        assert lines[0] == "run_id,t,field,value,q125,q500,q875"
        # 2 traces x 41 common rounds x 2 fields
        assert len(lines) - 1 == 2 * 41 * 2

        traces = {os.path.splitext(os.path.basename(p))[0]: read_trace(p)
                  for p in paths}
        by_t = {rid: {r.t: r for r in tr.records} for rid, tr in traces.items()}
        for line in lines[1:]:
            run_id, t, field, value, q125, q500, q875 = line.split(",")
            t = int(t)
            assert float(value) == getattr(by_t[run_id][t], field)
            cell = sorted(getattr(by_t[rid][t], field) for rid in traces)
            assert float(q500) == pytest.approx(float(np.median(cell)))
            assert float(q125) <= float(q500) <= float(q875)

    def test_mismatched_cadence_warns_and_intersects(self, tmp_path):
        paths = self._make_traces(tmp_path, cadences=[1, 2])
        out = tmp_path / "plot"
        with pytest.warns(UserWarning, match="mismatched cadences"):
            code = main(["plotdata", *paths, "--fields", "mse",
                         "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        lines = (out / "plotdata.csv").read_text().splitlines()
        # coarse grid: t = 0,2,...,40 -> 21 rounds, 2 traces, 1 field
        assert len(lines) - 1 == 2 * 21 * 1
        ts = sorted({int(line.split(",")[1]) for line in lines[1:]})
        assert ts == list(range(0, 41, 2))

    def test_unknown_field_is_usage_error(self, tmp_path, capsys):
        paths = self._make_traces(tmp_path, n=1)
        code = main(["plotdata", *paths, "--fields", "wobble"])
        assert code == EXIT_USAGE
        assert "unknown trace field 'wobble'" in capsys.readouterr().err

    def test_missing_trace_file_is_usage_error(self, tmp_path, capsys):
        code = main(["plotdata", str(tmp_path / "nope.csv")])
        assert code == EXIT_USAGE
        assert "trace file not found" in capsys.readouterr().err

    def test_malformed_trace_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        write_trace(Trace(header={"config": {}}, records=[rec(0), rec(1)]), str(path))
        path.write_text(path.read_text() + "2,0.5\n")
        code = main(["plotdata", str(path), "--out", str(tmp_path / "plot")])
        assert code == EXIT_CONFIG
        assert f"{path}:5: expected 12 cells, got 2" in capsys.readouterr().err

    def test_disjoint_grids_are_rejected(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_trace(Trace(header={"config": {}}, records=[rec(1), rec(3)]), p1)
        write_trace(Trace(header={"config": {}}, records=[rec(2), rec(4)]), p2)
        code = main(["plotdata", p1, p2, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "no common recorded rounds" in capsys.readouterr().err


class TestReplicate:
    def test_unknown_experiment_is_usage_error(self, tmp_path, capsys):
        code = main(["replicate", "telepathy", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "unknown experiment 'telepathy'" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seed_count_below_one_is_usage_error(self, tmp_path, capsys, seeds):
        out = tmp_path / "rep"
        code = main(["replicate", "policy-eval", "--seeds", seeds, "--out", str(out)])
        assert code == EXIT_USAGE
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_policy_eval_desk_scale(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["replicate", "policy-eval", "--seeds", "1",
                     "--set", "t_total=30", "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        for k in (5, 10, 20):
            assert (out / f"trace_dsbo_policy-eval_k{k}_s0.csv").is_file()
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["experiment"] == "policy-eval"
        assert set(summary["slopes"]) == {"5", "10", "20"}
        assert set(summary["final_mse"]) == {"5", "10", "20"}
        for quants in summary["final_mse"].values():
            assert np.isfinite(quants["q500"]) and quants["q500"] > 0

    def test_hyperopt_desk_scale(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["replicate", "hyperopt", "--seeds", "1",
                     "--set", "t_total=20", "--set", "b=20",
                     "--set", "schedule.beta_scale=1.0",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        assert (out / "trace_dsbo_hyperopt_k5_s0.csv").is_file()
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        for key in ("final_val_loss", "final_subopt", "final_grad_norm_sq"):
            assert np.isfinite(summary[key]["q500"])
        # validation loss is an average of logistic losses: strictly positive
        assert summary["final_val_loss"]["q500"] > 0

    def test_speedup_table_structure(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["replicate", "speedup", "--seeds", "1",
                     "--set", "t_total=30", "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        table = summary["samples_to_eps"]
        assert set(table) == {"8e-07", "1.5e-06", "2e-06"}
        for rows in table.values():
            assert [row["k"] for row in rows] == [5, 10, 20]
            for row in rows:
                # 30 rounds cannot reach sub-1e-6 accuracy: all runs censored
                assert row["censored"] == 1
                assert row["q500"] is None
