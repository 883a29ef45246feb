"""Command-line front end.

Subcommands::

    dsbo run       --config cfg.json [--set key=value ...] [--out dir]
    dsbo sweep     --config cfg.json --seeds N [--set ...] [--out dir]
    dsbo validate  --config cfg.json [--set ...]
    dsbo plotdata  trace.csv [trace2.csv ...] --fields mse,subopt [--out dir]
    dsbo replicate {policy-eval,hyperopt,speedup} [--seeds N] [--set ...] [--out dir]

Exit codes: 0 success, 2 usage (bad invocation, missing files, unknown
names), 3 configuration (schema or precondition violations), 4 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

import numpy as np

from . import harness
from .errors import ConfigError, DivergenceError, DsboError
from .harness import (
    RunConfig,
    Trace,
    TRACE_COLUMNS,
    load_config,
    read_trace,
    samples_to_eps_table,
    write_trace,
)
from .rng import stream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DIVERGENCE = 4

EXPERIMENTS = ("policy-eval", "hyperopt", "speedup")

# Desk-scale accuracy targets for the speedup experiment (the published
# ones assume ~5x more rounds than a desk run uses).
SPEEDUP_EPS = (8e-7, 1.5e-6, 2e-6)


def _say(args, message: str):
    if not getattr(args, "quiet", False):
        print(message)


def _load(args) -> RunConfig:
    if not args.config:
        raise _Usage("a --config file is required")
    if not os.path.isfile(args.config):
        raise _Usage(f"config file not found: {args.config}")
    cfg = load_config(args.config)
    if args.set:
        cfg = cfg.apply_overrides(args.set)
    return cfg


class _Usage(Exception):
    pass


def _trace_name(cfg: RunConfig) -> str:
    return (
        f"trace_{cfg.algorithm}_{cfg.problem.family}"
        f"_k{cfg.topology.k}_s{cfg.seed}.csv"
    )


def _out_dir(args, cfg: RunConfig | None = None, default: str = ".") -> str:
    out = args.out or (cfg.out if cfg and cfg.out else default)
    os.makedirs(out, exist_ok=True)
    return out


def _quantiles(values) -> dict:
    arr = np.asarray(values, dtype=float)
    return {
        "q125": float(np.quantile(arr, 0.125)),
        "q500": float(np.quantile(arr, 0.5)),
        "q875": float(np.quantile(arr, 0.875)),
    }


def _run_and_write(cfg: RunConfig, out: str) -> tuple[str, Trace]:
    """Run cfg and write its trace into out; returns (path, trace).

    On divergence the records collected so far, round 0 at least, go to
    ``<path>.partial``, which stderr names; ``main`` then exits 4.
    """
    path = os.path.join(out, _trace_name(cfg))
    try:
        trace = harness.run(cfg)
    except DivergenceError as err:
        write_trace(err.trace, path + ".partial")
        print(f"partial trace: {path}.partial", file=sys.stderr)
        raise
    write_trace(trace, path)
    return path, trace


def _write_json(args, path: str, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _say(args, f"wrote {path}")


def cmd_run(args) -> int:
    cfg = _load(args)
    path, trace = _run_and_write(cfg, _out_dir(args, cfg))
    _say(args, f"wrote {path} ({len(trace.records)} records)")
    return EXIT_OK


def _reject_overrides(args, keys):
    """Refuse --set overrides of keys the command sets on every run itself."""
    for pair in args.set:
        key = pair.partition("=")[0].strip()
        if key in keys:
            raise ConfigError(
                f"{args.command} sets {key} itself; drop the --set {key} override"
            )


def cmd_sweep(args) -> int:
    _reject_overrides(args, ("seed",))
    cfg = _load(args)
    out = _out_dir(args, cfg)
    paths, finals = [], {"mse": [], "subopt": [], "grad_norm_sq": []}
    for seed in range(args.seeds):
        path, trace = _run_and_write(dataclasses.replace(cfg, seed=seed), out)
        paths.append(path)
        last = trace.records[-1]
        for field in finals:
            finals[field].append(getattr(last, field))
        _say(args, f"seed {seed}: wrote {path}")
    summary = {
        "config": cfg.to_dict(),
        "seeds": list(range(args.seeds)),
        "traces": paths,
        "final": {field: _quantiles(vals) for field, vals in finals.items()},
    }
    _write_json(args, os.path.join(out, "sweep_summary.json"), summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _check_spectral_safety(problem, seed: int, report, n_draws: int = 1000):
    c = problem.constants
    agents = np.arange(n_draws) % problem.k
    rngs = stream(seed, "validate-spectral", agents, np.arange(n_draws))
    draws = problem.sample(agents, np.zeros((n_draws, problem.d_x)),
                           np.zeros((n_draws, problem.d_y)), rngs, 1)
    evals = np.linalg.eigvalsh(draws.hyy_g_draws[:, 0])
    worst = float(np.abs(1.0 - evals / c.l_g).max())
    report("hessian-spectral-safety", worst <= 1.0 - c.kappa_g + 1e-10,
           f"max ||I - H/l_g|| over {n_draws} draws = {worst:.6g} "
           f"(bound {1.0 - c.kappa_g:.6g})")


def _smoke_unbiasedness(problem, seed: int, report, n_draws: int = 1000, n_se: float = 4.0):
    """Empirical mean of each oracle quantity vs the exact value, within
    n_se standard errors of the norm (sqrt(tr Cov / N))."""
    rng = stream(seed, "validate-point")
    x = 0.5 * rng.standard_normal(problem.d_x)
    y = 0.5 * rng.standard_normal(problem.d_y)
    exact = problem.exact_gradients(x, y)
    per_agent = n_draws // problem.k
    total = per_agent * problem.k
    agents = np.repeat(np.arange(problem.k), per_agent)
    rngs = stream(seed, "validate-smoke", np.arange(problem.k)[:, None], np.arange(per_agent))
    draws = problem.sample(agents, np.broadcast_to(x, (total, problem.d_x)),
                           np.broadcast_to(y, (total, problem.d_y)), rngs, 1)
    for name, target, field in (
        ("gx_f", exact.gx_f, draws.gx_f), ("gy_f", exact.gy_f, draws.gy_f),
        ("gy_g", exact.gy_g, draws.gy_g), ("hxy_g", exact.hxy_g, draws.hxy_g),
        ("hyy_g", exact.hyy_g, draws.hyy_g_draws[:, 0]),
    ):
        mean = field.sum(axis=0) / total
        # einsum sums the squares without materializing a (total, ...) copy
        var = np.maximum(np.einsum("r...,r...->...", field, field) / total - mean**2, 0.0)
        se_norm = float(np.sqrt(var.sum() / total))
        gap = float(np.sqrt(((mean - target) ** 2).sum()))
        report(f"unbiased-{name}", gap <= n_se * se_norm + 1e-12,
               f"|mean - exact| = {gap:.3e}, {n_se:.0f} SE = {n_se * se_norm:.3e}")


def cmd_validate(args) -> int:
    cfg = _load(args)
    failures = []

    def report(name: str, ok: bool, detail: str):
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        print(line)
        if not ok:
            failures.append(name)

    # check_run rejects every config that run rejects: MixingMatrix and
    # ProblemConstants enforce symmetry, double stochasticity, rho < 1 and
    # the curvature bounds by raising here
    try:
        problem = harness.check_run(cfg)[0]
    except ConfigError as err:
        print(f"FAIL construction ({type(err).__name__}): {err}")
        return EXIT_CONFIG
    _check_spectral_safety(problem, cfg.seed, report)
    _smoke_unbiasedness(problem, cfg.seed, report)
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return EXIT_CONFIG
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plotdata


def cmd_plotdata(args) -> int:
    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    if not fields:
        raise _Usage("--fields must name at least one trace column")
    for field in fields:
        if field not in TRACE_COLUMNS:
            raise _Usage(f"unknown trace field {field!r} (have {', '.join(TRACE_COLUMNS)})")
    traces = []
    for path in args.traces:
        if not os.path.isfile(path):
            raise _Usage(f"trace file not found: {path}")
        traces.append((os.path.splitext(os.path.basename(path))[0], read_trace(path)))

    grids = [set(trace.records.rows["t"].tolist()) for _, trace in traces]
    common = set.intersection(*grids)
    if not common:
        raise _Usage("traces share no common recorded rounds")
    if any(grid != common for grid in grids):
        warnings.warn("traces have mismatched cadences; resampled to the coarsest common grid")
    ts = np.array(sorted(common))

    # each trace's rows at the common rounds: the last one recorded at each
    picked = []
    for _, trace in traces:
        rows = trace.records.rows
        order = np.argsort(rows["t"], kind="stable")
        picked.append(rows[order[np.searchsorted(rows["t"][order], ts, side="right") - 1]])
    columns = {}  # field -> (traces, rounds) values and (rounds, 3) quantiles, as lists
    for field in fields:
        cells = np.stack([rows[field] for rows in picked])
        quantiles = np.quantile(cells.astype(float), (0.125, 0.5, 0.875), axis=0)
        columns[field] = cells.tolist(), quantiles.T.tolist()

    out = _out_dir(args, default=".")
    path = os.path.join(out, "plotdata.csv")
    lines = ["run_id,t,field,value,q125,q500,q875"]
    for idx, (run_id, _) in enumerate(traces):
        for j, t in enumerate(ts.tolist()):
            for field in fields:
                values, quantiles = columns[field]
                q125, q500, q875 = quantiles[j]
                lines.append(f"{run_id},{t},{field},{values[idx][j]!r},{q125!r},{q500!r},{q875!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _say(args, f"wrote {path} ({len(lines) - 1} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# replicate


def _policy_eval_base(n_states: int = 100, homogeneous: bool = False) -> RunConfig:
    return RunConfig(
        algorithm="dsbo",
        t_total=4000,
        seed=0,
        problem=harness.ProblemConfig(
            family="policy-eval", seed=7, n_states=n_states, feat_dim=5,
            discount=0.5, lam=1.0, sigma_r=1.0, homogeneous=homogeneous,
        ),
        topology=harness.TopologyConfig(kind="ring", k=5),
        schedule=harness.ScheduleConfig(
            regime="capped", alpha_cap=0.01, alpha_num=2.0, beta_cap=0.5, beta_num=50.0,
        ),
    )


def _hyperopt_base() -> RunConfig:
    return RunConfig(
        algorithm="dsbo",
        t_total=2000,
        b=200,
        seed=0,
        problem=harness.ProblemConfig(
            family="hyperopt", seed=11, n_points=200, dim=10,
            reg_floor=1e-3, minibatch=1, val_fraction=0.5,
        ),
        topology=harness.TopologyConfig(kind="ring", k=5),
        schedule=harness.ScheduleConfig(regime="constant", c0=0.1, beta_scale=10.0),
    )


def _replicate_runs(args, base: RunConfig, ks, out: str):
    """Run base across network sizes and seeds; returns {k: [traces]}."""
    _reject_overrides(args, ("topology.k", "seed"))
    base = base.apply_overrides(args.set)
    results = {}
    for k in ks:
        for seed in range(args.seeds):
            cfg = dataclasses.replace(
                base, seed=seed, topology=dataclasses.replace(base.topology, k=k)
            )
            _, trace = _run_and_write(cfg, out)
            results.setdefault(k, []).append(trace)
            _say(args, f"k={k} seed={seed}: final mse {trace.records[-1].mse:.3e}")
    return results


def cmd_replicate(args) -> int:
    name = args.experiment
    if name not in EXPERIMENTS:
        raise _Usage(f"unknown experiment {name!r} (valid: {', '.join(EXPERIMENTS)})")
    out = _out_dir(args, default=f"replicate_{name}")
    summary = {"experiment": name}

    if name == "policy-eval":
        results = _replicate_runs(args, _policy_eval_base(), (5, 10, 20), out)
        summary["slopes"] = {
            str(k): _quantiles([harness.loglog_slope(tr, "mse") for tr in runs])
            for k, runs in results.items()
        }
        summary["final_mse"] = {
            str(k): _quantiles([tr.records[-1].mse for tr in runs])
            for k, runs in results.items()
        }
    elif name == "hyperopt":
        (runs,) = _replicate_runs(args, _hyperopt_base(), (5,), out).values()
        summary["final_val_loss"] = _quantiles(
            [tr.records[-1].subopt + tr.header["reference"]["f_star"] for tr in runs]
        )
        summary["final_subopt"] = _quantiles([tr.records[-1].subopt for tr in runs])
        summary["final_grad_norm_sq"] = _quantiles(
            [tr.records[-1].grad_norm_sq for tr in runs]
        )
    else:  # speedup
        base = _policy_eval_base(n_states=50, homogeneous=True)
        results = _replicate_runs(args, base, (5, 10, 20), out)
        summary["samples_to_eps"] = {
            repr(eps): samples_to_eps_table(results, eps) for eps in SPEEDUP_EPS
        }
    _write_json(args, os.path.join(out, "summary.json"), summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsbo",
        description="Deterministic simulator for decentralized stochastic bilevel optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-key config override (repeatable)")
        p.add_argument("--out", default="", help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    common(sub.add_parser("run", help="execute one configured run"))
    p_sweep = sub.add_parser("sweep", help="run a config across master seeds")
    common(p_sweep)
    p_sweep.add_argument("--seeds", type=_positive_int, default=10, help="number of master seeds")
    common(sub.add_parser("validate", help="check topology/problem invariants"))
    p_plot = sub.add_parser("plotdata", help="merge traces into plot-ready long CSV")
    p_plot.add_argument("traces", nargs="+", help="trace CSV files")
    p_plot.add_argument("--fields", default="mse", help="comma-separated trace columns")
    p_plot.add_argument("--out", default="", help="output directory")
    p_plot.add_argument("--quiet", action="store_true")
    p_rep = sub.add_parser("replicate", help="run a published experiment at desk scale")
    p_rep.add_argument("experiment", help=f"one of: {', '.join(EXPERIMENTS)}")
    p_rep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_rep.add_argument("--out", default="")
    p_rep.add_argument("--seeds", type=_positive_int, default=10)
    p_rep.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "validate": cmd_validate,
        "plotdata": cmd_plotdata,
        "replicate": cmd_replicate,
    }
    try:
        return handlers[args.command](args)
    except _Usage as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except DsboError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
