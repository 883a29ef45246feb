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

# The quantiles across seeds or traces that summaries and plotdata report
QUANTILES = {"q125": 0.125, "q500": 0.5, "q875": 0.875}


def _say(args, message: str):
    if not args.quiet:
        print(message)


def _load(args) -> RunConfig:
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
    levels = np.quantile(np.asarray(values, dtype=float), tuple(QUANTILES.values()))
    return dict(zip(QUANTILES, levels.tolist()))


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


def _seed_runs(args, cfg: RunConfig, ks, out: str):
    """Run cfg at each size in ks and seed below --seeds; yield (k, seed, path, trace)."""
    for k in ks:
        for seed in range(args.seeds):
            run = dataclasses.replace(cfg, seed=seed,
                                      topology=dataclasses.replace(cfg.topology, k=k))
            yield (k, seed, *_run_and_write(run, out))


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
    for _, seed, path, trace in _seed_runs(args, cfg, (cfg.topology.k,), out):
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
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures.append(name)

    # check_run rejects what run rejects: MixingMatrix and ProblemConstants raise
    # on asymmetry, row sums off 1, rho >= 1 or broken curvature bounds.  Hessian
    # draws are inside the spectral ball by construction, so nothing checks them.
    try:
        problem = harness.check_run(cfg)[0]
    except ConfigError as err:
        print(f"FAIL construction ({type(err).__name__}): {err}")
        return EXIT_CONFIG
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
        quantiles = np.quantile(cells.astype(float), tuple(QUANTILES.values()), axis=0)
        columns[field] = cells.tolist(), quantiles.T.tolist()

    out = _out_dir(args, default=".")
    path = os.path.join(out, "plotdata.csv")
    lines = [",".join(("run_id", "t", "field", "value", *QUANTILES))]
    for idx, (run_id, _) in enumerate(traces):
        for j, t in enumerate(ts.tolist()):
            for field in fields:
                values, quantiles = columns[field]
                cells = (values[idx][j], *quantiles[j])
                lines.append(f"{run_id},{t},{field}," + ",".join(map(repr, cells)))
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
    results = {}
    for k, seed, _, trace in _seed_runs(args, base.apply_overrides(args.set), ks, out):
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
        summary["final_grad_norm_sq"] = _quantiles([tr.records[-1].grad_norm_sq for tr in runs])
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
    shared = {
        "--config": dict(required=True, help="JSON run configuration"),
        "--set": dict(action="append", default=[], metavar="KEY=VALUE",
                      help="dotted-key config override (repeatable)"),
        "--seeds": dict(type=_positive_int, default=10, help="number of master seeds"),
        "--out": dict(default="", help="output directory"),
        "--quiet": dict(action="store_true", help="suppress progress output"),
    }

    def command(name, handler, help, *flags):
        """Add subcommand name, run by handler, with flags and --out, --quiet."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag in (*flags, "--out", "--quiet"):
            p.add_argument(flag, **shared[flag])
        return p

    command("run", cmd_run, "execute one configured run", "--config", "--set")
    command("sweep", cmd_sweep, "run a config across master seeds", "--config", "--set", "--seeds")
    command("validate", cmd_validate, "check topology/problem invariants", "--config", "--set")
    p_plot = command("plotdata", cmd_plotdata, "merge traces into plot-ready long CSV")
    p_plot.add_argument("traces", nargs="+", help="trace CSV files")
    p_plot.add_argument("--fields", default="mse", help="comma-separated trace columns")
    p_rep = command("replicate", cmd_replicate, "run a published experiment at desk scale",
                    "--set", "--seeds")
    p_rep.add_argument("experiment", help=f"one of: {', '.join(EXPERIMENTS)}")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
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
