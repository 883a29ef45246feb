"""Experiment orchestration: configs, runs, traces, and the summary analyses.

A run is fully described by a :class:`RunConfig`.  ``run`` executes the
selected algorithm for ``t_total`` rounds and returns a :class:`Trace`:
a JSON-able header (the resolved config plus reference values such as
x*, F*, and the mixing-matrix contraction factor) and a list of
:class:`TraceRecord` rows sampled at the metric cadence.

The gossip algorithm and its federated variant share one loop: a
:class:`~dsbo.core.NetworkState` advanced by ``dsbo_round`` or
``fedsbo_round`` and recorded at the metric cadence.  The double-loop
baselines drive the recorder themselves.

Determinism contract: every random draw anywhere in a run derives from
``config.seed`` through per-(purpose, agent, round) streams, so a config
re-runs to byte-identical CSV no matter which rounds are recorded.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import dsgd_run, dbsa_run, fedsbo_round, init_central, sgd_eta
from .core import StepSchedule, default_b, dsbo_round, init_agents
from .errors import ConfigError, DivergenceError, NumericsError
from .problems import (
    densify,
    implicit_hypergrad,
    make_hyperopt,
    make_policy_eval,
    make_quadratic,
    make_synthetic_hyperopt,
    parse_libsvm,
    split_partition,
    train_val_split,
)
from .rng import agent_round_streams
from .topology import MixingMatrix, build_complete, build_custom, build_ring

ALGORITHMS = ("dsbo", "fedsbo", "dbsa", "dsgd")
FAMILIES = ("quadratic", "policy-eval", "hyperopt")


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class TopologyConfig:
    kind: str = "ring"  # ring | complete | custom
    k: int = 5
    weights_path: str = ""  # custom only: text file with a KxK matrix


@dataclass
class ScheduleConfig:
    """Step-size regime plus its constants; unused constants are ignored.

    ``mu`` is the strong-convexity / PL modulus of the outer objective the
    diminishing regime is tuned against; it is part of the experiment
    configuration, not derived from the instance.
    """

    regime: str = "constant"  # constant | diminishing | capped
    c0: float = 0.1
    beta_scale: float = 1.0
    c1: float = 50.0
    mu: float = 1.0
    alpha_cap: float = 0.01
    alpha_num: float = 2.0
    beta_cap: float = 0.5
    beta_num: float = 50.0


@dataclass
class ProblemConfig:
    """Union of per-family knobs; ``family`` selects which ones apply.

    ``seed`` fixes the instance (data, matrices) independently of the run's
    master seed so multi-seed experiments share one problem.
    """

    family: str = "quadratic"
    seed: int = 1234
    # quadratic
    d_x: int = 10
    d_y: int = 10
    sigma_f: float = 0.1
    sigma_g: float = 0.1
    mu_g: float = 0.5
    l_g: float = 1.5
    heterogeneity: float = 1.0
    kappa_g: float = 0.0  # 0 -> derived from the noise headroom
    # policy-eval
    n_states: int = 50
    feat_dim: int = 5
    discount: float = 0.5
    lam: float = 1.0
    sigma_r: float = 1.0
    homogeneous: bool = False
    exact_oracle: bool = False
    # hyperopt
    n_points: int = 200
    dim: int = 10
    reg_floor: float = 0.001
    minibatch: int = 1
    val_fraction: float = 0.5
    data_path: str = ""  # LIBSVM file; empty -> synthetic data


@dataclass
class DbsaConfig:
    """Double-loop knobs (shared by the chain-rule baseline's inner loop)."""

    eta_c: float = 2.0
    full_hypergrad: bool = False
    corr_depth: int = 1


@dataclass
class RunConfig:
    algorithm: str = "dsbo"
    t_total: int = 1000
    b: int = 0  # 0 -> depth from default_b(t_total, kappa_g)
    seed: int = 0
    cadence: int = 0  # 0 -> every round up to 1e4 rounds, then ~1e4 records
    out: str = ""
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    dbsa: DbsaConfig = field(default_factory=DbsaConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return _config_from_dict(cls, data, path="")

    def apply_overrides(self, pairs) -> "RunConfig":
        """Return a copy with dotted-key overrides applied, type-checked."""
        data = self.to_dict()
        for pair in pairs:
            key, sep, raw = pair.partition("=")
            if not sep or not key:
                raise ConfigError(f"override must look like section.key=value, got {pair!r}")
            _apply_override(data, key.strip(), raw.strip())
        return RunConfig.from_dict(data)


_SECTIONS = {"problem": ProblemConfig, "topology": TopologyConfig,
             "schedule": ScheduleConfig, "dbsa": DbsaConfig}


def _coerce(value, target_type, key: str):
    if target_type is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false", "1", "0", "yes", "no"):
            return value.lower() in ("true", "1", "yes")
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    if target_type is int:
        if isinstance(value, bool) or (not isinstance(value, (int, str))):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
    if target_type is float:
        if isinstance(value, bool):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: expected a number, got {value!r}") from None
        if not math.isfinite(number):
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
        return number
    if target_type is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        return value
    raise ConfigError(f"{key}: unsupported config field type {target_type!r}")


def _config_from_dict(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(data).__name__}")
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        full = f"{path}.{key}" if path else key
        if key not in known:
            raise ConfigError(f"unknown config key {full!r}")
        if key in _SECTIONS and cls is RunConfig:
            kwargs[key] = _config_from_dict(_SECTIONS[key], value, full)
        else:
            kwargs[key] = _coerce(value, _field_type(cls, key), full)
    return cls(**kwargs)


def _field_type(cls, name: str):
    hint = {f.name: f.type for f in dataclasses.fields(cls)}[name]
    return {"int": int, "float": float, "str": str, "bool": bool}.get(hint, hint)


def _apply_override(data: dict, dotted: str, raw: str):
    parts = dotted.split(".")
    if len(parts) == 1:
        cls, section, key = RunConfig, data, parts[0]
    elif len(parts) == 2 and parts[0] in _SECTIONS:
        cls, section, key = _SECTIONS[parts[0]], data.setdefault(parts[0], {}), parts[1]
    else:
        raise ConfigError(f"unknown config key {dotted!r}")
    names = {f.name for f in dataclasses.fields(cls)} - set(_SECTIONS if cls is RunConfig else ())
    if key not in names:
        raise ConfigError(f"unknown config key {dotted!r}")
    section[key] = _coerce(raw, _field_type(cls, key), dotted)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from err
    return RunConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Trace


TRACE_COLUMNS = (
    "t", "grad_norm_sq", "subopt", "mse", "consensus_x", "consensus_y",
    "est_err_s", "est_err_h", "est_err_u", "est_err_v",
    "samples_zeta", "samples_xi",
)

_INT_COLUMNS = {"t", "samples_zeta", "samples_xi"}


@dataclass(frozen=True)
class TraceRecord:
    """Metrics at one recorded round, all against exact evaluators.

    ``samples_zeta``/``samples_xi`` are cumulative per-agent outer- and
    inner-level draw counts (multiply by the agent count for totals).
    """

    t: int
    grad_norm_sq: float
    subopt: float
    mse: float
    consensus_x: float
    consensus_y: float
    est_err_s: float
    est_err_h: float
    est_err_u: float
    est_err_v: float
    samples_zeta: int
    samples_xi: int


@dataclass
class Trace:
    header: dict
    records: list

    def column(self, name: str) -> np.ndarray:
        if name not in TRACE_COLUMNS:
            raise ConfigError(f"unknown trace field {name!r}")
        return np.array([getattr(r, name) for r in self.records], dtype=float)


def _format_cell(name: str, value) -> str:
    if name in _INT_COLUMNS:
        return str(int(value))
    return repr(float(value))


def trace_to_csv(trace: Trace) -> str:
    lines = ["# " + json.dumps(trace.header, sort_keys=True, separators=(",", ":"))]
    lines.append(",".join(TRACE_COLUMNS))
    for rec in trace.records:
        lines.append(",".join(_format_cell(c, getattr(rec, c)) for c in TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


def write_trace(trace: Trace, path: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace_to_csv(trace))


def read_trace(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise ConfigError(f"{path}: missing JSON header line")
        try:
            header = json.loads(first[2:])
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}:1: header is not valid JSON: {err}") from None
        columns = fh.readline().strip().split(",")
        if tuple(columns) != TRACE_COLUMNS:
            raise ConfigError(f"{path}: unexpected column set {columns}")
        records = []
        for lineno, line in enumerate(fh, start=3):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) != len(TRACE_COLUMNS):
                raise ConfigError(
                    f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} cells, got {len(cells)}"
                )
            kwargs = {}
            for name, cell in zip(TRACE_COLUMNS, cells):
                try:
                    kwargs[name] = int(cell) if name in _INT_COLUMNS else float(cell)
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: column {name!r} holds {cell!r}, not a number"
                    ) from None
            records.append(TraceRecord(**kwargs))
    return Trace(header=header, records=records)


class Recorder:
    """Builds TraceRecords from raw iterate stacks at the metric cadence.

    ``est``, when given, is a state with (K, ...) estimator stacks s, h, u
    and v (a :class:`~dsbo.core.NetworkState`); without it the estimator
    errors are recorded as 0.
    """

    def __init__(self, problem, cadence: int, t_total: int, x_star, f_star):
        self.problem = problem
        self.cadence = cadence
        self.t_total = t_total
        self.x_star = np.asarray(x_star, dtype=float)
        self.f_star = float(f_star)
        self.records: list[TraceRecord] = []

    def record(self, t: int, xs, ys, samples_zeta: int, samples_xi: int, est=None):
        if t % self.cadence != 0 and t != self.t_total:
            return
        xs = np.atleast_2d(xs)
        ys = np.atleast_2d(ys)
        xbar = xs.mean(axis=0)
        ybar = ys.mean(axis=0)
        y_star = self.problem.exact_lower(xbar)
        exact = self.problem.exact_gradients(xbar, y_star)
        grad = implicit_hypergrad(exact)
        diff = xbar - self.x_star
        errs = {"s": 0.0, "h": 0.0, "u": 0.0, "v": 0.0}
        if est is not None:
            errs["s"] = float(((est.s.mean(axis=0) - exact.gx_f) ** 2).sum())
            errs["h"] = float(((est.h.mean(axis=0) - exact.gy_f) ** 2).sum())
            errs["u"] = float(((est.u.mean(axis=0) - exact.hxy_g) ** 2).sum())
            errs["v"] = float(((est.v.mean(axis=(0, 1)) - exact.hyy_g) ** 2).sum())
        self.records.append(
            TraceRecord(
                t=t,
                grad_norm_sq=float(grad @ grad),
                subopt=float(self.problem.outer_value(xbar, y_star) - self.f_star),
                mse=float(diff @ diff),
                consensus_x=float(((xs - xbar) ** 2).sum()),
                consensus_y=float(((ys - ybar) ** 2).sum()),
                est_err_s=errs["s"],
                est_err_h=errs["h"],
                est_err_u=errs["u"],
                est_err_v=errs["v"],
                samples_zeta=samples_zeta,
                samples_xi=samples_xi,
            )
        )

    def finish(self) -> list:
        return self.records


# ---------------------------------------------------------------------------
# Builders


# The constants each step-size regime reads (see StepSchedule).
_REGIME_CONSTANTS = {
    "constant": ("c0", "beta_scale"),
    "diminishing": ("c1", "mu"),
    "capped": ("alpha_cap", "alpha_num", "beta_cap", "beta_num"),
}


def make_schedule(regime: str, constants: dict, k: int, t_total: int) -> StepSchedule:
    """Build a step schedule from a constants mapping (see StepSchedule).

    Constants that the regime does not read are rejected.
    """
    if regime not in _REGIME_CONSTANTS:
        raise ConfigError(f"unknown schedule regime {regime!r}")
    extra = set(constants) - set(_REGIME_CONSTANTS[regime])
    if extra:
        raise ConfigError(f"constants {sorted(extra)} do not apply to the {regime} regime")
    return StepSchedule(regime=regime, k=k, t_total=t_total, **constants)


def build_topology(cfg: TopologyConfig) -> MixingMatrix:
    if cfg.kind == "ring":
        return build_ring(cfg.k)
    if cfg.kind == "complete":
        return build_complete(cfg.k)
    if cfg.kind == "custom":
        if not cfg.weights_path:
            raise ConfigError("custom topology needs topology.weights_path")
        try:
            weights = np.loadtxt(cfg.weights_path, ndmin=2)
        except (OSError, ValueError) as err:
            raise ConfigError(f"cannot load weights from {cfg.weights_path!r}: {err}") from err
        w = build_custom(weights, require_connected=True)
        if w.k != cfg.k:
            raise ConfigError(
                f"custom weights are {w.k}x{w.k} but topology.k = {cfg.k}"
            )
        return w
    raise ConfigError(
        f"unknown topology kind {cfg.kind!r} (expected ring, complete, or custom)"
    )


def build_problem(cfg: ProblemConfig, k: int):
    if cfg.family == "quadratic":
        return make_quadratic(
            k, cfg.d_x, cfg.d_y, cfg.seed,
            sigma_f=cfg.sigma_f, sigma_g=cfg.sigma_g, mu_g=cfg.mu_g, l_g=cfg.l_g,
            heterogeneity=cfg.heterogeneity,
            kappa_g=cfg.kappa_g if cfg.kappa_g > 0 else None,
        )
    if cfg.family == "policy-eval":
        return make_policy_eval(
            k, cfg.n_states, cfg.feat_dim, cfg.discount, cfg.lam, cfg.seed,
            sigma_r=cfg.sigma_r, homogeneous=cfg.homogeneous, exact_oracle=cfg.exact_oracle,
        )
    if cfg.family == "hyperopt":
        if not cfg.data_path:
            return make_synthetic_hyperopt(
                k, cfg.n_points, cfg.dim, cfg.seed,
                reg_floor=cfg.reg_floor, minibatch=cfg.minibatch,
                val_fraction=cfg.val_fraction,
            )
        try:
            with open(cfg.data_path, "r", encoding="utf-8") as fh:
                records = parse_libsvm(fh)
        except OSError as err:
            raise ConfigError(f"cannot read data from {cfg.data_path!r}: {err}") from err
        features, labels = densify(records)
        rows = list(zip(features, labels))
        datasets = []
        for shard in split_partition(rows, k, cfg.seed):
            train, val = train_val_split(shard, cfg.seed + 1, fraction=1.0 - cfg.val_fraction)
            datasets.append(tuple(
                (np.stack([w for w, _ in part]), np.array([z for _, z in part]))
                for part in (train, val)
            ))
        return make_hyperopt(k, datasets, reg_floor=cfg.reg_floor, minibatch=cfg.minibatch)
    raise ConfigError(f"unknown problem family {cfg.family!r} (expected one of {FAMILIES})")


def schedule_from_config(cfg: ScheduleConfig, k: int, t_total: int) -> StepSchedule:
    """The schedule of ``cfg.regime``, built from the constants it reads."""
    names = _REGIME_CONSTANTS.get(cfg.regime, ())
    return make_schedule(cfg.regime, {n: getattr(cfg, n) for n in names}, k, t_total)


def resolve_reference(problem) -> tuple[np.ndarray, float, str]:
    """(x*, F*, provenance): closed form when the family has one, else a
    deterministic high-accuracy solve of the exact outer objective.

    Hyperopt's numeric x* is not unique: F is flat where the softplus
    regularizer saturates, and where the solve stops along that flat
    direction depends on the last bits of the gradient.  Its ``mse`` is
    only indicative; ``subopt`` is the column to read.
    """
    opt = problem.optimum()
    if opt is not None:
        x_star, f_star = opt
        return np.asarray(x_star, dtype=float), float(f_star), "closed-form"
    from scipy import optimize

    def value_and_grad(x):
        y_star = problem.exact_lower(x)
        exact = problem.exact_gradients(x, y_star)
        return problem.outer_value(x, y_star), implicit_hypergrad(exact)

    result = optimize.minimize(
        value_and_grad,
        np.zeros(problem.d_x),
        jac=True,
        method="L-BFGS-B",
        options={"gtol": 1e-10, "ftol": 1e-14, "maxiter": 2000},
    )
    if not result.success and float(np.abs(result.jac).max()) > 1e-8:
        raise NumericsError(f"reference optimum solve failed: {result.message}")
    return np.asarray(result.x, dtype=float), float(result.fun), "numerically-derived"


def default_cadence(t_total: int) -> int:
    return 1 if t_total <= 10_000 else math.ceil(t_total / 10_000)


# ---------------------------------------------------------------------------
# Running


def run(config: RunConfig) -> Trace:
    """Execute one configured run and return its trace.

    Raises the algorithm's divergence error with the partial trace
    attached (``err.trace``) if any iterate stops being finite.
    """
    if config.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {config.algorithm!r} (expected one of {ALGORITHMS})")
    if config.t_total < 1:
        raise ConfigError(f"t_total must be >= 1, got {config.t_total}")
    for name in ("b", "cadence"):
        if getattr(config, name) < 0:
            raise ConfigError(f"{name} must be >= 0 (0 derives it), got {getattr(config, name)}")
    k = config.topology.k
    problem = build_problem(config.problem, k)
    schedule = schedule_from_config(config.schedule, k, config.t_total)
    b = config.b if config.b > 0 else default_b(
        max(config.t_total, 2), problem.constants.kappa_g
    )
    cadence = config.cadence if config.cadence > 0 else default_cadence(config.t_total)
    x_star, f_star, ref_kind = resolve_reference(problem)
    # the star network of fedsbo has no mixing matrix
    w = None if config.algorithm == "fedsbo" else build_topology(config.topology)

    resolved = config.to_dict()
    resolved["b"] = b
    resolved["cadence"] = cadence
    header = {
        "config": resolved,
        "reference": {
            "x_star": [float(v) for v in x_star],
            "f_star": f_star,
            "kind": ref_kind,
            "rho": None if w is None else w.rho,
            "b_effective": b,
            "cadence": cadence,
        },
    }

    recorder = Recorder(problem, cadence, config.t_total, x_star, f_star)
    try:
        if config.algorithm in ("dsbo", "fedsbo"):
            if config.algorithm == "dsbo":
                state = init_agents(problem, b)

                def advance(state, t, streams):
                    return dsbo_round(state, w, problem, schedule, t, streams)
            else:
                state = init_central(problem, b)

                def advance(state, t, streams):
                    return fedsbo_round(state, problem, schedule, t, streams)

            zeta = xi = 0
            recorder.record(0, state.x, state.y, zeta, xi, est=state)
            for t in range(config.t_total):
                state = advance(state, t, agent_round_streams(config.seed, "oracle", k, t))
                zeta += 1
                xi += 1 + b
                recorder.record(t + 1, state.x, state.y, zeta, xi, est=state)
        elif config.algorithm == "dbsa":
            dbsa_run(
                problem, w, config.t_total, schedule.alpha, sgd_eta(config.dbsa.eta_c),
                config.seed, recorder,
                full_hypergrad=config.dbsa.full_hypergrad,
                corr_depth=config.dbsa.corr_depth,
            )
        else:  # dsgd
            dsgd_run(
                problem, w, config.t_total, schedule.alpha, sgd_eta(config.dbsa.eta_c),
                config.seed, recorder,
            )
    except DivergenceError as err:
        err.trace = Trace(header=header, records=list(recorder.records))
        raise
    return Trace(header=header, records=recorder.records)


# ---------------------------------------------------------------------------
# Analyses


def mean_grad_norm(trace) -> float:
    """Arithmetic mean of grad_norm_sq over the recorded rounds.

    Requires a cadence-1 trace (consecutive round indices): the averaged
    statistic is only meaningful when every round is present.
    """
    records = trace.records if isinstance(trace, Trace) else list(trace)
    if not records:
        raise ConfigError("mean_grad_norm needs a nonempty trace")
    ts = [r.t for r in records]
    if any(b - a != 1 for a, b in zip(ts, ts[1:])):
        raise ConfigError(
            "mean_grad_norm needs a cadence-1 trace (every round recorded); "
            f"got round gaps {sorted({b - a for a, b in zip(ts, ts[1:])})}"
        )
    return float(np.mean([r.grad_norm_sq for r in records]))


def loglog_slope(trace, field: str, window: float = 0.1) -> float:
    """Least-squares slope of log(field) against log(t) over the tail.

    ``window`` is the tail fraction: the fit uses records with
    t >= window * t_max (the default keeps the last decade).
    """
    records = trace.records if isinstance(trace, Trace) else list(trace)
    pts = [(r.t, getattr(r, field)) for r in records if r.t > 0]
    if not pts:
        raise ConfigError("loglog_slope needs records at positive rounds")
    t_max = pts[-1][0]
    tail = [(t, v) for t, v in pts if t >= window * t_max]
    if len(tail) < 2:
        raise ConfigError(f"loglog_slope needs >= 2 records in the tail window, got {len(tail)}")
    values = np.array([v for _, v in tail], dtype=float)
    if (values <= 0).any():
        raise NumericsError(
            f"loglog_slope: field {field!r} has nonpositive values in the tail window"
        )
    ts = np.log(np.array([t for t, _ in tail], dtype=float))
    return float(np.polyfit(ts, np.log(values), 1)[0])


def samples_to_eps(trace, eps: float):
    """Per-agent inner-draw count at the first recorded round with mse <= eps,
    or None when the trace never reaches eps (censored)."""
    records = trace.records if isinstance(trace, Trace) else list(trace)
    for rec in records:
        if rec.mse <= eps:
            return rec.samples_xi
    return None


def samples_to_eps_table(traces_by_k, eps: float) -> list[dict]:
    """Samples-to-accuracy rows, one per network size, in mapping order.

    ``traces_by_k`` maps each K to an iterable of its runs' traces (a lazy
    one keeps a single trace alive at a time).  A run's total is its
    per-agent draw count at the first recorded round with mse <= eps
    (``samples_to_eps``) times K.  Each row holds ``k``, ``eps``,
    ``n_runs``, ``censored`` (runs that never reach eps, counted rather
    than imputed), the sorted ``totals`` of the others, and their
    ``median``, ``q25`` and ``q75`` (None when every run is censored).
    """
    table = []
    for k, traces in traces_by_k.items():
        per_agent = [samples_to_eps(trace, eps) for trace in traces]
        totals = sorted(n * k for n in per_agent if n is not None)
        row = {
            "k": k,
            "eps": eps,
            "n_runs": len(per_agent),
            "censored": len(per_agent) - len(totals),
            "totals": totals,
        }
        if totals:
            row["median"] = float(np.median(totals))
            row["q25"] = float(np.quantile(totals, 0.25))
            row["q75"] = float(np.quantile(totals, 0.75))
        else:
            row["median"] = row["q25"] = row["q75"] = None
        table.append(row)
    return table


def speedup_analysis(configs, eps: float, seeds) -> list[dict]:
    """Samples-to-accuracy table across network sizes.

    ``configs`` must be identical except for ``topology.k`` (schedule
    constants may lawfully depend on K through the regime formulas).  Runs
    each config once per master seed and returns ``samples_to_eps_table``
    of the traces, one row per config in the given order.
    """
    if not configs:
        raise ConfigError("speedup_analysis needs at least one config")
    seeds = list(seeds)
    stripped = []
    for cfg in configs:
        data = cfg.to_dict()
        data["topology"] = dict(data["topology"], k=0)
        data["seed"] = 0
        stripped.append(data)
    if any(s != stripped[0] for s in stripped[1:]):
        raise ConfigError("speedup_analysis configs must be identical except topology.k")
    ks = [cfg.topology.k for cfg in configs]
    if len(set(ks)) != len(ks):
        raise ConfigError(f"duplicate network sizes in speedup_analysis: {ks}")
    # map() runs lazily, so the table consumes one trace at a time
    runs = {
        cfg.topology.k: map(run, [dataclasses.replace(cfg, seed=int(s)) for s in seeds])
        for cfg in configs
    }
    return samples_to_eps_table(runs, eps)
