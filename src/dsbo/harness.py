"""Experiment orchestration: configs, runs, traces, and the summary analyses.

A run is fully described by a :class:`RunConfig`.  ``run`` executes the
selected algorithm for ``t_total`` rounds and returns a :class:`Trace`:
a JSON-able header (the resolved config plus reference values such as
x*, F*, and the mixing-matrix contraction factor) and one row per round
sampled at the metric cadence, stored as a ``TRACE_DTYPE`` array and read
through :class:`TraceRecords`.

Every algorithm is a generator of steps ``(t, xs, ys, samples_zeta,
samples_xi[, est])``: the gossip algorithm and its federated variant
advance a :class:`~dsbo.core.NetworkState` by ``dsbo_round`` or
``fedsbo_round`` and yield it as ``est``; the double-loop baselines are
``dbsa_run`` and ``dsgd_run``.  ``run`` alone records the steps at the
metric cadence, and on divergence it alone attaches the partial trace.

Determinism contract: every random draw anywhere in a run derives from
``config.seed`` through per-(purpose, agent, round) streams, so a config
re-runs to byte-identical CSV no matter which rounds are recorded.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .baselines import (check_compositional, dbsa_run, dsgd_run, fedsbo_round,
                        init_central, sgd_eta)
from .core import StepSchedule, default_b, dsbo_round, init_agents
from .errors import ConfigError, DivergenceError, NumericsError
from .problems import make_hyperopt, make_policy_eval, make_quadratic
from .rng import agent_round_streams
from .topology import MixingMatrix, build_complete, build_custom, build_ring

ALGORITHMS = ("dsbo", "fedsbo", "dbsa", "dsgd")
# Each family's builder reads its fields of a ProblemConfig (see README).
FAMILIES = {"quadratic": make_quadratic, "policy-eval": make_policy_eval,
            "hyperopt": make_hyperopt}


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
        """Return a copy with dotted-key overrides applied; ``from_dict``
        checks each key and coerces each value, as for a config file."""
        data = self.to_dict()
        for pair in pairs:
            key, sep, raw = (part.strip() for part in pair.partition("="))
            if not sep or not key:
                raise ConfigError(f"override must look like section.key=value, got {pair!r}")
            section, _, name = key.rpartition(".")
            if isinstance(data.get(section), dict):
                data[section][name] = raw
            else:  # a top-level key, or one from_dict rejects by its dotted name
                data[key] = raw
        return RunConfig.from_dict(data)


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
    types = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        full = f"{path}.{key}" if path else key
        if key not in types:
            raise ConfigError(f"unknown config key {full!r}")
        if dataclasses.is_dataclass(types[key]):  # a section
            kwargs[key] = _config_from_dict(types[key], value, full)
        else:
            kwargs[key] = _coerce(value, types[key], full)
    return cls(**kwargs)


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


@dataclass(frozen=True, slots=True)
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


# The CSV columns are TraceRecord's fields in order, each parsed by its type;
# a row of 12 values takes 96 bytes (int maps to int64, float to float64).
_TRACE_TYPES = typing.get_type_hints(TraceRecord)
TRACE_COLUMNS = tuple(_TRACE_TYPES)
TRACE_DTYPE = np.dtype(list(_TRACE_TYPES.items()))


class TraceRecords(Sequence):
    """Read-only sequence view of a trace's rows (a ``TRACE_DTYPE`` array).

    An int index builds one :class:`TraceRecord`; a slice returns a list of
    them; iteration builds one record at a time.  ``==`` compares the rows
    with another view or with a sequence of records.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        if isinstance(rows, np.ndarray):
            if rows.dtype != TRACE_DTYPE or rows.ndim != 1:
                raise ValueError(f"trace rows must be a 1-D {TRACE_DTYPE} array")
            rows = rows.view()
        else:
            rows = np.array(
                [tuple(getattr(r, name) for name in TRACE_COLUMNS) for r in rows],
                dtype=TRACE_DTYPE,
            )
        rows.flags.writeable = False
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [TraceRecord(*row) for row in self.rows[index].tolist()]
        return TraceRecord(*self.rows[index].item())

    def __iter__(self):
        for row in self.rows:
            yield TraceRecord(*row.item())

    def __eq__(self, other):
        if isinstance(other, (list, tuple)):
            other = TraceRecords(other)
        if not isinstance(other, TraceRecords):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)

    def __repr__(self) -> str:
        return f"TraceRecords({len(self)} rows)"


@dataclass
class Trace:
    """A run's header and its rows, stored as one ``TRACE_DTYPE`` array.

    ``records`` may be given as a list of :class:`TraceRecord` or as a row
    array; either way it is kept as a :class:`TraceRecords` view.
    """

    header: dict
    records: TraceRecords

    def __post_init__(self):
        if not isinstance(self.records, TraceRecords):
            self.records = TraceRecords(self.records)

    def column(self, name: str) -> np.ndarray:
        """A float copy of one column."""
        if name not in TRACE_COLUMNS:
            raise ConfigError(f"unknown trace field {name!r}")
        return self.records.rows[name].astype(float)


def trace_to_csv(trace: Trace) -> str:
    # str() of a Python int or float is the repr the format uses
    lines = ["# " + json.dumps(trace.header, sort_keys=True, separators=(",", ":"))]
    lines.append(",".join(TRACE_COLUMNS))
    lines.extend(",".join(map(str, row)) for row in trace.records.rows.tolist())
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
        rows = []
        for lineno, line in enumerate(fh, start=3):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) != len(TRACE_COLUMNS):
                raise ConfigError(
                    f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} cells, got {len(cells)}"
                )
            row = []
            for (name, parse), cell in zip(_TRACE_TYPES.items(), cells):
                try:
                    row.append(parse(cell))
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: column {name!r} holds {cell!r}, not a number"
                    ) from None
            rows.append(tuple(row))
    return Trace(header=header, records=np.array(rows, dtype=TRACE_DTYPE))


def _mean(a: np.ndarray, axis=0) -> np.ndarray:
    """``np.mean(a, axis)`` without its Python wrapper, with the same bits.

    np.mean sums with ``np.add.reduce`` and divides the sum in place by the
    count of reduced elements; this does the same at a fraction of the call
    cost.  ``a`` has at least one axis left after the reduction.
    """
    total = np.add.reduce(a, axis)
    total /= a.size // total.size
    return total


class Recorder:
    """Writes one trace row per recorded round from raw iterate stacks.

    Rows go into one preallocated ``TRACE_DTYPE`` array sized for the
    rounds that ``cadence`` and ``t_total`` select (round 0, every
    ``cadence``-th round, and ``t_total``); a caller that records more
    rows than that makes it grow.  ``records`` is a read-only view of the
    rows written so far.

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
        n_rows = t_total // cadence + 1 + (t_total % cadence != 0)
        self._rows = np.empty(n_rows, dtype=TRACE_DTYPE)
        self._n = 0

    @property
    def records(self) -> TraceRecords:
        return TraceRecords(self._rows[: self._n])

    def record(self, t: int, xs, ys, samples_zeta: int, samples_xi: int, est=None):
        if t % self.cadence != 0 and t != self.t_total:
            return
        xbar = _mean(xs)
        ybar = _mean(ys)
        y_star = self.problem.exact_lower(xbar)
        exact = self.problem.exact_gradients(xbar, y_star)
        grad = self.problem.implicit_hypergrad(exact)
        diff = xbar - self.x_star
        errs = (0.0, 0.0, 0.0, 0.0)
        if est is not None:
            errs = (
                ((_mean(est.s) - exact.gx_f) ** 2).sum(),
                ((_mean(est.h) - exact.gy_f) ** 2).sum(),
                ((_mean(est.u) - exact.hxy_g) ** 2).sum(),
                ((_mean(est.v, axis=(0, 1)) - exact.hyy_g) ** 2).sum(),
            )
        if self._n == len(self._rows):
            self._rows = np.concatenate((self._rows, np.empty_like(self._rows)))
        self._rows[self._n] = (
            t,
            grad @ grad,
            self.problem.outer_value(xbar, y_star) - self.f_star,
            diff @ diff,
            ((xs - xbar) ** 2).sum(),
            ((ys - ybar) ** 2).sum(),
            *errs,
            samples_zeta,
            samples_xi,
        )
        self._n += 1


# ---------------------------------------------------------------------------
# Builders


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
        w = build_custom(weights)
        if w.k != cfg.k:
            raise ConfigError(
                f"custom weights are {w.k}x{w.k} but topology.k = {cfg.k}"
            )
        return w
    raise ConfigError(
        f"unknown topology kind {cfg.kind!r} (expected ring, complete, or custom)"
    )


def build_problem(cfg: ProblemConfig, k: int):
    if cfg.family not in FAMILIES:
        raise ConfigError(
            f"unknown problem family {cfg.family!r} (expected one of {tuple(FAMILIES)})")
    return FAMILIES[cfg.family](cfg, k)


def schedule_from_config(cfg: ScheduleConfig, k: int, t_total: int) -> StepSchedule:
    """The step schedule of ``cfg``; ``StepSchedule`` checks the regime and
    the constants it reads."""
    return StepSchedule(k=k, t_total=t_total, **vars(cfg))


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
        return problem.outer_value(x, y_star), problem.implicit_hypergrad(exact)

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


def check_run(config: RunConfig):
    """Reject any config ``run`` rejects, before the reference solve, and
    build what the run needs: ``(problem, schedule, w, b, cadence)``.

    ``w`` is the mixing matrix, None for fedsbo's star network, and ``b``
    and ``cadence`` are resolved from their 0 defaults.
    """
    if config.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {config.algorithm!r} (expected one of {ALGORITHMS})")
    if config.t_total < 1:
        raise ConfigError(f"t_total must be >= 1, got {config.t_total}")
    for name in ("b", "cadence"):
        if getattr(config, name) < 0:
            raise ConfigError(f"{name} must be >= 0 (0 derives it), got {getattr(config, name)}")
    if config.algorithm in ("dbsa", "dsgd") and config.dbsa.eta_c <= 0:
        raise ConfigError(f"dbsa.eta_c must be > 0, got {config.dbsa.eta_c!r}")
    if config.algorithm == "dbsa" and config.dbsa.corr_depth < 1:
        raise ConfigError(f"dbsa.corr_depth must be >= 1, got {config.dbsa.corr_depth}")
    k = config.topology.k
    w = None if config.algorithm == "fedsbo" else build_topology(config.topology)
    problem = build_problem(config.problem, k)
    if config.algorithm == "dsgd":
        check_compositional(problem)
    schedule = schedule_from_config(config.schedule, k, config.t_total)
    b = config.b or default_b(max(config.t_total, 2), problem.constants.kappa_g)
    cadence = config.cadence or default_cadence(config.t_total)
    return problem, schedule, w, b, cadence


def _round_steps(config: RunConfig, problem, w, schedule: StepSchedule, b: int):
    """The gossip (``w`` given) or federated rounds as steps with ``est``."""
    state = init_central(problem, b) if w is None else init_agents(problem, b)
    yield 0, state.x, state.y, 0, 0, state
    for t in range(config.t_total):
        streams = agent_round_streams(config.seed, "oracle", problem.k, t)
        if w is None:
            state = fedsbo_round(state, problem, schedule, t, streams)
        else:
            state = dsbo_round(state, w, problem, schedule, t, streams)
        # per agent and round: one outer draw, 1 + b inner draws
        yield t + 1, state.x, state.y, t + 1, (t + 1) * (1 + b), state


def run(config: RunConfig) -> Trace:
    """Execute one configured run and return its trace.

    Raises the algorithm's divergence error with the partial trace
    attached (``err.trace``) if any iterate stops being finite.
    """
    problem, schedule, w, b, cadence = check_run(config)
    x_star, f_star, ref_kind = resolve_reference(problem)

    header = {
        "config": dict(config.to_dict(), b=b, cadence=cadence),
        "reference": {
            "x_star": [float(v) for v in x_star],
            "f_star": f_star,
            "kind": ref_kind,
            "rho": None if w is None else w.rho,
            "b_effective": b,
            "cadence": cadence,
        },
    }

    eta = sgd_eta(config.dbsa.eta_c)
    if config.algorithm == "dbsa":
        steps = dbsa_run(problem, w, config.t_total, schedule.alpha, eta, config.seed,
                         full_hypergrad=config.dbsa.full_hypergrad,
                         corr_depth=config.dbsa.corr_depth)
    elif config.algorithm == "dsgd":
        steps = dsgd_run(problem, w, config.t_total, schedule.alpha, eta, config.seed)
    else:
        steps = _round_steps(config, problem, w, schedule, b)
    recorder = Recorder(problem, cadence, config.t_total, x_star, f_star)
    try:
        for step in steps:
            recorder.record(*step)
    except DivergenceError as err:
        err.trace = Trace(header=header, records=recorder.records)
        raise
    return Trace(header=header, records=recorder.records)


# ---------------------------------------------------------------------------
# Analyses


def mean_grad_norm(trace: Trace) -> float:
    """Arithmetic mean of grad_norm_sq over the recorded rounds.

    Requires a cadence-1 trace (consecutive round indices): the averaged
    statistic is only meaningful when every round is present.
    """
    rows = trace.records.rows
    if not len(rows):
        raise ConfigError("mean_grad_norm needs a nonempty trace")
    gaps = np.diff(rows["t"])
    if (gaps != 1).any():
        raise ConfigError(
            "mean_grad_norm needs a cadence-1 trace (every round recorded); "
            f"got round gaps {sorted(set(gaps.tolist()))}"
        )
    return float(rows["grad_norm_sq"].mean())


def loglog_slope(trace: Trace, field: str, window: float = 0.1) -> float:
    """Least-squares slope of log(field) against log(t) over the tail.

    ``window`` is the tail fraction: the fit uses records with
    t >= window * t_max (the default keeps the last decade).
    """
    rows = trace.records.rows
    rows = rows[rows["t"] > 0]
    if not len(rows):
        raise ConfigError("loglog_slope needs records at positive rounds")
    tail = rows[rows["t"] >= window * rows["t"][-1]]
    if len(tail) < 2:
        raise ConfigError(f"loglog_slope needs >= 2 records in the tail window, got {len(tail)}")
    values = tail[field].astype(float)
    if (values <= 0).any():
        raise NumericsError(
            f"loglog_slope: field {field!r} has nonpositive values in the tail window"
        )
    ts = np.log(tail["t"].astype(float))
    return float(np.polyfit(ts, np.log(values), 1)[0])


def samples_to_eps(trace: Trace, eps: float):
    """Per-agent inner-draw count at the first recorded round with mse <= eps,
    or None when the trace never reaches eps (censored)."""
    rows = trace.records.rows
    reached = np.flatnonzero(rows["mse"] <= eps)
    return int(rows["samples_xi"][reached[0]]) if len(reached) else None


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
