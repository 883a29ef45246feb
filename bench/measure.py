"""Timed, memory and traced passes over one workload, with the output check.

Every pass calls the public library path (``dsbo.harness.run``) on the
workload's ``RunConfig`` values.  A run counts as failed when it raises,
when a record holds a non-finite value, when its check field does not fall
from the first record to the last, or when its CSV differs from the first
run of the same config in this process (the determinism contract).
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from dsbo import baselines, core, harness, topology
from tracing import Agg, Tracer, aggregate, count_under
from workloads import CHECK_RTOL, REFERENCE_SEED, Workload

_MIB = 1024.0 * 1024.0


@dataclass
class Tally:
    """Runs attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, cfg, reason: str):
        self.failures.append(f"{cfg.algorithm} seed={cfg.seed}: {reason}")
        print(f"bench: run failed: {self.failures[-1]}", file=sys.stderr)


def output_problem(trace, check_field: str) -> str | None:
    """Why a finished run fails the output check, or None if it passes."""
    if not trace.records:
        return "trace has no records"
    for rec in trace.records:
        for name in harness.TRACE_COLUMNS:
            if not math.isfinite(getattr(rec, name)):
                return f"non-finite {name} at t={rec.t}"
    first = getattr(trace.records[0], check_field)
    last = getattr(trace.records[-1], check_field)
    if not last < first:
        return f"{check_field} did not fall: {first!r} -> {last!r}"
    return None


def run_once(cfg, check_field: str, tally: Tally, tracer: Tracer | None = None):
    """One ``harness.run`` call: (trace or None, wall seconds of the call)."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        if tracer is None:
            trace = harness.run(cfg)
        else:
            with tracer.span("harness.run"):
                trace = harness.run(cfg)
    except Exception:  # a run that raises is counted as failed, not fatal
        wall = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        tally.fail(cfg, "raised")
        return None, wall
    wall = time.perf_counter() - start
    problem = output_problem(trace, check_field)
    if problem is not None:
        tally.fail(cfg, problem)
    return trace, wall


@dataclass
class Sample:
    """One closed-loop pass over a workload's runs."""

    wall: float
    rounds: int
    draws: int
    traces: list


def run_sample(workload: Workload, seed: int, tally: Tally, csvs: dict,
               tracer: Tracer | None = None) -> Sample:
    """Run every config once; compare each CSV with the first seen for it."""
    wall = 0.0
    rounds = draws = 0
    traces = []
    for i, cfg in enumerate(workload.configs(seed)):
        trace, dt = run_once(cfg, workload.check_field, tally, tracer)
        wall += dt
        traces.append(trace)
        if trace is None:
            continue
        last = trace.records[-1]
        rounds += cfg.t_total
        draws += cfg.topology.k * (last.samples_zeta + last.samples_xi)
        csv = harness.trace_to_csv(trace)
        if csvs.setdefault(i, csv) != csv:
            tally.fail(cfg, "CSV differs from an earlier run of the same config")
    return Sample(wall=wall, rounds=rounds, draws=draws, traces=traces)


def reference_pass(workload: Workload, tally: Tally, track_memory: bool):
    """Run at REFERENCE_SEED and compare final records with the stored values.

    Returns (peak traced bytes of the largest run or None, final values,
    whether every value matched).
    """
    peak = 0
    got = []
    for cfg in workload.configs(REFERENCE_SEED):
        if track_memory:
            tracemalloc.start()
        try:
            trace, _ = run_once(cfg, workload.check_field, tally)
            if track_memory:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            if track_memory:
                tracemalloc.stop()
        value = None if trace is None else getattr(trace.records[-1], workload.check_field)
        got.append(value)
    ok = len(got) == len(workload.expected) and all(
        v is not None and math.isclose(v, w, rel_tol=CHECK_RTOL, abs_tol=0.0)
        for v, w in zip(got, workload.expected)
    )
    if not ok:
        print(f"bench: reference check failed: expected {list(workload.expected)}, got {got}",
              file=sys.stderr)
    return (peak if track_memory else None), got, ok


def setup_once(workload: Workload, seed: int) -> float:
    """Seconds from RunConfig to first round, through the library's builders."""
    start = time.perf_counter()
    for cfg in workload.configs(seed):
        k = cfg.topology.k
        problem = harness.build_problem(cfg.problem, k)
        harness.build_topology(cfg.topology)
        harness.schedule_from_config(cfg.schedule, k, cfg.t_total)
        harness.resolve_reference(problem)
        if cfg.algorithm == "dsbo":
            core.init_agents(problem, cfg.b)
        elif cfg.algorithm == "fedsbo":
            baselines.init_central(problem, cfg.b)
    return time.perf_counter() - start


def median_with_count(values) -> dict:
    """Median and sample count of the values."""
    return {"median": statistics.median(values), "n": len(values)}


def tail(values) -> dict:
    """The highest percentile of the values with ten samples above it, if any."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return {}
    return {f"p{100 * (n - 11) // (n - 1)}": ordered[n - 11]}


def end_to_end(workload: Workload, seed: int, seconds: float, tally: Tally):
    """The tracemalloc reference pass, then set-ups interleaved with samples."""
    # The first set-up pays one-off imports.  The reference pass follows it
    # directly, so the allocation history before the peak is measured is the
    # same in every invocation.
    setup_once(workload, seed)
    peak, got, ref_ok = reference_pass(workload, tally, track_memory=True)

    # One timed set-up before each sample spreads both over the whole run,
    # so slow spells of a shared machine weigh on them alike.
    csvs: dict = {}
    setups, samples = [], []
    start = time.perf_counter()
    while len(samples) < 3 or time.perf_counter() - start < seconds:
        setups.append(setup_once(workload, seed))
        samples.append(run_sample(workload, seed, tally, csvs))

    # A sample whose runs all raised contributes no rate; the result is then
    # marked incorrect, and 0.0 keeps the JSON valid.
    good = [s for s in samples if s.rounds > 0]
    rounds = median_with_count([s.rounds / s.wall for s in good] or [0.0])
    draws = median_with_count([s.draws / s.wall for s in good] or [0.0])
    setup = median_with_count(setups)
    metrics = {
        "rounds_per_s": (rounds["median"], "1/s"),
        "draws_per_s": (draws["median"], "1/s"),
        "setup_s": (setup["median"], "s"),
        "peak_alloc_mib": (peak / _MIB, "MiB"),
    }
    detail = {
        "rounds_per_s": rounds, "draws_per_s": draws, "setup_s": setup,
        "sample_wall_s": {**median_with_count([s.wall for s in samples]),
                          **tail([s.wall for s in samples])},
        "peak_alloc_bytes": peak, "reference": {"expected": list(workload.expected),
                                                "got": got, "rtol": CHECK_RTOL},
        "b_effective": [tr.header["reference"]["b_effective"]
                        for tr in samples[0].traces if tr is not None],
    }
    return metrics, detail, ref_ok


# ---------------------------------------------------------------------------
# Traced run


def _median_time(fn, min_reps: int = 5, budget_s: float = 0.2) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < budget_s and len(times) < 1000):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def computed_counts(workload: Workload) -> dict:
    """Counts derived from array sizes and the mixing matrix, not measured.

    The core counts describe ``dsbo_round`` and are 0 on workloads that do
    not run it.  The topology counts describe one gossip step of the first
    run that gossips: the x, y, s, h, u, v stacks of dsbo, or the x and y
    stacks of dbsa (fedsbo has no gossip).
    """
    flops = state_bytes = 0
    msgs = bytes_per_round = 0
    gossip = None
    for cfg in workload.runs:
        k = cfg.topology.k
        problem = harness.build_problem(cfg.problem, k)
        if cfg.algorithm == "dsbo":
            states = core.init_agents(problem, cfg.b)
            flops += 2 * k * cfg.b * problem.d_y ** 3
            state_bytes += sum(getattr(st, f).nbytes for st in states for f in "xyshuvq")
            stacks = [np.stack([getattr(st, f) for st in states]) for f in "xyshuv"]
        elif cfg.algorithm == "fedsbo":
            continue
        else:
            stacks = [np.zeros((k, problem.d_x)), np.zeros((k, problem.d_y))]
        if gossip is None:
            w = harness.build_topology(cfg.topology)
            msgs = int(np.count_nonzero(w.weights)) - int(np.count_nonzero(np.diag(w.weights)))
            bytes_per_round = msgs * sum(s[0].nbytes for s in stacks)
            gossip = (w, stacks)
    mix_ms = 0.0
    if gossip is not None:
        w, stacks = gossip
        mix_ms = 1e3 * _median_time(lambda: [topology.gossip_mix(s, w) for s in stacks])
    return {
        "core.neumann_flops_per_round": (flops, "flop-computed"),
        "core.state_bytes": (state_bytes, "B-computed"),
        "topology.gossip_mix_ms": (mix_ms, "ms"),
        "topology.msgs_per_round": (msgs, "count-computed"),
        "topology.bytes_per_round": (bytes_per_round, "B-computed"),
    }


def _csv_ms(traces, out_dir: str) -> float:
    """Median ms to serialize and write the sample's traces with ``write_trace``."""
    path = os.path.join(out_dir, "trace.csv")
    try:
        return 1e3 * _median_time(
            lambda: [harness.write_trace(tr, path) for tr in traces if tr is not None]
        )
    finally:
        if os.path.exists(path):
            os.remove(path)


def per_layer(workload: Workload, seed: int, seconds: float, tally: Tally,
              out_dir: str):
    """Alternate untraced and traced samples; derive per-module metrics."""
    _, got, ref_ok = reference_pass(workload, tally, track_memory=False)

    tracer = Tracer()
    csvs: dict = {}
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_sample(workload, seed, tally, csvs))
        with tracer.installed():
            traced.append(run_sample(workload, seed, tally, csvs, tracer))

    spans = tracer.spans
    agg = aggregate(spans)

    def a(key) -> Agg:
        return agg.get(key, Agg())

    n = len(traced)
    rounds = sum(cfg.t_total for cfg in workload.runs) * n
    dsbo_rounds = sum(cfg.t_total for cfg in workload.runs if cfg.algorithm == "dsbo") * n
    fed_rounds = sum(cfg.t_total for cfg in workload.runs if cfg.algorithm == "fedsbo") * n
    dbsa_runs = sum(cfg.algorithm == "dbsa" for cfg in workload.runs) * n
    dsgd_runs = sum(cfg.algorithm == "dsgd" for cfg in workload.runs) * n
    k = workload.runs[0].topology.k

    def per(value, base):
        return value / base if base else 0.0

    run_ns = a("harness.run").total_ns
    stream, sample, record = a("rng.stream"), a("problems.sample"), a("harness.Recorder.record")
    rnd = a("core.dsbo_round")
    metrics = {
        "rng.streams_per_round": (per(stream.calls, rounds), "count"),
        "rng.stream_us": (per(stream.total_ns, stream.calls) / 1e3, "us"),
        "rng.self_share": (per(stream.self_ns + a("rng.agent_round_streams").self_ns, run_ns),
                           "ratio"),
        "problems.sample_calls_per_round": (per(sample.calls, rounds), "count"),
        "problems.sample_ms_per_round": (per(sample.total_ns, rounds) / 1e6, "ms"),
        "problems.hess_draws_per_round": (per(sample.count, rounds), "count"),
        "problems.clip_frac": (per(a("problems.clip_spectrum").count, sample.count), "ratio"),
        "core.round_ms": (per(rnd.total_ns, dsbo_rounds) / 1e6, "ms"),
        "core.round_self_ms": (per(rnd.self_ns, dsbo_rounds) / 1e6, "ms"),
        "core.neumann_ms_per_round": (
            per(a("core.dsbo_round>core.neumann_chain").total_ns, dsbo_rounds) / 1e6, "ms"),
        "core.check_finite_ms_per_round": (
            per(a("core.check_finite").total_ns, dsbo_rounds) / 1e6, "ms"),
        "harness.record_ms": (per(record.total_ns, record.calls) / 1e6, "ms"),
        "harness.exact_evals_per_record": (
            per(count_under(spans, "problems.exact_", "harness.Recorder.record"),
                record.calls), "count"),
        "harness.reference_s": (
            per(a("harness.resolve_reference").total_ns, a("harness.run").calls) / 1e9, "s"),
        "harness.csv_ms": (_csv_ms(plain[-1].traces, out_dir), "ms"),
        "harness.csv_bytes": (
            sum(len(harness.trace_to_csv(tr).encode()) for tr in plain[-1].traces
                if tr is not None), "B"),
        "harness.tracing_overhead": (
            statistics.median(s.wall for s in traced) / statistics.median(s.wall for s in plain),
            "ratio"),
        "baselines.fedsbo_round_self_ms": (
            per(a("baselines.fedsbo_round").self_ns, fed_rounds) / 1e6, "ms"),
        "baselines.dbsa_self_s": (per(a("baselines.dbsa_run").self_ns, dbsa_runs) / 1e9, "s"),
        "baselines.dsgd_self_s": (per(a("baselines.dsgd_run").self_ns, dsgd_runs) / 1e9, "s"),
        "baselines.inner_steps": (per(stream.count, k * n), "count"),
    }
    metrics.update(computed_counts(workload))
    detail = {
        "traced_samples": n,
        "spans": len(spans),
        "reference": {"expected": list(workload.expected), "got": got, "rtol": CHECK_RTOL},
    }
    return metrics, detail, ref_ok
