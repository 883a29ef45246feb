"""Tests of the benchmark itself: run with ``python -m pytest bench``.

Smoke runs shrink every workload to a few rounds; they check the result
schema against ``BENCHMARK.json``, the span tree, and that tracing leaves
the library's names as it found them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import measure  # noqa: E402
from dsbo import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY_ROUNDS = {"dsbo": 20, "fedsbo": 20, "dbsa": 8, "dsgd": 8}


def tiny(workload):
    """The workload cut to a few rounds, with expected values from one run."""
    runs = tuple(dataclasses.replace(cfg, t_total=TINY_ROUNDS[cfg.algorithm])
                 for cfg in workload.runs)
    short = dataclasses.replace(workload, runs=runs)
    got = tuple(getattr(harness.run(cfg).records[-1], workload.check_field)
                for cfg in short.configs(REFERENCE_SEED))
    return dataclasses.replace(short, expected=got)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _check_metrics(metrics, section):
    assert {name: unit for name, (_, unit) in metrics.items()} == _units(section)
    for name, (value, _) in metrics.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        assert value >= 0, name


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_smoke(name):
    workload = tiny(WORKLOADS[name])
    tally = measure.Tally()
    metrics, detail, ref_ok = measure.end_to_end(workload, seed=5, seconds=0, tally=tally)
    assert ref_ok and tally.failures == []
    _check_metrics(metrics, "end_to_end")
    assert metrics["rounds_per_s"][0] > 0 and metrics["peak_alloc_mib"][0] > 0
    assert detail["b_effective"] == [cfg.b for cfg in workload.runs]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_smoke(name, tmp_path):
    workload = tiny(WORKLOADS[name])
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.targets()]
    tally = measure.Tally()
    metrics, detail, ref_ok = measure.per_layer(workload, seed=5, seconds=0, tally=tally,
                                                out_dir=str(tmp_path))
    assert ref_ok and tally.failures == []
    _check_metrics(metrics, "per_layer")
    assert detail["spans"] > 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    assert list(tmp_path.iterdir()) == []


def test_spans_nest_and_self_times_are_nonnegative():
    workload = tiny(WORKLOADS["baselines-pe-k5"])
    tracer = tracing.Tracer()
    with tracer.installed():
        measure.run_sample(workload, 1, measure.Tally(), {}, tracer)
    spans = tracer.spans
    names = {sp[tracing.NAME] for sp in spans}
    assert {"harness.run", "rng.stream", "problems.sample", "baselines.fedsbo_round",
            "baselines.dbsa_run", "baselines.dsgd_run", "harness.Recorder.record"} <= names
    for sp in spans:
        assert sp[tracing.START] <= sp[tracing.END]
        if sp[tracing.PARENT] >= 0:
            parent = spans[sp[tracing.PARENT]]
            assert parent[tracing.START] <= sp[tracing.START]
            assert sp[tracing.END] <= parent[tracing.END]
        else:
            assert sp[tracing.NAME] == "harness.run"
    for agg in tracing.aggregate(spans).values():
        assert agg.self_ns >= 0


def test_installed_restores_names_when_the_run_raises():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.targets()]
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_output_check_flags_bad_runs():
    trace = harness.run(tiny(WORKLOADS["pe-k20-b1"]).configs(REFERENCE_SEED)[0])
    assert measure.output_problem(trace, "mse") is None
    rising = dataclasses.replace(trace.records[-1], mse=trace.records[0].mse * 2)
    assert "did not fall" in measure.output_problem(
        harness.Trace(trace.header, trace.records[:-1] + [rising]), "mse")
    broken = dataclasses.replace(trace.records[1], consensus_x=math.nan)
    assert "non-finite consensus_x" in measure.output_problem(
        harness.Trace(trace.header, [trace.records[0], broken] + trace.records[2:]), "mse")


def test_reference_check_rejects_changed_numerics():
    workload = tiny(WORKLOADS["hyperopt-k5-b200"])
    moved = dataclasses.replace(workload, expected=(workload.expected[0] * (1 + 1e-4),))
    _, _, ok = measure.reference_pass(moved, measure.Tally(), track_memory=False)
    assert not ok


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pe-k20-b1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
