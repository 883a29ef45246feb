"""Span recording by rebinding the library's public names.

The traced run replaces selected module functions and problem methods with
wrappers that record a span (name, start, end, parent) around each call,
then puts the originals back.  Nothing inside ``src/dsbo`` changes; the
wrappers live here and only see calls that go through the rebound names.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from time import perf_counter_ns

import dsbo.baselines
import dsbo.core
import dsbo.harness
import dsbo.problems.hyperopt
import dsbo.problems.quadratic
import dsbo.rng
from dsbo.problems import HyperoptBilevel, PolicyEvalBilevel, QuadraticBilevel

# Span record fields, kept as a list per span for cheap appends.
NAME, START, END, PARENT, COUNT = range(5)


def _hess_draws(args, kwargs, result) -> int:
    return result.hyy_g_draws.shape[0]


def _clipped(args, kwargs, result) -> int:
    return result.shape[0] if result.ndim == 3 else 1


def _inner_stream(args, kwargs, result) -> int:
    purpose = args[1] if len(args) > 1 else kwargs["purpose"]
    return int(purpose.endswith("-inner"))


_PROBLEM_METHODS = ("sample", "exact_lower", "exact_hypergrad", "exact_gradients", "objective")


def targets():
    """(owner, attribute, span name, count function) for every rebound name.

    A count function maps (args, kwargs, result) to a work count stored on
    the span: Hessian draws per ``sample``, matrices per ``clip_spectrum``,
    inner-step streams per ``stream``.
    """
    found = [
        (dsbo.core, "neumann_chain", "core.neumann_chain", None),
        (dsbo.core, "check_finite", "core.check_finite", None),
        (dsbo.harness, "dsbo_round", "core.dsbo_round", None),
        (dsbo.harness, "fedsbo_round", "baselines.fedsbo_round", None),
        (dsbo.harness, "dbsa_run", "baselines.dbsa_run", None),
        (dsbo.harness, "dsgd_run", "baselines.dsgd_run", None),
        (dsbo.harness, "agent_round_streams", "rng.agent_round_streams", None),
        (dsbo.harness, "resolve_reference", "harness.resolve_reference", None),
        (dsbo.harness.Recorder, "record", "harness.Recorder.record", None),
        (dsbo.rng, "stream", "rng.stream", _inner_stream),
        (dsbo.baselines, "stream", "rng.stream", _inner_stream),
        (dsbo.baselines, "neumann_chain", "baselines.neumann_chain", None),
        (dsbo.problems.quadratic, "clip_spectrum", "problems.clip_spectrum", _clipped),
        (dsbo.problems.hyperopt, "clip_spectrum", "problems.clip_spectrum", _clipped),
    ]
    for cls in (QuadraticBilevel, PolicyEvalBilevel, HyperoptBilevel):
        for method in _PROBLEM_METHODS:
            if method in vars(cls):
                count = _hess_draws if method == "sample" else None
                found.append((cls, method, f"problems.{method}", count))
    return found


class Tracer:
    """Owns the span list and the rebinding of library names."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.spans[idx][END] = perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into the library."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][COUNT] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to a recording wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name, count in targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


@dataclass
class Agg:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    count: int = 0


def aggregate(spans) -> dict[str, Agg]:
    """Per-name totals, plus ``parent>child`` keys for direct children.

    Self time is a span's duration minus the time its direct children
    cover; children of one span never overlap because the run is single
    threaded.
    """
    child_ns = [0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child_ns[sp[PARENT]] += sp[END] - sp[START]
    out: dict[str, Agg] = {}
    for i, sp in enumerate(spans):
        dur = sp[END] - sp[START]
        keys = [sp[NAME]]
        if sp[PARENT] >= 0:
            keys.append(f"{spans[sp[PARENT]][NAME]}>{sp[NAME]}")
        for key in keys:
            agg = out.setdefault(key, Agg())
            agg.calls += 1
            agg.total_ns += dur
            agg.self_ns += dur - child_ns[i]
            agg.count += sp[COUNT]
    return out


def count_under(spans, prefix: str, ancestor: str) -> int:
    """Spans whose name starts with ``prefix`` and that run inside ``ancestor``."""
    n = 0
    for sp in spans:
        if not sp[NAME].startswith(prefix):
            continue
        parent = sp[PARENT]
        while parent >= 0 and spans[parent][NAME] != ancestor:
            parent = spans[parent][PARENT]
        n += parent >= 0
    return n
