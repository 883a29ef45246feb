"""The benchmark's workloads: fixed ``RunConfig`` sequences keyed by a run seed.

A workload is one or more ``RunConfig`` values run one after another in a
closed loop.  The problem instance (``problem.seed``) is part of the
workload's definition and stays fixed, so every seed times the same
problem; the run seed passed on the command line sets ``RunConfig.seed``
and with it every oracle draw.

``expected`` holds the final record's check field of each run at
``REFERENCE_SEED``.  A change that moves those values beyond ``CHECK_RTOL``
changed the numerics by more than floating-point reassociation.  When that
is intended, copy the new values from ``reference.got`` in the detail line
that every benchmark run prints.  Why each workload exists is written in
``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from dsbo.harness import ProblemConfig, RunConfig, ScheduleConfig, TopologyConfig

REFERENCE_SEED = 0
CHECK_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[RunConfig, ...]
    check_field: str  # trace column that must fall from the first to the last record
    expected: tuple[float, ...]  # final check_field per run at REFERENCE_SEED

    def configs(self, seed: int) -> tuple[RunConfig, ...]:
        return tuple(dataclasses.replace(cfg, seed=int(seed)) for cfg in self.runs)


def _capped(alpha_cap: float) -> ScheduleConfig:
    return ScheduleConfig(
        regime="capped", alpha_cap=alpha_cap, alpha_num=2.0, beta_cap=0.5, beta_num=50.0,
    )


_POLICY_EVAL = ProblemConfig(family="policy-eval", seed=7, n_states=50, feat_dim=5)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pe-k20-b1",
            runs=(
                RunConfig(algorithm="dsbo", t_total=500, b=1, problem=_POLICY_EVAL,
                          topology=TopologyConfig(kind="ring", k=20),
                          schedule=_capped(0.01)),
            ),
            check_field="mse",
            expected=(7.41734604198114e-06,),
        ),
        Workload(
            name="hyperopt-k5-b200",
            runs=(
                RunConfig(algorithm="dsbo", t_total=200, b=200,
                          problem=ProblemConfig(family="hyperopt", seed=11, n_points=200,
                                                dim=10),
                          topology=TopologyConfig(kind="ring", k=5),
                          schedule=_capped(0.01)),
            ),
            check_field="subopt",
            expected=(0.30698162241874033,),
        ),
        Workload(
            name="baselines-pe-k5",
            runs=tuple(
                RunConfig(algorithm=algorithm, t_total=t_total, b=1, problem=_POLICY_EVAL,
                          topology=TopologyConfig(kind="ring", k=5),
                          schedule=_capped(0.01))
                for algorithm, t_total in (("fedsbo", 2000), ("dbsa", 60), ("dsgd", 60))
            ),
            check_field="mse",
            expected=(1.608015948586962e-07, 0.00011334503982457232, 0.0077017441092684805),
        ),
    )
}
