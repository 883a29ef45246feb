"""Deterministic single-process simulator for decentralized stochastic
bilevel optimization over gossip networks, with a federated variant and
two double-loop baselines, three benchmark problem families, and an
experiment harness producing reproducible CSV traces."""

from .core import (
    NetworkState,
    StepSchedule,
    check_finite,
    default_b,
    dsbo_round,
    init_agents,
    neumann_apply,
    neumann_chain,
    round_step,
)
from .baselines import dbsa_run, dsgd_run, fedsbo_round, init_central, sgd_eta
from .errors import (
    ConfigError,
    DataFormatError,
    DisconnectedTopologyError,
    DivergenceError,
    DsboError,
    NegativeEntryError,
    NotDoublyStochasticError,
    NotSymmetricError,
    NumericsError,
    TopologyError,
    UnsupportedProblemError,
)
from .harness import (
    DbsaConfig,
    ProblemConfig,
    Recorder,
    RunConfig,
    ScheduleConfig,
    TopologyConfig,
    Trace,
    TraceRecord,
    TRACE_COLUMNS,
    build_problem,
    build_topology,
    load_config,
    loglog_slope,
    make_schedule,
    mean_grad_norm,
    read_trace,
    run,
    samples_to_eps,
    samples_to_eps_table,
    speedup_analysis,
    trace_to_csv,
    write_trace,
)
from .problems import (
    BilevelProblem,
    ExactGradients,
    HyperoptBilevel,
    PolicyEvalBilevel,
    ProblemConstants,
    QuadraticBilevel,
    StochasticSample,
    densify,
    make_hyperopt,
    make_policy_eval,
    make_quadratic,
    make_synthetic_hyperopt,
    parse_libsvm,
    split_partition,
    train_val_split,
)
from .rng import agent_round_streams, stream
from .topology import (
    MixingMatrix,
    build_complete,
    build_custom,
    build_ring,
    gossip_mix,
    spectral_gap,
)

__version__ = "0.1.0"
