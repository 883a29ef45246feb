"""Golden trace corpus: small runs whose CSV bytes are pinned by SHA-1.

``golden_traces.json`` holds every config in ``CONFIGS`` with the SHA-1 of
its ``trace_to_csv`` output and the Python, numpy and scipy versions it was
written under.  A diverging run hashes the partial trace attached to its
``DivergenceError``.  The corpus is hashed in one subprocess under the
thread pin that ``bench/run.py`` sets (one BLAS and OpenMP thread), so the
test does not depend on the machine's default thread count.  A change that
keeps traces byte-identical leaves the file untouched; a change that moves
numerics on purpose rewrites it, under the same pin, with

    PYTHONPATH=src python tests/test_golden_traces.py

which prints each added, removed and moved entry with its old and new
SHA-1 prefixes; the change says why each one moved.  Configs name data
files by repository-relative paths, and the hashing subprocess runs from
the repository root, so the bytes do not depend on where the checkout
lives.  A config with 16 or more agents goes
in only once ``test_harness.TestThreadSettings`` shows that its bytes do not
depend on the BLAS thread count.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

import dsbo
from dsbo import DivergenceError, run, trace_to_csv
from dsbo.harness import DbsaConfig, ProblemConfig, RunConfig, ScheduleConfig, TopologyConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_traces.json"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_FAMILIES = {
    "quadratic": ProblemConfig(family="quadratic", d_x=4, d_y=4, seed=2),
    "policy-eval": ProblemConfig(family="policy-eval", n_states=20, feat_dim=4, seed=7),
    "hyperopt": ProblemConfig(family="hyperopt", n_points=60, dim=4, seed=11),
}
_CAPPED = ScheduleConfig(regime="capped")
_BENCH_CAPPED = ScheduleConfig(regime="capped", alpha_cap=0.01, alpha_num=2.0, beta_cap=0.5,
                               beta_num=50.0)
_BENCH_PE = ProblemConfig(family="policy-eval", seed=7, n_states=50, feat_dim=5)


def _small(algorithm, family, **changes):
    """Ring K=4, T=30, b=3, run seed 5, capped schedule."""
    base = RunConfig(algorithm=algorithm, t_total=30, b=3, seed=5, problem=_FAMILIES[family],
                     topology=TopologyConfig(kind="ring", k=4), schedule=_CAPPED)
    return dataclasses.replace(base, **changes)


def _problem(family, **changes):
    return dataclasses.replace(_FAMILIES[family], **changes)


CONFIGS = {
    **{f"{alg}-{family}": _small(alg, family)
       for alg in ("dsbo", "fedsbo", "dbsa") for family in _FAMILIES},
    "dbsa-full_hypergrad-quadratic": _small(
        "dbsa", "quadratic", dbsa=DbsaConfig(full_hypergrad=True, corr_depth=3)),
    "dsgd-policy-eval": _small("dsgd", "policy-eval"),
    "dsbo-quadratic-cadence7": _small("dsbo", "quadratic", t_total=40, cadence=7),
    "fedsbo-policy-eval-cadence7": _small("fedsbo", "policy-eval", t_total=40, cadence=7),
    "dsgd-policy-eval-cadence7": _small("dsgd", "policy-eval", t_total=40, cadence=7),
    # hyperopt's draws take other bits at minibatch > 1 and at d_y = 1
    "dsbo-hyperopt-minibatch3": _small(
        "dsbo", "hyperopt", problem=_problem("hyperopt", minibatch=3)),
    "fedsbo-hyperopt-dim1": _small("fedsbo", "hyperopt", problem=_problem("hyperopt", dim=1)),
    "dsbo-hyperopt-dim1": _small("dsbo", "hyperopt", problem=_problem("hyperopt", dim=1)),
    # both clip some Hessian draws and leave others: quadratic's noise often
    # exceeds a Frobenius budget of 0.2, and c0 = 200 drives hyperopt's
    # regularizer weights past its spectral ball
    "dsbo-quadratic-clip": _small("dsbo", "quadratic", problem=ProblemConfig(
        family="quadratic", d_x=3, d_y=5, sigma_f=0.2, sigma_g=0.2, kappa_g=0.2, seed=13)),
    "dsbo-hyperopt-clip": _small(
        "dsbo", "hyperopt", schedule=ScheduleConfig(regime="constant", c0=200.0)),
    # fedsbo's agent mean: K = 5 is not a power of two, and one-element rows
    # at K >= 8 take numpy's pairwise sum
    "fedsbo-quadratic-k5": _small("fedsbo", "quadratic", topology=TopologyConfig(k=5)),
    "fedsbo-quadratic-one-element-k9": _small(
        "fedsbo", "quadratic", b=1, topology=TopologyConfig(k=9),
        problem=_problem("quadratic", d_x=1, d_y=1)),
    # more than 1,023 states: policy-eval searches next states in two groups
    "dsbo-policy-eval-1100-states": _small(
        "dsbo", "policy-eval", t_total=3, topology=TopologyConfig(k=3),
        problem=_problem("policy-eval", n_states=1100, feat_dim=3)),
    # the two set-up paths no other entry reaches: a LIBSVM data file, and a
    # file-loaded W that is neither a ring nor a complete graph (Metropolis
    # weights on a 4-agent path)
    "dsbo-hyperopt-libsvm": _small(
        "dsbo", "hyperopt", problem=_problem("hyperopt", data_path="tests/data/two_class.libsvm")),
    "dsbo-quadratic-custom-path4": _small("dsbo", "quadratic", topology=TopologyConfig(
        kind="custom", k=4, weights_path="tests/data/metropolis_path4.txt")),
    **{f"{alg}-policy-eval-partial": _small(
        alg, "policy-eval", schedule=ScheduleConfig(regime="constant", c0=1e200))
       for alg in ("dsbo", "fedsbo", "dbsa", "dsgd")},
    # test_harness.TestThreadSettings' K = 20 config, the same bytes at 1 and
    # 2 BLAS threads; bench's pe-k20-b1 (K = 20) has no such check and stays out
    "threads-policy-eval-k20": RunConfig(
        algorithm="dsbo", t_total=20, b=2, seed=3, problem=_BENCH_PE,
        topology=TopologyConfig(kind="ring", k=20), schedule=_CAPPED),
    # bench/workloads.py at its reference seed 0
    "bench-hyperopt-k5-b200": RunConfig(
        algorithm="dsbo", t_total=200, b=200,
        problem=ProblemConfig(family="hyperopt", seed=11, n_points=200, dim=10),
        topology=TopologyConfig(kind="ring", k=5), schedule=_BENCH_CAPPED),
    **{f"bench-baselines-pe-k5-{alg}": RunConfig(
        algorithm=alg, t_total=t_total, b=1, problem=_BENCH_PE,
        topology=TopologyConfig(kind="ring", k=5), schedule=_BENCH_CAPPED)
       for alg, t_total in (("fedsbo", 2000), ("dbsa", 60), ("dsgd", 60))},
}


def trace_sha1(config: RunConfig) -> tuple[str, bool]:
    """SHA-1 of the run's CSV, and whether the run diverged."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            trace, partial = run(config), False
        except DivergenceError as err:
            trace, partial = err.trace, True
    return hashlib.sha1(trace_to_csv(trace).encode()).hexdigest(), partial


def pinned_hashes() -> dict:
    """``{name: [sha1, partial]}`` for every config, from one subprocess that
    runs this file with ``--hash`` under ``PINNED_ENV``."""
    src = str(pathlib.Path(dsbo.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **PINNED_ENV,
               PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    done = subprocess.run([sys.executable, str(pathlib.Path(__file__).resolve()), "--hash"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
                          check=True)
    return json.loads(done.stdout)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def corpus_changes(old: dict, new: dict) -> list[str]:
    """One line per entry added, removed or moved between two ``entries``
    maps, with the old and new SHA-1 prefixes."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        before, after = (entries.get(name, {}).get("sha1") for entries in (old, new))
        if before == after:
            continue
        if before is None:
            lines.append(f"added   {name}: {after[:12]}")
        elif after is None:
            lines.append(f"removed {name}: {before[:12]}")
        else:
            lines.append(f"moved   {name}: {before[:12]} -> {after[:12]}")
    return lines


def write_corpus(path=GOLDEN):
    old = json.loads(path.read_text(encoding="utf-8"))["entries"] if path.exists() else {}
    entries = {}
    for name, (sha1, partial) in pinned_hashes().items():
        entries[name] = {"sha1": sha1, "partial": partial, "config": CONFIGS[name].to_dict()}
    corpus = {"versions": versions(), "entries": entries}
    path.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    for line in corpus_changes(old, entries):
        print(line)
    kept = sum(old.get(name, {}).get("sha1") == e["sha1"] for name, e in entries.items())
    print(f"{kept} of {len(entries)} entries unchanged")


@pytest.fixture(scope="module")
def corpus():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def hashes():
    return pinned_hashes()


def test_corpus_holds_every_config(corpus):
    assert {name: e["config"] for name, e in corpus["entries"].items()} == {
        name: config.to_dict() for name, config in CONFIGS.items()}


def test_corpus_changes_names_each_entry_that_moved():
    old = {"same": {"sha1": "a" * 40}, "moved": {"sha1": "b" * 40}, "gone": {"sha1": "c" * 40}}
    new = {"same": {"sha1": "a" * 40}, "moved": {"sha1": "d" * 40}, "new": {"sha1": "e" * 40}}
    assert corpus_changes(old, new) == [
        f"removed gone: {'c' * 12}",
        f"moved   moved: {'b' * 12} -> {'d' * 12}",
        f"added   new: {'e' * 12}",
    ]


@pytest.mark.parametrize("name", CONFIGS)
def test_trace_bytes_match_corpus(corpus, hashes, name):
    entry = corpus["entries"][name]
    sha1, partial = hashes[name]
    assert partial == entry["partial"], f"{name}: divergence changed"
    assert sha1 == entry["sha1"], (
        f"{name}: trace bytes moved; corpus written under {corpus['versions']}, "
        f"running under {versions()}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--hash"]:
        print(json.dumps({name: trace_sha1(config) for name, config in CONFIGS.items()}))
    else:
        write_corpus()
