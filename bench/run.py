"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload pe-k20-b1 --seed 3 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (throughput, set-up time, peak
allocation); ``--trace 1`` prints the per-module metrics of a separate
traced run.  The last line of standard output is the result object; the
line before it carries sample counts, versions and thread settings.  The
exit code is 0 only when every run passed the output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build")

# Single-threaded BLAS baseline: set before numpy loads.  DSBO_THREADS is
# left unset so runs use the library's default serial sampling path.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "env": {**PINNED_ENV, "DSBO_THREADS": os.environ.get("DSBO_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dsbo", "__init__.py")):
        print(f"bench: no dsbo sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    os.environ.pop("DSBO_THREADS", None)
    sys.path.insert(0, SRC)

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r} (expected one of "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tally = measure.Tally()
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        metrics, detail, ref_ok = measure.per_layer(workload, args.seed, args.seconds, tally,
                                                     OUT_DIR)
    else:
        metrics, detail, ref_ok = measure.end_to_end(workload, args.seed, args.seconds, tally)

    correct = ref_ok and tally.failed == 0
    detail.update(
        workload=workload.name,
        configs=[cfg.to_dict() for cfg in workload.configs(args.seed)],
        failed_frac=tally.failed / max(tally.attempted, 1),
        failures=tally.failures,
        environment=_environment(),
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
