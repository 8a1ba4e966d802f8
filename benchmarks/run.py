#!/usr/bin/env python3
"""actlab benchmark: one command, named workloads, checked outputs.

    python3 benchmarks/run.py --workload logic-ponder --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
of a traced run with `--trace 1`. A fuller record, with the environment,
sample counts and observed reference outputs, is written to
`benchmarks/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# One BLAS thread: the loop has a single caller, and a second BLAS thread
# would make timings depend on what else runs on the other core.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "actlab" / "__init__.py").is_file():
        print(f"error: no actlab package source under {SRC_DIR}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC_DIR))

    from workloads import DEFAULT_SEED, WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_probe:
        prepare(WORKLOADS[args.workload], seed)
        print("ready", flush=True)
        return 0

    import bench
    from tracing import COMPUTED, PER_LAYER_UNITS

    result = bench.run(args.workload, seed, args.seconds, bool(args.trace))
    bench.RESULTS_DIR.mkdir(exist_ok=True)
    record = bench.RESULTS_DIR / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    print(f"actlab benchmark: workload={args.workload} seed={seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in result["environment"].items():
        print(f"  env.{key}: {value}")
    print("  samples: " + ", ".join(f"{k}={v}" for k, v in result["samples"].items()))
    if args.trace:
        units, values = PER_LAYER_UNITS, result["per_layer"]
    else:
        units, values = bench.END_TO_END_UNITS, result["end_to_end"]
    for name, value in values.items():
        label = "  (computed)" if name in COMPUTED else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{label}")
    print(f"  {'failed_frac':34s} {result['failed_frac']:14.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(f"  output check: {'PASS' if result['correct'] else 'FAIL'}"
          + (" against stored references" if result["reference"] else
             " (no stored references for this seed: repeat and validity checks)"))
    for message in result["failures"]:
        print(f"  failure: {message}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
