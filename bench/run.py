"""Benchmark of the noisymatch CLI: one workload per invocation.

Run from the root of a source checkout:

    python3 bench/run.py --workload amplify-large --seed 1 --seconds 30 --trace 0

The benchmark writes the workload's config file from --seed, runs the CLI
on it in fresh processes (``python3 -m noisymatch --config ... --threads W``)
and checks every run's outputs.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it makes one traced run (see trace_run.py) and prints
the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Scratch files go to
.bench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import run_untraced  # noqa: E402
from trace_run import run_traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "noisymatch" / "__init__.py").is_file():
        print(f"error: {root} holds no src/noisymatch; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runs = root / ".bench_runs"
    work = runs / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = run_traced(root, workload, args.seed, work, runs)
        else:
            result = run_untraced(root, workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
