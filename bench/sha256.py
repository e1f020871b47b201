"""Print the sha256 of each CSV the CLI writes for one workload and seed.

    python3 bench/sha256.py --workload many-tiny --seed 1

Run it from the root of a source checkout before and after a change: equal
digests mean the change left the output bytes alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import OUTPUT_FILES  # noqa: E402
from harness import child_env, cli_argv, timed_process  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    work = root / ".bench_runs" / f"sha256-{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workload.config(args.seed)))
        run = timed_process(cli_argv(config_path, workload.workers, work / "out"), child_env(root), work / "cli.err")
        if run.code != 0:
            print((work / "cli.err").read_text(), file=sys.stderr)
            return run.code
        for name in OUTPUT_FILES:
            print(f"{hashlib.sha256((work / 'out' / name).read_bytes()).hexdigest()}  {workload.name} seed {args.seed} {name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
