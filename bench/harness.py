"""Shared pieces of the benchmark: processes, set-up timing, checks, untraced runs."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from checks import (
    check_amplification,
    check_files,
    check_properties,
    check_reference_cutoffs,
    read_outputs,
    reckoned_match_curve,
)
from workloads import PARETO

BENCH_DIR = Path(__file__).resolve().parent
CPUS = os.cpu_count() or 1
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

# A fresh interpreter does everything the CLI does before its first replication.
SETUP_SNIPPET = """
import sys
import noisymatch
from noisymatch import config_io
doc = config_io.load_config_file(sys.argv[1])
config, plan = config_io.dict_to_config(doc)
config_io.config_hash(config_io.config_to_dict(config, plan))
"""

# The hypervisor at times takes a fifth to a third of the machine's CPU time
# (the steal field of /proc/stat) for a minute or more, slowing a CLI run
# by up to 100 %.  Runs made while it took more than this share are left
# out of the medians, and a run goes on for up to MAX_OVERRUN times its
# measuring time to get at least one run made without.
STEAL_MAX = 0.03
MAX_OVERRUN = 1.5
# Set-up processes timed before the first CLI run and after the last; one
# more follows every CLI run, so that set-up is timed across the whole run.
SETUP_BEFORE, SETUP_AFTER = 3, 2


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class Sample(NamedTuple):
    code: int
    wall: float  # s, spawn to exit
    cpu: float  # s, user + system of the process and its waited-for descendants
    rss: float  # MiB, the largest resident set among them
    steal: float  # share of the machine's CPU time the hypervisor took meanwhile


def stolen_seconds() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs since boot."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / CLOCK_TICKS if len(fields) > 8 else 0.0


def timed_process(argv: list[str], env: dict, stderr_path: Path) -> Sample:
    """Run one process to its end and measure it.

    CPU time and peak RSS come from wait4, which on Linux covers the process
    and every descendant it waited for, so pool workers are included.
    """
    with open(stderr_path, "wb") as err:
        stolen = stolen_seconds()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        stolen = stolen_seconds() - stolen
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        stolen / (wall * CPUS),
    )


def time_snippet(root: Path, work: Path, snippet: str, *args: str) -> Sample:
    sample = timed_process([sys.executable, "-c", snippet, *args], child_env(root), work / "snippet.err")
    if sample.code != 0:
        raise RuntimeError(f"benchmark process exited {sample.code}: {(work / 'snippet.err').read_text()}")
    return sample


def calm(samples: list[Sample]) -> list[Sample]:
    """The samples taken while the hypervisor took at most STEAL_MAX, or all when none were."""
    return [s for s in samples if s.steal <= STEAL_MAX] or samples


def cli_argv(config_path: Path, workers: int, out_dir: Path) -> list[str]:
    return [
        sys.executable, "-m", "noisymatch",
        "--config", str(config_path), "--threads", str(workers), "--out-dir", str(out_dir),
    ]


class Checker:
    """Runs checks (a)-(d) on one CLI run; imports the program lazily."""

    def __init__(self, root: Path, workload, doc: dict, seed: int):
        sys.path.insert(0, str(root / "src"))
        from noisymatch import config_io

        self.workload, self.doc, self.seed = workload, doc, seed
        self.config, _ = config_io.dict_to_config(doc)
        self.runs = 0
        self.reckoned = None
        if workload.reckoned_pareto:
            share = workload.seats / workload.n_students
            self.reckoned, _ = reckoned_match_curve(
                doc["plan"]["bin_edges"], workload.n_colleges, share, PARETO["shape"], PARETO["scale"]
            )

    def replications_to_check(self) -> list[int]:
        """A different slice of replications on every run, starting from the seed."""
        R, k = self.workload.replications, self.workload.reference_checks
        first = (self.seed + self.runs * k) % R
        return [(first + i) % R for i in range(min(k, R))]

    def __call__(self, out_dir: Path) -> list[str]:
        from noisymatch.market import sample_market

        errors = check_files(self.doc, out_dir)
        if errors:
            return errors
        out = read_outputs(out_dir)
        errors = check_properties(self.doc, out)
        cuts = out.cutoffs.reshape(self.workload.replications, self.workload.n_colleges)
        caps = self.config.capacities()
        for r in self.replications_to_check():
            errors += check_reference_cutoffs(sample_market(self.config, r), caps, cuts[r])
        if self.reckoned is not None:
            errors += check_amplification(out.curves["match_value1"], self.reckoned)
        self.runs += 1
        return errors


def run_untraced(root: Path, workload, seed: int, seconds: float, work: Path) -> dict:
    """Time CLI runs for the given seconds and report each timing's median.

    The machine is a shared virtual machine whose speed drifts by up to half
    in spells of seconds to minutes, moving wall and CPU time alike.  Medians
    over many CLI runs spread across the run, each followed by a set-up
    process, and leaving out what was timed while the hypervisor took the
    CPUs, are what steady the figures (see the README).
    """
    doc = workload.config(seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(doc))
    checker = Checker(root, workload, doc, seed)
    env = child_env(root)
    setup = [time_snippet(root, work, SETUP_SNIPPET, str(config_path)) for _ in range(SETUP_BEFORE)]
    samples: list[Sample] = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        out_dir = work / f"out{attempted}"
        attempted += 1
        sample = timed_process(cli_argv(config_path, workload.workers, out_dir), env, work / "cli.err")
        setup.append(time_snippet(root, work, SETUP_SNIPPET, str(config_path)))
        if sample.code != 0:
            failed += 1
            print(f"CLI exited {sample.code}: {(work / 'cli.err').read_text()[-2000:]}", file=sys.stderr)
        else:
            errors = checker(out_dir)
            if errors:
                failed += 1
                correct = False
                print("\n".join(errors), file=sys.stderr)
            samples.append(sample)
        shutil.rmtree(out_dir, ignore_errors=True)
        now = time.perf_counter()
        # stop before an operation that would run past the measuring time
        ahead = now - start + (now - op_start)
        if ahead > MAX_OVERRUN * seconds or (ahead > seconds and any(s.steal <= STEAL_MAX for s in samples)):
            break
    setup += [time_snippet(root, work, SETUP_SNIPPET, str(config_path)) for _ in range(SETUP_AFTER)]
    used = calm(samples)
    print(
        f"{workload.name} seed {seed}: {attempted} CLI runs, {len(used)} used, "
        f"(wall s, cpu s, steal share) {[(round(s.wall, 3), round(s.cpu, 3), round(s.steal, 3)) for s in samples]}; "
        f"set-up wall s {[round(s.wall, 3) for s in setup]}",
        file=sys.stderr,
    )
    metrics = {"setup_s": (statistics.median(s.wall for s in calm(setup)), "s")}
    if used:
        metrics.update(
            wall_s=(statistics.median(s.wall for s in used), "s"),
            cpu_s=(statistics.median(s.cpu for s in used), "s"),
            peak_rss_mb=(statistics.median(s.rss for s in used), "MiB"),
        )
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
