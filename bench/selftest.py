"""Self-tests: each check passes on correct output and rejects a planted error.

    python3 bench/selftest.py      # from the root of a source checkout, ~2 s

The file is not named test_*.py so that the repository's own pytest run
does not collect it.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (  # noqa: E402
    Curve,
    check_amplification,
    check_files,
    check_properties,
    check_reference_cutoffs,
    cutoffs_of_assignment,
    read_outputs,
    reckoned_match_curve,
    stable_assignment,
)
from harness import child_env, cli_argv, timed_process  # noqa: E402
from workloads import PARETO, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))


def small_run(work: Path):
    """A 4-replication attenuate-tiers run through the CLI."""
    workload = dataclasses.replace(WORKLOADS["attenuate-tiers"], replications=4, workers=1)
    doc = workload.config(seed=5)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(doc))
    out = work / "out"
    run = timed_process(cli_argv(config_path, 1, out), child_env(ROOT), work / "cli.err")
    assert run.code == 0, (work / "cli.err").read_text()
    return doc, out


def market_and_cutoffs(doc: dict, out: Path, replication: int):
    from noisymatch.config_io import dict_to_config
    from noisymatch.market import sample_market

    config, _ = dict_to_config(doc)
    cuts = read_outputs(out).cutoffs.reshape(doc["plan"]["replications"], config.n_colleges)
    return sample_market(config, replication), config.capacities(), cuts[replication]


def test_checks_pass_on_cli_output(doc, out):
    assert check_files(doc, out) == []
    assert check_properties(doc, read_outputs(out)) == []
    for r in range(doc["plan"]["replications"]):
        assert check_reference_cutoffs(*market_and_cutoffs(doc, out, r)) == []


def test_c_rejects_cutoff_moved_to_next_student(doc, out):
    market, caps, cuts = market_and_cutoffs(doc, out, 0)
    c = 3
    column = np.sort(market.scores[:, c])[::-1]
    below = column[column < cuts[c]][0]  # the best student the cutoff keeps out
    moved = cuts.copy()
    moved[c] = below
    assert check_reference_cutoffs(market, caps, moved)


def test_c_rejects_swapped_matching(doc, out):
    market, caps, _ = market_and_cutoffs(doc, out, 0)
    assignment = stable_assignment(market.scores, market.prefs, caps)
    c1, c2 = 0, 25
    at_c1 = np.nonzero(assignment == c1)[0]
    a = at_c1[np.argmin(market.scores[at_c1, c1])]  # the worst admit sets the cutoff
    b = np.nonzero(assignment == c2)[0][0]
    swapped = assignment.copy()
    swapped[a], swapped[b] = c2, c1
    assert check_reference_cutoffs(market, caps, cutoffs_of_assignment(market.scores, swapped, caps))


def test_b_rejects_changed_count(doc, out, work: Path):
    changed = work / "changed"
    shutil.copytree(out, changed)
    with open(out / "curves.csv", newline="") as f:
        rows = list(csv.reader(f))
    rows[7][6] = str(int(rows[7][6]) + 1)
    with open(changed / "curves.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert check_files(doc, changed) == []
    assert check_properties(doc, read_outputs(changed))


def test_d_accepts_reckoned_rejects_flat_and_step():
    workload = WORKLOADS["amplify-large"]
    edges = np.array(workload.config(seed=1)["plan"]["bin_edges"])
    reckoned, _ = reckoned_match_curve(
        edges, workload.n_colleges, workload.seats / workload.n_students, PARETO["shape"], PARETO["scale"]
    )
    count = np.full(len(edges) - 1, workload.replications * workload.n_students // (len(edges) - 1))

    def curve(p):
        return Curve(np.asarray(p, dtype=float), count)

    mid = 0.5 * (edges[:-1] + edges[1:])
    assert check_amplification(curve(reckoned), reckoned) == []
    assert check_amplification(curve(np.full(len(mid), 0.5)), reckoned)
    assert check_amplification(curve(np.where(mid < 0.5, 0.0, np.where(mid > 0.5, 1.0, 0.5))), reckoned)


def main() -> int:
    work = ROOT / ".bench_runs" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures = 0
    try:
        doc, out = small_run(work)
        tests = [
            (test_checks_pass_on_cli_output, (doc, out)),
            (test_c_rejects_cutoff_moved_to_next_student, (doc, out)),
            (test_c_rejects_swapped_matching, (doc, out)),
            (test_b_rejects_changed_count, (doc, out, work)),
            (test_d_accepts_reckoned_rejects_flat_and_step, ()),
        ]
        for fn, args in tests:
            try:
                fn(*args)
                print(f"PASS {fn.__name__}")
            except AssertionError as e:
                failures += 1
                print(f"FAIL {fn.__name__}: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
