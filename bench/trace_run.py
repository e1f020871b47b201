"""The traced run: per-layer metrics of one workload.

Three passes, all through the program's public functions:

1. one untraced CLI run, checked like every untraced run; its wall time is
   the base of the tracing overhead;
2. one traced CLI run (traced_cli.py): spans around the config_io calls,
   cli.run, run_replications at the workload's worker count and the curve
   estimators.  Its CSVs must equal the untraced run's byte for byte;
3. a serial pass over the same replications in this process: sample_market,
   deferred_acceptance, extract_cutoffs, then trim_coalition and
   afford_matrix per afford curve.  Wrappers in the parent cannot see pool
   workers, so per-replication layer times come from this pass.  Its
   cutoffs must equal the CLI's exactly.

The spans of passes 2 and 3 are written to .bench_runs/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import sys
from pathlib import Path

import numpy as np

from checks import OUTPUT_FILES, read_outputs
from harness import BENCH_DIR, Checker, child_env, cli_argv, timed_process
from spans import Tracer

CURVE_SPANS = (
    "estimation.estimate_match_curve",
    "estimation.estimate_afford_curve",
    "estimation.attenuation_metrics",
    "estimation.amplification_metrics",
)
CONFIG_SPANS = ("config_io.load_config_file", "config_io.dict_to_config", "config_io.config_hash")
MIB = 2**20


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def da_resident_growth_mb(market, caps) -> float:
    """Peak resident growth of one deferred_acceptance call, in MiB.

    The call runs in a forked child, whose peak RSS starts at its RSS at the
    fork, so the child's ru_maxrss minus its starting RSS is the memory the
    call itself made resident.
    """
    from noisymatch.matching import deferred_acceptance

    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            base = _rss_bytes()
            deferred_acceptance(market, caps)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            os.write(wfd, json.dumps([base, peak]).encode())
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as f:
        data = f.read()
    os.waitpid(pid, 0)
    base, peak = json.loads(data)
    return (peak - base) / MIB


def proposals(prefs: np.ndarray, assignment: np.ndarray) -> int:
    """Proposals deferred acceptance makes: rank + 1 when matched, C when not."""
    n, n_col = prefs.shape
    rank = np.argmax(prefs == assignment[:, None], axis=1) + 1
    return int(np.where(assignment >= 0, rank, n_col).sum())


def serial_pass(config, plan, cli_cutoffs: np.ndarray, pool_used: bool):
    from noisymatch import cutoffs, estimation, market, matching

    tracer = Tracer()
    caps = config.capacities()
    requests = sorted(
        {(c.coalition_id, c.trim_epsilon) for c in plan.curves if isinstance(c, estimation.AffordProbability)}
    )
    n_proposals = market_bytes = ipc_bytes = 0
    errors = []
    for r in range(plan.replications):
        tracer.trace_id = r
        with tracer.span("replication"):
            with tracer.span("market.sample_market"):
                m = market.sample_market(config, r)
            with tracer.span("matching.deferred_acceptance"):
                mt = matching.deferred_acceptance(m, caps)
            with tracer.span("cutoffs.extract_cutoffs"):
                cuts = cutoffs.extract_cutoffs(mt)
            afford = {}
            with tracer.span("estimation.afford"):
                for cid, eps in requests:
                    with tracer.span("estimation.trim_coalition"):
                        kept = np.asarray(
                            estimation.trim_coalition(cuts, config.coalition_members(cid), eps), dtype=int
                        )
                    with tracer.span("cutoffs.afford_matrix"):
                        afford[(cid, eps)] = cutoffs.afford_matrix(m, cuts)[:, kept].any(axis=1)
        n_proposals += proposals(m.prefs, mt.assignment)
        market_bytes += m.values.nbytes + m.prefs.nbytes + m.scores.nbytes + m.college_coalition.nbytes
        if pool_used:
            ipc_bytes += len(pickle.dumps((config, plan, r))) + len(
                pickle.dumps((m.values, mt.assignment, afford, cuts))
            )
        if not np.array_equal(cuts, cli_cutoffs[r]):
            errors.append(f"serial pass: replication {r} cutoffs differ from the CLI's")
    return tracer, m, n_proposals, market_bytes, ipc_bytes, errors


def run_traced(root: Path, workload, seed: int, work: Path, runs: Path) -> dict:
    doc = workload.config(seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(doc))
    checker = Checker(root, workload, doc, seed)
    env = child_env(root)
    R, W = workload.replications, workload.workers
    errors: list[str] = []
    failed = 0

    plain = work / "plain"
    plain_run = timed_process(cli_argv(config_path, W, plain), env, work / "plain.err")
    if plain_run.code != 0:
        raise RuntimeError(f"untraced CLI exited {plain_run.code}: {(work / 'plain.err').read_text()[-2000:]}")
    errors += checker(plain)

    traced, spans_path = work / "traced", work / "cli_spans.json"
    argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), "--"]
    argv += cli_argv(config_path, W, traced)[3:]
    traced_run = timed_process(argv, env, work / "traced.err")
    if traced_run.code != 0:
        raise RuntimeError(f"traced CLI exited {traced_run.code}: {(work / 'traced.err').read_text()[-2000:]}")
    for name in OUTPUT_FILES:
        if (plain / name).read_bytes() != (traced / name).read_bytes():
            errors.append(f"traced CLI wrote a different {name}")
    output_bytes = sum(p.stat().st_size for p in traced.iterdir())
    cli_spans = Tracer.load(spans_path)

    from noisymatch.config_io import dict_to_config

    config, plan = dict_to_config(doc)
    cli_cutoffs = read_outputs(plain).cutoffs.reshape(R, workload.n_colleges)
    pool_used = W > 1 and R > 1
    tracer, last_market, n_proposals, market_bytes, ipc_bytes, serial_errors = serial_pass(
        config, plan, cli_cutoffs, pool_used
    )
    errors += serial_errors
    alloc_mb = da_resident_growth_mb(last_market, config.capacities())

    layer_s = tracer.total("replication")
    pool_s = cli_spans.total("estimation.run_replications")
    run_s = cli_spans.total("cli.run")
    da_s = tracer.total("matching.deferred_acceptance")
    cli_self = cli_spans.self_times()
    per_rep_ms = 1000.0 / R
    metrics = {
        "market.sample_ms": (tracer.total("market.sample_market") * per_rep_ms, "ms"),
        "market.bytes_per_rep": (market_bytes / R, "bytes"),
        "matching.da_ms": (da_s * per_rep_ms, "ms"),
        "matching.proposals_per_rep": (n_proposals / R, "count"),
        "matching.proposals_per_s": (n_proposals / da_s, "1/s"),
        "matching.alloc_peak_mb": (alloc_mb, "MiB"),
        "cutoffs.extract_ms": (tracer.total("cutoffs.extract_cutoffs") * per_rep_ms, "ms"),
        "estimation.afford_ms": (tracer.total("estimation.afford") * per_rep_ms, "ms"),
        "estimation.dispatch_ms_per_rep": ((W * pool_s - layer_s) * per_rep_ms, "ms"),
        "estimation.pool_efficiency": (layer_s / (W * pool_s), "ratio"),
        "estimation.ipc_bytes_per_rep": (ipc_bytes / R, "bytes"),
        "estimation.curve_ms": (cli_spans.total(*CURVE_SPANS) * 1000.0, "ms"),
        "config_io.load_ms": (cli_spans.total(*CONFIG_SPANS) * 1000.0, "ms"),
        "cli.import_ms": (cli_spans.total("cli.import") * 1000.0, "ms"),
        "cli.output_ms": (cli_self.get("cli.run", 0.0) * 1000.0, "ms"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "trace.overhead_ms": ((traced_run.wall - plain_run.wall) * 1000.0, "ms"),
    }
    all_spans = Tracer()
    all_spans.spans = [s[:] for s in cli_spans.spans]
    offset = len(all_spans.spans)
    for s in tracer.spans:
        all_spans.spans.append([s[0] + offset, None if s[1] is None else s[1] + offset] + s[2:])
    all_spans.save(runs / f"trace-{workload.name}-seed{seed}.json")
    print(
        f"{workload.name} seed {seed} traced: untraced wall {plain_run.wall:.3f} s, traced wall "
        f"{traced_run.wall:.3f} s, cli.run {run_s:.3f} s, run_replications {pool_s:.3f} s, "
        f"serial layers {layer_s:.3f} s",
        file=sys.stderr,
    )
    if errors:
        failed = 1
        print("\n".join(errors), file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": 1,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
