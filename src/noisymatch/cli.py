"""Batch front-end: run one experiment and emit deterministic CSV outputs.

Exit codes: 0 success, 1 runtime failure, 2 unparseable input (flags, a
config file, --set), 3 config invariant violation, from a file or a preset.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config_io import (
    apply_overrides,
    config_hash,
    config_to_dict,
    dict_to_config,
    load_config_file,
)
from .errors import ConfigError
from .estimation import (
    MatchProbability,
    amplification_metrics,
    attenuation_metrics,
    curve_id,
    estimate_afford_curve,
    estimate_match_curve,
    run_replications,
    steepest_ascent_bin,
)
from .market import usable_cpus
from .noise import v_s_threshold
from .presets import NOISE_TOKENS, PRESET_NAMES, noise_from_token, preset

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="noisymatch",
        description="Simulate noisy-score matching markets and emit curve/metric CSVs.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES, help="bundled preset")
    src.add_argument("--config", type=Path, help="JSON config file")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--replications", type=int, help="override the replication count")
    p.add_argument("--colleges", type=int, help="preset only: college count (per coalition for fig2)")
    p.add_argument("--noise", help=f"preset only: {'|'.join(NOISE_TOKENS)}")
    p.add_argument(
        "--threads", type=int, default=None,
        help="worker processes (default: the CPUs this process may use)",
    )
    p.add_argument("--out-dir", type=Path, default=Path("out"), help="output directory")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config-file override with a dotted path, repeatable",
    )
    return p


class InvalidPreset(ConfigError):
    """A preset whose flags build an invalid economy: exit 3, as from a file."""


def _build_doc(args) -> dict:
    if args.preset is not None:
        given = ("colleges", "noise")
        kwargs = {key: getattr(args, key) for key in given if getattr(args, key) is not None}
        if args.noise is not None:
            noise_from_token(args.noise)  # an unknown token is unparseable input
        try:
            doc = config_to_dict(*preset(args.preset, **kwargs))
        except ConfigError as e:
            raise InvalidPreset(str(e)) from e
        _warn_fixed_seats(args.preset, doc, args.overrides)
    else:
        doc = load_config_file(args.config)
        if args.noise is not None or args.colleges is not None:
            raise ConfigError("--noise/--colleges apply to presets only; use --set for files")
    if args.seed is not None:
        doc["master_seed"] = args.seed
    if args.replications is not None:
        doc.setdefault("plan", {})["replications"] = args.replications
    return apply_overrides(doc, args.overrides)


def _warn_fixed_seats(name: str, doc: dict, overrides: list[str]) -> None:
    """Warn that ``--set n_students=...`` leaves a preset's seats as built.

    ``--set`` edits the finished document, whose capacities the preset
    split for its own student count; the run goes on as asked.
    """
    seats = sum(college["capacity"] for college in doc["colleges"])
    for item in overrides:
        if item.partition("=")[0] == "n_students":
            print(
                f"warning: --set {item} keeps preset {name}'s {seats} seats; build the point "
                f"with presets.{name}(n_students=...) or a config file",
                file=sys.stderr,
            )


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _formatted(rows):
    return ([_fmt(x) for x in row] for row in rows)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header and rows, whose cells are already text or ints."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _curve_rows(curve_id: str, curve):
    for i in range(len(curve.count)):
        p = curve.probability[i]
        se = curve.stderr[i]
        yield (
            curve_id,
            "all",
            curve.bin_edges[i],
            curve.bin_edges[i + 1],
            "" if np.isnan(p) else p,
            "" if np.isnan(se) else se,
            int(curve.count[i]),
        )


def _timings(seconds: dict, stage_seconds: dict, pooled: bool) -> dict:
    """Wall seconds of this run's steps, the replications' stage seconds
    summed over stacks and workers, and peak resident memory."""
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    per_mib = 1 << (20 if sys.platform == "darwin" else 10)
    peak = {"peak_rss_mib": resource.RUSAGE_SELF}
    # the largest reaped child is a worker only when a pool ran; without one,
    # RUSAGE_CHILDREN reports what launched this process, since it survives exec
    if pooled:
        peak["workers_peak_rss_mib"] = resource.RUSAGE_CHILDREN
    out = {f"{step}_s": round(s, 4) for step, s in seconds.items()}
    out.update({f"{stage}_s": round(s, 4) for stage, s in stage_seconds.items()})
    for key, who in peak.items():
        out[key] = round(resource.getrusage(who).ru_maxrss / per_mib, 1)
    return out


def run(doc: dict, out_dir: Path, threads: int) -> int:
    started = time.time()
    config, plan = dict_to_config(doc)
    digest = config_hash(config_to_dict(config, plan))
    out_dir.mkdir(parents=True, exist_ok=True)

    # ends of the replications, the curves and metrics, and the CSV writing
    marks = [time.perf_counter()]
    records = run_replications(config, plan, threads=threads)
    marks.append(time.perf_counter())

    curve_rows = []
    metric_rows = []
    single = len(config.coalitions) == 1
    s_total = config.total_capacity() / config.n_students
    matched_share = records.matched().mean()
    metric_rows.append(("matched_share", matched_share))

    for request in plan.curves:
        name, cid = curve_id(config, request), request.coalition_id
        if isinstance(request, MatchProbability):
            curve = estimate_match_curve(records, coalition_id=cid)
            if single:
                v_s = v_s_threshold(config.coalitions[0].values, s_total)
                att = attenuation_metrics(curve, v_s)
                metric_rows.append(("v_s", v_s))
                metric_rows.append(("below_mass", att.below_mass))
                metric_rows.append(("step_deviation", att.step_deviation))
                metric_rows.append(("sup_deviation", amplification_metrics(curve, s_total)))
        else:
            curve = estimate_afford_curve(records, cid, request.trim_epsilon)
            metric_rows.append((f"{name}_step_location", steepest_ascent_bin(curve)))
        curve_rows.extend(_curve_rows(name, curve))

    if records.cutoffs is not None:
        for coalition in config.coalitions:
            cuts = records.cutoffs[:, config.coalition_members(coalition.id)]
            metric_rows.append((f"cutoff_min_mean_c{coalition.id}", cuts.min(axis=1).mean()))
            metric_rows.append((f"cutoff_mean_mean_c{coalition.id}", cuts.mean()))
    marks.append(time.perf_counter())

    # the CSVs in the order they are written and listed: header and rows
    tables = {
        "curves.csv": (
            ["curve_id", "replication_set", "bin_lo", "bin_hi", "probability", "stderr", "count"],
            _formatted(curve_rows),
        ),
        "metrics.csv": (
            ["metric", "value", "config_hash"],
            _formatted((name, value, digest) for name, value in metric_rows),
        ),
    }
    if records.cutoffs is not None:
        # one row per (replication, college): repr of a Python float is _fmt's text
        heads = [(_fmt(c.id), _fmt(c.coalition)) for c in config.colleges]
        tables["cutoffs.csv"] = (
            ["replication", "college_id", "coalition_id", "cutoff"],
            (
                (r, *head, repr(cut))
                for r, cuts in enumerate(records.cutoffs.tolist())
                for head, cut in zip(heads, cuts)
            ),
        )
    for name, (header, rows) in tables.items():
        _write_csv(out_dir / name, header, rows)
    marks.append(time.perf_counter())
    seconds = dict(zip(("replications", "curves", "output"), np.diff(marks).tolist()))

    manifest = {
        "config_hash": digest,
        "master_seed": config.master_seed,
        "tool_version": __version__,
        "tie_break": "score descending, exact ties to the lower student index",
        "wall_clock_seconds": round(time.time() - started, 3),
        "outputs": list(tables),
        "effective_config": doc,
        "timings": _timings(seconds, records.stage_seconds, records.workers > 1),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads is not None and args.threads < 1:
            parser.error(f"--threads: must be at least 1, got {args.threads}")
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else EXIT_OK
    try:
        doc = _build_doc(args)
    except InvalidPreset as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    threads = args.threads if args.threads is not None else usable_cpus()
    try:
        return run(doc, args.out_dir, threads)
    except ConfigError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as e:  # noqa: BLE001 - the CLI maps failures to exit codes
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
