"""Correctness checks on one CLI run's outputs, independent of the program.

Every check returns a list of error strings; an empty list means it passed.

- (a) the CLI wrote its three CSVs with the expected number of rows;
- (b) properties the method must have (every seat fills, matched share,
  curve counts, afford >= match, the cutoff summaries in metrics.csv);
- (c) the cutoffs of chosen replications equal the student-optimal stable
  cutoffs computed here by the cutoff-raising fixed point;
- (d) the amplification curve matches the continuum curve 1 - F(P - v)^C.

None of them compares against a saved copy of earlier output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OUTPUT_FILES = ("curves.csv", "metrics.csv", "cutoffs.csv")


@dataclass
class Curve:
    probability: np.ndarray  # NaN where the CSV field is empty
    count: np.ndarray


@dataclass
class Outputs:
    curves: dict[str, Curve]
    metrics: dict[str, float]
    cutoffs: np.ndarray  # (R, C), rows in CSV order
    cutoff_rows: list[tuple[int, int, int]]  # (replication, college_id, coalition_id)


def read_outputs(out_dir: Path) -> Outputs:
    rows: dict[str, list[list[str]]] = {}
    with open(out_dir / "curves.csv", newline="") as f:
        for r in csv.DictReader(f):
            rows.setdefault(r["curve_id"], []).append([r["probability"], r["count"]])
    curves = {
        cid: Curve(
            np.array([float(p) if p else math.nan for p, _ in rs]),
            np.array([int(k) for _, k in rs]),
        )
        for cid, rs in rows.items()
    }
    with open(out_dir / "metrics.csv", newline="") as f:
        metrics = {r["metric"]: float(r["value"]) for r in csv.DictReader(f)}
    cutoff_rows, values = [], []
    with open(out_dir / "cutoffs.csv", newline="") as f:
        for r in csv.DictReader(f):
            cutoff_rows.append((int(r["replication"]), int(r["college_id"]), int(r["coalition_id"])))
            values.append(float(r["cutoff"]))
    return Outputs(curves, metrics, np.array(values), cutoff_rows)


def curve_ids(doc: dict) -> list[str]:
    """The curve ids the CLI names each requested curve with."""
    out = []
    for c in doc["plan"]["curves"]:
        if c["kind"] == "match":
            out.append(f"match_value{c['coalition']}")
        else:
            out.append(f"afford_c{c['coalition']}_trim{c['trim_epsilon']:g}")
    return out


def check_files(doc: dict, out_dir: Path) -> list[str]:
    """(a) the three CSVs exist; cutoffs.csv has R x C rows; one row per bin."""
    missing = [name for name in OUTPUT_FILES if not (out_dir / name).is_file()]
    if missing:
        return [f"(a) missing outputs: {missing}"]
    out = read_outputs(out_dir)
    errors = []
    R, colleges = doc["plan"]["replications"], doc["colleges"]
    want_rows = [(r, c["id"], c["coalition"]) for r in range(R) for c in colleges]
    if out.cutoff_rows != want_rows:
        errors.append(f"(a) cutoffs.csv: {len(out.cutoff_rows)} rows, want R*C = {len(want_rows)} in order")
    n_bins = len(doc["plan"]["bin_edges"]) - 1
    if sorted(out.curves) != sorted(curve_ids(doc)):
        errors.append(f"(a) curves.csv: curve ids {sorted(out.curves)}, want {sorted(curve_ids(doc))}")
    for cid, curve in out.curves.items():
        if len(curve.count) != n_bins:
            errors.append(f"(a) curve {cid}: {len(curve.count)} rows, want {n_bins}")
    return errors


def check_properties(doc: dict, out: Outputs) -> list[str]:
    """(b) properties every correct run has, whatever the noise draws."""
    errors = []
    R, n = doc["plan"]["replications"], doc["n_students"]
    colleges = doc["colleges"]
    seats = sum(c["capacity"] for c in colleges)
    cuts = out.cutoffs.reshape(R, len(colleges))
    if not np.isfinite(cuts).all():
        errors.append(f"(b) {int((~np.isfinite(cuts)).sum())} cutoffs are not finite")
    if out.metrics.get("matched_share") != seats / n:
        errors.append(f"(b) matched_share {out.metrics.get('matched_share')!r} != {seats}/{n}")
    for cid, curve in out.curves.items():
        if int(curve.count.sum()) != R * n:
            errors.append(f"(b) curve {cid}: counts sum to {int(curve.count.sum())}, want R*n = {R * n}")
    if len(doc["coalitions"]) == 1:
        match, afford = out.curves.get("match_value1"), out.curves.get("afford_c1_trim0")
        if match is None or afford is None:
            errors.append("(b) fig1 run lacks the match or the eps=0 afford curve")
        else:
            ok = match.count > 0
            bad = np.nonzero(ok & ~(afford.probability >= match.probability))[0]
            if len(bad):
                errors.append(f"(b) afford curve below the match curve in bins {bad.tolist()}")
    for coalition in doc["coalitions"]:
        cols = np.array([c["coalition"] == coalition["id"] for c in colleges])
        want = {
            f"cutoff_min_mean_c{coalition['id']}": cuts[:, cols].min(axis=1).mean(),
            f"cutoff_mean_mean_c{coalition['id']}": cuts[:, cols].mean(),
        }
        for name, value in want.items():
            got = out.metrics.get(name)
            if got is None or not math.isclose(got, value, rel_tol=1e-12, abs_tol=0.0):
                errors.append(f"(b) {name} = {got!r}, recomputed {value!r}")
    return errors


# ---------------------------------------------------------------------------
# (c) reference cutoffs


def _affords(scores_s, s, cut_score, cut_student):
    """Composite comparison (score, -student) >= (cut_score, -cut_student)."""
    return (scores_s > cut_score) | ((scores_s == cut_score) & (s <= cut_student))


def stable_assignment(scores: np.ndarray, prefs: np.ndarray, caps) -> np.ndarray:
    """Student-optimal stable assignment by the cutoff-raising fixed point.

    Every cutoff starts at -inf; each round, every overdemanded college
    raises its cutoff to its cap-th best demander, ranked by score with
    exact ties to the lower student index, and each rejected student moves
    on to the next college on their list that they can afford.  Cutoffs
    only rise, so the loop ends at the smallest market-clearing cutoffs.
    Returns the college index per student, -1 when unmatched.
    """
    n, n_col = scores.shape
    caps = np.asarray(caps, dtype=np.int64)
    cut_score = np.full(n_col, -np.inf)
    cut_student = np.full(n_col, n, dtype=np.int64)
    ptr = np.zeros(n, dtype=np.int64)  # position of the current demand in the list
    students = np.arange(n)
    window = 64  # list positions examined per step when a rejected student moves on
    while True:
        live = students[ptr < n_col]
        demand = prefs[live, ptr[live]]
        load = np.bincount(demand, minlength=n_col)
        over = load > caps
        if not over.any():
            break
        who = live[over[demand]]
        col = prefs[who, ptr[who]]
        sc = scores[who, col]
        order = np.lexsort((who, -sc, col))
        who, col, sc = who[order], col[order], sc[order]
        start = np.searchsorted(col, col, side="left")
        place = np.arange(len(col)) - start
        last = place == caps[col] - 1
        cut_score[col[last]] = sc[last]
        cut_student[col[last]] = who[last]
        rejected = who[place >= caps[col]]
        # advance each rejected student to their next affordable college
        while len(rejected):
            pos = ptr[rejected][:, None] + np.arange(1, window + 1)[None, :]
            inside = pos < n_col
            cand = prefs[rejected[:, None], np.minimum(pos, n_col - 1)]
            ok = inside & _affords(
                scores[rejected[:, None], cand], rejected[:, None], cut_score[cand], cut_student[cand]
            )
            found = ok.any(axis=1)
            first = ok.argmax(axis=1)
            ptr[rejected[found]] += first[found] + 1
            rest = rejected[~found]
            ptr[rest] = np.minimum(ptr[rest] + window, n_col)
            rejected = rest[ptr[rest] < n_col]
    out = np.full(n, -1, dtype=np.int64)
    live = students[ptr < n_col]
    out[live] = prefs[live, ptr[live]]
    return out


def cutoffs_of_assignment(scores: np.ndarray, assignment: np.ndarray, caps) -> np.ndarray:
    """The program's cutoff convention: lowest admitted score at a full college, else -inf."""
    n_col = scores.shape[1]
    out = np.full(n_col, -np.inf)
    for c in range(n_col):
        admitted = np.nonzero(assignment == c)[0]
        if len(admitted) >= caps[c]:
            out[c] = scores[admitted, c].min()
    return out


def check_reference_cutoffs(market, caps, cutoffs_row: np.ndarray) -> list[str]:
    """(c) the CLI's cutoffs equal the reference cutoffs exactly."""
    ref = cutoffs_of_assignment(
        market.scores, stable_assignment(market.scores, market.prefs, caps), caps
    )
    bad = np.nonzero(ref != cutoffs_row)[0]
    if len(bad):
        c = int(bad[0])
        return [
            f"(c) replication {market.replication}: {len(bad)} cutoffs differ from the "
            f"reference, first at college index {c}: {cutoffs_row[c]!r} != {ref[c]!r}"
        ]
    return []


# ---------------------------------------------------------------------------
# (d) reckoned amplification curve


def pareto_cdf(x, shape: float, scale: float):
    x = np.asarray(x, dtype=float)
    return np.where(x <= scale, 0.0, 1.0 - (scale / np.maximum(x, scale)) ** shape)


def reckoned_match_curve(edges, n_colleges: int, share: float, shape: float, scale: float,
                         sub: int = 200) -> tuple[np.ndarray, float]:
    """Bin averages of 1 - F(P - v)^C for v ~ U(0, 1), and the level P.

    In the continuum one pool of C colleges with uniform random preferences
    shares one cutoff P (Azevedo & Leshno 2016), so a student of value v
    matches unless all C noisy scores fall below P.  P is set by bisection
    so that the matched mass equals the seat share.
    """
    edges = np.asarray(edges, dtype=float)

    def curve(v, p):
        return 1.0 - pareto_cdf(p - v, shape, scale) ** n_colleges

    grid = (np.arange(20000) + 0.5) / 20000
    lo, hi = scale, scale + 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if curve(grid, mid).mean() > share:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    frac = (np.arange(sub) + 0.5) / sub
    avg = np.array([curve(a + (b - a) * frac, p).mean() for a, b in zip(edges[:-1], edges[1:])])
    return avg, p


def check_amplification(curve: Curve, reckoned: np.ndarray, min_count: int = 500,
                        z_max: float = 4.0) -> list[str]:
    """(d) every bin with at least min_count observations lies within z_max stderr."""
    use = curve.count >= min_count
    if not use.any():
        return [f"(d) no bin holds {min_count} observations"]
    se = np.sqrt(reckoned * (1.0 - reckoned) / np.maximum(curve.count, 1))
    z = np.abs(curve.probability - reckoned) / se
    bad = np.nonzero(use & ~(z <= z_max))[0]
    if len(bad):
        return [f"(d) bins {bad.tolist()} lie {np.round(z[bad], 2).tolist()} stderr from the reckoned curve"]
    return []
