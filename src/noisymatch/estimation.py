"""Monte Carlo replication harness and curve/metric estimators.

A run samples R independent markets from one config, matches each by
deferred acceptance, and records per-student outcomes plus per-college
cutoffs.  Curves are binned probabilities over true value with binomial
standard errors; metrics summarise how far a curve sits from the two
idealised limits (a step at the admission frontier, or a flat line at the
total capacity share).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cutoffs import afford_any_stacked
from . import market
from .errors import ConfigError, ReplicationError, finite_number
from .market import EconomyConfig, sample_stack
from .matching import UNMATCHED, stacked_deferred_acceptance


@dataclass(frozen=True)
class MatchProbability:
    """Probability of matching anywhere, binned against one coalition's value."""

    coalition_id: int | None = None

    def to_dict(self):
        return {"kind": "match", "coalition": self.coalition_id}


@dataclass(frozen=True)
class AffordProbability:
    """Probability of affording some college in a trimmed coalition."""

    coalition_id: int
    trim_epsilon: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.trim_epsilon < 1.0:
            raise ConfigError(f"trim_epsilon must lie in [0, 1), got {self.trim_epsilon}")

    def to_dict(self):
        return {"kind": "afford", "coalition": self.coalition_id, "trim_epsilon": self.trim_epsilon}


CurveRequest = MatchProbability | AffordProbability


def curve_from_dict(d: dict, field: str = "plan.curves") -> CurveRequest:
    """The curve a config's ``field`` entry asks for."""
    kind = d.get("kind")
    if kind == "match":
        return MatchProbability(coalition_id=d.get("coalition"))
    if kind == "afford":
        epsilon = finite_number(d.get("trim_epsilon", 0.0), f"{field}.trim_epsilon")
        return AffordProbability(coalition_id=d["coalition"], trim_epsilon=epsilon)
    raise ConfigError(f"{field}: unknown curve kind {kind!r}")


@dataclass(frozen=True)
class ExperimentPlan:
    replications: int
    bin_edges: tuple[float, ...]
    curves: tuple[CurveRequest, ...] = ()
    record_cutoffs: bool = True

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError(f"plan.replications: must be >= 1, got {self.replications}")
        # NaN compares false, so it would pass the increasing check below
        edges = [finite_number(e, f"plan.bin_edges[{i}]") for i, e in enumerate(self.bin_edges)]
        object.__setattr__(self, "bin_edges", tuple(edges))
        object.__setattr__(self, "curves", tuple(self.curves))
        if len(edges) < 2:
            raise ConfigError("plan.bin_edges: need at least two edges")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigError("plan.bin_edges: edges must be strictly increasing")


def equal_width_edges(support: tuple[float, float], n_bins: int = 50) -> tuple[float, ...]:
    lo, hi = support
    return tuple(np.linspace(lo, hi, n_bins + 1))


def trim_coalition(cutoffs, college_indices, epsilon: float) -> tuple[int, ...]:
    """Drop the floor(epsilon * |C| + 1e-9) members with the lowest cutoffs,
    breaking ties toward the lower college index.

    That keeps ceil((1 - epsilon) * |C|) members, or one fewer when
    epsilon * |C| lies less than 1e-9 below an integer, so an epsilon within
    about 1e-9 / |C| of 1 keeps none (1 - 1e-12 with |C| = 20 does).
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    kept = _survivors(np.asarray(cutoffs)[None], college_indices, epsilon)[0]
    return tuple(sorted(kept.tolist()))


def _survivors(cutoffs: np.ndarray, college_indices, epsilon: float) -> np.ndarray:
    """trim_coalition's survivors in each row of an (R, C) cutoff stack.

    Row r holds the members kept under cutoffs[r], lowest cutoff first.
    """
    members = np.sort(np.asarray(college_indices, dtype=np.int64))
    # nudge before flooring so eps * |C| that is an integer up to float error
    # (e.g. 0.3 * 10) lands on the intended count
    drop = int(np.floor(epsilon * len(members) + 1e-9))
    # a stable sort of the ascending members breaks cutoff ties by index
    ranked = members[np.argsort(cutoffs[:, members], axis=1, kind="stable")]
    return ranked[:, drop:]


@dataclass(frozen=True)
class ReplicationRecords:
    """Stacked per-replication outcomes of one experiment."""

    config: EconomyConfig
    plan: ExperimentPlan
    values: np.ndarray  # (R, N, n_coalitions)
    assignment: np.ndarray  # (R, N) college index or UNMATCHED
    afford: dict[tuple[int, float], np.ndarray]  # (coalition_id, eps) -> (R, N) bool
    cutoffs: np.ndarray | None  # (R, n_colleges)
    college_coalition: np.ndarray  # (n_colleges,) coalition position
    # seconds spent sampling, matching and measuring affordability, summed
    # over stacks and workers
    stage_seconds: dict[str, float] = field(default_factory=dict, compare=False)
    # (value column, bin edges) -> bin of every student-observation
    _bins: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_replications(self) -> int:
        return self.values.shape[0]

    def matched(self) -> np.ndarray:
        return self.assignment != UNMATCHED

    def matched_coalition(self) -> np.ndarray:
        """(R, N) coalition position of the assigned college, UNMATCHED when none."""
        safe = np.clip(self.assignment, 0, None)
        return np.where(
            self.assignment != UNMATCHED, self.college_coalition[safe], UNMATCHED
        )

    def coalition_position(self, coalition_id) -> int:
        for k, coalition in enumerate(self.config.coalitions):
            if coalition.id == coalition_id:
                return k
        raise ConfigError(f"unknown coalition id {coalition_id!r}")


def _afford_requests(plan: ExperimentPlan) -> list[tuple[int, float]]:
    return sorted(
        {(c.coalition_id, c.trim_epsilon) for c in plan.curves if isinstance(c, AffordProbability)}
    )


def _run_chunk(config: EconomyConfig, plan: ExperimentPlan, replications: range):
    """Sample, match and measure consecutive replications, in stacks of
    consecutive markets of at most ``market._BLOCK_CELLS`` cells; a larger
    market is stacked alone.

    Returns the chunk's values, assignment, afford and cutoffs, each with
    one leading entry per replication, and the seconds of each stage.
    """
    per_stack = max(1, market._BLOCK_CELLS // (config.n_students * config.n_colleges))
    stacks = [replications[i : i + per_stack] for i in range(0, len(replications), per_stack)]
    return _concatenate([_run_stack(config, plan, s) for s in stacks], _afford_requests(plan))


_STAGES = ("sample", "match", "afford")


def _run_stack(config: EconomyConfig, plan: ExperimentPlan, stack: range):
    """Sample a stack's replications and match them in one call each, and
    measure affordability on the whole stack."""
    started = time.perf_counter()
    values, prefs, scores = sample_stack(config, stack)
    sampled = time.perf_counter()
    try:
        assignment, cuts, cut_students = stacked_deferred_acceptance(
            prefs, scores, config.capacities()
        )
        matched = time.perf_counter()
        afford = {}
        for coalition_id, eps in _afford_requests(plan):
            members = config.coalition_members(coalition_id)
            # NaN bars the other colleges: no score, +inf included, reaches
            # NaN.  Comparing in place avoids copying the kept score columns.
            bars = np.full(cuts.shape, np.nan)
            kept = _survivors(cuts, members, eps)
            slot = np.arange(len(cuts))[:, None]
            bars[slot, kept] = cuts[slot, kept]
            afford[(coalition_id, eps)] = afford_any_stacked(scores, bars, cut_students)
    except (ConfigError, ValueError, RuntimeError) as e:
        raise ReplicationError.naming(stack, e) from e
    seconds = np.diff([started, sampled, matched, time.perf_counter()])
    return values, assignment, afford, cuts, dict(zip(_STAGES, seconds.tolist()))


def _concatenate(parts, requests):
    """Join (values, assignment, afford, cutoffs, seconds) parts along
    replications, summing the seconds."""
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        {key: np.concatenate([p[2][key] for p in parts]) for key in requests},
        np.concatenate([p[3] for p in parts]),
        {stage: sum(p[4][stage] for p in parts) for stage in _STAGES},
    )


def _check_curves(config: EconomyConfig, plan: ExperimentPlan) -> None:
    """Reject curves naming a coalition they cannot bin, before any replication runs."""
    ids = {k.id for k in config.coalitions}
    for i, curve in enumerate(plan.curves):
        cid = curve.coalition_id
        where = f"plan.curves[{i}].coalition"
        if cid is None and isinstance(curve, MatchProbability):
            if len(ids) != 1:
                raise ConfigError(f"{where}: required for multi-coalition economies")
        elif cid not in ids:
            raise ConfigError(f"{where}: coalition {cid!r} has no colleges")


def run_replications(
    config: EconomyConfig, plan: ExperimentPlan, *, threads: int = 1
) -> ReplicationRecords:
    """Run every replication and stack the records in replication order.

    Replication r draws its own RNG streams from (master_seed, r), so the
    result is identical whether replications run serially or in a pool.
    A serial run is one chunk of consecutive replications and a pool task
    another; each chunk samples and matches its markets in stacks of up to
    ``market._BLOCK_CELLS`` cells, which leaves every replication's result
    as it would be alone.
    """
    if threads < 1:
        raise ValueError(f"threads: must be at least 1, got {threads}")
    _check_curves(config, plan)
    n = plan.replications
    if threads > 1 and n > 1:
        # about four chunks per worker: config and plan are pickled once per
        # chunk, each chunk returns a few stacked arrays, and the load still
        # balances.  Each worker keeps a core busy, so none starts a helper
        # thread (market.helper_threads_allowed).
        size = max(1, n // (4 * threads))
        chunks = [range(i, min(i + size, n)) for i in range(0, n, size)]
        k = len(chunks)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_run_chunk, [config] * k, [plan] * k, chunks))
    else:
        parts = [_run_chunk(config, plan, range(n))]

    values, assignment, afford, cuts, seconds = _concatenate(parts, _afford_requests(plan))
    if not plan.record_cutoffs:
        cuts = None
    return ReplicationRecords(
        config, plan, values, assignment, afford, cuts, config.coalition_index(), seconds
    )


# ---------------------------------------------------------------------------
# curves


@dataclass(frozen=True)
class MatchCurve:
    """Binned probability estimate with binomial standard errors.

    Empty bins report NaN probability (missing, not zero) and zero count.
    """

    bin_edges: np.ndarray
    probability: np.ndarray
    stderr: np.ndarray
    count: np.ndarray

    @property
    def v_mid(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def bin_width(self) -> np.ndarray:
        return np.diff(self.bin_edges)


def _binned_curve(idx: np.ndarray, hits: np.ndarray, edges: np.ndarray) -> MatchCurve:
    n_bins = len(edges) - 1
    count = np.bincount(idx, minlength=n_bins).astype(int)
    hit_count = np.bincount(idx, weights=hits.astype(float), minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(count > 0, hit_count / np.maximum(count, 1), np.nan)
        se = np.where(count > 0, np.sqrt(p * (1.0 - p) / np.maximum(count, 1)), np.nan)
    return MatchCurve(edges, p, se, count)


def _bin_index(records: ReplicationRecords, coalition_id, bins) -> tuple[np.ndarray, np.ndarray]:
    """The edges, and the bin of every student-observation's value in the
    coalition's column.  A value outside the edges counts in the end bin.

    Computed once per (column, edges) and kept on the records, so the
    curves of one column share it.
    """
    edges = np.asarray(bins if bins is not None else records.plan.bin_edges, dtype=float)
    if coalition_id is None:
        if records.values.shape[2] != 1:
            raise ConfigError("coalition_id is required for multi-coalition economies")
        column = 0
    else:
        column = records.coalition_position(coalition_id)
    key = (column, edges.tobytes())
    if key not in records._bins:
        values = records.values[:, :, column].ravel()
        idx = np.searchsorted(edges, values, side="right") - 1
        records._bins[key] = np.clip(idx, 0, len(edges) - 2, out=idx)
    return edges, records._bins[key]


def estimate_match_curve(
    records: ReplicationRecords,
    bins: Sequence[float] | None = None,
    *,
    coalition_id=None,
) -> MatchCurve:
    """Fraction of student-observations matched anywhere, per value bin."""
    edges, idx = _bin_index(records, coalition_id, bins)
    return _binned_curve(idx, records.matched().ravel(), edges)


def estimate_afford_curve(
    records: ReplicationRecords,
    coalition_id,
    trim_epsilon: float = 0.0,
    bins: Sequence[float] | None = None,
) -> MatchCurve:
    """Fraction able to afford the trimmed coalition, per value bin."""
    key = (coalition_id, trim_epsilon)
    if key not in records.afford:
        raise ConfigError(
            f"affordability was not recorded for coalition {coalition_id!r} "
            f"at trim_epsilon={trim_epsilon}; add the curve to the plan"
        )
    edges, idx = _bin_index(records, coalition_id, bins)
    return _binned_curve(idx, records.afford[key].ravel(), edges)


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class AttenuationMetrics:
    below_mass: float
    step_deviation: float


def attenuation_metrics(
    curve: MatchCurve, v_s: float, *, margin: float | None = None
) -> AttenuationMetrics:
    """How far the curve is from a perfect step at the admission frontier.

    below_mass integrates the curve against the empirical value weights
    over bins entirely below v_s (the mass of matched students who should
    not have matched); step_deviation is the worst gap to the 0/1 step,
    ignoring bins within one margin of the discontinuity.
    """
    if margin is None:
        margin = float(curve.bin_width.max())
    total = curve.count.sum()
    below = curve.bin_edges[1:] <= v_s + 1e-12
    ok = curve.count > 0
    below_mass = float(
        np.sum(curve.probability[below & ok] * curve.count[below & ok]) / total
    )
    mid = curve.v_mid
    step = (mid > v_s).astype(float)
    away = (np.abs(mid - v_s) >= margin) & ok
    step_dev = float(np.abs(curve.probability[away] - step[away]).max()) if away.any() else 0.0
    return AttenuationMetrics(below_mass, step_dev)


def amplification_metrics(curve: MatchCurve, s_total: float, *, min_count: int = 1) -> float:
    """Largest deviation from the flat all-noise benchmark across bins."""
    ok = curve.count >= max(min_count, 1)
    if not ok.any():
        return float("nan")
    return float(np.abs(curve.probability[ok] - s_total).max())


def steepest_ascent_bin(curve: MatchCurve) -> float:
    """Midpoint between the adjacent bins with the largest probability rise.

    Point estimate of where an afford curve jumps; reported as a location
    only, with no claim that it equals any theoretical threshold.
    """
    p = curve.probability
    ok = ~np.isnan(p)
    mids = curve.v_mid[ok]
    vals = p[ok]
    if len(vals) < 2:
        return float("nan")
    i = int(np.argmax(np.diff(vals)))
    return float(0.5 * (mids[i] + mids[i + 1]))
