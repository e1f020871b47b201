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
from collections.abc import Iterable
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .cutoffs import afford_from_matching
from .errors import ConfigError, ReplicationError, finite_number, integer, plain
from .market import EconomyConfig, markets_per_stack, prefs_dtype, sample_stack
from .matching import UNMATCHED, stacked_deferred_acceptance


@dataclass(frozen=True)
class MatchProbability:
    """Probability of matching anywhere, binned against one coalition's value."""

    coalition_id: int
    kind = "match"


@dataclass(frozen=True)
class AffordProbability:
    """Probability of affording some college in a trimmed coalition."""

    coalition_id: int
    trim_epsilon: float = 0.0
    kind = "afford"

    def __post_init__(self):
        epsilon = finite_number(self.trim_epsilon, "trim_epsilon")
        if not 0.0 <= epsilon < 1.0:
            raise ConfigError(f"trim_epsilon must lie in [0, 1), got {epsilon}")
        object.__setattr__(self, "trim_epsilon", epsilon)


CurveRequest = MatchProbability | AffordProbability


@dataclass(frozen=True)
class ExperimentPlan:
    replications: int
    bin_edges: tuple[float, ...]
    curves: tuple[CurveRequest, ...] = ()
    record_cutoffs: bool = True

    def __post_init__(self):
        if not isinstance(cutoffs := self.record_cutoffs, bool):
            raise ConfigError(f"plan.record_cutoffs: must be true or false, got {cutoffs!r}")
        replications = integer(self.replications, "plan.replications", least=1)
        object.__setattr__(self, "replications", replications)
        if isinstance(self.bin_edges, str) or not isinstance(self.bin_edges, Iterable):
            raise ConfigError(f"plan.bin_edges: must be a list of numbers, got {self.bin_edges!r}")
        # NaN compares false, so it would pass the increasing check below
        edges = [finite_number(e, f"plan.bin_edges[{i}]") for i, e in enumerate(self.bin_edges)]
        object.__setattr__(self, "bin_edges", tuple(edges))
        for i, curve in enumerate(self.curves):
            if not isinstance(curve, CurveRequest):
                raise ConfigError(f"plan.curves[{i}]: must be a curve request, got {curve!r}")
        # a numpy integer coalition is stored as the int it equals, as the
        # replication count is, so the plan hashes as one; check_plan judges it
        curves = tuple(replace(c, coalition_id=plain(c.coalition_id)) for c in self.curves)
        object.__setattr__(self, "curves", curves)
        if len(edges) < 2:
            raise ConfigError("plan.bin_edges: need at least two edges")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigError("plan.bin_edges: edges must be strictly increasing")


def equal_width_edges(support: tuple[float, float], n_bins: int = 50) -> tuple[float, ...]:
    lo, hi = support
    return tuple(np.linspace(lo, hi, n_bins + 1))


def trim_coalition(cutoffs, college_indices, epsilon: float) -> tuple[int, ...]:
    """Drop the min(floor(epsilon * |C| + 1e-9), |C| - 1) members with the
    lowest cutoffs, breaking ties toward the lower college index."""
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
    # (e.g. 0.3 * 10) lands on the intended count; one member always survives
    drop = min(int(np.floor(epsilon * len(members) + 1e-9)), len(members) - 1)
    # a stable sort of the ascending members breaks cutoff ties by index
    ranked = members[np.argsort(cutoffs[:, members], axis=1, kind="stable")]
    return ranked[:, drop:]


@dataclass(frozen=True)
class ReplicationRecords:
    """Stacked per-replication outcomes of one experiment."""

    config: EconomyConfig
    plan: ExperimentPlan
    values: np.ndarray  # (R, N, n_coalitions) float64
    # (R, N) college index or UNMATCHED, in market.prefs_dtype(n_colleges)
    assignment: np.ndarray
    afford: dict[tuple[int, float], np.ndarray]  # (coalition_id, eps) -> (R, N) bool
    cutoffs: np.ndarray | None  # (R, n_colleges) float64, None unless plan.record_cutoffs
    # seconds spent sampling, matching and measuring affordability, summed
    # over stacks and workers
    stage_seconds: dict[str, float] = field(default_factory=dict, compare=False)
    # processes that ran the stacks: 1 is this one, more a pool's workers
    workers: int = field(default=1, compare=False)

    def matched(self) -> np.ndarray:
        return self.assignment != UNMATCHED

    def matched_coalition(self) -> np.ndarray:
        """(R, N) coalition position of the assigned college, UNMATCHED when none."""
        safe = np.clip(self.assignment, 0, None)
        return np.where(
            self.assignment != UNMATCHED, self.config.coalition_index()[safe], UNMATCHED
        )


def _afford_requests(plan: ExperimentPlan) -> list[tuple]:
    """The plan's distinct (coalition id, trim) pairs in plan order; ids of
    mixed types do not sort, and the order only keys a dict."""
    curves = [c for c in plan.curves if isinstance(c, AffordProbability)]
    return list(dict.fromkeys((c.coalition_id, c.trim_epsilon) for c in curves))


_STAGES = ("sample", "match", "afford")


def _run_stack(config: EconomyConfig, plan: ExperimentPlan, stack: range):
    """Sample a stack of consecutive replications, match it in one call and
    read affordability off the matching.

    Returns the stack's values, assignment (in ``prefs_dtype(C)``), afford
    and cutoffs (None unless the plan records them), each with one leading
    entry per replication, and the seconds of each stage.
    """
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
            kept = _survivors(cuts, config.coalition_members(coalition_id), eps)
            afford[(coalition_id, eps)] = afford_from_matching(
                scores, assignment, cuts, cut_students, kept
            )
    except (ValueError, RuntimeError) as e:
        raise ReplicationError.naming(stack, e) from e
    seconds = np.diff([started, sampled, matched, time.perf_counter()])
    # UNMATCHED = -1 fits the signed type of the college indices
    assignment = assignment.astype(prefs_dtype(config.n_colleges))
    if not plan.record_cutoffs:
        cuts = None
    return values, assignment, afford, cuts, dict(zip(_STAGES, seconds.tolist()))


def curve_id(config: EconomyConfig, curve: CurveRequest) -> str:
    """The curve's name in the outputs: its kind, its coalition's own id (a
    curve giving 1 as 1.0 prints 1) and an afford curve's trim as ``{:g}`` prints it."""
    cid = config.coalitions[config.coalition_position(curve.coalition_id)].id
    if isinstance(curve, MatchProbability):
        return f"match_value{cid}"
    return f"afford_c{cid}_trim{curve.trim_epsilon:g}"


def check_plan(config: EconomyConfig, plan: ExperimentPlan) -> None:
    """Reject a plan the config cannot run, before any replication does:
    a curve naming a coalition it cannot bin, a curve asked for twice (it
    would be written twice; trims that print alike in its id count as one),
    or edges that do not span the values of every coalition a curve bins
    (a value outside the edges would be counted in an end bin and skew it)."""
    # coalition ids print apart, so two curves share a name only when one
    # repeats the other
    first = {}  # curve id -> index of its first listing
    for i, curve in enumerate(plan.curves):
        try:
            name = curve_id(config, curve)
        except ConfigError as e:
            raise ConfigError(f"plan.curves[{i}].coalition: {e}") from e
        if name in first:
            raise ConfigError(f"plan.curves[{i}]: repeats plan.curves[{first[name]}]")
        first[name] = i
    binned = {config.coalition_position(curve.coalition_id) for curve in plan.curves}
    lo, hi = plan.bin_edges[0], plan.bin_edges[-1]
    for i, k in enumerate(config.coalitions):
        a, b = k.values.support()
        if i in binned and not lo <= a <= b <= hi:
            raise ConfigError(
                f"plan.bin_edges: [{lo!r}, {hi!r}] does not cover the support "
                f"[{a!r}, {b!r}] of coalitions[{i}].values"
            )


def run_replications(
    config: EconomyConfig, plan: ExperimentPlan, *, threads: int = 1
) -> ReplicationRecords:
    """Run every replication and stack the records in replication order.

    Replication r draws its own RNG streams from (master_seed, r), so the
    result is identical however replications are grouped.  The run cuts
    them once into stacks of consecutive markets of at most
    ``markets_per_stack`` markets (a larger market stands alone), samples
    and matches each stack in one call, and copies each stack's result into
    the records' rows as it arrives, so the records are the only arrays of
    their size this process holds.
    """
    threads = integer(threads, "threads")
    if threads < 1:
        raise ValueError(f"threads: must be at least 1, got {threads}")
    check_plan(config, plan)
    n = plan.replications
    size = markets_per_stack(config.n_students, config.n_colleges)
    if threads > 1:
        # stacks of at most a quarter of a worker's share balance the load;
        # pool.map sends them in about four batches a worker, each pickling
        # config and plan once.  Each worker keeps a core busy, so none
        # starts a helper thread (market.helper_threads_allowed).
        size = min(size, max(1, n // (4 * threads)))
    stacks = [range(i, min(i + size, n)) for i in range(0, n, size)]
    # a fork pool starts every worker at the first submit, so no more than
    # there are stacks
    workers = min(threads, len(stacks))

    shape = (n, config.n_students)
    values = np.empty(shape + (len(config.coalitions),))
    assignment = np.empty(shape, dtype=prefs_dtype(config.n_colleges))
    afford = {key: np.empty(shape, dtype=bool) for key in _afford_requests(plan)}
    cuts = np.empty((n, config.n_colleges)) if plan.record_cutoffs else None
    seconds = dict.fromkeys(_STAGES, 0.0)
    run = partial(_run_stack, config, plan)
    with ExitStack() as scope:
        if workers > 1:
            # imported here, with multiprocessing, only by a run that starts a pool
            from concurrent.futures import ProcessPoolExecutor

            pool = scope.enter_context(ProcessPoolExecutor(max_workers=workers))
            batch = max(1, len(stacks) // (4 * workers))
            parts = pool.map(run, stacks, chunksize=batch)
        else:
            parts = map(run, stacks)
        # pool.map yields in stack order and drops each result once yielded
        for stack, (v, a, f, c, s) in zip(stacks, parts):
            rows = slice(stack.start, stack.stop)
            values[rows] = v
            assignment[rows] = a
            for key, hits in f.items():
                afford[key][rows] = hits
            if cuts is not None:
                cuts[rows] = c
            for stage in _STAGES:
                seconds[stage] += s[stage]
    return ReplicationRecords(config, plan, values, assignment, afford, cuts, seconds, workers)


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


def _binned_curve(
    records: ReplicationRecords, coalition_id, flags: np.ndarray, miss
) -> MatchCurve:
    """The curve of the coalition's value column over the plan's edges: an
    observation is a hit where its entry of the flat ``flags`` is not
    ``miss``, and a value outside the edges counts in the end bin.

    The column is binned and tallied _BIN_CHUNK values at a time, by one
    integer bincount of 2 * bin + hit, so no temporary grows with the
    observations.
    """
    column = records.config.coalition_position(coalition_id)
    edges = np.asarray(records.plan.bin_edges, dtype=float)
    # a view: each chunk of the column is read in place, never copied whole
    observed = records.values.reshape(-1, records.values.shape[2])[:, column]
    tally = np.zeros(2 * (len(edges) - 1), dtype=np.int64)  # a bin's misses, then its hits
    for start in range(0, len(observed), _BIN_CHUNK):
        rows = slice(start, start + _BIN_CHUNK)
        key = _bin_of(observed[rows], edges)
        key <<= 1
        key += flags[rows] != miss
        tally += np.bincount(key, minlength=len(tally))
    hit_count = tally[1::2]
    count = tally[0::2] + hit_count
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(count > 0, hit_count / np.maximum(count, 1), np.nan)
        se = np.where(count > 0, np.sqrt(p * (1.0 - p) / np.maximum(count, 1)), np.nan)
    return MatchCurve(edges, p, se, count)


# A curve bins and counts its column this many values at a time, so its
# temporaries stay near 0.4 MiB whatever the number of observations.  At
# 2^14 a match and an afford curve on many-tiny's 600,000 values take
# 10-11 ms, within 1 ms of the fastest chunk and a quarter of its memory
# (Python 3.11, numpy 2.4, 2-vCPU machine).  CHANGES.md keeps the table.
_BIN_CHUNK = 1 << 14


def _bin_of(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``np.searchsorted(edges, values, side="right") - 1``, clipped to the
    bins, for finite values and any strictly increasing edges.

    Each value's bin is guessed from where it sits in the edges' span, then
    moved one bin toward it, for every value the edges show is off, until
    none is.  Equal-width edges are guessed right up to a rounding at an
    edge, so two passes suffice, where searchsorted bisects for every value.
    """
    last = len(edges) - 2
    scale = (last + 1) / (edges[-1] - edges[0])
    # each bin's edges; the end bins are open outward
    lower = np.concatenate(([-np.inf], edges[1:-1]))
    upper = np.concatenate((edges[1:-1], [np.inf]))
    # no name holds the guess, so it is freed before the loop
    bins = np.clip((values - edges[0]) * scale, 0, last).astype(np.intp)
    while True:
        up, down = values >= upper[bins], values < lower[bins]
        if not (up.any() or down.any()):
            return bins
        bins += up
        bins -= down


def estimate_match_curve(records: ReplicationRecords, *, coalition_id) -> MatchCurve:
    """Fraction of student-observations matched anywhere, per value bin."""
    return _binned_curve(records, coalition_id, records.assignment.reshape(-1), UNMATCHED)


def estimate_afford_curve(
    records: ReplicationRecords, coalition_id, trim_epsilon: float = 0.0
) -> MatchCurve:
    """Fraction able to afford the trimmed coalition, per value bin."""
    key = (coalition_id, trim_epsilon)
    if key not in records.afford:
        raise ConfigError(
            f"affordability was not recorded for coalition {coalition_id!r} "
            f"at trim_epsilon={trim_epsilon}; add the curve to the plan"
        )
    return _binned_curve(records, coalition_id, records.afford[key].reshape(-1), False)


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class AttenuationMetrics:
    below_mass: float
    step_deviation: float


def attenuation_metrics(curve: MatchCurve, v_s: float) -> AttenuationMetrics:
    """How far the curve is from a perfect step at the admission frontier.

    below_mass integrates the curve against the empirical value weights
    over bins entirely below v_s (the mass of matched students who should
    not have matched); step_deviation is the worst gap to the 0/1 step,
    ignoring bins whose midpoint lies within the widest bin's width of the
    discontinuity.
    """
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
