"""Monte Carlo replication harness and curve/metric estimators.

A run samples R independent markets from one config, matches each by
deferred acceptance, and records per-student outcomes plus per-college
cutoffs.  Curves are binned probabilities over true value with binomial
standard errors; metrics summarise how far a curve sits from the two
idealised limits (a step at the admission frontier, or a flat line at the
total capacity share).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cutoffs import afford_any, extract_cutoffs
from .errors import ConfigError, ReplicationError
from .market import EconomyConfig, sample_market
from .matching import UNMATCHED, deferred_acceptance


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


def curve_from_dict(d: dict) -> CurveRequest:
    kind = d.get("kind")
    if kind == "match":
        return MatchProbability(coalition_id=d.get("coalition"))
    if kind == "afford":
        return AffordProbability(
            coalition_id=d["coalition"], trim_epsilon=float(d.get("trim_epsilon", 0.0))
        )
    raise ConfigError(f"plan.curves: unknown curve kind {kind!r}")


@dataclass(frozen=True)
class ExperimentPlan:
    replications: int
    bin_edges: tuple[float, ...]
    curves: tuple[CurveRequest, ...] = ()
    record_cutoffs: bool = True

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError(f"plan.replications: must be >= 1, got {self.replications}")
        edges = tuple(float(e) for e in self.bin_edges)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "curves", tuple(self.curves))
        if len(edges) < 2:
            raise ConfigError("plan.bin_edges: need at least two edges")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigError("plan.bin_edges: edges must be strictly increasing")


def equal_width_edges(support: tuple[float, float], n_bins: int = 50) -> tuple[float, ...]:
    lo, hi = support
    return tuple(np.linspace(lo, hi, n_bins + 1))


def trim_coalition(cutoffs, college_indices, epsilon: float) -> tuple[int, ...]:
    """Drop the floor(epsilon * |C|) members with the lowest cutoffs.

    Ties break toward dropping the lower college index; the survivors are
    exactly the ceil((1 - epsilon) * |C|) highest-cutoff colleges.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    members = [int(c) for c in college_indices]
    # nudge before flooring so eps * |C| that is an integer up to float error
    # (e.g. 0.3 * 10) lands on the intended count
    drop = int(np.floor(epsilon * len(members) + 1e-9))
    cuts = np.asarray(cutoffs)
    ranked = sorted(members, key=lambda c: (cuts[c], c))
    return tuple(sorted(ranked[drop:]))


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


def _run_one(
    config: EconomyConfig, plan: ExperimentPlan, replication: int, second_thread: bool = True
):
    try:
        market = sample_market(config, replication, second_thread=second_thread)
        matching = deferred_acceptance(market, config.capacities(), second_thread=second_thread)
        cuts = extract_cutoffs(matching)
        afford = {}
        for coalition_id, eps in _afford_requests(plan):
            members = config.coalition_members(coalition_id)
            kept = np.asarray(trim_coalition(cuts, members, eps), dtype=int)
            # NaN bars the other colleges: no score, +inf included, is >= NaN.
            # Comparing in place avoids copying the kept score columns.
            bar = np.full(market.n_colleges, np.nan)
            bar[kept] = cuts[kept]
            afford[(coalition_id, eps)] = afford_any(market, bar)
        return market.values, matching.assignment, afford, cuts
    except ReplicationError:
        raise
    except (ConfigError, ValueError, RuntimeError) as e:
        raise ReplicationError(f"replication {replication}: {e}") from e


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
    """
    _check_curves(config, plan)
    n = plan.replications
    reps = range(n)
    if threads > 1 and n > 1:
        # about four chunks per worker: config and plan are pickled once per
        # chunk rather than once per replication, and the load still balances.
        # Each worker keeps a core busy, so none starts a second thread.
        chunksize = max(1, n // (4 * threads))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(
                    _run_one, [config] * n, [plan] * n, reps, [False] * n, chunksize=chunksize
                )
            )
    else:
        results = [_run_one(config, plan, r) for r in reps]

    values = np.stack([res[0] for res in results])
    assignment = np.stack([res[1] for res in results])
    afford = {
        key: np.stack([res[2][key] for res in results]) for key in _afford_requests(plan)
    }
    cuts = np.stack([res[3] for res in results]) if plan.record_cutoffs else None
    return ReplicationRecords(
        config, plan, values, assignment, afford, cuts, config.coalition_index()
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


def _binned_curve(values: np.ndarray, hits: np.ndarray, edges: np.ndarray) -> MatchCurve:
    n_bins = len(edges) - 1
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, n_bins - 1)
    count = np.bincount(idx, minlength=n_bins).astype(int)
    hit_count = np.bincount(idx, weights=hits.astype(float), minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(count > 0, hit_count / np.maximum(count, 1), np.nan)
        se = np.where(count > 0, np.sqrt(p * (1.0 - p) / np.maximum(count, 1)), np.nan)
    return MatchCurve(np.asarray(edges, dtype=float), p, se, count)


def _value_column(records: ReplicationRecords, coalition_id) -> np.ndarray:
    if coalition_id is None:
        if records.values.shape[2] != 1:
            raise ConfigError("coalition_id is required for multi-coalition economies")
        return records.values[:, :, 0].ravel()
    return records.values[:, :, records.coalition_position(coalition_id)].ravel()


def estimate_match_curve(
    records: ReplicationRecords,
    bins: Sequence[float] | None = None,
    *,
    coalition_id=None,
) -> MatchCurve:
    """Fraction of student-observations matched anywhere, per value bin."""
    edges = np.asarray(bins if bins is not None else records.plan.bin_edges, dtype=float)
    return _binned_curve(_value_column(records, coalition_id), records.matched().ravel(), edges)


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
    edges = np.asarray(bins if bins is not None else records.plan.bin_edges, dtype=float)
    return _binned_curve(
        _value_column(records, coalition_id), records.afford[key].ravel(), edges
    )


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
