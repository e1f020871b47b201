"""Admission bars, the demand map, and the decay-rate exponent.

A college's bar is its worst admit (score, student), a Matching's
``cutoffs`` and ``cut_students``; (-inf, n) with a free seat.  A student
affords a college when they clear its bar by ``matching._clears``: a higher
score, or an equal one and an index no higher than the bar's student.  The
fixed point, affordability, and demand and the blocking-pair scan (both
through ``matching._cleared_in_order``) share that one rule, so demand
under a matching's bars is its assignment, ties included.  Pareto noise of
shape 0.005 overflows to +inf in ~1 draw in 35; on fig1 (n=2000, C=100,
R=20) every cutoff was then +inf, and only the index told an admit from a
student rejected at the same score.  Bare float cutoffs take n as every
bar student, so a score equal to its cutoff clears.

Affordability of a set K of colleges is read off the matching that set the
bars (``afford_from_matching``): true for a student matched into K, false
for an unmatched student, and the bar comparison against K's bars only for a
student matched to a college outside K.  This is exact because every
preference model ranks every college, and a college's bar only rises during
the fixed point.  So an unmatched student was turned away by every college,
each time by a bar no higher than its final one, and fails every final bar;
with a free seat anywhere, no student is unmatched.  A matched student is
one of their college's admits, so they clear its bar, the worst admit's.
"""

from __future__ import annotations

import numpy as np

from . import market as sampling
from .market import SampledMarket
from .matching import UNMATCHED, Matching, _cleared_in_order, _clears


def extract_cutoffs(matching: Matching) -> np.ndarray:
    """Per-college minimum admitted score; -inf where seats stay empty."""
    # kept for the benchmark's traced pass, its only caller
    return matching.cutoffs


def afford_matrix(market: SampledMarket, cutoffs: np.ndarray) -> np.ndarray:
    """(n_students, n_colleges) boolean table of score >= cutoff."""
    # kept for the benchmark's traced pass, its only caller: the one half-open table left
    return market.scores >= np.asarray(cutoffs)[None, :]


def afford_from_matching(
    scores: np.ndarray,
    assignment: np.ndarray,
    cutoffs: np.ndarray,
    cut_students: np.ndarray,
    kept: np.ndarray,
) -> np.ndarray:
    """Per student of R markets, whether they clear the bar of some college
    of ``kept[r]`` in their own market, where the bars are those of the
    matching ``assignment``: ``demand_all != UNMATCHED`` with NaN bars off kept.

    ``kept`` is an (R, k) array of college indices, and the rest are the
    (R, n, C) scores, (R, n) assignment and (R, C) bars of the stacked fixed
    point.  A student matched into kept affords it and an unmatched student
    affords nothing (see the module docstring); only the students matched
    elsewhere are compared with kept's bars, in chunks of at most
    ``_BLOCK_CELLS // 8`` cells, so a chunk's gathered float64 and index
    temporaries stay near ``_BLOCK_CELLS`` bytes.
    """
    n_markets, _, n_colleges = scores.shape
    slot = np.arange(n_markets)[:, None]
    # the last column stands for UNMATCHED (-1), which is in no set
    member = np.zeros((n_markets, n_colleges + 1), dtype=bool)
    member[slot, kept] = True
    afford = member[slot, assignment]
    reps, students = np.nonzero((assignment != UNMATCHED) & ~afford)
    bar_score, bar_student = cutoffs[slot, kept], cut_students[slot, kept]
    rows = max(1, sampling._BLOCK_CELLS // 8 // kept.shape[1])
    for i in range(0, len(reps), rows):
        r, s = reps[i : i + rows], students[i : i + rows]
        score = scores[r[:, None], s[:, None], kept[r]]
        afford[r, s] = _clears(score, s[:, None], bar_score, bar_student, r).any(axis=1)
    return afford


def demand_all(market: SampledMarket, cutoffs: np.ndarray, cut_students: np.ndarray) -> np.ndarray:
    """Each student's favourite college whose bar they clear, UNMATCHED when none.

    Reads the first cleared choice of each row slice of
    ``matching._cleared_in_order``, so no n x C table is built.
    """
    demand = np.empty(market.n_students, dtype=np.int64)
    bars = np.asarray(cutoffs, dtype=float), np.asarray(cut_students)
    for rows, prefs, cleared in _cleared_in_order(market, *bars):
        k = np.arange(len(prefs))
        first = cleared.argmax(axis=1)
        demand[rows] = np.where(cleared[k, first], prefs[k, first], UNMATCHED)
    return demand


def check_market_clearing(
    market: SampledMarket, cutoffs: np.ndarray, cut_students: np.ndarray, capacities
) -> np.ndarray:
    """Demand count minus capacity per college; all zeros means clearing."""
    caps = np.asarray(capacities, dtype=int)
    d = demand_all(market, cutoffs, cut_students)
    counts = np.bincount(d[d != UNMATCHED], minlength=len(caps))
    return counts - caps


def rate_exponent(beta: float, gamma: float) -> float:
    """Polynomial decay exponent of the mismatched mass in the college count.

    gamma is the value law's Holder exponent: every law ``values`` builds is Lipschitz, so 1."""
    if beta <= 0 or gamma <= 0:
        raise ValueError(f"beta and gamma must be positive, got beta={beta}, gamma={gamma}")
    return 2.0 * beta * gamma / (3.0 * beta * gamma + 2.0 * beta + 5.0 * gamma + 6.0)
