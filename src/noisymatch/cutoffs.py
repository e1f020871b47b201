"""Admission bars, the demand map, and the decay-rate exponent.

A college's bar is its worst admit (score, student), a Matching's
``cutoffs`` and ``cut_students``; (-inf, n) with a free seat.  A student
affords a college when they clear its bar by ``matching._clears``: a higher
score, or an equal one and an index no higher than the bar's student.  The
fixed point, the blocking-pair scan, demand and affordability share that
one rule, so demand under a matching's bars is its assignment, ties
included.  Pareto noise of shape 0.005 overflows to +inf in ~1 draw in 35;
on fig1 (n=2000, C=100, R=20) every cutoff was then +inf, and only the index
told an admit from a student rejected at the same score.  Bare float
cutoffs take n as every bar student, so a score equal to its cutoff clears.
"""

from __future__ import annotations

import numpy as np

from .market import SampledMarket, stack_blocks
from .matching import UNMATCHED, Matching, _clears


def extract_cutoffs(matching: Matching) -> np.ndarray:
    """Per-college minimum admitted score; -inf where seats stay empty."""
    # kept for the benchmark's traced pass, its only caller
    return matching.cutoffs


def afford_matrix(market: SampledMarket, cutoffs: np.ndarray) -> np.ndarray:
    """(n_students, n_colleges) boolean table of score >= cutoff."""
    # kept for the benchmark's traced pass, its only caller: the one half-open table left
    return market.scores >= np.asarray(cutoffs)[None, :]


def _cleared_blocks(scores: np.ndarray, cutoffs: np.ndarray, cut_students: np.ndarray):
    """Whether each score of an (R, n, C) stack clears its college's bar in
    its own market, in the blocks of ``stack_blocks``, so no n x C table is
    built.  Yields each block's (markets, rows) index and its result."""
    student = np.arange(scores.shape[1])
    for (reps, rows), _ in stack_blocks(scores.shape, bool):
        bars = cutoffs[reps, None], cut_students[reps, None]
        yield (reps, rows), _clears(scores[reps, rows], student[rows, None], *bars, ...)


def afford_any_stacked(
    scores: np.ndarray, cutoffs: np.ndarray, cut_students: np.ndarray
) -> np.ndarray:
    """Per student of R markets, whether they clear the bar of at least one
    college of their own market.

    ``scores`` is an (R, n, C) stack, and ``cutoffs`` and ``cut_students``
    are (R, C) bars in each slot's own student indices.  A NaN cutoff bars
    every score, +inf included.
    """
    out = np.empty(scores.shape[:2], dtype=bool)
    for (reps, rows), cleared in _cleared_blocks(scores, cutoffs, cut_students):
        cleared.any(axis=2, out=out[reps, rows])
    return out


def demand_all(market: SampledMarket, cutoffs: np.ndarray, cut_students: np.ndarray) -> np.ndarray:
    """Each student's favourite college whose bar they clear, UNMATCHED when none."""
    demand = np.empty(market.n_students, dtype=np.int64)
    bars = np.asarray(cutoffs, dtype=float)[None], np.asarray(cut_students)[None]
    for (_, rows), cleared in _cleared_blocks(market.scores[None], *bars):
        prefs = market.prefs[rows]
        k = np.arange(len(prefs))
        by_rank = cleared[0][k[:, None], prefs]
        first = by_rank.argmax(axis=1)
        demand[rows] = np.where(by_rank[k, first], prefs[k, first], UNMATCHED)
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
    """Polynomial decay exponent of the mismatched mass in the college count."""
    if beta <= 0 or gamma <= 0:
        raise ValueError(f"beta and gamma must be positive, got beta={beta}, gamma={gamma}")
    return 2.0 * beta * gamma / (3.0 * beta * gamma + 2.0 * beta + 5.0 * gamma + 6.0)
