"""Admission cutoffs, the demand map, and cutoff-based diagnostics.

A cutoff vector is a plain float array with one entry per college: the
minimum admitted score for a full college and -inf for an underfilled one.
A student can afford a college when their score is at least its cutoff.
With that half-open rule the demand of every student under the extracted
cutoffs reproduces the deferred-acceptance assignment whenever there is no
exact tie at a full college's cutoff: no student but the admit who sets it
scores exactly the cutoff there.  Under continuous noise such a tie has
probability zero.  With one, deferred acceptance gives the seat to the
lower student index, while demand lets every tied student afford it: two
students scored 0.5 for one seat are assigned [0, -1] but demand [0, 0].
"""

from __future__ import annotations

import numpy as np

from .market import SampledMarket, stack_blocks
from .matching import UNMATCHED, Matching


def extract_cutoffs(matching: Matching) -> np.ndarray:
    """Per-college minimum admitted score; -inf where seats stay empty."""
    return matching.cutoffs


def afford_matrix(market: SampledMarket, cutoffs: np.ndarray) -> np.ndarray:
    """(n_students, n_colleges) boolean affordability table."""
    return market.scores >= np.asarray(cutoffs)[None, :]


def afford_any_stacked(scores: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """Per student of R markets, whether they afford at least one college
    of their own market.

    ``scores`` is an (R, n, C) stack and ``cutoffs`` (R, C); the result,
    (R, n), equals ``(scores >= cutoffs[:, None]).any(axis=2)``.  Compares
    in the blocks of ``stack_blocks``, so no n x C table is built.
    """
    out = np.empty(scores.shape[:2], dtype=bool)
    for (reps, rows), block in stack_blocks(scores.shape, bool):
        np.greater_equal(scores[reps, rows], cutoffs[reps, None], out=block)
        block.any(axis=2, out=out[reps, rows])
    return out


def demand_all(market: SampledMarket, cutoffs: np.ndarray) -> np.ndarray:
    """Vectorised demand for every student (UNMATCHED when nothing affordable)."""
    n = market.n_students
    afford_by_rank = afford_matrix(market, cutoffs)[np.arange(n)[:, None], market.prefs]
    first = afford_by_rank.argmax(axis=1)
    chosen = market.prefs[np.arange(n), first]
    return np.where(afford_by_rank.any(axis=1), chosen, UNMATCHED)


def check_market_clearing(market: SampledMarket, cutoffs: np.ndarray, capacities) -> np.ndarray:
    """Demand count minus capacity per college; all zeros means clearing."""
    caps = np.asarray(capacities, dtype=int)
    d = demand_all(market, cutoffs)
    counts = np.bincount(d[d != UNMATCHED], minlength=len(caps))
    return counts - caps


def dense_cluster(cutoffs: np.ndarray, delta: float, m_min: int) -> tuple[float | None, int]:
    """Smallest cutoff value whose window [p, p+delta] holds >= m_min cutoffs.

    Underfilled (-inf) entries are excluded.  The minimiser is always
    attained at a cutoff value, so only those are scanned.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if m_min < 1:
        raise ValueError(f"m_min must be >= 1, got {m_min}")
    finite = np.sort(np.asarray(cutoffs)[np.isfinite(cutoffs)])
    hi = np.searchsorted(finite, finite + delta, side="right")
    counts = hi - np.arange(len(finite))
    qualifying = np.nonzero(counts >= m_min)[0]
    if len(qualifying) == 0:
        return None, 0
    i = qualifying[0]
    return float(finite[i]), int(counts[i])


def rate_exponent(beta: float, gamma: float) -> float:
    """Polynomial decay exponent of the mismatched mass in the college count."""
    if beta <= 0 or gamma <= 0:
        raise ValueError(f"beta and gamma must be positive, got beta={beta}, gamma={gamma}")
    return 2.0 * beta * gamma / (3.0 * beta * gamma + 2.0 * beta + 5.0 * gamma + 6.0)
