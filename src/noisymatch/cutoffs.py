"""Admission cutoffs, the demand map, and cutoff-based diagnostics.

A cutoff vector is a plain float array with one entry per college: the
minimum admitted score for a full college and -inf for an underfilled one.
A student can afford a college when their score is at least its cutoff;
with that half-open rule the demand of every student under the extracted
cutoffs reproduces the deferred-acceptance assignment exactly.
"""

from __future__ import annotations

import numpy as np

from .market import SampledMarket
from .matching import UNMATCHED, Matching

CutoffVector = np.ndarray


def extract_cutoffs(matching: Matching) -> CutoffVector:
    """Per-college minimum admitted score; -inf where seats stay empty."""
    return matching.cutoffs


def afford_matrix(market: SampledMarket, cutoffs: CutoffVector) -> np.ndarray:
    """(n_students, n_colleges) boolean affordability table."""
    return market.scores >= np.asarray(cutoffs)[None, :]


# afford_any_stacked compares at most this many cells at a time, into one reused
# boolean block of 256 KiB.  Median time per call, one n x C comparison and
# any() against blocks of 2^16 / 2^18 / 2^20 cells, interleaved (Python 3.11,
# numpy 2.4, 2-vCPU machine):
#   fig2,        n=2000,  C=40:   0.20 vs 0.21 / 0.20 / 0.20 ms
#   fig1 Pareto, n=20000, C=1000: 25.5 vs 25.4 / 24.7 / 24.4 ms
_AFFORD_CELLS = 1 << 18


def afford_any_stacked(scores: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """Per student of R markets, whether they afford at least one college
    of their own market.

    ``scores`` is an (R, n, C) stack and ``cutoffs`` (R, C); the result,
    (R, n), equals ``(scores >= cutoffs[:, None]).any(axis=2)``.  Compares
    in blocks of at most ``_AFFORD_CELLS`` cells, several whole markets
    when one fits and row blocks of one market otherwise, so no n x C
    table is built.
    """
    n_markets, n, n_colleges = scores.shape
    rows = max(1, _AFFORD_CELLS // n_colleges)
    reps, rows = max(1, rows // n), min(rows, n)
    table = np.empty((min(reps, n_markets), rows, n_colleges), dtype=bool)
    out = np.empty((n_markets, n), dtype=bool)
    for r0 in range(0, n_markets, reps):
        r1 = min(r0 + reps, n_markets)
        for s0 in range(0, n, rows):
            s1 = min(s0 + rows, n)
            block = table[: r1 - r0, : s1 - s0]
            np.greater_equal(scores[r0:r1, s0:s1], cutoffs[r0:r1, None], out=block)
            block.any(axis=2, out=out[r0:r1, s0:s1])
    return out


def demand_all(market: SampledMarket, cutoffs: CutoffVector) -> np.ndarray:
    """Vectorised demand for every student (UNMATCHED when nothing affordable)."""
    n = market.n_students
    afford_by_rank = afford_matrix(market, cutoffs)[np.arange(n)[:, None], market.prefs]
    first = afford_by_rank.argmax(axis=1)
    chosen = market.prefs[np.arange(n), first]
    return np.where(afford_by_rank.any(axis=1), chosen, UNMATCHED)


def check_market_clearing(
    market: SampledMarket, cutoffs: CutoffVector, capacities
) -> np.ndarray:
    """Demand count minus capacity per college; all zeros means clearing."""
    caps = np.asarray(capacities, dtype=int)
    d = demand_all(market, cutoffs)
    counts = np.bincount(d[d != UNMATCHED], minlength=len(caps))
    return counts - caps


def dense_cluster(
    cutoffs: CutoffVector, delta: float, m_min: int
) -> tuple[float | None, int]:
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
