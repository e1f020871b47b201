"""Student-proposing deferred acceptance and stability verification.

Colleges rank students by score; exact score ties are broken in favour of
the lower student index, and the same tie-broken order is used both inside
the algorithm and in the blocking-pair scan so the two never disagree.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import market as sampling
from .market import SampledMarket, prefs_dtype

UNMATCHED = -1


@dataclass(frozen=True)
class Matching:
    """A matching as its assignment and each college's (score, student) bar."""

    assignment: np.ndarray  # (n_students,) college index or UNMATCHED
    cutoffs: np.ndarray  # (n_colleges,) lowest admitted score; -inf with a free seat
    cut_students: np.ndarray  # (n_colleges,) worst admit at that score; n with a free seat
    capacities: tuple[int, ...]


# Rounds that reject at least this many students scan them on two threads.
# numpy releases the GIL inside the gathers, comparisons and argmax of the scan,
# so the halves overlap; on a small set the thread handoff and the GIL
# taken between numpy calls cost more than they save.  Median time per call
# of the fixed point, serial scan against this minimum (against a split
# of every round), three sampled markets per shape, interleaved (Python
# 3.11, numpy 2.4, 2-vCPU machine):
#   fig2 uniform,  n=2000,  C=40   (80,000 cells, <= 1,500 rejected/round):
#                                    7.6 ms vs 7.6 ms (every round: 9.9 ms)
#   fig1 Pareto,   n=4000,  C=100  (0.4 M cells): 23.7 vs 23.3 ms (27.1 ms)
#   fig1 Pareto,   n=8000,  C=128  (1.0 M cells, median 1,587 rejected):
#                                    41.4 vs 43.1 ms (45.7 ms; 4096: 41.0 ms)
#   fig1 Pareto,   n=20000, C=100  (2 M cells): 118 vs 104 ms (99 ms)
#   fig1 uniform,  n=20000, C=1000 (20 M cells): 388 vs 248 ms (1024: 252 ms)
#   fig1 Pareto,   n=20000, C=1000 (20 M cells, median 5,740 rejected):
#                                    703 vs 411 ms (1024: 420, 4096: 440 ms)
_SCAN_SPLIT_MIN_STUDENTS = 2048

# Each step of the rejected-student scan covers at most this many (student,
# list position) cells at once, so its half-dozen int64 and float64
# temporaries stay near 3 MiB a thread however many students a round
# rejects.  Students move independently within a round, so slicing does not
# change the Matching; a step that fits in one slice runs as a single call.
# Median time per call of deferred_acceptance, int32 prefs and no slices
# (the earlier code) against int16 prefs and slices of 2^14 / 2^16 / 2^18 /
# unbounded cells, interleaved (Python 3.11, numpy 2.4, 2-vCPU machine):
#   fig2 uniform, n=2000,  C=20+20: 11.4 vs 11.5 / 11.4 / 11.3 / 11.3 ms
#   fig1 Pareto,  n=2000,  C=100:   12.8 vs 12.8 / 12.3 / 12.2 / 12.0 ms
#   fig1 Pareto,  n=20000, C=100:    129 vs  133 /  124 /  128 /  120 ms
#   fig1 Pareto,  n=20000, C=1000:   451 vs  447 /  391 /  383 /  402 ms
#   fig1 uniform, n=20000, C=1000:   306 vs  316 /  282 /  280 /  274 ms
# and tracemalloc's peak over the call, fig1 Pareto, n=20000, serial scan
# (in brackets, every round split):
#   C=200:  2.0 (2.4) / 3.6 (5.0) / 8.5 (9.8) / 10.1 (9.7) MiB
#   C=1000: 2.0 (2.5) / 3.6 (5.2) / 8.7 (15.5) / 40.3 (40.2) MiB
_SCAN_CELLS = 1 << 16


def _capacity_list(capacities: Sequence[int], n_colleges: int) -> list[int]:
    caps = list(capacities)
    if len(caps) != n_colleges:
        raise ValueError(f"capacities: expected {n_colleges} entries, got {len(caps)}")
    for i, c in enumerate(caps):
        if not (c >= 1 and float(c).is_integer()):
            raise ValueError(f"capacities[{i}]: must be a positive integer, got {c!r}")
    return [int(c) for c in caps]


def _worst_admits(col, student, score, cap, n_students) -> tuple[np.ndarray, np.ndarray]:
    """(score, student) of each college's worst admit in a roster, where
    admit i is ``student[i]`` at college ``col[i]`` with ``score[i]``: the
    lowest score, then of the admits tied at it the highest index.  A
    college with a free seat gets (-inf, n_students), which every student
    clears."""
    n_colleges = len(cap)
    bar_score = np.full(n_colleges, np.inf)
    np.minimum.at(bar_score, col, score)
    tied = score == bar_score[col]
    bar_student = np.full(n_colleges, -1, dtype=np.int64)
    np.maximum.at(bar_student, col[tied], student[tied])
    free = np.bincount(col, minlength=n_colleges) < cap
    bar_score[free] = -np.inf
    bar_student[free] = n_students
    return bar_score, bar_student


def _clears(score, student, bar_score, bar_student, at) -> np.ndarray:
    """Whether each score clears the bar of its college ``at``: a higher score,
    or an equal one and a student index no higher than the bar's student (who
    is that admit), read only when some score ties."""
    bar = bar_score[at]
    ok = score > bar
    tie = score == bar
    if tie.any():
        ok |= tie & (student <= bar_student[at])
    return ok


def deferred_acceptance(market: SampledMarket, capacities: Sequence[int]) -> Matching:
    """Student-optimal stable matching for the sampled market: the
    one-market case of ``stacked_deferred_acceptance``.

    The market's prefs and scores are matched in place, without a copy.
    """
    caps = _capacity_list(capacities, market.n_colleges)
    stacked = stacked_deferred_acceptance(market.prefs[None], market.scores[None], caps)
    return Matching(*(part[0] for part in stacked), tuple(caps))


def stacked_deferred_acceptance(
    prefs: np.ndarray, scores: np.ndarray, capacities: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Student-optimal stable matchings of R markets of one shape, in one pass.

    ``prefs`` and ``scores`` are (R, n, C) stacks of the markets' matrices,
    and every market has the same ``capacities``.  The stack is matched as
    one disjoint union: student s of slot r is student r*n + s of the union
    and college c of slot r is college r*C + c.  A student's list positions
    and scores are read at row offset (r*n + s)*C with the slot's own
    college indices, and cutoffs are read at the union's, so no market ever
    touches another.  Deferred acceptance on a disjoint union gives the
    union of the parts' student-optimal matchings, so each slot gets
    exactly what its market would get alone.

    The union is matched by the cutoff-raising fixed point.  Every cutoff
    starts at -inf and each student proposes to their first choice.  Each
    round, every overdemanded college raises its cutoff to its cap-th best
    demander under the composite key (score, lower student index wins), and
    each rejected student moves on to the next college on their list that
    they can afford.  Cutoffs only rise, so a college a student cannot
    afford now would reject them later too; the loop ends at the smallest
    market-clearing cutoffs, which give the student-optimal stable matching
    (Azevedo & Leshno 2016).

    Within a round the rejected students move independently: each reads
    only the round's cutoffs and writes only its own pos and college
    entries.  So where ``market.helper_threads_allowed()``, a round that
    rejects at least ``_SCAN_SPLIT_MIN_STUDENTS`` students scans half of
    them on a helper thread.  The result is the same either way.

    Returns the (R, n) assignment, in each slot's own college indices or
    UNMATCHED, and each college's worst admit as (R, C) cutoffs and cut
    students (in the slot's own indices), -inf and n with a free seat.
    """
    n_markets, n, n_colleges = scores.shape
    cap = np.tile(np.asarray(_capacity_list(capacities, n_colleges), dtype=np.int64), n_markets)
    prefs = np.ascontiguousarray(prefs).ravel()
    scores = np.ascontiguousarray(scores, dtype=float).ravel()
    n_union = n_markets * n_colleges
    # flat offset of each student's row in prefs and in scores
    row = np.arange(n_markets * n, dtype=np.int64) * n_colleges
    if n_markets > 1:
        first = np.repeat(np.arange(n_markets, dtype=np.int64) * n_colleges, n)  # slot's college 0
        at_union = row - first  # scores row offset for a union college index
    else:
        first = None
        at_union = row
    # up to 32768 colleges, numpy's stable sort of an int16 key is a radix sort
    college_key = prefs_dtype(n_union)

    cut_score = np.full(n_union, -np.inf)
    cut_student = np.full(n_union, n_markets * n, dtype=np.int64)
    pos = np.zeros(n_markets * n, dtype=np.int64)  # list position of each current proposal
    college = prefs[row].astype(np.int64)  # current proposal, UNMATCHED once the list runs out
    if first is not None:
        college += first
    scan = (n_colleges, prefs, scores, row, first, cut_score, cut_student, pos, college)

    split = sampling.helper_threads_allowed()
    with ThreadPoolExecutor(max_workers=1) if split else nullcontext() as helper:
        while True:
            load = np.bincount(college + 1, minlength=n_union + 1)[1:]
            over = load > cap
            if not over.any():
                break
            who = np.flatnonzero(np.append(over, False)[college])  # UNMATCHED reads the False
            col = college[who]
            sc = scores[at_union[who] + col]
            # order by (college, score descending, student): who is ascending,
            # so a stable sort by score keeps equal scores in student order
            neg = -sc
            order = np.argsort(neg)
            ranked = neg[order]
            if (ranked[1:] == ranked[:-1]).any():
                order = np.argsort(neg, kind="stable")
            order = order[np.argsort(col[order].astype(college_key), kind="stable")]
            who, col, sc = who[order], col[order], sc[order]
            # each demander's place in its college's line: col is sorted, and
            # the overdemanded colleges' loads give where each line starts
            lines = load[over]
            place = np.arange(len(who)) - np.repeat(np.cumsum(lines) - lines, lines)
            last = place == cap[col] - 1
            cut_score[col[last]] = sc[last]
            cut_student[col[last]] = who[last]
            rejected = who[place >= cap[col]]
            if helper is not None and len(rejected) >= _SCAN_SPLIT_MIN_STUDENTS:
                half = len(rejected) // 2
                future = helper.submit(_advance, rejected[half:], *scan)
                try:
                    _advance(rejected[:half], *scan)
                finally:
                    # join before the next round changes the cutoffs, and read
                    # the result even when this half fails, so its error is not lost
                    future.result()
            else:
                _advance(rejected, *scan)

    matched = np.flatnonzero(college != UNMATCHED)
    col = college[matched]
    # a college's admits all sit in one slot, so slot-local indices order them alike
    cutoffs, cut_students = _worst_admits(col, matched % n, scores[at_union[matched] + col], cap, n)
    if first is not None:
        college[matched] -= first[matched]
    return tuple(part.reshape(n_markets, -1) for part in (college, cutoffs, cut_students))


def _advance(rejected, n_colleges, prefs, scores, row, first, cut_score, cut_student, pos, college):
    """Move each rejected student to the next college on their list they can afford.

    Scans a window of list positions per step over the rejected students
    only, doubling it for those who found nothing; a student who runs out
    of list becomes UNMATCHED.  A step that would cover more than
    ``_SCAN_CELLS`` cells scans its students in slices of that many.
    Updates pos and college in place.
    """
    # a window past the list's end only repeats its last college
    window = min(8, n_colleges - 1)
    while True:
        done = pos[rejected] >= n_colleges - 1
        college[rejected[done]] = UNMATCHED
        rejected = rejected[~done]
        if not len(rejected):
            return
        step = (window, n_colleges, prefs, scores, row, first, cut_score, cut_student, pos, college)
        rows = max(1, _SCAN_CELLS // window)
        if len(rejected) <= rows:
            rejected = _scan_window(rejected, *step)
        else:
            rejected = np.concatenate(
                [_scan_window(rejected[i : i + rows], *step) for i in range(0, len(rejected), rows)]
            )
        window = min(2 * window, 256)


def _scan_window(
    rejected, window, n_colleges, prefs, scores, row, first, cut_score, cut_student, pos, college
):
    """One step of _advance: the students who found nothing in the window."""
    # positions past the end repeat the last college, which is examined at
    # its own position first, so the first affordable hit is a real one
    at = np.minimum(pos[rejected, None] + np.arange(1, window + 1), n_colleges - 1)
    base = row[rejected, None]
    cand = prefs[base + at]
    sc = scores[base + cand]
    if first is not None:
        cand = cand + first[rejected, None]  # the slot's college index in the union
    ok = _clears(sc, rejected[:, None], cut_score, cut_student, cand)
    first_hit = ok.argmax(axis=1)
    k = np.arange(len(rejected))
    found = ok[k, first_hit]
    hit = rejected[found]
    pos[hit] += first_hit[found] + 1
    college[hit] = cand[k[found], first_hit[found]]
    rejected = rejected[~found]
    pos[rejected] += window
    return rejected


def find_blocking_pairs(matching: Matching, market: SampledMarket) -> list[tuple[int, int]]:
    """Every (student, college) pair that would jointly deviate, sorted.

    A pair blocks when the student strictly prefers the college to their
    assignment and the college either has a free seat or admits someone it
    ranks below the student.  Reads only the assignment and capacities, so
    it certifies any assignment; empty output certifies stability.
    """
    scores = market.scores
    n, n_colleges = scores.shape
    assignment = matching.assignment
    student = np.arange(n)

    rank = np.empty((n, n_colleges), dtype=np.int64)
    rank[student[:, None], market.prefs] = np.arange(n_colleges)
    matched = np.flatnonzero(assignment != UNMATCHED)
    col = assignment[matched]
    assigned_rank = np.full(n, n_colleges)
    assigned_rank[matched] = rank[matched, col]

    # each college's bar is its worst admit, or one every student clears
    bar = _worst_admits(col, matched, scores[matched, col], matching.capacities, n)
    blocks = (rank < assigned_rank[:, None]) & _clears(
        scores, student[:, None], *bar, np.arange(n_colleges)
    )
    return [(int(s), int(c)) for s, c in np.argwhere(blocks)]
