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
from .errors import positive_integer
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
# change the Matching.
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
        if not positive_integer(c):
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
    is that admit), read only at the cells where the score ties."""
    bar = bar_score[at]
    ok = np.greater(score, bar)
    tie = np.flatnonzero(score == bar)
    if len(tie):
        # flat indices, then one index array per axis: np.nonzero of an
        # n-d block takes ~30 times as long as np.flatnonzero
        tie = np.unravel_index(tie, ok.shape)
        student, bar_student = np.broadcast_arrays(student, bar_student[at], ok)[:2]
        ok[tie] = student[tie] <= bar_student[tie]
    return ok


def _cleared_in_order(market: SampledMarket, bar_score, bar_student):
    """Each row slice of at most ``_BLOCK_CELLS // 8`` cells of the market:
    its rows, its prefs, and whether each student clears (``_clears``) the
    bar of each college on their list, in preference order.  No n x C table."""
    student = np.arange(market.n_students)
    step = max(1, sampling._BLOCK_CELLS // 8 // market.n_colleges)
    for s0 in range(0, market.n_students, step):
        rows = slice(s0, s0 + step)
        prefs = market.prefs[rows]
        cleared = _clears(market.scores[rows], student[rows, None], bar_score, bar_student, ...)
        yield rows, prefs, cleared[np.arange(len(prefs))[:, None], prefs]


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
    first = np.repeat(np.arange(n_markets, dtype=np.int64) * n_colleges, n)  # slot's college 0
    at_union = row - first  # scores row offset for a union college index

    cut_score = np.full(n_union, -np.inf)
    cut_student = np.full(n_union, n_markets * n, dtype=np.int64)
    pos = np.zeros(n_markets * n, dtype=np.int64)  # list position of each current proposal
    college = prefs[row] + first  # current proposal, UNMATCHED once the list runs out
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
            order = _line_order(col, sc, n_union)
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
    college[matched] -= first[matched]
    return tuple(part.reshape(n_markets, -1) for part in (college, cutoffs, cut_students))


_LOW_63 = np.uint64((1 << 63) - 1)


def _line_order(col: np.ndarray, score: np.ndarray, n_colleges: int) -> np.ndarray:
    """Order of a round's demanders by (college, score descending, student),
    where demander i proposes to college ``col[i]`` of ``n_colleges`` with
    ``score[i]``, and the demanders are in ascending student order.

    One argsort of a packed uint64 key: the college in the top b =
    bit_length(n_colleges - 1) bits, and below it the score's bits mapped
    to an unsigned integer that sorts in descending score order, less its
    b lowest.  Where no two keys are equal they order the demanders as the
    full (college, score) pairs do, and that order is unique.  Two equal
    keys (equal scores, +inf from overflow among them, or scores equal
    once truncated) send the round to a stable sort by score, which keeps
    equal scores in student order, and then a stable sort by college.
    """
    b = (n_colleges - 1).bit_length()
    # + 0.0 turns -0.0 into 0.0, so the two tie as == says
    bits = (score + 0.0).view(np.uint64)
    # a negative score keeps its bits, whose magnitude sorts it descending;
    # a non-negative one flips all but the sign bit, and sorts first
    key = bits ^ (((bits >> 63) - 1) & _LOW_63)
    key >>= b
    if b:
        key |= col.astype(np.uint64) << (64 - b)
    order = np.argsort(key)
    ranked = key[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(-score, kind="stable")
        # up to 32768 colleges, numpy's stable sort of an int16 key is a radix sort
        order = order[np.argsort(col[order].astype(prefs_dtype(n_colleges)), kind="stable")]
    return order


def _advance(rejected, n_colleges, prefs, scores, row, first, cut_score, cut_student, pos, college):
    """Move each rejected student to the next college on their list they can afford.

    Scans a window of list positions per step over the rejected students
    only, doubling it for those who found nothing; a student who runs out
    of list becomes UNMATCHED.  Each step scans its students in slices of
    at most ``_SCAN_CELLS`` cells.  Updates pos and college in place.
    """
    # a window past the list's end only repeats its last college
    window = min(8, n_colleges - 1)
    while True:
        done = pos[rejected] >= n_colleges - 1
        college[rejected[done]] = UNMATCHED
        rejected = rejected[~done]
        if not len(rejected):
            return
        rows = max(1, _SCAN_CELLS // window)
        left = []
        for i in range(0, len(rejected), rows):
            part = rejected[i : i + rows]
            # positions past the end repeat the last college, which is examined at
            # its own position first, so the first affordable hit is a real one
            at = np.minimum(pos[part, None] + np.arange(1, window + 1), n_colleges - 1)
            base = row[part, None]
            cand = prefs[base + at]
            sc = scores[base + cand]
            cand = cand + first[part, None]  # the slot's college index in the union
            ok = _clears(sc, part[:, None], cut_score, cut_student, cand)
            first_hit = ok.argmax(axis=1)
            found = ok[np.arange(len(part)), first_hit]
            hit = part[found]
            pos[hit] += first_hit[found] + 1
            college[hit] = cand[found, first_hit[found]]
            left.append(part[~found])
        rejected = np.concatenate(left)
        pos[rejected] += window
        window = min(2 * window, 256)


def find_blocking_pairs(matching: Matching, market: SampledMarket) -> list[tuple[int, int]]:
    """Every (student, college) pair that would jointly deviate, sorted.

    A pair blocks when the student strictly prefers the college to their
    assignment and the college either has a free seat or admits someone it
    ranks below the student.  Reads only the assignment and capacities, so
    it certifies any assignment; empty output certifies stability.
    """
    assignment = matching.assignment
    matched = np.flatnonzero(assignment != UNMATCHED)
    col = assignment[matched]
    # each college's bar is its worst admit, or one every student clears
    score = market.scores[matched, col]
    bar = _worst_admits(col, matched, score, matching.capacities, market.n_students)
    pairs = []
    for rows, prefs, cleared in _cleared_in_order(market, *bar):
        # the colleges listed before the student's own; all of them when unmatched
        own_or_later = np.logical_or.accumulate(prefs == assignment[rows, None], axis=1)
        s, k = np.nonzero(cleared & ~own_or_later)
        s, c = s + rows.start, prefs[s, k]
        order = np.lexsort((c, s))
        pairs += zip(s[order].tolist(), c[order].tolist())
    return pairs
