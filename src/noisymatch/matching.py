"""Student-proposing deferred acceptance and stability verification.

Colleges rank students by score; exact score ties are broken in favour of
the lower student index, and the algorithm and the blocking-pair scan use
the same tie-broken order, so the two never disagree.
"""

from __future__ import annotations

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


# A round whose scan examines more than _PRUNE_MIN_CELLS cells a rejection
# prunes the lists before the next round's scan (_prune).  Windows of 8 and
# then 16 cells make 24: on average, the students scanned past their first
# two windows.  A round whose students each scanned exactly two windows, as
# the last rounds of tiered stacks do with a few rejections, does not
# prune: one pass over every cell (~0.10 s at 20 M cells) would serve one
# short scan.  amplify-large's market prunes before round 5 of 19, keeps
# 0.48 M cells and is matched in a median 156 ms a call against 334 ms
# never pruning; many-tiny's and fig2's stacks never prune (Python 3.11,
# numpy 2.4, 2-vCPU machine).  CHANGES.md keeps the table over shapes and
# thresholds.
_PRUNE_MIN_CELLS = 24


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


def _cleared_in_order(prefs, scores, bar_score, bar_student):
    """Each block of at most ``_BLOCK_CELLS // 8`` cells of the (R, n, C)
    stacks ``prefs`` and ``scores``, rows of one market: the union's rows
    (student r*n + s is row s of market r), its prefs, and whether each
    student clears (``_clears``) the bar of each college on their list, in
    preference order.  The bars are the union's: college c of market r is
    bar r*C + c.  Compares in college order, then takes the flags into
    preference order in one flat take.  No n x C table."""
    n_markets, n, n_colleges = prefs.shape
    step = max(1, sampling._BLOCK_CELLS // 8 // n_colleges)
    for r in range(n_markets):
        bars = slice(r * n_colleges, (r + 1) * n_colleges)
        for s0 in range(0, n, step):
            block = prefs[r, s0 : s0 + step]
            union = slice(r * n + s0, r * n + s0 + len(block))
            student = np.arange(union.start, union.stop)[:, None]
            cleared = _clears(scores[r, s0 : s0 + step], student, bar_score, bar_student, bars)
            at = block + np.arange(0, cleared.size, n_colleges)[:, None]
            yield union, block, cleared.ravel().take(at)


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

    Each student scans their own list, ``lists[pos:end + 1]`` with pos at
    their current college; until the prune the lists are the rows of prefs
    themselves.  Once a round's scan examines more than ``_PRUNE_MIN_CELLS``
    cells a rejection, the scans are running long: before the next round's
    scan, one row-sliced pass (``_prune``) cuts every list to the student's
    current college and the later ones whose bar they clear now, and the
    scans read those compact lists from then on.  A college a student
    cannot afford now would reject them later too, so each scan stops at
    the college it would have reached on the full list, and the matching,
    cutoffs and cut students are the same with or without the prune.  The
    whole fixed point runs on the calling thread.

    Returns the (R, n) assignment, in each slot's own college indices or
    UNMATCHED, and each college's worst admit as (R, C) cutoffs and cut
    students (in the slot's own indices), -inf and n with a free seat.
    """
    if np.ndim(prefs) != 3 or np.shape(prefs) != np.shape(scores):
        got = f"prefs {np.shape(prefs)} and scores {np.shape(scores)}"
        raise ValueError(f"prefs and scores must be (R, n, C) stacks of one shape, got {got}")
    n_markets, n, n_colleges = scores.shape
    cap = np.tile(np.asarray(_capacity_list(capacities, n_colleges), dtype=np.int64), n_markets)
    prefs = np.ascontiguousarray(prefs)
    scores = np.ascontiguousarray(scores, dtype=float)
    stacks = prefs, scores
    prefs, scores = prefs.ravel(), scores.ravel()
    n_union = n_markets * n_colleges
    # each student's list is lists[pos:end + 1], pos at the current proposal;
    # until the prune, the lists are the rows of prefs, at row offset s*C
    lists, pos = prefs, np.arange(n_markets * n, dtype=np.int64) * n_colleges
    end = pos + (n_colleges - 1)
    first = np.repeat(np.arange(n_markets, dtype=np.int64) * n_colleges, n)  # slot's college 0
    at_union = pos - first  # scores row offset for a union college index

    cut_score = np.full(n_union, -np.inf)
    cut_student = np.full(n_union, n_markets * n, dtype=np.int64)
    bars = cut_score, cut_student
    college = lists[pos] + first  # current proposal, UNMATCHED once the list runs out
    pruned, rejected, cells = False, (), 0

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
        if not pruned and _worth_pruning(len(rejected), cells):
            lists, pos, end = _prune(*stacks, bars, pos, college)
            pruned = True
        rejected = who[place >= cap[col]]
        cells = _advance(rejected, n_colleges, lists, scores, first, end, *bars, pos, college)

    matched = np.flatnonzero(college != UNMATCHED)
    col = college[matched]
    # a college's admits all sit in one slot, so slot-local indices order them alike
    cutoffs, cut_students = _worst_admits(col, matched % n, scores[at_union[matched] + col], cap, n)
    college[matched] -= first[matched]
    shape = n_markets, n_colleges
    return college.reshape(n_markets, n), cutoffs.reshape(shape), cut_students.reshape(shape)


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


def _worth_pruning(rejected: int, cells: int) -> bool:
    """Whether to prune the lists after a round whose scan examined ``cells``
    cells of ``rejected`` students' lists; never before the first scan."""
    return 0 < rejected and cells > _PRUNE_MIN_CELLS * rejected


def _prune(prefs, scores, bars, pos, college):
    """Each student's list cut to their current entry and every later entry
    whose cell clears its college's bar now: (lists, pos, end) for
    ``_advance``, with ``lists[pos[s]:end[s] + 1]`` student s's list.

    ``prefs`` and ``scores`` are the (R, n, C) stacks, ``bars`` the union's
    (score, student) bars, and ``pos`` indexes the flat prefs.  No entry
    before a student's current one clears its bar: the student was rejected
    there or passed it over, and bars only rise.  So the cleared cells in
    preference order, with the current entry's flag set, are the list, and
    the current entry comes first.  A student without a college keeps no
    entry.  One loop walks every row block on the calling thread."""
    n_colleges = prefs.shape[2]
    held = college != UNMATCHED
    lists, count = [], []
    for rows, block, cleared in _cleared_in_order(prefs, scores, *bars):
        mine = np.flatnonzero(held[rows])
        cleared = cleared.ravel()
        cleared[pos[rows][mine] - rows.start * n_colleges] = True
        kept = np.flatnonzero(cleared)
        lists.append(block.ravel()[kept])
        count.append(np.diff(np.searchsorted(kept, np.arange(len(block) + 1) * n_colleges)))
    count = np.concatenate(count)
    end = np.cumsum(count) - 1
    return np.concatenate(lists), end - count + 1, end


def _advance(rejected, n_colleges, lists, scores, first, end, cut_score, cut_student, pos, college):
    """Move each rejected student to the next college on their list they can afford.

    Student s's list is ``lists[pos[s]:end[s] + 1]``, pos at their current
    college.  Scans a window of list positions per step over the rejected
    students only, doubling it for those who found nothing; a student who
    runs out of list becomes UNMATCHED.  Each step scans its students in
    slices of at most ``_BLOCK_CELLS // 8`` cells.  Updates pos and college in
    place, and returns the number of cells the scan examined.
    """
    # a window past the list's end only repeats its last college
    window = min(8, n_colleges - 1)
    cells = 0
    while True:
        done = pos[rejected] >= end[rejected]
        college[rejected[done]] = UNMATCHED
        rejected = rejected[~done]
        if not len(rejected):
            return cells
        cells += window * len(rejected)
        rows = max(1, sampling._BLOCK_CELLS // 8 // window)
        left = []
        for i in range(0, len(rejected), rows):
            part = rejected[i : i + rows]
            # positions past the end repeat the last college, which is examined at
            # its own position first, so the first affordable hit is a real one
            at = np.minimum(pos[part, None] + np.arange(1, window + 1), end[part, None])
            cand = lists[at]
            sc = scores[part[:, None] * n_colleges + cand]
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
    Capacities that are not one positive integer a college raise ValueError.
    """
    assignment = matching.assignment
    matched = np.flatnonzero(assignment != UNMATCHED)
    col = assignment[matched]
    # each college's bar is its worst admit, or one every student clears
    score = market.scores[matched, col]
    cap = _capacity_list(matching.capacities, market.n_colleges)
    bar = _worst_admits(col, matched, score, cap, market.n_students)
    pairs = []
    for rows, prefs, cleared in _cleared_in_order(market.prefs[None], market.scores[None], *bar):
        # the colleges listed before the student's own; all of them when unmatched
        own_or_later = np.logical_or.accumulate(prefs == assignment[rows, None], axis=1)
        s, k = np.nonzero(cleared & ~own_or_later)
        s, c = s + rows.start, prefs[s, k]
        order = np.lexsort((c, s))
        pairs += zip(s[order].tolist(), c[order].tolist())
    return pairs
