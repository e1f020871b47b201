"""Unit tests for deferred acceptance and the blocking-pair scan.

The oracle here enumerates every feasible matching of a tiny instance,
filters to the stable ones by definition, and picks the student-optimal
one; the algorithm must reproduce it exactly.  On larger markets the
reference is a heap loop that makes one proposal at a time and shares no
code with the library's cutoff fixed point.
"""

import dataclasses
import heapq
import itertools
import math
import multiprocessing
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisymatch import matching
from noisymatch.cutoffs import check_market_clearing, demand_all
from noisymatch.estimation import run_replications
from noisymatch import market as market_module
from noisymatch.market import SampledMarket, helper_threads_allowed, sample_market, usable_cpus
from noisymatch.matching import (
    UNMATCHED,
    Matching,
    deferred_acceptance,
    find_blocking_pairs,
    stacked_deferred_acceptance,
)
from noisymatch.presets import fig1, fig2


def make_market(prefs, scores):
    prefs = np.asarray(prefs, dtype=int)
    scores = np.asarray(scores, dtype=float)
    n, c = scores.shape
    return SampledMarket(
        values=np.zeros((n, 1)),
        prefs=prefs,
        scores=scores,
        college_coalition=np.zeros(c, dtype=int),
    )


# ---------------------------------------------------------------------------
# independent oracle


def college_prefers(scores, c, s, t):
    """True when college c ranks student s above t (ties to lower index)."""
    return (scores[s][c], -s) > (scores[t][c], -t)


def clears(score, student, cut, cut_student):
    """Whether a student's score reaches a college's bar (cut, cut_student):
    a higher score, or an equal one and an index no higher than the bar's."""
    return score > cut or (score == cut and student <= cut_student)


def blocking_pairs_by_definition(assign, prefs, scores, caps):
    """Yield every blocking pair of an assignment in (student, college) order."""
    n, n_colleges = len(prefs), len(caps)
    rank = [{c: r for r, c in enumerate(prefs[s])} for s in range(n)]
    rosters = [[s for s in range(n) if assign[s] == c] for c in range(n_colleges)]
    for s in range(n):
        a_rank = rank[s][assign[s]] if assign[s] != UNMATCHED else n_colleges
        for c in range(n_colleges):
            if rank[s][c] >= a_rank:
                continue
            if len(rosters[c]) < caps[c] or any(
                college_prefers(scores, c, s, t) for t in rosters[c]
            ):
                yield (s, c)


def is_stable(assign, prefs, scores, caps):
    return next(blocking_pairs_by_definition(assign, prefs, scores, caps), None) is None


def roster_minimum_cutoffs(assign, scores, caps):
    """Lowest admitted score of each full college; -inf with a free seat."""
    cutoffs = []
    for c, cap in enumerate(caps):
        admitted = [scores[s][c] for s in range(len(assign)) if assign[s] == c]
        cutoffs.append(min(admitted) if len(admitted) == cap else -np.inf)
    return cutoffs


def roster_bar_students(assign, scores, caps):
    """Of each full college's admits tied at its lowest score, the highest
    index; n with a free seat."""
    bars = []
    for c, cap in enumerate(caps):
        admitted = [s for s in range(len(assign)) if assign[s] == c]
        if len(admitted) < cap:
            bars.append(len(assign))
        else:
            low = min(scores[s][c] for s in admitted)
            bars.append(max(s for s in admitted if scores[s][c] == low))
    return bars


def heap_deferred_acceptance(market, capacities):
    """Reference: student-proposing deferred acceptance, one proposal at a time.

    Each college keeps a min-heap of tentatively admitted students keyed by
    (score, -student), so the worst admit pops first and a displaced student
    resumes proposing from their next choice.  The cutoffs and bar students
    are the roster minimum of the final assignment and its tied admits.
    """
    caps = [int(c) for c in capacities]
    n, n_colleges = market.scores.shape
    prefs = market.prefs.tolist()
    scores = market.scores.tolist()
    heaps = [[] for _ in range(n_colleges)]
    next_choice = [0] * n
    assignment = [UNMATCHED] * n

    stack = list(range(n - 1, -1, -1))
    while stack:
        s = stack.pop()
        while next_choice[s] < n_colleges:
            c = prefs[s][next_choice[s]]
            next_choice[s] += 1
            entry = (scores[s][c], -s)
            heap = heaps[c]
            if len(heap) < caps[c]:
                heapq.heappush(heap, entry)
                assignment[s] = c
                break
            if entry > heap[0]:
                _, neg_displaced = heapq.heapreplace(heap, entry)
                assignment[-neg_displaced] = UNMATCHED
                assignment[s] = c
                stack.append(-neg_displaced)
                break

    cutoffs = roster_minimum_cutoffs(assignment, scores, caps)
    bar_students = np.array(roster_bar_students(assignment, scores, caps), dtype=np.int64)
    return Matching(np.array(assignment, dtype=int), np.array(cutoffs), bar_students, tuple(caps))


def stacked_alone(market, capacities):
    """stacked_deferred_acceptance on a stack of one market."""
    return stacked_deferred_acceptance(market.prefs[None], market.scores[None], capacities)


def enumerate_stable(prefs, scores, caps):
    """All stable matchings by exhaustive enumeration of assignments."""
    n, n_colleges = len(prefs), len(caps)
    stable = []
    for assign in itertools.product([UNMATCHED] + list(range(n_colleges)), repeat=n):
        counts = [0] * n_colleges
        ok = True
        for c in assign:
            if c != UNMATCHED:
                counts[c] += 1
                if counts[c] > caps[c]:
                    ok = False
                    break
        if ok and is_stable(assign, prefs, scores, caps):
            stable.append(assign)
    return stable


def student_optimal(stable, prefs, n_colleges):
    def rank(s, c):
        return list(prefs[s]).index(c) if c != UNMATCHED else n_colleges

    best = None
    for m in stable:
        if best is None or all(rank(s, m[s]) <= rank(s, best[s]) for s in range(len(prefs))):
            best = m
    # verify optimality is simultaneous across students
    assert all(
        rank(s, best[s]) <= rank(s, m[s]) for m in stable for s in range(len(prefs))
    ), "no student-optimal stable matching found"
    return best


# ---------------------------------------------------------------------------


class TestHandInstances:
    def test_single_college_admits_top_scorer(self):
        market = make_market([[0], [0]], [[0.9], [0.5]])
        m = deferred_acceptance(market, [1])
        assert m.assignment.tolist() == [0, UNMATCHED]

    def test_three_students_two_colleges(self):
        # all prefer college 0; enumerate-and-filter confirms the outcome
        prefs = [[0, 1], [0, 1], [0, 1]]
        scores = [[0.9, 0.2], [0.8, 0.9], [0.1, 0.8]]
        market = make_market(prefs, scores)
        m = deferred_acceptance(market, [1, 1])
        assert m.assignment.tolist() == [0, 1, UNMATCHED]
        stable = enumerate_stable(prefs, scores, [1, 1])
        assert tuple(m.assignment.tolist()) in stable

    def test_serial_dictatorship_under_common_ranking(self):
        # one shared ranking and consistently ordered scores: the outcome is
        # assignment by score order, college by college
        rng = np.random.default_rng(3)
        scores_one = np.sort(rng.random(5))[::-1]  # student 0 best
        scores = np.column_stack([scores_one, scores_one * 0.5])
        prefs = np.tile([0, 1], (5, 1))
        market = make_market(prefs, scores)
        m = deferred_acceptance(market, [2, 2])
        assert m.assignment.tolist() == [0, 0, 1, 1, UNMATCHED]
        stable = enumerate_stable(prefs.tolist(), scores.tolist(), [2, 2])
        opt = student_optimal(stable, prefs.tolist(), 2)
        assert tuple(m.assignment.tolist()) == opt

    @pytest.mark.parametrize("da", [heap_deferred_acceptance, deferred_acceptance])
    def test_exactly_filled_college_cuts_at_its_lowest_admit(self, da):
        # each college gets as many applicants as it has seats, so neither is
        # ever overdemanded; both are full, so neither cutoff is -inf
        market = make_market([[0, 1], [1, 0], [1, 0]], [[0.3, 0.8], [0.6, 0.4], [0.9, 0.2]])
        m = da(market, [1, 2])
        assert m.assignment.tolist() == [0, 1, 1]
        assert m.cutoffs.tolist() == [0.3, 0.2]


class TestCapacities:
    @pytest.mark.parametrize("da", [deferred_acceptance, stacked_alone])
    @pytest.mark.parametrize("bad", [0, -1, 1.5, float("nan"), True, "3", math.inf, 2.5])
    def test_bad_capacity_names_its_index(self, da, bad):
        market = make_market([[0, 1], [1, 0], [0, 1]], [[0.3, 0.8], [0.6, 0.4], [0.9, 0.2]])
        with pytest.raises(ValueError, match=r"^capacities\[1\]: must be a positive integer"):
            da(market, [1, bad])

    def test_integral_floats_are_accepted(self):
        market = make_market([[0, 1], [1, 0], [0, 1]], [[0.3, 0.8], [0.6, 0.4], [0.9, 0.2]])
        assert deferred_acceptance(market, [1.0, 1.0]).capacities == (1, 1)


class TestBlockingPairs:
    def test_da_output_is_stable(self, rng):
        for trial in range(30):
            n = int(rng.integers(2, 60))
            c = int(rng.integers(1, 8))
            caps = rng.integers(1, 4, c).tolist()
            market = make_market(
                np.argsort(rng.random((n, c)), axis=1), rng.normal(0, 1, (n, c))
            )
            m = deferred_acceptance(market, caps)
            assert find_blocking_pairs(m, market) == []

    def test_swapped_admit_blocks(self):
        # admit the weaker of two students: the stronger blocks with the college
        market = make_market([[0], [0]], [[0.9], [0.5]])
        m = deferred_acceptance(market, [1])
        swapped = dataclasses.replace(m, assignment=np.array([UNMATCHED, 0]))
        assert find_blocking_pairs(swapped, market) == [(0, 0)]

    def test_everyone_unmatched_blocks_everywhere(self):
        market = make_market([[0, 1], [1, 0]], [[0.5, 0.6], [0.7, 0.8]])
        m = deferred_acceptance(market, [1, 1])
        empty = dataclasses.replace(m, assignment=np.array([UNMATCHED, UNMATCHED]))
        assert find_blocking_pairs(empty, market) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_builds_no_n_by_c_table(self):
        # numpy reports its buffers to tracemalloc; the smallest n x C array
        # is a boolean one of n * C bytes
        config, _ = fig1(colleges=100, noise="pareto", n_students=20000)
        market = sample_market(config, 0)
        m = deferred_acceptance(market, config.capacities())
        tracemalloc.start()
        try:
            pairs = find_blocking_pairs(m, market)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pairs == []
        assert peak <= market.n_students * market.n_colleges

    def test_capacity_exactness(self, rng):
        for _ in range(10):
            n = int(rng.integers(30, 120))
            c = int(rng.integers(2, 6))
            caps = rng.integers(1, max(2, n // (2 * c)), c)
            caps = np.minimum(caps, (n - 1) // c).clip(1).tolist()
            market = make_market(
                np.argsort(rng.random((n, c)), axis=1), rng.normal(0, 1, (n, c))
            )
            m = deferred_acceptance(market, caps)
            assert np.bincount(m.assignment + 1, minlength=c + 1)[1:].tolist() == caps

    def test_affine_score_transform_is_invariant(self, rng):
        n, c = 40, 4
        prefs = np.argsort(rng.random((n, c)), axis=1)
        scores = rng.normal(0, 1, (n, c))
        base = deferred_acceptance(make_market(prefs, scores), [5, 5, 5, 5])
        scaled = scores.copy()
        scaled[:, 2] = 3.7 * scaled[:, 2] + 11.0  # one college rescales its scale
        after = deferred_acceptance(make_market(prefs, scaled), [5, 5, 5, 5])
        assert np.array_equal(base.assignment, after.assignment)


class TestOracleEquivalence:
    def test_exhaustive_small_grid(self):
        # every preference profile x 3-level score grid at N=3, C=2, caps 1,
        # each profile's grid matched as one stack: every slot must be
        # stable and student-optimal
        levels = [0.1, 0.5, 0.9]
        n, c = 3, 2
        pref_options = list(itertools.permutations(range(c)))
        grid = np.array(list(itertools.product(levels, repeat=n * c))).reshape(-1, n, c)
        checked = 0
        for prefs in itertools.product(pref_options, repeat=n):
            prefs = [list(p) for p in prefs]
            stack = np.broadcast_to(np.array(prefs), grid.shape)
            assignment = stacked_deferred_acceptance(stack, grid, [1, 1])[0]
            for scores, got in zip(grid.tolist(), assignment.tolist()):
                stable = enumerate_stable(prefs, scores, [1, 1])
                assert tuple(got) in stable
                assert tuple(got) == student_optimal(stable, prefs, c)
                checked += 1
        assert checked == len(pref_options) ** n * len(levels) ** (n * c)


# ---------------------------------------------------------------------------
# the fixed point against the heap loop


@st.composite
def tie_heavy_markets(draw):
    """Small markets with scores on a 5-point grid, so exact ties are common,
    and capacities that often exceed the students who want a college."""
    n = draw(st.integers(1, 25))
    c = draw(st.integers(1, 6))
    grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    scores = draw(st.lists(st.lists(grid, min_size=c, max_size=c), min_size=n, max_size=n))
    prefs = [draw(st.permutations(range(c))) for _ in range(n)]
    caps = draw(st.lists(st.integers(1, 5), min_size=c, max_size=c))
    return make_market(prefs, scores), caps


@st.composite
def long_list_markets(draw):
    """25 to 40 colleges of one to three seats and more students than seats,
    so rejected students scan past the 8-, 16- and 32-wide windows of their
    lists; scores on a 5-point grid, so exact ties are common."""
    c = draw(st.integers(25, 40))
    caps = draw(st.lists(st.integers(1, 3), min_size=c, max_size=c))
    n = draw(st.integers(sum(caps) + 1, 2 * sum(caps) + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prefs = np.argsort(rng.random((n, c)), axis=1)
    scores = rng.integers(0, 5, (n, c)) / 4
    return make_market(prefs, scores), caps


small_markets = st.one_of(tie_heavy_markets(), long_list_markets())


def assert_same_matching(got, want):
    assert np.array_equal(got.assignment, want.assignment)
    assert got.assignment.dtype == want.assignment.dtype
    assert got.capacities == want.capacities
    assert np.array_equal(got.cutoffs, want.cutoffs)
    assert np.array_equal(got.cut_students, want.cut_students)
    assert got.cut_students.dtype == want.cut_students.dtype


class TestVectorisedPath:
    @settings(max_examples=400, deadline=None)
    @given(tie_heavy_markets())
    def test_equals_heap_loop(self, case):
        market, caps = case
        got = deferred_acceptance(market, caps)
        assert_same_matching(got, heap_deferred_acceptance(market, caps))
        assert find_blocking_pairs(got, market) == []

    @settings(max_examples=400, deadline=None)
    @given(tie_heavy_markets())
    def test_split_scan_equals_heap_loop(self, case):
        market, caps = case
        with pytest.MonkeyPatch.context() as mp:
            split_every_round(mp)
            got = deferred_acceptance(market, caps)
        assert_same_matching(got, heap_deferred_acceptance(market, caps))
        assert find_blocking_pairs(got, market) == []

    @pytest.mark.parametrize("scan", ["whole", "sliced", "sliced-split"])
    @settings(max_examples=200, deadline=None)
    @given(small_markets)
    def test_scan_slices_equal_heap_loop(self, scan, case):
        # with _SCAN_CELLS = 1 every rejected student is a slice of its own
        market, caps = case
        with pytest.MonkeyPatch.context() as mp:
            if scan != "whole":
                mp.setattr(matching, "_SCAN_CELLS", 1)
            if scan == "sliced-split":
                split_every_round(mp)
            got = deferred_acceptance(market, caps)
        assert_same_matching(got, heap_deferred_acceptance(market, caps))
        assert find_blocking_pairs(got, market) == []

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_markets(), st.data())
    def test_blocking_pairs_equal_the_definition(self, case, data):
        # on the DA outcome, on nobody matched and on a random assignment
        # that respects capacity, most of which are not stable
        market, caps = case
        n, c = market.scores.shape
        m = deferred_acceptance(market, caps)
        wanted = data.draw(st.lists(st.integers(UNMATCHED, c - 1), min_size=n, max_size=n))
        seats = list(caps)
        random = []
        for w in wanted:
            if w != UNMATCHED and seats[w] > 0:
                seats[w] -= 1
            else:
                w = UNMATCHED
            random.append(w)
        prefs, scores = market.prefs.tolist(), market.scores.tolist()
        for assign in (m.assignment.tolist(), [UNMATCHED] * n, random):
            got = find_blocking_pairs(dataclasses.replace(m, assignment=np.array(assign)), market)
            assert got == list(blocking_pairs_by_definition(assign, prefs, scores, caps))

    def test_run_replications_above_threshold(self):
        config, plan = fig1(colleges=100, noise="pareto", n_students=2000, replications=3)
        records = run_replications(config, plan, threads=1)
        caps = config.capacities()
        for r in range(plan.replications):
            heap = heap_deferred_acceptance(sample_market(config, r), caps)
            assert np.array_equal(records.assignment[r], heap.assignment)
            assert np.array_equal(records.cutoffs[r], heap.cutoffs)


@st.composite
def tie_heavy_stacks(draw):
    """One to seven tie-heavy markets of one shape with shared capacities."""
    n = draw(st.integers(1, 25))
    c = draw(st.integers(1, 6))
    grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    caps = draw(st.lists(st.integers(1, 5), min_size=c, max_size=c))
    markets = []
    for _ in range(draw(st.integers(1, 7))):
        scores = draw(st.lists(st.lists(grid, min_size=c, max_size=c), min_size=n, max_size=n))
        prefs = [draw(st.permutations(range(c))) for _ in range(n)]
        markets.append(make_market(prefs, scores))
    return markets, caps


class TestStackedPath:
    @pytest.mark.parametrize(
        "copies, max_examples", [(False, 200), (True, 25)], ids=["int16-colleges", "int32-colleges"]
    )
    def test_each_slot_equals_its_market_alone(self, copies, max_examples):
        # with copies, the drawn markets repeat until the stack holds more
        # than 32768 colleges, so the round sorts colleges as int32
        @settings(max_examples=max_examples, deadline=None)
        @given(tie_heavy_stacks())
        def check(case):
            markets, caps = case
            k, c = len(markets), len(caps)
            repeat = -(-(np.iinfo(np.int16).max + 2) // (k * c)) if copies else 1
            assert (repeat * k * c > np.iinfo(np.int16).max + 1) == copies
            prefs = np.stack([m.prefs for m in markets] * repeat).astype(np.int16)
            scores = np.stack([m.scores for m in markets] * repeat)
            assignment, cutoffs, cut_students = stacked_deferred_acceptance(prefs, scores, caps)
            n = markets[0].n_students
            assignment = assignment.reshape(repeat, k, n)
            cutoffs = cutoffs.reshape(repeat, k, c)
            cut_students = cut_students.reshape(repeat, k, c)
            for r, market in enumerate(markets):
                alone = heap_deferred_acceptance(market, caps)
                assert (assignment[:, r] == alone.assignment).all()
                assert (cutoffs[:, r] == alone.cutoffs).all()
                assert (cut_students[:, r] == alone.cut_students).all()

        check()

    def test_one_market_is_matched_without_a_copy(self, monkeypatch):
        market, caps = tied_market(n=600, colleges=40, seed=3)
        market = dataclasses.replace(market, prefs=market.prefs.astype(np.int16))
        seen = []
        advance = matching._advance

        def spy(rejected, n_colleges, prefs, scores, *rest):
            seen.append((prefs, scores))
            return advance(rejected, n_colleges, prefs, scores, *rest)

        monkeypatch.setattr(matching, "_advance", spy)
        deferred_acceptance(market, caps)
        assert seen
        for prefs, scores in seen:
            assert np.shares_memory(prefs, market.prefs)
            assert np.shares_memory(scores, market.scores)


def line_order_by_two_sorts(col, score):
    """Demanders by (college, score descending, student) in plain Python:
    a stable sort by score, then a stable sort by college."""
    by_score = sorted(range(len(col)), key=lambda i: -score[i])
    return sorted(by_score, key=lambda i: col[i])


# what a round may see at a demander's score: the tie-heavy grid value, its
# negation (-0.0 from 0.0), +inf from Pareto overflow, the next float up
# (equal to the grid value once the packed key drops its low bits), or a
# Gaussian draw, of either sign
SCORE_OPS = (
    lambda x, rng: x,
    lambda x, rng: -x,
    lambda x, rng: np.inf,
    lambda x, rng: np.nextafter(x, np.inf),
    lambda x, rng: rng.normal(),
)


@st.composite
def round_demanders(draw):
    """A round's demanders: about half the students of a tie_heavy_stacks
    stack, in ascending order, each at a college of a union of up to 2^17
    colleges with its score changed by one of SCORE_OPS."""
    markets, _ = draw(tie_heavy_stacks())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, c = markets[0].scores.shape
    n_union = draw(st.sampled_from([len(markets) * c, 2**15 + 1, 2**17]))
    spread = n_union // (len(markets) * c)  # the drawn colleges spread over the union
    col, score = [], []
    for r, market in enumerate(markets):
        for s in np.flatnonzero(rng.random(n) < 0.5):
            college = int(market.prefs[s, rng.integers(c)])
            op = SCORE_OPS[rng.integers(len(SCORE_OPS))]
            col.append((r * c + college) * spread)
            score.append(float(op(market.scores[s, college], rng)))
    return np.array(col, dtype=np.int64), np.array(score), n_union


class TestLineOrder:
    """A round orders its demanders with one packed uint64 argsort, falling
    back to two stable sorts when two packed keys are equal."""

    @settings(max_examples=400, deadline=None)
    @given(round_demanders())
    def test_equals_two_sorts(self, case):
        col, score, n_union = case
        got = matching._line_order(col, score, n_union)
        assert got.tolist() == line_order_by_two_sorts(col.tolist(), score.tolist())

    @pytest.mark.parametrize(
        "score, want",
        [
            ([0.5, np.nextafter(0.5, 1.0)], [1, 0]),  # equal once truncated, lower first
            ([-0.0, 0.0], [0, 1]),  # equal by ==, so in student order
            ([0.0, -0.0], [0, 1]),
            ([np.inf, np.inf], [0, 1]),  # Pareto overflow
            ([-1.5, -0.5], [1, 0]),
            ([-np.inf, 3.0], [1, 0]),
        ],
        ids=["next-float", "minus-zero-first", "plus-zero-first", "overflow", "negative", "minus-inf"],
    )
    @pytest.mark.parametrize("n_union", [1, 2, 2**17])
    def test_two_demanders_at_one_college(self, score, want, n_union):
        col = np.full(2, n_union - 1, dtype=np.int64)
        assert matching._line_order(col, np.array(score), n_union).tolist() == want


class TestNarrowPrefs:
    """Sampled markets carry int16 prefs; every consumer must give the same
    answer as on an int64 copy of the same market."""

    @pytest.mark.parametrize(
        "n, colleges",
        [(40, 4), (2000, 10), (4000, 20)],
        # 160 and 20,000 cells; at 80,000 a flat offset into prefs overflows int16
        ids=["heap-size", "vector-size", "past-int16-offsets"],
    )
    def test_consumers_agree_with_int64(self, n, colleges):
        config, _ = fig1(colleges=colleges, noise="pareto", n_students=n, replications=1)
        market = sample_market(config, 1)
        wide = dataclasses.replace(market, prefs=market.prefs.astype(np.int64))
        assert market.prefs.dtype == np.int16
        caps = config.capacities()
        for da in (heap_deferred_acceptance, deferred_acceptance):
            got = da(market, caps)
            assert_same_matching(got, da(wide, caps))
            assert find_blocking_pairs(got, market) == find_blocking_pairs(got, wide) == []
        empty = dataclasses.replace(got, assignment=np.full(n, UNMATCHED))
        assert find_blocking_pairs(empty, market) == find_blocking_pairs(empty, wide) != []
        for cuts in (got.cutoffs, got.cutoffs - 0.2, got.cutoffs + 0.2):
            bar = cuts, got.cut_students
            assert np.array_equal(demand_all(market, *bar), demand_all(wide, *bar))
            assert np.array_equal(
                check_market_clearing(market, *bar, caps), check_market_clearing(wide, *bar, caps)
            )


# ---------------------------------------------------------------------------
# the rejected-student scan split across two threads


def split_every_round(mp):
    """Split every round's scan, on a process that may use two CPUs."""
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    mp.setattr(matching, "_SCAN_SPLIT_MIN_STUDENTS", 0)


def serial_deferred_acceptance(market, caps):
    """The fixed point with no helper thread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(market_module, "helper_threads_allowed", lambda: False)
        return deferred_acceptance(market, caps)


def tied_market(n=3000, colleges=30, seed=5):
    """Scores on a 4-point grid, so many students tie at each cutoff."""
    rng = np.random.default_rng(seed)
    prefs = np.argsort(rng.random((n, colleges)), axis=1)
    scores = rng.integers(0, 4, (n, colleges)) / 4
    return make_market(prefs, scores), [n // 3 // colleges] * colleges


def sampled(config_plan):
    config, _ = config_plan
    return sample_market(config, 1), config.capacities()


SPLIT_MARKETS = {
    "fig1-pareto": lambda: sampled(fig1(colleges=100, noise="pareto", n_students=3000)),
    "fig2-uniform": lambda: sampled(fig2(noise="uniform")),
    "score-ties": tied_market,
}


class TestScanSplit:
    @pytest.mark.parametrize("name", sorted(SPLIT_MARKETS))
    def test_split_minimum_does_not_change_the_matching(self, name, monkeypatch):
        market, caps = SPLIT_MARKETS[name]()
        serial = serial_deferred_acceptance(market, caps)
        split_every_round(monkeypatch)
        ran_on = []
        advance = matching._advance

        def spy(*args):
            ran_on.append(threading.get_ident())
            return advance(*args)

        monkeypatch.setattr(matching, "_advance", spy)
        for split_min in (float("inf"), 0):
            monkeypatch.setattr(matching, "_SCAN_SPLIT_MIN_STUDENTS", split_min)
            assert_same_matching(deferred_acceptance(market, caps), serial)
        assert len(set(ran_on)) == 2
        if name == "score-ties":
            assert_same_matching(serial, heap_deferred_acceptance(market, caps))

    def test_error_on_the_helper_thread_reaches_the_caller(self, monkeypatch):
        market, caps = tied_market()
        split_every_round(monkeypatch)
        caller = threading.get_ident()
        raised_on = []
        advance = matching._advance

        def fail_off_the_caller(*args):
            if threading.get_ident() != caller:
                raised_on.append(threading.get_ident())
                raise RuntimeError("scan failed on the helper")
            return advance(*args)

        monkeypatch.setattr(matching, "_advance", fail_off_the_caller)
        with pytest.raises(RuntimeError, match="^scan failed on the helper$"):
            deferred_acceptance(market, caps)
        assert raised_on and caller not in raised_on

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    def test_helper_threads_need_a_second_cpu_and_the_predicate(self, cpus, monkeypatch):
        config, _ = fig1(colleges=100, noise="pareto", n_students=3000)
        split_every_round(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(market_module, "_PREFS_THREAD_MIN_CELLS", 0)
        assert usable_cpus() == len(cpus)
        started = []
        for module in (market_module, matching):
            pool = module.ThreadPoolExecutor

            def spy(*args, pool=pool, name=module.__name__, **kwargs):
                started.append(name)
                return pool(*args, **kwargs)

            monkeypatch.setattr(module, "ThreadPoolExecutor", spy)
        # one patch of the predicate keeps both calls on this thread
        with monkeypatch.context() as mp:
            mp.setattr(market_module, "helper_threads_allowed", lambda: False)
            market = sample_market(config, 2)
            deferred_acceptance(market, config.capacities())
        assert started == []
        market = sample_market(config, 2)
        deferred_acceptance(market, config.capacities())
        both = ["noisymatch.market", "noisymatch.matching"]
        assert started == (both if len(cpus) > 1 else [])

    def test_no_helper_threads_in_a_child_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert helper_threads_allowed()
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        assert not helper_threads_allowed()

    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1


# ---------------------------------------------------------------------------
# the rejected-student scan in slices of at most _SCAN_CELLS cells


class TestSlicedScan:
    def test_slices_stay_under_the_cap_and_keep_the_matching(self, monkeypatch):
        market, caps = tied_market(n=600, colleges=40, seed=3)
        whole = serial_deferred_acceptance(market, caps)
        steps = []
        clears = matching._clears

        def spy(score, *rest):
            steps.append(score.shape)  # (rows, window) of the step's score block
            return clears(score, *rest)

        monkeypatch.setattr(matching, "_clears", spy)
        monkeypatch.setattr(matching, "_SCAN_CELLS", 64)
        sliced = serial_deferred_acceptance(market, caps)
        assert_same_matching(sliced, whole)
        assert all(rows <= max(1, 64 // window) for rows, window in steps)
        assert {8, 16, 32} <= {window for _, window in steps}
        assert max(rows for rows, _ in steps) == 8

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["serial", "split"])
    def test_allocations_are_bounded_by_the_slice_size(self, cpus, monkeypatch):
        # numpy reports its buffers to tracemalloc from every thread.  Each
        # thread's scan step holds at most six int64 or float64 arrays of
        # _SCAN_CELLS cells, and a round at most sixteen of one entry per
        # student.  Without slices this market's call allocates ~10 MiB.
        config, _ = fig1(colleges=200, noise="pareto", n_students=20000)
        market = sample_market(config, 1)
        caps = config.capacities()
        split_every_round(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        tracemalloc.start()
        try:
            deferred_acceptance(market, caps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = len(cpus) * 6 * 8 * matching._SCAN_CELLS + 16 * 8 * config.n_students
        assert peak <= bound
