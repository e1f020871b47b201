"""Unit tests for cutoffs, demand, clearing, and the decay-rate exponent."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisymatch.cutoffs import (
    afford_from_matching,
    check_market_clearing,
    demand_all,
)
from noisymatch import rate_exponent
from noisymatch.estimation import _survivors
from noisymatch.market import sample_market
from noisymatch.matching import UNMATCHED, deferred_acceptance, stacked_deferred_acceptance
from noisymatch.presets import fig1, fig2
from test_matching import clears, heap_deferred_acceptance, make_market, tie_heavy_stacks


def random_market(rng, n=None, c=None):
    n = n or int(rng.integers(5, 80))
    c = c or int(rng.integers(1, 6))
    caps = rng.integers(1, 4, c)
    caps = np.minimum(caps, max(1, (n - 1) // c)).tolist()
    prefs = np.argsort(rng.random((n, c)), axis=1)
    scores = rng.normal(0, 1, (n, c))
    return make_market(prefs, scores), caps


class TestExtractCutoffs:
    def test_full_college_minimum_admit(self):
        market = make_market(
            [[0]] * 4, [[0.9], [0.7], [0.8], [0.2]]
        )
        m = deferred_acceptance(market, [3])
        assert m.cutoffs.tolist() == [0.7]
        assert m.cut_students.tolist() == [1]

    def test_underfilled_is_minus_inf(self):
        market = make_market([[0, 1], [0, 1]], [[0.9, 0.1], [0.5, 0.2]])
        # student 1 loses college 0 and takes one of college 1's two seats
        m = deferred_acceptance(market, [1, 2])
        assert m.assignment.tolist() == [0, 1]
        assert m.cutoffs.tolist() == [0.9, -np.inf]
        assert m.cut_students.tolist() == [0, 2]


def every_student(market):
    """Bar students for bare float cutoffs: n, which a score equal to the cutoff clears."""
    return np.full(market.n_colleges, market.n_students)


class TestDemand:
    def test_everything_affordable_takes_first_choice(self):
        market = make_market([[2, 0, 1]], [[0.1, 0.2, 0.3]])
        cuts = np.array([-np.inf, -np.inf, -np.inf])
        assert demand_all(market, cuts, every_student(market)).tolist() == [2]

    def test_nothing_affordable_is_none(self):
        market = make_market([[0, 1]], [[0.5, 0.5]])
        cuts = np.array([1.5, 1.5])
        assert demand_all(market, cuts, every_student(market)).tolist() == [UNMATCHED]

    def test_second_choice_when_first_unaffordable(self):
        market = make_market([[1, 0, 2]], [[0.8, 0.4, 0.9]])
        cuts = np.array([0.7, 0.9, 1.5])  # first choice (college 1) priced out
        assert demand_all(market, cuts, every_student(market)).tolist() == [0]

    @pytest.mark.parametrize("bars", [2, 4], ids=["fewer", "more"])
    def test_a_bar_for_each_college(self, bars):
        market = make_market([[2, 0, 1]], [[0.1, 0.2, 0.3]])
        cuts, cut_students = np.full(bars, -np.inf), np.full(bars, 1)
        for got in ((cuts, every_student(market)), (np.full(3, -np.inf), cut_students)):
            with pytest.raises(ValueError, match="one bar for each of 3 colleges"):
                demand_all(market, *got)
        with pytest.raises(ValueError, match="one bar for each of 3 colleges"):
            check_market_clearing(market, cuts, cut_students, [1, 1, 1])

    def test_demand_all_matches_scalar_demand(self, rng):
        # scores and cutoffs on a 5-point grid, so scores tie the bars
        market, caps = random_market(rng, n=40, c=4)
        market.scores[:] = rng.integers(0, 5, market.scores.shape) / 4
        cuts = rng.integers(0, 5, 4) / 4
        cut_students = rng.integers(0, 41, 4)
        vec = demand_all(market, cuts, cut_students)
        for s in range(40):
            scores = market.scores[s]
            affordable = [
                c for c in market.prefs[s] if clears(scores[c], s, cuts[c], cut_students[c])
            ]
            assert vec[s] == (affordable[0] if affordable else UNMATCHED)

    def test_raising_one_cutoff_never_improves_demand(self, rng):
        # monotone comparative static of the demand map
        for _ in range(20):
            market, caps = random_market(rng)
            c = market.n_colleges
            cuts = rng.normal(0, 1, c)
            before = demand_all(market, cuts, every_student(market))
            bumped = cuts.copy()
            j = int(rng.integers(0, c))
            bumped[j] += float(rng.exponential(1.0))
            after = demand_all(market, bumped, every_student(market))
            rank = np.argsort(market.prefs, axis=1)
            n = market.n_students
            r_before = np.where(
                before != UNMATCHED, rank[np.arange(n), np.clip(before, 0, None)], c
            )
            r_after = np.where(
                after != UNMATCHED, rank[np.arange(n), np.clip(after, 0, None)], c
            )
            assert (r_after >= r_before).all()
            assert not ((before == UNMATCHED) & (after != UNMATCHED)).any()


class TestMarketClearing:
    def test_da_cutoffs_clear(self, rng):
        for _ in range(15):
            market, caps = random_market(rng)
            m = deferred_acceptance(market, caps)
            bar = m.cutoffs, m.cut_students
            assert (check_market_clearing(market, *bar, caps) == 0).all()
            assert np.array_equal(demand_all(market, *bar), m.assignment)

    def test_a_tie_at_a_full_college_s_cutoff_is_not_cleared(self):
        # two students scored 0.5 for one seat: deferred acceptance gives it
        # to the lower index, which is the bar's student, so only the admit
        # clears the bar and demand reproduces the assignment
        market = make_market([[0], [0]], [[0.5], [0.5]])
        m = deferred_acceptance(market, [1])
        assert m.assignment.tolist() == [0, UNMATCHED]
        assert m.cutoffs.tolist() == [0.5]
        assert m.cut_students.tolist() == [0]
        assert demand_all(market, m.cutoffs, m.cut_students).tolist() == [0, UNMATCHED]
        assert check_market_clearing(market, m.cutoffs, m.cut_students, [1]).tolist() == [0]

    def test_lowered_cutoffs_create_excess(self):
        market = make_market(
            [[0], [0], [0]], [[0.9], [0.6], [0.3]]
        )
        m = deferred_acceptance(market, [1])
        cuts = m.cutoffs - 1.0
        excess = check_market_clearing(market, cuts, every_student(market), [1])
        assert excess[0] > 0

    def test_raised_cutoffs_zero_demand(self, rng):
        market, caps = random_market(rng, n=30, c=3)
        cuts = np.full(3, 100.0)
        excess = check_market_clearing(market, cuts, every_student(market), caps)
        assert excess.tolist() == [-c for c in caps]

    @pytest.mark.parametrize(
        "caps, message",
        [
            ([250.5] * 4, r"^capacities\[0\]: must be a positive integer, got 250.5$"),
            ([250] * 5, r"^capacities: expected 4 entries, got 5$"),
            ([True] * 4, r"^capacities\[0\]: must be a positive integer, got True$"),
            ([-5] * 4, r"^capacities\[0\]: must be a positive integer, got -5$"),
        ],
        ids=["fraction", "five-entries", "bool", "negative"],
    )
    def test_bad_capacities_raise_as_the_fixed_point_s_do(self, caps, message):
        # once they were truncated, counted or cast: 250.5 "cleared"
        config, _ = fig1(colleges=4)
        market = sample_market(config, 1)
        m = deferred_acceptance(market, config.capacities())
        assert not check_market_clearing(market, m.cutoffs, m.cut_students, [250] * 4).any()
        with pytest.raises(ValueError, match=message):
            check_market_clearing(market, m.cutoffs, m.cut_students, caps)


def kept_bars(cuts, kept):
    """(R, C) cutoffs with NaN, which no score reaches, off each row's kept colleges."""
    bars = np.full(cuts.shape, np.nan)
    slot = np.arange(len(cuts))[:, None]
    bars[slot, kept] = cuts[slot, kept]
    return bars


def afford_any(markets, cutoffs, cut_students):
    """(R, n) whether each student of each market clears some college's bar,
    by demand under the (R, C) bars; a NaN cutoff bars every score."""
    return np.array(
        [demand_all(m, cutoffs[r], cut_students[r]) != UNMATCHED for r, m in enumerate(markets)]
    )


class TestOneTieRule:
    """Demand, clearing and affordability compare scores with the bars of
    deferred acceptance by the fixed point's own rule, ties included."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_stacks())
    def test_demand_and_affordability_reproduce_the_matching(self, case):
        markets, caps = case
        prefs = np.stack([m.prefs for m in markets])
        scores = np.stack([m.scores for m in markets])
        assignment, cuts, cut_students = stacked_deferred_acceptance(prefs, scores, caps)
        n = len(markets[0].prefs)
        for r, market in enumerate(markets):
            # the heap reference reckons its bar students in plain Python
            heap = heap_deferred_acceptance(market, caps)
            assert cut_students[r].tolist() == heap.cut_students.tolist()
            bar = cuts[r], cut_students[r]
            assert demand_all(market, *bar).tolist() == assignment[r].tolist()
            # every full college clears exactly; the others keep their free seats
            excess = check_market_clearing(market, *bar, caps)
            full = cut_students[r] < n
            assert (excess[full] == 0).all() and (excess[~full] < 0).all()
        # one coalition of every college at epsilon 0 keeps every bar
        afford = afford_any(markets, cuts, cut_students)
        assert np.array_equal(afford, assignment != UNMATCHED)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_stacks(), st.data())
    def test_afford_read_off_the_matching_equals_the_bar_comparison(self, case, data):
        # every college of the stack in one of up to three coalitions, each
        # trimmed by its own epsilon; unmatched students, students matched
        # at trimmed colleges and students matched outside the coalition
        # all occur among the examples
        markets, caps = case
        prefs = np.stack([m.prefs for m in markets])
        scores = np.stack([m.scores for m in markets])
        assignment, cuts, cut_students = stacked_deferred_acceptance(prefs, scores, caps)
        split = data.draw(st.lists(st.integers(0, 2), min_size=len(caps), max_size=len(caps)))
        for k in set(split):
            members = [c for c, j in enumerate(split) if j == k]
            eps = data.draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
            kept = _survivors(cuts, members, eps)
            want = afford_any(markets, kept_bars(cuts, kept), cut_students)
            got = afford_from_matching(scores, assignment, cuts, cut_students, kept)
            assert got.dtype == bool
            assert np.array_equal(got, want)

    def test_students_matched_at_trimmed_colleges_are_compared(self):
        # fig2 under heavy-tailed noise, coalition 2 trimmed by half: some
        # students sit at a trimmed college and afford a kept one or not
        config, _ = fig2(colleges=10, n_students=600, replications=1, noise="pareto")
        market = sample_market(config, 0)
        m = deferred_acceptance(market, config.capacities())
        members = config.coalition_members(2)
        kept = _survivors(m.cutoffs[None], members, 0.5)
        bars = kept_bars(m.cutoffs[None], kept)
        want = afford_any([market], bars, m.cut_students[None])[0]
        got = afford_from_matching(
            market.scores[None], m.assignment[None], m.cutoffs[None], m.cut_students[None], kept
        )[0]
        assert np.array_equal(got, want)
        trimmed = np.isin(m.assignment, np.setdiff1d(members, kept[0]))
        assert got[trimmed].any() and not got[trimmed].all()
        assert not got[m.assignment == UNMATCHED].any()

    @staticmethod
    def demand_peak(colleges_per_coalition):
        """tracemalloc's peak over demand_all on a fig2 market of 20000
        students, and the market's n * C."""
        config, _ = fig2(colleges=colleges_per_coalition, n_students=20000, replications=1)
        market = sample_market(config, 0)
        m = deferred_acceptance(market, config.capacities())
        tracemalloc.start()
        try:
            demand = demand_all(market, m.cutoffs, m.cut_students)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(demand, m.assignment)
        return peak, market.n_students * market.n_colleges

    def test_demand_builds_no_n_by_c_table(self):
        # numpy reports its buffers to tracemalloc; the smallest n x C array
        # is a boolean one of n * C bytes
        peak, cells = self.demand_peak(100)
        assert peak < cells

    def test_demand_gathers_in_row_slices(self):
        # at 100 colleges n * C bytes is 2 MB: the block's booleans, its tie
        # cells and the booleans gathered in preference order, a row slice
        # at a time, must stay under that
        peak, cells = self.demand_peak(50)
        assert peak < cells


class TestRateExponent:
    def test_arithmetic_cases(self):
        assert rate_exponent(1.0, 1.0) == pytest.approx(0.125, abs=0)
        assert rate_exponent(2.0, 1.0) == pytest.approx(4.0 / 21.0, abs=1e-15)

    def test_vanishes_with_beta(self):
        assert rate_exponent(1e-12, 1.0) < 1e-11

    def test_domain(self):
        bad = [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0), (0.2, math.nan)]
        bad += [(math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0), (1.0, -math.inf)]
        for beta, gamma in bad:
            with pytest.raises(ValueError):
                rate_exponent(beta, gamma)
