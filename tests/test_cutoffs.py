"""Unit tests for cutoff extraction, demand, clearing, and diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisymatch.cutoffs import (
    check_market_clearing,
    demand_all,
    dense_cluster,
    extract_cutoffs,
    rate_exponent,
)
from noisymatch.matching import UNMATCHED, deferred_acceptance
from test_matching import make_market


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
        assert extract_cutoffs(m).tolist() == [0.7]

    def test_underfilled_is_minus_inf(self):
        market = make_market([[0, 1], [0, 1]], [[0.9, 0.1], [0.5, 0.2]])
        # student 1 loses college 0 and takes one of college 1's two seats
        m = deferred_acceptance(market, [1, 2])
        assert m.assignment.tolist() == [0, 1]
        cuts = extract_cutoffs(m)
        assert cuts[0] == 0.9
        assert cuts[1] == -np.inf


class TestDemand:
    def test_everything_affordable_takes_first_choice(self):
        market = make_market([[2, 0, 1]], [[0.1, 0.2, 0.3]])
        cuts = np.array([-np.inf, -np.inf, -np.inf])
        assert demand_all(market, cuts).tolist() == [2]

    def test_nothing_affordable_is_none(self):
        market = make_market([[0, 1]], [[0.5, 0.5]])
        cuts = np.array([1.5, 1.5])
        assert demand_all(market, cuts).tolist() == [UNMATCHED]

    def test_second_choice_when_first_unaffordable(self):
        market = make_market([[1, 0, 2]], [[0.8, 0.4, 0.9]])
        cuts = np.array([0.7, 0.9, 1.5])  # first choice (college 1) priced out
        assert demand_all(market, cuts).tolist() == [0]

    def test_demand_all_matches_scalar_demand(self, rng):
        market, caps = random_market(rng, n=40, c=4)
        cuts = rng.normal(0, 1, 4)
        vec = demand_all(market, cuts)
        for s in range(40):
            affordable = [c for c in market.prefs[s] if market.scores[s, c] >= cuts[c]]
            assert vec[s] == (affordable[0] if affordable else UNMATCHED)

    def test_raising_one_cutoff_never_improves_demand(self, rng):
        # monotone comparative static of the demand map
        for _ in range(20):
            market, caps = random_market(rng)
            c = market.n_colleges
            cuts = rng.normal(0, 1, c)
            before = demand_all(market, cuts)
            bumped = cuts.copy()
            j = int(rng.integers(0, c))
            bumped[j] += float(rng.exponential(1.0))
            after = demand_all(market, bumped)
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
            cuts = extract_cutoffs(m)
            assert (check_market_clearing(market, cuts, caps) == 0).all()
            assert np.array_equal(demand_all(market, cuts), m.assignment)

    def test_a_tie_at_a_full_college_s_cutoff_is_not_cleared(self):
        # two students scored 0.5 for one seat: deferred acceptance gives it
        # to the lower index, but both reach the cutoff, so demand does not
        # reproduce the assignment
        market = make_market([[0], [0]], [[0.5], [0.5]])
        m = deferred_acceptance(market, [1])
        assert m.assignment.tolist() == [0, UNMATCHED]
        assert extract_cutoffs(m).tolist() == [0.5]
        assert demand_all(market, m.cutoffs).tolist() == [0, 0]
        assert check_market_clearing(market, m.cutoffs, [1]).tolist() == [1]

    def test_lowered_cutoffs_create_excess(self):
        market = make_market(
            [[0], [0], [0]], [[0.9], [0.6], [0.3]]
        )
        m = deferred_acceptance(market, [1])
        cuts = extract_cutoffs(m) - 1.0
        excess = check_market_clearing(market, cuts, [1])
        assert excess[0] > 0

    def test_raised_cutoffs_zero_demand(self, rng):
        market, caps = random_market(rng, n=30, c=3)
        cuts = np.full(3, 100.0)
        excess = check_market_clearing(market, cuts, caps)
        assert excess.tolist() == [-c for c in caps]


class TestDenseCluster:
    def test_window_count_example(self):
        p, count = dense_cluster(np.array([0.0, 0.01, 0.02, 5.0]), 0.05, 3)
        assert p == 0.0 and count == 3

    def test_no_qualifying_window(self):
        assert dense_cluster(np.array([0.0, 1.0, 2.0, 3.0]), 0.5, 2) == (None, 0)

    def test_uniform_cutoffs_have_low_dense_window(self, rng):
        cuts = rng.random(1000)
        p, count = dense_cluster(cuts, 0.1, 50)
        assert p is not None and p <= 0.05
        assert count >= 50

    def test_ignores_underfilled_entries(self):
        cuts = np.array([-np.inf, 0.5, 0.52, -np.inf])
        p, count = dense_cluster(cuts, 0.05, 2)
        assert p == 0.5 and count == 2

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            dense_cluster(np.array([0.0]), 0.0, 1)
        with pytest.raises(ValueError):
            dense_cluster(np.array([0.0]), 0.1, 0)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=200),
        st.floats(0.01, 50),
        st.integers(1, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_quadratic_scan(self, cuts, delta, m_min):
        cuts = np.asarray(cuts)
        got = dense_cluster(cuts, delta, m_min)
        # brute force: check every cutoff as a window start
        best = None
        for p in sorted(cuts):
            count = int(((cuts >= p) & (cuts <= p + delta)).sum())
            if count >= m_min:
                best = (float(p), count)
                break
        assert got == (best if best is not None else (None, 0))


class TestRateExponent:
    def test_arithmetic_cases(self):
        assert rate_exponent(1.0, 1.0) == pytest.approx(0.125, abs=0)
        assert rate_exponent(2.0, 1.0) == pytest.approx(4.0 / 21.0, abs=1e-15)

    def test_vanishes_with_beta(self):
        assert rate_exponent(1e-12, 1.0) < 1e-11

    def test_domain(self):
        for beta, gamma in [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)]:
            with pytest.raises(ValueError):
                rate_exponent(beta, gamma)
