"""Unit tests for economy configuration and market sampling."""

import math
import os
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from noisymatch.config_io import build_kind, kind_entry
from noisymatch.errors import ConfigError, OverdemandError, ReplicationError
from noisymatch.market import (
    CapacityRegularityWarning,
    Coalition,
    College,
    CommonRanking,
    EconomyConfig,
    ExplicitSampler,
    PiecewiseLinearCdf,
    TieredByCoalition,
    UniformRandomPreferences,
    UniformValues,
    prefs_dtype,
    sample_market,
    sample_stack,
    stream_rngs,
    v_s_threshold,
    STREAM_NOISE,
    STREAM_PREFS,
    STREAM_VALUES,
)
from noisymatch import market as market_module
from noisymatch.noise import Exponential, Gaussian, Gumbel, Pareto, Uniform


def one_pool_config(n=1000, colleges=4, noise=Uniform(0, 1), seed=11, values=None):
    seats = n // 2 // colleges
    return EconomyConfig(
        n_students=n,
        colleges=tuple(College(id=i, capacity=seats, coalition=0) for i in range(colleges)),
        coalitions=(Coalition(id=0, values=values or UniformValues(0, 1), noise=noise),),
        preferences=UniformRandomPreferences(),
        master_seed=seed,
    )


def two_pool_config(n=400, per_coalition=3, noise=None, seed=5):
    cols = tuple(
        [College(id=i, capacity=20, coalition=0) for i in range(per_coalition)]
        + [College(id=100 + i, capacity=30, coalition=1) for i in range(per_coalition)]
    )
    return EconomyConfig(
        n_students=n,
        colleges=cols,
        coalitions=(
            Coalition(id=0, values=UniformValues(0, 1), noise=noise),
            Coalition(id=1, values=UniformValues(0, 1), noise=noise),
        ),
        preferences=TieredByCoalition(),
        master_seed=seed,
    )


class TestValueDistributions:
    def test_uniform_quantiles(self):
        assert v_s_threshold(UniformValues(0, 1), 0.5) == pytest.approx(0.5)
        assert v_s_threshold(UniformValues(0, 1), 0.25) == pytest.approx(0.75)

    def test_piecewise_hand_inversion(self):
        dist = PiecewiseLinearCdf(knots=((0, 0), (1, 0.8), (2, 1)))
        # mass above v is 0.2 exactly at the middle knot
        assert v_s_threshold(dist, 0.2) == pytest.approx(1.0)
        assert dist.cdf(0.5) == pytest.approx(0.4)
        assert dist.quantile(0.9) == pytest.approx(1.5)

    def test_s_domain(self):
        for s in (0.0, 1.0, -0.2, 3.0):
            with pytest.raises(ValueError):
                v_s_threshold(UniformValues(0, 1), s)

    def test_piecewise_validation(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            PiecewiseLinearCdf(knots=((0, 0), (0, 0.5), (1, 1)))
        with pytest.raises(ConfigError, match="strictly increasing"):
            PiecewiseLinearCdf(knots=((0, 0), (1, 0.5), (2, 0.5), (3, 1)))
        with pytest.raises(ConfigError, match="start at 0"):
            PiecewiseLinearCdf(knots=((0, 0.1), (1, 1)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "0"])
    def test_value_parameters_must_be_finite_numbers(self, bad):
        message = "must be finite" if isinstance(bad, float) else "must be a number"
        with pytest.raises(ConfigError, match=rf"^values\.hi: {message}, got "):
            UniformValues(0.0, bad)
        with pytest.raises(ConfigError, match=rf"^values\.lo: {message}, got "):
            UniformValues(bad, 1.0)
        with pytest.raises(ConfigError, match=rf"^values\.knots\[1\]: {message}, got "):
            PiecewiseLinearCdf(knots=((0, 0), (bad, 1)))

    def test_knots_must_be_pairs(self):
        # the document's lists arrive as tuples
        match = r"^values\.knots\[1\]: must be a \[value, probability\] pair, got \(1,\)$"
        with pytest.raises(ConfigError, match=match):
            build_kind("values", {"kind": "piecewise", "knots": [[0, 0], [1]]})

    def test_piecewise_sampling_matches_cdf(self, rng):
        dist = PiecewiseLinearCdf(knots=((0, 0), (1, 0.8), (2, 1)))
        draws = dist.sample(rng, 10_000)
        ks = sps.kstest(draws, lambda x: dist.cdf(x)).statistic
        assert ks <= 0.02

    def test_serde(self):
        for dist in (UniformValues(0, 1), PiecewiseLinearCdf(knots=((0, 0), (2, 1)))):
            assert build_kind("values", kind_entry(dist)) == dist


class TestPreferenceModels:
    def test_uniform_random_rows_are_permutations(self, rng):
        prefs = UniformRandomPreferences().sample_prefs([rng], 200, 7, np.zeros(7, int))[0]
        expected = np.arange(7)
        assert all(np.array_equal(np.sort(row), expected) for row in prefs)

    def test_common_ranking_shared(self, rng):
        model = CommonRanking(ranking=(2, 0, 1))
        prefs = model.sample_prefs([rng], 10, 3, np.zeros(3, int))[0]
        assert np.array_equal(prefs, np.tile([2, 0, 1], (10, 1)))

    def test_tiered_respects_coalition_order(self, rng):
        tiers = np.array([0, 0, 1, 1, 1])
        prefs = TieredByCoalition().sample_prefs([rng], 500, 5, tiers)[0]
        # tier-0 colleges occupy the first two slots of every ranking
        assert (np.sort(prefs[:, :2], axis=1) == [0, 1]).all()

    def test_explicit_sampler_frequencies(self, rng):
        model = ExplicitSampler(rankings=((0, 1), (1, 0)), probabilities=(0.8, 0.2))
        prefs = model.sample_prefs([rng], 20_000, 2, np.zeros(2, int))[0]
        share_first = (prefs[:, 0] == 0).mean()
        assert share_first == pytest.approx(0.8, abs=0.01)

    def test_explicit_sampler_validation(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            ExplicitSampler(rankings=((0, 1),), probabilities=(0.5,))

    def test_serde(self):
        for model in (
            UniformRandomPreferences(),
            CommonRanking(ranking=(1, 0)),
            TieredByCoalition(),
            ExplicitSampler(rankings=((0, 1),), probabilities=(1.0,)),
        ):
            assert build_kind("preferences", kind_entry(model)) == model


class TestConfigValidation:
    def test_overdemand_required(self):
        with pytest.raises(OverdemandError):
            EconomyConfig(
                n_students=10,
                colleges=(College(id=0, capacity=10, coalition=0),),
                coalitions=(Coalition(id=0, values=UniformValues(0, 1), noise=None),),
                preferences=UniformRandomPreferences(),
                master_seed=1,
            )

    def test_unknown_coalition(self):
        with pytest.raises(ConfigError, match="coalition"):
            EconomyConfig(
                n_students=10,
                colleges=(College(id=0, capacity=2, coalition=9),),
                coalitions=(Coalition(id=0, values=UniformValues(0, 1), noise=None),),
                preferences=UniformRandomPreferences(),
                master_seed=1,
            )

    def test_empty_coalition(self):
        with pytest.raises(ConfigError, match="no colleges"):
            EconomyConfig(
                n_students=10,
                colleges=(College(id=0, capacity=2, coalition=0),),
                coalitions=(
                    Coalition(id=0, values=UniformValues(0, 1), noise=None),
                    Coalition(id=1, values=UniformValues(0, 1), noise=None),
                ),
                preferences=UniformRandomPreferences(),
                master_seed=1,
            )

    @pytest.mark.parametrize(
        "alpha, message",
        [
            (math.nan, "must be finite, got nan"),
            (math.inf, "must be finite, got inf"),
            ("2", "must be a number, got '2'"),
            (0.0, "must be above 0, got 0.0"),
            (-1.0, "must be above 0, got -1.0"),
        ],
        ids=["nan", "inf", "string", "zero", "negative"],
    )
    def test_capacity_alpha_must_be_finite_and_positive(self, alpha, message):
        # NaN would turn the regularity warning off: no capacity exceeds NaN
        with pytest.raises(ConfigError, match=rf"^capacity_alpha: {re.escape(message)}$"):
            EconomyConfig(
                n_students=100,
                colleges=(College(id=0, capacity=60, coalition=0),),
                coalitions=(Coalition(id=0, values=UniformValues(0, 1), noise=None),),
                preferences=UniformRandomPreferences(),
                master_seed=1,
                capacity_alpha=alpha,
            )

    @pytest.mark.parametrize(
        "capacity", [math.inf, math.nan, True, 2.5, 0, "3", 500.0, 2.0],
        ids=["inf", "nan", "bool", "fraction", "zero", "string", "float-500", "float-2"],
    )
    def test_capacity_must_be_a_positive_integer(self, capacity):
        # a preset or library caller reaches EconomyConfig without config_io's
        # checks; an integral float would be written, and hashed, as a float
        message = re.escape("colleges[1].capacity: must be a positive integer")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            EconomyConfig(
                n_students=100,
                colleges=(
                    College(id=0, capacity=2, coalition=0),
                    College(id=1, capacity=capacity, coalition=0),
                ),
                coalitions=(Coalition(id=0, values=UniformValues(0, 1), noise=None),),
                preferences=UniformRandomPreferences(),
                master_seed=1,
            )

    def test_capacity_regularity_warning(self):
        with pytest.warns(CapacityRegularityWarning):
            EconomyConfig(
                n_students=100,
                colleges=(
                    College(id=0, capacity=60, coalition=0),
                    College(id=1, capacity=2, coalition=0),
                ),
                coalitions=(Coalition(id=0, values=UniformValues(0, 1), noise=None),),
                preferences=UniformRandomPreferences(),
                master_seed=1,
            )


class TestSampleMarket:
    def test_empirical_value_cdf_uniform(self):
        config = one_pool_config(n=100_000, colleges=2)
        market = sample_market(config, 0)
        v = np.sort(market.values[:, 0])
        sup = np.max(np.abs(v - np.arange(1, len(v) + 1) / len(v)))
        assert sup <= 0.01  # DKW-style empirical check

    def test_marginal_ks_distance(self):
        dist = PiecewiseLinearCdf(knots=((0, 0), (1, 0.8), (2, 1)))
        config = one_pool_config(n=10_000, colleges=2, values=dist)
        market = sample_market(config, 0)
        ks = sps.kstest(market.values[:, 0], lambda x: dist.cdf(x)).statistic
        assert ks <= 0.02

    def test_tiered_rankings_list_coalition_one_first(self):
        config = two_pool_config(n=300)
        market = sample_market(config, 0)
        tiers = market.college_coalition[market.prefs]
        assert (np.diff(tiers, axis=1) >= 0).all()

    def test_uniform_noise_bounds(self):
        config = one_pool_config(n=500, colleges=3, noise=Uniform(0, 1))
        market = sample_market(config, 0)
        resid = market.scores - market.values[:, market.college_coalition]
        assert resid.min() >= 0.0 and resid.max() <= 1.0

    def test_noiseless_scores_equal_values(self):
        config = two_pool_config(n=300, noise=None)
        market = sample_market(config, 0)
        expected = market.values[:, market.college_coalition]
        assert np.array_equal(market.scores, expected)

    def test_coalition_value_shared_across_members(self):
        # same coalition value feeds every member college's score
        config = two_pool_config(n=200, noise=Uniform(0, 1))
        market = sample_market(config, 0)
        for k in (0, 1):
            cols = np.nonzero(market.college_coalition == k)[0]
            base = market.scores[:, cols] - market.values[:, [k] * len(cols)]
            assert base.min() >= 0.0 and base.max() <= 1.0

    def test_determinism_and_replication_isolation(self):
        config = one_pool_config(n=2000, colleges=4)
        a = sample_market(config, 3)
        b = sample_market(config, 3)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.prefs, b.prefs)
        c = sample_market(config, 4)
        assert not np.array_equal(a.scores, c.scores)

    def test_streams_do_not_overlap(self):
        # distinct replications draw from non-overlapping streams
        a, b = (rng.random(10_000) for rng in stream_rngs(99, range(2), STREAM_VALUES))
        assert len(np.intersect1d(a, b)) == 0

    def test_pareto_noise_support(self):
        config = one_pool_config(n=500, colleges=3, noise=Pareto(2.0, 0.3))
        market = sample_market(config, 0)
        resid = market.scores - market.values[:, market.college_coalition]
        assert resid.min() >= 0.3


def loop_sample_market(config, replication):
    """Reference sampler: one argsort of the full key matrix, and one noise
    draw per college, in college order."""
    n = config.n_students
    coal_idx = config.coalition_index()

    def child_stream(stream):
        return stream_rngs(config.master_seed, range(replication, replication + 1), stream)[0]

    rng_values = child_stream(STREAM_VALUES)
    values = np.empty((n, len(config.coalitions)))
    for k, coalition in enumerate(config.coalitions):
        values[:, k] = coalition.values.sample(rng_values, n)
    key = child_stream(STREAM_PREFS).random((n, config.n_colleges))
    if isinstance(config.preferences, TieredByCoalition):
        key = coal_idx[None, :] + key
    prefs = np.argsort(key, axis=1)
    rng_noise = child_stream(STREAM_NOISE)
    scores = values[:, coal_idx].copy()
    for c in range(config.n_colleges):
        spec = config.coalitions[coal_idx[c]].noise
        if spec is not None:
            scores[:, c] += spec.sample(rng_noise, n)
    return values, prefs, scores


NOISE_FAMILIES = {
    "uniform": Uniform(0.0, 1.0),
    "gaussian": Gaussian(0.0, 1.0),
    "exponential": Exponential(1.0),
    "gumbel": Gumbel(0.0, 1.0),
    "pareto": Pareto(2.0, 0.3),
    "none": None,
}


def layout_config(coalition_of_college, noises, n=300, seed=13):
    """One seat per college; college i belongs to coalition coalition_of_college[i]."""
    return EconomyConfig(
        n_students=n,
        colleges=tuple(
            College(id=i, capacity=1, coalition=k) for i, k in enumerate(coalition_of_college)
        ),
        coalitions=tuple(
            Coalition(id=k, values=UniformValues(0, 1), noise=noise)
            for k, noise in enumerate(noises)
        ),
        preferences=UniformRandomPreferences(),
        master_seed=seed,
    )


def assert_same_bytes(market, reference):
    """values and scores byte for byte; prefs by value, in prefs_dtype."""
    values, prefs, scores = reference
    for got, want in ((market.values, values), (market.scores, scores)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert market.prefs.dtype == prefs_dtype(market.n_colleges) == np.int16
    assert np.array_equal(market.prefs, prefs)


class TestFusedSampling:
    """sample_market draws noise in blocks; the bytes must equal the loop's."""

    @pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
    @pytest.mark.parametrize(
        "layout",
        [
            # two coalitions interleaved in config order
            ([0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0], "other"),
            # two coalitions with equal specs but their own value columns
            ([0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1], "same"),
            # a noiseless coalition next to a noisy one
            ([0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 1], "none"),
        ],
        ids=["interleaved", "equal-specs", "noiseless-neighbour"],
    )
    def test_block_draws_match_per_college_loop(self, family, layout, monkeypatch):
        order, partner = layout
        noise = NOISE_FAMILIES[family]
        other = {"other": Gumbel(0.5, 2.0), "same": noise, "none": None}[partner]
        config = layout_config(order, (noise, other))
        # blocks of three colleges, so runs of four or more split
        monkeypatch.setattr(market_module, "_BLOCK_CELLS", 3 * config.n_students + 1)
        for r in (0, 5):
            assert_same_bytes(sample_market(config, r), loop_sample_market(config, r))

    @pytest.mark.parametrize("family", sorted(NOISE_FAMILIES))
    def test_coalition_wider_than_the_block_cap(self, family):
        # 1100 x 1000 cells: the real cap gives blocks of 238 colleges, so the
        # one run of 1000 colleges takes five draws
        config = layout_config([0] * 1000, (NOISE_FAMILIES[family],), n=1100)
        assert market_module._BLOCK_CELLS // config.n_students < config.n_colleges
        assert_same_bytes(sample_market(config, 2), loop_sample_market(config, 2))

    def test_one_college_per_block(self, monkeypatch):
        config = layout_config([0, 0, 1, 0, 1, 1], (Pareto(2.0, 0.3), Uniform(0, 1)))
        monkeypatch.setattr(market_module, "_BLOCK_CELLS", 1)
        assert_same_bytes(sample_market(config, 1), loop_sample_market(config, 1))


PREF_CONFIGS = {
    # 181 students: neither 3 nor 180 rows per block divides them evenly
    "uniform_random": lambda: layout_config(
        [0, 1, 1, 0, 0, 1, 0], (Pareto(2.0, 0.3), Uniform(0, 1)), n=181
    ),
    "tiered_by_coalition": lambda: two_pool_config(n=181, noise=Gumbel(0.5, 2.0)),
}

PATHS = {"threaded": 0, "serial": float("inf")}


@pytest.fixture
def two_cpus(monkeypatch):
    """The threaded path needs a second CPU: pretend the process may use two,
    so these tests take it under a one-CPU affinity mask too."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.usefixtures("two_cpus")
class TestBlockSortedPrefs:
    """Keys are argsorted in row blocks into int16; the ranks must equal one
    argsort of the full key matrix, on either side of the thread threshold."""

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("model", sorted(PREF_CONFIGS))
    @pytest.mark.parametrize(
        "rows",
        [1, 3, 180, 181],
        ids=["one-row-per-block", "last-block-one-row", "two-blocks", "one-block"],
    )
    def test_row_blocks_match_one_argsort(self, rows, model, path, monkeypatch):
        config = PREF_CONFIGS[model]()
        monkeypatch.setattr(market_module, "_BLOCK_CELLS", rows * config.n_colleges)
        monkeypatch.setattr(market_module, "_PREFS_THREAD_MIN_CELLS", PATHS[path])
        for r in (0, 3):
            assert_same_bytes(sample_market(config, r), loop_sample_market(config, r))

    def test_block_cap_below_one_row(self, monkeypatch):
        config = PREF_CONFIGS["tiered_by_coalition"]()
        monkeypatch.setattr(market_module, "_BLOCK_CELLS", 1)
        assert_same_bytes(sample_market(config, 1), loop_sample_market(config, 1))

    def test_fixed_rankings_share_the_sampled_dtype(self, rng):
        tiers = np.zeros(3, int)
        rngs = [rng, rng]
        common = CommonRanking(ranking=(2, 0, 1)).sample_prefs(rngs, 4, 3, tiers)
        explicit = ExplicitSampler(rankings=((0, 1, 2),), probabilities=(1.0,)).sample_prefs(
            rngs, 4, 3, tiers
        )
        sampled = UniformRandomPreferences().sample_prefs(rngs, 4, 3, tiers)
        tiered = TieredByCoalition().sample_prefs(rngs, 4, 3, tiers)
        assert common.shape == explicit.shape == sampled.shape == tiered.shape == (2, 4, 3)
        assert common.dtype == explicit.dtype == sampled.dtype == tiered.dtype == prefs_dtype(3)

    def test_prefs_dtype_holds_every_college_index(self):
        # no market with 32769 colleges fits in memory, so the boundary is
        # checked on the function itself
        assert prefs_dtype(1) == prefs_dtype(32768) == np.int16
        assert prefs_dtype(32769) == np.int32
        assert np.iinfo(prefs_dtype(32768)).max == 32767


class PlantedKeys:
    """A stand-in generator whose random() hands out a fixed key matrix in
    order, as a stream fills its matrix row by row."""

    def __init__(self, keys):
        self.keys, self.at = keys.ravel(), 0

    def random(self, out):
        out[...] = self.keys[self.at : self.at + out.size].reshape(out.shape)
        self.at += out.size


# one column short of the packed sort, its first width, and amplify-large's
PACKED_WIDTHS = {
    "argsort": market_module._PACKED_RANK_MIN_COLLEGES - 1,
    "packed": market_module._PACKED_RANK_MIN_COLLEGES,
    "packed-1000": 1000,
}


class TestPackedRanking:
    """Rows of at least _PACKED_RANK_MIN_COLLEGES colleges are ranked by one
    uint64 sort; the ranks must equal np.argsort's, ties included."""

    @staticmethod
    def tiers(n_colleges, tiered):
        # two coalitions, interleaved, as TieredByCoalition adds them
        return np.arange(n_colleges) % 2 if tiered else None

    @pytest.mark.parametrize("tiered", [False, True], ids=["uniform", "tiered"])
    @pytest.mark.parametrize("width", sorted(PACKED_WIDTHS))
    @pytest.mark.parametrize("n", [40, 300], ids=["markets-per-block", "row-blocks"])
    def test_ranks_equal_argsort(self, n, width, tiered):
        c = PACKED_WIDTHS[width]
        tiers = self.tiers(c, tiered)
        got = market_module._argsort_keys(stream_rngs(3, range(4), STREAM_PREFS), n, c, tiers)
        for rng, prefs in zip(stream_rngs(3, range(4), STREAM_PREFS), got):
            key = rng.random((n, c))
            if tiered:
                key += tiers
            assert np.array_equal(prefs, np.argsort(key, axis=1))

    @pytest.mark.parametrize("tiered", [False, True], ids=["uniform", "tiered"])
    @pytest.mark.parametrize("width", sorted(PACKED_WIDTHS))
    def test_planted_ties_rank_as_argsort_does(self, width, tiered, rng):
        c, n = PACKED_WIDTHS[width], 600
        keys = rng.random((n, c))
        rows = rng.choice(n, 60, replace=False)
        for i, row in enumerate(rows):
            a, b = sorted(rng.choice(c, 2, replace=False))
            if i % 3 == 0:  # an exact tie
                keys[row, a] = keys[row, b]
            elif i % 3 == 1:  # keys one ulp apart, the larger first: equal once truncated
                keys[row, a] = np.nextafter(keys[row, b], 2.0)
            else:  # a run of equal keys, 0.0 among them
                keys[row, rng.choice(c, 20, replace=False)] = 0.0 if i % 2 else keys[row, a]
        keys[rows[0]] = keys[rows[0], 0]  # a row of one key
        tiers = self.tiers(c, tiered)
        want = np.argsort(keys if tiers is None else keys + tiers, axis=1)
        got = market_module._argsort_keys([PlantedKeys(keys)], n, c, tiers)[0]
        assert np.array_equal(got, want)
        if c >= market_module._PACKED_RANK_MIN_COLLEGES:
            # the index bits alone would put the larger key of a truncated
            # tie first, so the rows above need the argsort fallback
            b = (c - 1).bit_length()
            key = keys if tiers is None else keys + tiers
            packed = key.view(np.uint64) >> (b - 1) << b | np.arange(c, dtype=np.uint64)
            alone = np.sort(packed, axis=1) & ((1 << b) - 1)
            assert not np.array_equal(alone, want)
            assert np.array_equal(np.delete(alone, rows, 0), np.delete(want, rows, 0))


class TestPairRanking:
    """Rows of two colleges are ranked by one comparison; the ranks must
    equal np.argsort's, equal keys going to the lower index."""

    @pytest.mark.parametrize(
        "tiers", [None, [0, 1], [1, 0]], ids=["uniform", "tiered", "tiered-reversed"]
    )
    def test_ranks_equal_argsort(self, tiers, rng):
        keys = rng.random((600, 2))
        keys[::7, 1] = keys[::7, 0]  # exact ties
        keys[3::7] = 0.0
        keys[5::7, 1] = np.nextafter(keys[5::7, 0], 2.0)
        keys[6::7, 0] = np.nextafter(keys[6::7, 1], 2.0)
        tiers = None if tiers is None else np.array(tiers)
        want = np.argsort(keys if tiers is None else keys + tiers, axis=1)
        # 600 rows of two keys span one stack block of markets of 200 students
        stack = [PlantedKeys(keys[i : i + 200]) for i in range(0, 600, 200)]
        got = market_module._argsort_keys(stack, 200, 2, tiers)
        assert got.dtype == np.int16
        assert np.array_equal(got.reshape(600, 2), want)
        if tiers is None:  # the planted ties are real
            assert (want[::7] == [0, 1]).all() and (want[3::7] == [0, 1]).all()

    @pytest.mark.parametrize("model", ["uniform_random", "tiered_by_coalition"])
    def test_sampled_prefs_equal_the_argsort_reference(self, model):
        # two coalitions of one college each: the tier decides every row
        if model == "uniform_random":
            config = one_pool_config(n=300, colleges=2)
        else:
            config = two_pool_config(n=300, per_coalition=1)
        for r in range(3):
            prefs = sample_market(config, r).prefs
            assert np.array_equal(prefs, loop_sample_market(config, r)[1])


@pytest.mark.usefixtures("two_cpus")
class TestPrefsThread:
    @pytest.mark.parametrize("model", sorted(PREF_CONFIGS))
    def test_threshold_does_not_change_the_market(self, model, monkeypatch):
        config = PREF_CONFIGS[model]()
        markets = []
        for threshold in PATHS.values():
            monkeypatch.setattr(market_module, "_PREFS_THREAD_MIN_CELLS", threshold)
            markets.append(sample_market(config, 2))
        threaded, serial = markets
        for field in ("values", "prefs", "scores", "college_coalition"):
            got, want = getattr(threaded, field), getattr(serial, field)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_error_on_the_thread_reaches_the_caller(self, monkeypatch):
        # EconomyConfig rejects a bad ranking, so the model raises the
        # ConfigError such a ranking gives as it samples
        config = PREF_CONFIGS["uniform_random"]()
        ran_on = []

        def bad_ranking(self, *args):
            ran_on.append(threading.get_ident())
            CommonRanking(ranking=(0, 0)).check(2)

        monkeypatch.setattr(UniformRandomPreferences, "sample_prefs", bad_ranking)
        raised = []
        for threshold in (PATHS["serial"], PATHS["threaded"]):
            monkeypatch.setattr(market_module, "_PREFS_THREAD_MIN_CELLS", threshold)
            with pytest.raises(ReplicationError) as err:
                sample_market(config, 0)
            raised.append((str(err.value), type(err.value.__cause__)))
        assert ran_on[0] == threading.get_ident() != ran_on[1]
        message = "replication 0: preferences.ranking: must be a permutation of 0..1"
        assert raised == [(message, ConfigError)] * 2

    def test_error_on_the_thread_is_kept_when_the_scores_fail(self, monkeypatch):
        config = PREF_CONFIGS["uniform_random"]()

        def bad_ranking(self, *args):
            CommonRanking(ranking=(0, 0)).check(2)

        def bad_scores(*args):
            raise ValueError("scores failed")

        monkeypatch.setattr(UniformRandomPreferences, "sample_prefs", bad_ranking)
        monkeypatch.setattr(market_module, "_sample_scores", bad_scores)
        monkeypatch.setattr(market_module, "_PREFS_THREAD_MIN_CELLS", PATHS["threaded"])
        with pytest.raises(ReplicationError, match="^replication 0: preferences.ranking") as err:
            sample_market(config, 0)
        assert isinstance(err.value.__context__, ValueError)

    def test_thread_minimum_is_not_the_block_size(self, monkeypatch):
        started = []
        pool = market_module.ThreadPoolExecutor

        def spy(*args, **kwargs):
            started.append(True)
            return pool(*args, **kwargs)

        monkeypatch.setattr(market_module, "ThreadPoolExecutor", spy)
        for n, colleges, threaded in ((1000, 400, False), (2000, 600, True)):
            config = layout_config([0] * colleges, (Pareto(2.0, 0.3),), n=n)
            cells = n * colleges
            assert market_module._BLOCK_CELLS < cells
            assert (cells >= market_module._PREFS_THREAD_MIN_CELLS) == threaded
            started.clear()
            assert_same_bytes(sample_market(config, 1), loop_sample_market(config, 1))
            assert started == [True] * threaded

    def test_without_helper_threads_prefs_stay_on_the_calling_thread(self, monkeypatch):
        config = PREF_CONFIGS["uniform_random"]()
        ran_on = []
        sample_prefs = UniformRandomPreferences.sample_prefs

        def spy(self, *args):
            ran_on.append(threading.get_ident())
            return sample_prefs(self, *args)

        monkeypatch.setattr(UniformRandomPreferences, "sample_prefs", spy)
        monkeypatch.setattr(market_module, "_PREFS_THREAD_MIN_CELLS", PATHS["threaded"])
        with monkeypatch.context() as mp:
            mp.setattr(market_module, "helper_threads_allowed", lambda: False)
            serial = sample_market(config, 4)
        threaded = sample_market(config, 4)
        assert ran_on[0] == threading.get_ident() != ran_on[1]
        assert_same_bytes(serial, loop_sample_market(config, 4))
        assert_same_bytes(threaded, loop_sample_market(config, 4))

    @pytest.mark.parametrize(
        "model, message",
        [
            (CommonRanking(ranking=(0, 0)), r"^preferences\.ranking: must be a permutation of 0\.\.1$"),
            (
                ExplicitSampler(rankings=((0, 1), (1, 2)), probabilities=(0.5, 0.5)),
                r"^preferences\.rankings: \(1, 2\) is not a permutation of 0\.\.1$",
            ),
        ],
        ids=["common_ranking", "explicit"],
    )
    def test_config_rejects_a_ranking_that_is_not_a_permutation(self, model, message):
        with pytest.raises(ConfigError, match=message):
            two_college_config(model)

    @pytest.mark.parametrize(
        "model, message",
        [
            (CommonRanking(ranking=(True, False)), r"^preferences\.ranking\[0\]: .* got True$"),
            (CommonRanking(ranking=(1, 0.0)), r"^preferences\.ranking\[1\]: .* got 0\.0$"),
            (CommonRanking(ranking=("1", "0")), r"^preferences\.ranking\[0\]: .* got '1'$"),
            (
                ExplicitSampler(rankings=((0, 1), (1.0, 0)), probabilities=(0.5, 0.5)),
                r"^preferences\.rankings\[1\]\[0\]: must be an integer, got 1\.0$",
            ),
        ],
        ids=["bool", "float", "string", "explicit-float"],
    )
    def test_config_rejects_a_ranking_entry_that_is_not_an_integer(self, model, message):
        with pytest.raises(ConfigError, match=message):
            two_college_config(model)

    def test_config_rejects_non_finite_ids(self):
        # two NaNs are unequal, so two colleges with id NaN pass as unique
        config = two_college_config(UniformRandomPreferences())
        nans = tuple(College(id=float("nan"), capacity=2, coalition=0) for _ in range(2))
        with pytest.raises(ConfigError, match=r"^colleges\[0\]\.id: must be finite, got nan$"):
            replace(config, colleges=nans)
        colleges = tuple(replace(c, coalition=-np.inf) for c in config.colleges)
        coalitions = (replace(config.coalitions[0], id=-np.inf),)
        with pytest.raises(ConfigError, match=r"^coalitions\[0\]\.id: must be finite, got -inf$"):
            replace(config, colleges=colleges, coalitions=coalitions)

    @pytest.mark.parametrize("bad", [None, True, (1,)], ids=["none", "bool", "tuple"])
    def test_config_rejects_an_id_a_document_cannot_hold(self, bad):
        # the messages dict_to_config gives the same ids in a document
        config = two_college_config(UniformRandomPreferences())
        got = f"must be a number or a string, got {bad!r}"
        first, second = config.colleges
        cases = [
            ({"colleges": (replace(first, id=bad), second)}, "colleges[0].id"),
            ({"colleges": (first, replace(second, coalition=bad))}, "colleges[1].coalition"),
            (
                {
                    "colleges": tuple(replace(c, coalition=bad) for c in config.colleges),
                    "coalitions": (replace(config.coalitions[0], id=bad),),
                },
                "coalitions[0].id",
            ),
        ]
        for changes, field in cases:
            with pytest.raises(ConfigError, match=f"^{re.escape(f'{field}: {got}')}$"):
                replace(config, **changes)

    def test_numpy_integers_rank(self):
        ranking = tuple(np.array([1, 0]))
        config = two_college_config(CommonRanking(ranking=ranking))
        assert sample_market(config, 0).prefs[0].tolist() == [1, 0]


def two_college_config(preferences):
    return EconomyConfig(
        n_students=10,
        colleges=(College(id=0, capacity=2, coalition=0), College(id=1, capacity=2, coalition=0)),
        coalitions=(Coalition(id=0, values=UniformValues(0, 1), noise=Uniform(0, 1)),),
        preferences=preferences,
        master_seed=1,
    )


class TestSamplingMemory:
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["serial", "threaded"])
    def test_peak_exceeds_the_market_by_a_few_blocks(self, cpus, monkeypatch):
        # numpy reports its buffers to tracemalloc from every thread.  Each
        # stream holds at most two float64 blocks at once (keys and argsort's
        # int64 ranks, or a noise draw and its transform); the two streams
        # overlap only on the threaded path.  With 2^20-cell blocks, this
        # market's temporaries reached ~16 MiB serially and ~32 MiB threaded.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        config = one_pool_config(n=20000, colleges=200, noise=Pareto(2.0, 0.3))
        assert config.n_students * config.n_colleges >= market_module._PREFS_THREAD_MIN_CELLS
        tracemalloc.start()
        try:
            market = sample_market(config, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = market.values.nbytes + market.prefs.nbytes + market.scores.nbytes
        block = 8 * market_module._BLOCK_CELLS
        assert peak - held <= (2 * len(cpus) + 1) * block


# seeds of one, two, three, four, five and seven 32-bit words (10**39 + 7
# has 40 digits; 2**127 + 5 is the last seed with no word past the pool)
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 5, 10**39 + 7, 2**200 + 3]
# replication indices of one 32-bit word, and across the one-to-two and
# two-to-three word edges
REPLICATIONS = [range(0, 3), range(2**32 - 2, 2**32 + 2), range(2**64 - 1, 2**64 + 1)]


def numpy_rng(master_seed, replication, stream):
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(replication, stream)))


class TestStreams:
    """Stream generators are numpy's SeedSequence generators, derived in one pass."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("replications", REPLICATIONS, ids=["one-word", "across-2^32", "across-2^64"])
    def test_seed_words_and_draws_equal_numpy(self, seed, replications):
        for stream in (STREAM_VALUES, STREAM_PREFS, STREAM_NOISE):
            words = market_module._seed_words(seed, replications, stream)
            want = [
                np.random.SeedSequence(seed, spawn_key=(r, stream)).generate_state(4, np.uint64)
                for r in replications
            ]
            assert words.dtype == np.uint64
            assert np.array_equal(words, want)
            rngs = market_module.stream_rngs(seed, replications, stream)
            assert len(rngs) == len(replications)
            for rng, r in zip(rngs, replications):
                for gen in (rng, stream_rngs(seed, range(r, r + 1), stream)[0]):
                    ref = numpy_rng(seed, r, stream)
                    assert gen.random(5).tobytes() == ref.random(5).tobytes()
                    assert gen.integers(0, 2**62, 3).tobytes() == ref.integers(0, 2**62, 3).tobytes()

    def test_negative_seed_or_replication_raises_as_numpy_does(self):
        for seed, replication in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="expected non-negative integer"):
                np.random.SeedSequence(seed, spawn_key=(replication, 0))
            with pytest.raises(ValueError, match="expected non-negative integer"):
                stream_rngs(seed, range(replication, replication + 1), 0)

    def test_config_rejects_a_negative_master_seed(self):
        with pytest.raises(ConfigError, match=r"^master_seed: must be a non-negative integer, got -3$"):
            one_pool_config(seed=-3)

    @pytest.mark.parametrize(
        "field, value",
        [("master_seed", True), ("master_seed", 7.5), ("master_seed", 7.0), ("n_students", 20.0)],
        ids=["seed-bool", "seed-fraction", "seed-float", "students-float"],
    )
    def test_config_takes_integers_only(self, field, value):
        # a preset or library caller reaches EconomyConfig without config_io's checks
        message = re.escape(f"{field}: must be an integer, got {value!r}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            replace(one_pool_config(n=20, colleges=2), **{field: value})

    def test_a_numpy_seed_samples_as_the_int_does(self):
        config = one_pool_config(n=40, colleges=2, seed=np.int64(7))
        assert type(config.master_seed) is int
        want = sample_market(one_pool_config(n=40, colleges=2, seed=7), 3)
        got = sample_market(config, 3)
        for field in ("values", "prefs", "scores"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def reference_market(config, replication):
    """One replication drawn the plain way: numpy's SeedSequence streams, one
    noise draw per college, one argsort per row."""
    n, n_colleges = config.n_students, config.n_colleges
    coal_idx = config.coalition_index()
    rng_values = numpy_rng(config.master_seed, replication, STREAM_VALUES)
    values = np.empty((n, len(config.coalitions)))
    for k, coalition in enumerate(config.coalitions):
        values[:, k] = coalition.values.sample(rng_values, n)
    rng_prefs = numpy_rng(config.master_seed, replication, STREAM_PREFS)
    model = config.preferences
    if isinstance(model, CommonRanking):
        prefs = np.array([model.ranking] * n)
    elif isinstance(model, ExplicitSampler):
        picks = rng_prefs.choice(len(model.rankings), size=n, p=model.probabilities)
        prefs = np.array([model.rankings[i] for i in picks])
    else:
        key = rng_prefs.random((n, n_colleges))
        if isinstance(model, TieredByCoalition):
            key = key + coal_idx
        prefs = np.array([np.argsort(row) for row in key])
    rng_noise = numpy_rng(config.master_seed, replication, STREAM_NOISE)
    scores = values[:, coal_idx].copy()
    for c in range(n_colleges):
        spec = config.coalitions[coal_idx[c]].noise
        if spec is not None:
            scores[:, c] += spec.sample(rng_noise, n)
    return values, prefs, scores


@st.composite
def stacked_configs(draw):
    n_colleges = draw(st.integers(1, 6))
    two = n_colleges > 1 and draw(st.booleans())
    layout = [draw(st.integers(0, 1)) for _ in range(n_colleges)] if two else [0] * n_colleges
    if two:
        layout[draw(st.integers(1, n_colleges - 1))] = 1 - layout[0]  # both coalitions used
    families = st.sampled_from(sorted(NOISE_FAMILIES))
    noises = tuple(NOISE_FAMILIES[draw(families)] for _ in range(1 + two))
    kind = draw(st.sampled_from(["uniform_random", "tiered_by_coalition", "common_ranking", "explicit"]))
    if kind == "common_ranking":
        model = CommonRanking(ranking=tuple(draw(st.permutations(range(n_colleges)))))
    elif kind == "explicit":
        rankings = (tuple(range(n_colleges)), tuple(draw(st.permutations(range(n_colleges)))))
        model = ExplicitSampler(rankings=rankings, probabilities=(0.3, 0.7))
    else:
        model = build_kind("preferences", {"kind": kind})
    config = EconomyConfig(
        n_students=draw(st.integers(n_colleges + 1, 30)),
        colleges=tuple(College(id=i, capacity=1, coalition=k) for i, k in enumerate(layout)),
        coalitions=tuple(
            Coalition(id=k, values=UniformValues(0, 1), noise=noise) for k, noise in enumerate(noises)
        ),
        preferences=model,
        master_seed=draw(st.sampled_from(SEEDS) | st.integers(0, 2**40)),
    )
    first = draw(st.sampled_from([0, 1, 7, 2**32 - 2]))
    replications = range(first, first + draw(st.integers(1, 6)))
    cells = len(replications) * config.n_students * n_colleges
    # blocks of one cell, of part of a market, of some markets, or of all
    block = draw(st.sampled_from([1, cells + 1]) | st.integers(1, cells))
    return config, replications, block


class TestSampleStack:
    @settings(max_examples=300, deadline=None)
    @given(stacked_configs(), st.booleans())
    def test_every_slot_equals_its_replication_drawn_alone(self, case, threaded):
        config, replications, block = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(market_module, "_BLOCK_CELLS", block)
            if threaded:
                mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
                mp.setattr(market_module, "_PREFS_THREAD_MIN_CELLS", 0)
            values, prefs, scores = sample_stack(config, replications)
        assert prefs.dtype == prefs_dtype(config.n_colleges)
        assert len(values) == len(prefs) == len(scores) == len(replications)
        for i, r in enumerate(replications):
            want_values, want_prefs, want_scores = reference_market(config, r)
            assert values[i].tobytes() == want_values.tobytes()
            assert scores[i].tobytes() == want_scores.tobytes()
            assert np.array_equal(prefs[i], want_prefs)

    def test_blocks_hold_whole_markets_up_to_the_cap(self, monkeypatch):
        # ten 30 x 3 markets under a 370-cell cap: keys and noise are drawn
        # in blocks of four, four and two markets, one noise add per run
        config = layout_config([0, 1, 0], (Uniform(0, 1), Gumbel(0.5, 2.0)), n=30)
        markets = {"keys": [], "noise": []}

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def argsort(self, a, axis):
                markets["keys"].append(len(a))
                return np.argsort(a, axis=axis)

            def add(self, x, y, out):
                markets["noise"].append(len(out))
                return np.add(x, y, out=out)

        monkeypatch.setattr(market_module, "_BLOCK_CELLS", 4 * 90 + 10)
        monkeypatch.setattr(market_module, "np", Numpy())
        values, prefs, scores = sample_stack(config, range(2, 12))
        monkeypatch.undo()
        assert markets == {"keys": [4, 4, 2], "noise": [4] * 3 + [4] * 3 + [2] * 3}
        for i, r in enumerate(range(2, 12)):
            want_values, want_prefs, want_scores = reference_market(config, r)
            assert values[i].tobytes() == want_values.tobytes()
            assert scores[i].tobytes() == want_scores.tobytes()
            assert np.array_equal(prefs[i], want_prefs)
