"""Unit tests for the noise distributions and tail diagnostics.

Expected values come from independent routes: closed-form order-statistic
formulas, quadrature, scipy's log-survival functions, hand arithmetic on the
survival functions, and the exact continuum regime table.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from noisymatch.errors import (
    ConfigError,
    DegenerateVarianceError,
    InsufficientTailMassError,
)
from noisymatch.noise import (
    Exponential,
    Gaussian,
    Gumbel,
    Pareto,
    Uniform,
    beta_from_stats,
    continuum_regime,
    empirical_quantiles,
    estimate_beta,
    long_tail_ratio,
    max_order_stats,
    shared_cutoff,
)
from noisymatch.config_io import build_kind, kind_entry
from noisymatch.market import UniformValues

EULER_GAMMA = 0.5772156649015329

# Whether numpy's float64 expm1 ufunc equals libm's on a fixed probe.  numpy
# dispatches it to SVML on AVX-512 CPUs, where some values differ from
# libm's in the last bit, and so do Pareto draws.
_EXPM1_PROBE = np.linspace(0.0, 20.0, 4001)
EXPM1_IS_LIBM = np.array_equal(np.expm1(_EXPM1_PROBE), [math.expm1(v) for v in _EXPM1_PROBE])

ALL_SPECS = [
    Uniform(0.0, 1.0),
    Gaussian(0.0, 1.0),
    Exponential(1.0),
    Gumbel(0.0, 1.0),
    Pareto(2.0, 0.3),
]


def uniform_var_max(n):
    # Var of the max of n iid U(0,1): n / ((n+1)^2 (n+2))
    return n / ((n + 1) ** 2 * (n + 2))


def gaussian_var_max(n):
    # Var of the max of n iid N(0,1) by quadrature of the density n Phi^(n-1) phi
    def density(x):
        cdf = 0.5 * math.erfc(-x / math.sqrt(2.0))
        return n * cdf ** (n - 1) * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    m1 = integrate.quad(lambda x: x * density(x), -10, 10, limit=200)[0]
    m2 = integrate.quad(lambda x: x * x * density(x), -10, 10, limit=200)[0]
    return m2 - m1 * m1


class TestSampling:
    def test_zero_draws(self, rng):
        assert len(Uniform(0, 1).sample(rng, 0)) == 0

    def test_law_of_large_numbers_uniform(self, rng):
        draws = Uniform(0, 1).sample(rng, 100_000)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_pareto_support_and_cdf(self, rng):
        spec = Pareto(2.0, 0.3)
        draws = spec.sample(rng, 100_000)
        assert draws.min() >= 0.3
        # empirical CDF against the closed form at a few abscissae
        for x in (0.4, 0.6, 1.0, 3.0):
            expected = 1.0 - (0.3 / x) ** 2
            assert abs((draws <= x).mean() - expected) < 0.01

    @pytest.mark.parametrize("shape, scale", [(2.0, 0.3), (0.5, 1.0)])
    def test_pareto_rounds_like_numpy_pareto(self, shape, scale):
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = Pareto(shape, scale).sample(got_rng, 100_000)
        want = (1.0 + want_rng.pareto(shape, 100_000)) * scale
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
        # the noise stream is consumed exactly as rng.pareto consumes it
        assert got_rng.random() == want_rng.random()
        if EXPM1_IS_LIBM:
            assert np.array_equal(got, want)

    def test_pareto_overflow_to_inf_is_silent(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = Pareto(0.005, 1.0).sample(rng, 10_000)
        assert np.isinf(draws).any()
        assert draws.min() >= 1.0

    def test_identical_seeds_bitwise_identical(self):
        for spec in ALL_SPECS:
            a = spec.sample(np.random.default_rng(123), 1000)
            b = spec.sample(np.random.default_rng(123), 1000)
            assert np.array_equal(a, b)

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ConfigError, match="n"):
            Uniform(0, 1).sample(rng, -1)

    @pytest.mark.parametrize(
        "bad, field",
        [
            (lambda: Uniform(1.0, 1.0), "hi"),
            (lambda: Uniform(2.0, 1.0), "hi"),
            (lambda: Gaussian(0.0, 0.0), "sd"),
            (lambda: Exponential(-1.0), "rate"),
            (lambda: Gumbel(0.0, 0.0), "scale"),
            (lambda: Pareto(0.0, 1.0), "shape"),
            (lambda: Pareto(2.0, 0.0), "scale"),
        ],
    )
    def test_invalid_parameters_name_the_field(self, bad, field):
        with pytest.raises(ConfigError, match=field):
            bad()

    @pytest.mark.parametrize(
        "spec, field",
        [
            (Uniform, "hi"),
            (Uniform, "lo"),
            (Gaussian, "mean"),
            (Gaussian, "sd"),
            (Exponential, "rate"),
            (Gumbel, "location"),
            (Gumbel, "scale"),
            (Pareto, "shape"),
            (Pareto, "scale"),
        ],
    )
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, "1", True])
    def test_every_parameter_must_be_a_finite_number(self, spec, field, bad):
        kind = spec.kind
        message = "must be finite" if isinstance(bad, float) else "must be a number"
        with pytest.raises(ConfigError, match=rf"^{kind}\.{field}: {message}, got "):
            spec(**{field: bad})
        with pytest.raises(ConfigError, match=rf"^{kind}\.{field}: {message}, got "):
            build_kind("noise", {"kind": kind, field: bad})

    def test_serde_round_trip(self):
        for spec in ALL_SPECS:
            assert build_kind("noise", kind_entry(spec)) == spec
        with pytest.raises(ConfigError, match="kind"):
            build_kind("noise", {"kind": "cauchy"})


class TestClosedForms:
    @given(st.sampled_from(range(len(ALL_SPECS))), st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_survival_inverts_quantile(self, spec_index, q):
        spec = ALL_SPECS[spec_index]
        x = spec.quantile(q)
        assert math.exp(spec.log_survival(x)) == pytest.approx(1.0 - q, abs=1e-9)

    def test_samples_stay_in_support(self, rng):
        for spec in ALL_SPECS:
            lo, hi = spec.support()
            draws = spec.sample(rng, 10_000)
            assert draws.min() >= lo and draws.max() <= hi


class TestLogSurvival:
    @pytest.mark.parametrize(
        "spec, reference, x",
        [
            (Uniform(-2.0, 3.0), stats.uniform(-2.0, 5.0), np.linspace(-3.0, 4.0, 701)),
            (Gaussian(0.0, 1.0), stats.norm(), np.linspace(-10.0, 40.0, 50_001)),
            (Gaussian(2.0, 3.0), stats.norm(2.0, 3.0), np.linspace(-30.0, 120.0, 15_001)),
            (Exponential(1.5), stats.expon(scale=1 / 1.5), np.linspace(-5.0, 700.0, 7051)),
            (Gumbel(0.0, 1.0), stats.gumbel_r(), np.linspace(-8.0, 700.0, 70_801)),
            (Gumbel(1.0, 2.0), stats.gumbel_r(1.0, 2.0), np.linspace(-15.0, 1400.0, 14_151)),
            (Pareto(2.0, 0.3), stats.pareto(2.0, scale=0.3), np.geomspace(0.1, 1e150, 3001)),
        ],
        ids=["uniform", "gaussian", "gaussian-2-3", "exponential", "gumbel", "gumbel-1-2", "pareto"],
    )
    def test_equals_scipy_where_scipy_is_finite(self, spec, reference, x):
        # on either side of the mean or mode, and across the Gaussian's
        # switch to its asymptotic series at 30 standard deviations
        got = spec.log_survival(x)
        want = reference.logsf(x)
        finite = np.isfinite(want)
        assert finite.mean() > 0.5
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-11, atol=0)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))

    def test_deep_tail_hand_forms(self):
        # where scipy's own logsf reads -inf, the hand forms: -z for Gumbel,
        # shape log(scale / x) for Pareto
        assert stats.gumbel_r.logsf(800.0) == -np.inf
        assert stats.pareto.logsf(1e300, 2.0) == -np.inf
        assert Gumbel(0.0, 1.0).log_survival(800.0) == -800.0
        assert Gumbel(1.0, 2.0).log_survival(1601.0) == -800.0
        pareto = Pareto(2.0, 0.3).log_survival(1e300)
        assert pareto == pytest.approx(2.0 * (math.log(0.3) - 300 * math.log(10)), rel=1e-15)
        assert Exponential(1.0).log_survival(800.0) == -800.0

    @pytest.mark.parametrize(
        "spec, far",
        [
            (Gaussian(0.0, 1.0), 1e150),
            (Exponential(1.0), 1e300),
            (Gumbel(0.0, 1.0), 1e300),
            (Pareto(2.0, 0.3), 1e308),
        ],
        ids=["gaussian", "exponential", "gumbel", "pareto"],
    )
    def test_finite_wherever_the_tail_has_mass(self, spec, far):
        x = np.concatenate([-np.geomspace(far, 1e-3, 400), np.geomspace(1e-3, far, 400)])
        got = spec.log_survival(x)
        assert np.all(np.isfinite(got)) and np.all(got <= 0)
        assert np.all(np.diff(got) <= 0)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-2.0, 3.0)])
    def test_minus_inf_from_a_bounded_top(self, lo, hi):
        spec = Uniform(lo, hi)
        assert np.all(spec.log_survival([hi, hi + 1e-12, hi + 1.0, math.inf]) == -np.inf)
        inside = spec.log_survival(np.linspace(lo - 1.0, hi - 1e-9, 101))
        assert np.all(np.isfinite(inside))
        assert np.all(spec.log_survival([lo - 1.0, lo]) == 0.0)

    def test_keeps_the_shape_of_its_argument(self):
        for spec in ALL_SPECS:
            assert np.shape(spec.log_survival(0.5)) == ()
            assert spec.log_survival(np.full((2, 3), 0.5)).shape == (2, 3)


class TestMaxOrderStats:
    def test_uniform_n1_variance(self, rng):
        (stat,) = max_order_stats(Uniform(0, 1), [1], 100_000, rng)
        assert stat.var_max == pytest.approx(1 / 12, abs=0.003)

    def test_uniform_n10_against_quadrature(self, rng):
        # independent oracle: quadrature for E[max] and E[max^2] of 10 uniforms
        n = 10
        m1 = integrate.quad(lambda x: x * n * x ** (n - 1), 0, 1)[0]
        m2 = integrate.quad(lambda x: x * x * n * x ** (n - 1), 0, 1)[0]
        var_oracle = m2 - m1 * m1
        assert var_oracle == pytest.approx(uniform_var_max(n), rel=1e-9)
        (stat,) = max_order_stats(Uniform(0, 1), [n], 100_000, rng)
        assert stat.var_max == pytest.approx(var_oracle, rel=0.20)
        assert stat.mean_max == pytest.approx(m1, rel=0.01)

    def test_uniform_variance_formula_across_grid(self, rng):
        stats_ = max_order_stats(Uniform(0, 1), [1, 2, 5, 10, 30], 100_000, rng)
        for s in stats_:
            assert s.var_max == pytest.approx(uniform_var_max(s.n), rel=0.25)

    def test_gumbel_mean_grows_like_log_n(self, rng):
        # max-stability: the max of n standard Gumbels is Gumbel(log n, 1)
        stats_ = max_order_stats(Gumbel(0, 1), [10, 100, 1000], 20_000, rng)
        for s in stats_:
            assert s.mean_max == pytest.approx(EULER_GAMMA + math.log(s.n), rel=0.10)

    def test_replication_floor(self, rng):
        with pytest.raises(ConfigError, match="replications"):
            max_order_stats(Uniform(0, 1), [10], 1, rng)
        # counts are integers: a float or a bool is an error naming its field
        for replications in (2.5, True, 100.0):
            with pytest.raises(ConfigError, match=r"^replications: must be an integer, got "):
                max_order_stats(Uniform(0, 1), [10], replications, rng)
        for entry in (10.0, True, math.inf):
            with pytest.raises(ConfigError, match=r"^n_grid\[1\]: must be an integer, got "):
                max_order_stats(Uniform(0, 1), [5, entry], 100, rng)

    def test_sub_log_max_growth_uniform_and_gaussian(self, rng):
        # doubling n adds less and less to E[max]; the increments shrink
        # toward zero along a geometric grid (within two standard errors)
        for spec in (Uniform(0, 1), Gaussian(0, 1)):
            reps = 40_000
            grid = [16, 32, 64, 128, 256, 512]
            stats_ = {s.n: s for s in max_order_stats(spec, grid, reps, rng)}
            diffs, errs = [], []
            for n in (16, 64, 256):
                a, b = stats_[n], stats_[2 * n]
                diffs.append(b.mean_max - a.mean_max)
                errs.append(math.sqrt((a.var_max + b.var_max) / reps))
            for (d1, d2), (e1, e2) in zip(zip(diffs, diffs[1:]), zip(errs, errs[1:])):
                assert d2 <= d1 + 2 * (e1 + e2)
            assert diffs[-1] < diffs[0]


class TestEstimateBeta:
    GRID = [10, 100, 1000, 10_000]

    def test_uniform_slope_near_two(self, rng):
        beta, stderr = estimate_beta(Uniform(0, 1), self.GRID, 2000, rng)
        assert 1.6 <= beta <= 2.4
        assert stderr < 0.2

    def test_pareto_variance_nondecreasing(self, rng):
        beta, _ = estimate_beta(Pareto(2.0, 0.3), self.GRID, 4000, rng)
        assert beta <= 0

    def test_grid_preconditions(self, rng):
        with pytest.raises(ConfigError, match="distinct"):
            estimate_beta(Uniform(0, 1), [10, 10, 10], 100, rng)
        with pytest.raises(ConfigError, match="decades"):
            estimate_beta(Uniform(0, 1), [10, 20, 40], 100, rng)

    def test_degenerate_variance_detected(self, rng):
        class PointMass:
            def sample(self, rng_, n):
                return np.zeros(n)

        with pytest.raises(DegenerateVarianceError):
            estimate_beta(PointMass(), self.GRID, 100, rng)

    def test_beta_from_exact_uniform_variances(self):
        # feed the closed-form variances directly: slope approaches 2
        from noisymatch.noise import MaxStat

        stats_ = [MaxStat(n, 0.0, uniform_var_max(n)) for n in self.GRID]
        beta, stderr = beta_from_stats(stats_)
        assert beta == pytest.approx(1.95, abs=0.02)

    def test_beta_from_exact_gaussian_variances(self):
        # Var(max) decays like 1/log n, so the slope on this grid is small
        # and fixed: 0.344, 0.184, 0.123, 0.093 give beta = 0.1887
        from noisymatch.noise import MaxStat

        variances = [gaussian_var_max(n) for n in self.GRID]
        assert variances == pytest.approx([0.3443, 0.1844, 0.1235, 0.0925], abs=1e-4)
        beta, _ = beta_from_stats([MaxStat(n, 0.0, v) for n, v in zip(self.GRID, variances)])
        assert beta == pytest.approx(0.1887, abs=0.005)


class TestLongTailRatio:
    def test_pareto_closed_form(self):
        est = long_tail_ratio(Pareto(2.0, 1.0), x=10.0, d=1.0)
        assert est.ratio == pytest.approx((10 / 11) ** 2, abs=1e-12)
        assert est.stderr == 0.0

    def test_exponential_memorylessness(self):
        for x in (0.5, 2.0, 7.0):
            est = long_tail_ratio(Exponential(1.0), x=x, d=1.0)
            assert est.ratio == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_exponential_rate_scaling(self):
        est = long_tail_ratio(Exponential(2.5), x=1.0, d=0.4)
        assert est.ratio == pytest.approx(math.exp(-2.5 * 0.4), abs=1e-12)

    def test_uniform_bounded_support(self):
        est = long_tail_ratio(Uniform(0, 1), x=0.95, d=0.1)
        assert est.ratio == 0.0

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-2.0, 3.0)])
    def test_zero_beyond_any_bounded_support(self, lo, hi):
        spec = Uniform(lo, hi)
        for x in (hi - 0.2, hi - 0.05):
            assert long_tail_ratio(spec, x=x, d=(hi - x) * 1.5).ratio == 0.0

    @pytest.mark.parametrize("sampled", [False, True], ids=["closed-form", "monte-carlo"])
    @pytest.mark.parametrize(
        "spec, x, d, field",
        [
            (Pareto(), 2.0, math.nan, "d must be positive"),
            (Exponential(), 1.0, math.nan, "d must be positive"),
            (Pareto(), math.nan, 1.0, "x must be a number"),
            (Exponential(), math.nan, 1.0, "x must be a number"),
        ],
        ids=["pareto-d", "exponential-d", "pareto-x", "exponential-x"],
    )
    def test_nan_raises(self, spec, x, d, field, sampled):
        rng = np.random.default_rng(1) if sampled else None
        with pytest.raises(ConfigError, match=f"^{field}, got nan$"):
            long_tail_ratio(spec, x, d, rng=rng, samples=1000)

    @pytest.mark.parametrize(
        "samples, message",
        [
            (0, "must be >= 1, got 0"),
            (-3, "must be >= 1, got -3"),
            (2.5, "must be an integer, got 2.5"),
            (True, "must be an integer, got True"),
        ],
        ids=["zero", "negative", "fraction", "bool"],
    )
    def test_sample_count_is_a_positive_integer(self, samples, message):
        # at zero, empirical_quantiles once raised an IndexError; a float or a
        # bool a bare TypeError from the sampler
        rng = np.random.default_rng(1)
        with pytest.raises(ConfigError, match=f"^samples: {message}$"):
            long_tail_ratio(Pareto(), 2.0, 1.0, rng=rng, samples=samples)
        with pytest.raises(ConfigError, match=f"^samples: {message}$"):
            empirical_quantiles(Pareto(), [0.5], samples, rng)
        assert empirical_quantiles(Pareto(), [0.5], np.int64(1), rng).shape == (1,)

    def test_no_tail_mass_raises(self):
        with pytest.raises(InsufficientTailMassError):
            long_tail_ratio(Uniform(0, 1), x=1.5, d=0.1)

    @pytest.mark.parametrize(
        "spec, x, d, want",
        [
            (Exponential(1.0), 800.0, 1.0, math.exp(-1.0)),
            (Gaussian(0.0, 1.0), 40.0, 1.0, math.exp(stats.norm.logsf(41) - stats.norm.logsf(40))),
            (Gumbel(0.0, 1.0), 800.0, 1.0, math.exp(-1.0)),
            (Pareto(2.0, 0.3), 1e200, 1e199, (10 / 11) ** 2),
        ],
        ids=["exponential", "gaussian", "gumbel", "pareto"],
    )
    def test_closed_form_deep_in_the_tail(self, spec, x, d, want):
        # Pr[X > x] underflows a double here, but its logarithm does not
        est = long_tail_ratio(spec, x=x, d=d)
        assert est.ratio == pytest.approx(want, rel=1e-9)
        assert est.stderr == 0.0

    def test_empirical_matches_closed_form(self, rng):
        spec = Exponential(1.0)
        for x in (0.5, 1.0, 2.0):
            est = long_tail_ratio(spec, x=x, d=1.0, rng=rng)
            assert abs(est.ratio - math.exp(-1.0)) < 3 * est.stderr

    def test_empirical_zero_denominator(self, rng):
        with pytest.raises(InsufficientTailMassError):
            long_tail_ratio(Uniform(0, 1), x=2.0, d=0.1, rng=rng)

    def test_bad_gap_rejected(self):
        with pytest.raises(ConfigError, match="d"):
            long_tail_ratio(Uniform(0, 1), x=0.5, d=0.0)


# Baseline's continuum regime table: (below_mass, sup_deviation) with U(0, 1)
# values at share 0.5, for C = 10, 100, ..., 10^6
REGIME_COLLEGES = (10, 100, 1000, 10**4, 10**5, 10**6)
REGIME_TABLE = {
    "uniform": (
        Uniform(0.0, 1.0),
        [(0.0319, 0.500), (0.0036, 0.500), (0.0004, 0.500)] + [(0.0000, 0.500)] * 3,
    ),
    "gaussian": (
        Gaussian(0.0, 1.0),
        [(0.1683, 0.318), (0.1421, 0.410), (0.1234, 0.461), (0.1099, 0.485), (0.0999, 0.495),
         (0.0920, 0.499)],
    ),
    "exponential": (Exponential(1.0), [(0.2059, 0.184), (0.2072, 0.177)] + [(0.2074, 0.177)] * 4),
    "gumbel": (Gumbel(0.0, 1.0), [(0.2074, 0.177)] * 6),
    "pareto": (
        Pareto(2.0, 0.3),
        [(0.1771, 0.355), (0.2261, 0.103), (0.2424, 0.031), (0.2476, 0.010), (0.2492, 0.003),
         (0.2498, 0.001)],
    ),
}


def continuum_metrics(spec, n_colleges, share=0.5, grid=20_000):
    """below_mass and sup_deviation of the continuum match curve at
    shared_cutoff, for U(0, 1) values on a midpoint grid."""
    cutoff = shared_cutoff(spec, UniformValues(), n_colleges, share)
    v = (np.arange(grid) + 0.5) / grid
    clears = np.exp(spec.log_survival(cutoff - v))
    with np.errstate(divide="ignore"):
        match = 1.0 - np.exp(n_colleges * np.log1p(-clears))
    return float(np.mean(match * (v < 1.0 - share))), float(np.abs(match - share).max())


class TestContinuum:
    @pytest.mark.parametrize("name", list(REGIME_TABLE))
    def test_reproduces_the_regime_table(self, name):
        spec, row = REGIME_TABLE[name]
        for c, want in zip(REGIME_COLLEGES, row):
            assert continuum_metrics(spec, c) == pytest.approx(want, abs=1e-3), c

    @pytest.mark.parametrize(
        "spec, label",
        [
            (Uniform(0.0, 1.0), "attenuating"),
            (Gaussian(0.0, 1.0), "attenuating"),
            (Pareto(2.0, 0.3), "amplifying"),
            (Exponential(1.0), "boundary"),
            (Gumbel(0.0, 1.0), "boundary"),
        ],
        ids=["uniform", "gaussian", "pareto", "exponential", "gumbel"],
    )
    def test_regime_labels(self, spec, label):
        assert continuum_regime(spec, UniformValues(), 0.5) == label

    def test_regime_is_deterministic(self):
        calls = [continuum_regime(Pareto(2.0, 0.3), UniformValues(), 0.3) for _ in range(2)]
        assert calls == ["amplifying", "amplifying"]
        cutoffs = [shared_cutoff(Gaussian(0.0, 1.0), UniformValues(), 1000, 0.5) for _ in range(2)]
        assert cutoffs[0] == cutoffs[1]

    def test_one_college_of_uniform_noise_cuts_at_one(self):
        # with one college, U(0, 1) values and U(0, 1) noise, a student of
        # value v clears P = 1 with probability v, half the mass on average
        assert shared_cutoff(Uniform(0.0, 1.0), UniformValues(), 1, 0.5) == pytest.approx(1.0)

    def test_gumbel_cutoff_moves_by_log_c(self):
        # max-stability: the best of C Gumbel draws is Gumbel(log C, 1), so
        # the market with C colleges is the one-college market shifted
        one = shared_cutoff(Gumbel(0.0, 1.0), UniformValues(), 1, 0.5)
        for c in (10, 1000, 10**6):
            cut = shared_cutoff(Gumbel(0.0, 1.0), UniformValues(), c, 0.5)
            assert cut - one == pytest.approx(math.log(c), abs=1e-9)

    def test_no_noise_rejected(self):
        with pytest.raises(ConfigError, match="noise"):
            continuum_regime(None, UniformValues(), 0.5)
        with pytest.raises(ConfigError, match="noise"):
            shared_cutoff(None, UniformValues(), 10, 0.5)

    @pytest.mark.parametrize("share", [0.0, 1.0, -0.5, math.nan])
    def test_share_must_lie_in_the_unit_interval(self, share):
        with pytest.raises(ConfigError, match="share"):
            shared_cutoff(Gaussian(), UniformValues(), 10, share)
        with pytest.raises(ConfigError, match="share"):
            continuum_regime(Gaussian(), UniformValues(), share)

    def test_college_count_must_be_positive(self):
        with pytest.raises(ConfigError, match="n_colleges"):
            shared_cutoff(Gaussian(), UniformValues(), 0, 0.5)
        for count in (2.5, True, math.inf, 10.0):
            with pytest.raises(ConfigError, match=r"^n_colleges: must be an integer, got "):
                shared_cutoff(Gaussian(), UniformValues(), count, 0.5)
