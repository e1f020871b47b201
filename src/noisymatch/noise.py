"""Noise distributions and tail-regime diagnostics.

A noise spec is a small frozen dataclass with a sampler and, for every
built-in family, closed-form survival and quantile functions.  The
diagnostics in this module probe the two tail regimes that drive market
behaviour: how fast the maximum of n draws concentrates, and whether the
conditional survival ratio Pr[X > x+d | X > x] approaches 1.
"""

from __future__ import annotations

import enum
import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DegenerateVarianceError, InsufficientTailMassError, finite_number

# Classification of a distribution is a finite-sample heuristic: the regimes
# are asymptotic, so the thresholds below are calibrated to separate the
# bundled example families cleanly, not derived from first principles.
CLASSIFIER_NOTE = "threshold-based finite-sample heuristic"

DEFAULT_BETA_MIN = 0.25
DEFAULT_RATIO_MIN = 0.95
DEFAULT_PROBE_QUANTILES = (0.9, 0.99, 0.999)
DEFAULT_PROBE_GAP = 0.1
# tail_report's sample sizes: the maximum of n draws for each n, and the
# draws whose quantiles place the survival-ratio probes
_N_GRID = (10, 100, 1000, 10_000)
_PROBE_SAMPLES = 100_000
# how far a ratio may move against the trend and still count as monotone
_RATIO_TOL = 1e-9

_MAX_CHUNK_DRAWS = 5_000_000


class NoiseSpec:
    """Base class for parametric noise distributions: every parameter must be
    a finite number, stored as a float, and those named in ``positive`` must
    exceed 0."""

    kind: str = ""
    positive: tuple[str, ...] = ()

    def __post_init__(self):
        for name, value in vars(self).items():
            value = finite_number(value, f"{self.kind}.{name}")
            if name in self.positive and not value > 0:
                raise ConfigError(f"{self.kind}: {name} must be positive, got {name}={value}")
            object.__setattr__(self, name, value)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 0:
            raise ConfigError(f"n must be >= 0, got {n}")
        return self._draw(rng, n)

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def survival(self, x: float) -> float:
        """Pr[X > x]."""
        raise NotImplementedError

    def quantile(self, q: float) -> float:
        """Inverse CDF at q in (0, 1)."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """(lower, upper) bounds of the support; infinite where unbounded."""
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(NoiseSpec):
    lo: float = 0.0
    hi: float = 1.0
    kind = "uniform"

    def __post_init__(self):
        super().__post_init__()
        if not self.hi > self.lo:
            raise ConfigError(f"uniform: hi must exceed lo, got lo={self.lo}, hi={self.hi}")

    def _draw(self, rng, n):
        return rng.uniform(self.lo, self.hi, n)

    def survival(self, x):
        return float(np.clip((self.hi - x) / (self.hi - self.lo), 0.0, 1.0))

    def quantile(self, q):
        return self.lo + q * (self.hi - self.lo)

    def support(self):
        return (self.lo, self.hi)


@dataclass(frozen=True)
class Gaussian(NoiseSpec):
    mean: float = 0.0
    sd: float = 1.0
    kind = "gaussian"
    positive = ("sd",)

    def _draw(self, rng, n):
        return rng.normal(self.mean, self.sd, n)

    def survival(self, x):
        return 0.5 * math.erfc((x - self.mean) / (self.sd * math.sqrt(2.0)))

    def quantile(self, q):
        return statistics.NormalDist(self.mean, self.sd).inv_cdf(q)

    def support(self):
        return (-math.inf, math.inf)


@dataclass(frozen=True)
class Exponential(NoiseSpec):
    rate: float = 1.0
    kind = "exponential"
    positive = ("rate",)

    def _draw(self, rng, n):
        return rng.exponential(1.0 / self.rate, n)

    def survival(self, x):
        return 1.0 if x <= 0 else math.exp(-self.rate * x)

    def quantile(self, q):
        return -math.log1p(-q) / self.rate

    def support(self):
        return (0.0, math.inf)


@dataclass(frozen=True)
class Gumbel(NoiseSpec):
    location: float = 0.0
    scale: float = 1.0
    kind = "gumbel"
    positive = ("scale",)

    def _draw(self, rng, n):
        return rng.gumbel(self.location, self.scale, n)

    def survival(self, x):
        return -math.expm1(-math.exp(-(x - self.location) / self.scale))

    def quantile(self, q):
        return self.location - self.scale * math.log(-math.log(q))

    def support(self):
        return (-math.inf, math.inf)


@dataclass(frozen=True)
class Pareto(NoiseSpec):
    """Classical Pareto with density supported on [scale, inf)."""

    shape: float = 2.0
    scale: float = 1.0
    kind = "pareto"
    positive = ("shape", "scale")

    def _draw(self, rng, n):
        # (1 + rng.pareto(shape, n)) * scale, computed in place.  numpy's
        # pareto() is expm1(E / shape) for standard exponentials E, through
        # libm's scalar expm1 once per draw; the expm1 ufunc on the same
        # exponentials consumes the stream identically at about a third of
        # the cost.  Where numpy dispatches that ufunc to SVML (AVX-512
        # CPUs), ~8 % of values differ from libm's in the last bit.
        x = rng.standard_exponential(n)
        x /= self.shape
        # rng.pareto overflows to +inf silently for tiny shapes; so does this
        with np.errstate(over="ignore"):
            np.expm1(x, out=x)
        x += 1.0
        x *= self.scale
        return x

    def survival(self, x):
        return 1.0 if x <= self.scale else (self.scale / x) ** self.shape

    def quantile(self, q):
        return self.scale * (1.0 - q) ** (-1.0 / self.shape)

    def support(self):
        return (self.scale, math.inf)


class MaxStat(NamedTuple):
    n: int
    mean_max: float
    var_max: float


class RatioEstimate(NamedTuple):
    ratio: float
    stderr: float


class TailClass(str, enum.Enum):
    MAX_CONCENTRATING = "MaxConcentrating"
    LONG_TAILED = "LongTailed"
    INTERMEDIATE = "Intermediate"


@dataclass(frozen=True)
class TailReport:
    beta_hat: float
    beta_stderr: float
    hazard_ratios: tuple[tuple[float, float], ...]
    classification: TailClass
    max_mean_curve: tuple[MaxStat, ...]
    note: str = CLASSIFIER_NOTE


def max_order_stats(
    spec: NoiseSpec,
    n_grid: Sequence[int],
    replications: int,
    rng: np.random.Generator,
) -> list[MaxStat]:
    """Monte Carlo mean and variance of the maximum of n draws, per n."""
    if replications < 2:
        raise ConfigError(f"replications must be >= 2 for a variance, got {replications}")
    out = []
    for n in n_grid:
        if n < 1:
            raise ConfigError(f"n_grid entries must be >= 1, got {n}")
        maxima = np.empty(replications)
        done = 0
        chunk = max(1, _MAX_CHUNK_DRAWS // n)
        while done < replications:
            k = min(chunk, replications - done)
            draws = spec.sample(rng, k * n).reshape(k, n)
            maxima[done : done + k] = draws.max(axis=1)
            done += k
        out.append(MaxStat(int(n), float(maxima.mean()), float(maxima.var(ddof=1))))
    return out


def estimate_beta(
    spec: NoiseSpec,
    n_grid: Sequence[int],
    replications: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Negated least-squares slope of log var_max against log n, with stderr."""
    stats = max_order_stats(spec, n_grid, replications, rng)
    return beta_from_stats(stats)


def beta_from_stats(stats: Sequence[MaxStat]) -> tuple[float, float]:
    ns = np.array([s.n for s in stats], dtype=float)
    if len(set(ns)) < 3:
        raise ConfigError(f"n_grid must contain >= 3 distinct values, got {sorted(set(ns))}")
    if ns.max() / ns.min() < 100:
        raise ConfigError("n_grid must span at least two decades")
    vs = np.array([s.var_max for s in stats], dtype=float)
    if np.any(vs <= 0):
        raise DegenerateVarianceError("var_max is zero for some n (point-mass distribution?)")
    x = np.log(ns)
    y = np.log(vs)
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    resid = (y - y.mean()) - slope * xc
    dof = len(x) - 2
    stderr = float(np.sqrt((resid @ resid) / dof / (xc @ xc))) if dof > 0 else math.nan
    return -slope, stderr


def long_tail_ratio(
    spec: NoiseSpec,
    x: float,
    d: float,
    *,
    rng: np.random.Generator | None = None,
    samples: int = 200_000,
) -> RatioEstimate:
    """Conditional survival ratio Pr[X > x + d | X > x].

    The closed form (stderr 0) without an rng; with one, a Monte Carlo
    estimate from ``samples`` draws with its binomial standard error.
    """
    if d <= 0:
        raise ConfigError(f"d must be positive, got {d}")
    if rng is None:
        denom = spec.survival(x)
        if denom <= 0.0:
            raise InsufficientTailMassError(f"Pr[X > {x}] = 0 for {spec!r}")
        return RatioEstimate(spec.survival(x + d) / denom, 0.0)
    draws = spec.sample(rng, samples)
    tail = draws > x
    n_tail = int(tail.sum())
    if n_tail == 0:
        raise InsufficientTailMassError(f"no draws above x={x} in {samples} samples")
    r = float((draws[tail] > x + d).mean())
    return RatioEstimate(r, math.sqrt(max(r * (1.0 - r), 1e-12) / n_tail))


def classify_tail(beta_hat: float, hazard_ratios: Sequence[tuple[float, float]]) -> TailClass:
    """Classify from the beta estimate and the survival-ratio sequence.

    Max-concentrating needs a beta above DEFAULT_BETA_MIN and decaying
    ratios; long-tailed needs ratios that rise with x and exceed
    DEFAULT_RATIO_MIN at the deepest probe.  Everything else is labelled
    intermediate.
    """
    ratios = [r for _, r in hazard_ratios]
    decaying = all(b <= a + _RATIO_TOL for a, b in zip(ratios, ratios[1:]))
    rising = all(b >= a - _RATIO_TOL for a, b in zip(ratios, ratios[1:]))
    if beta_hat > DEFAULT_BETA_MIN and decaying:
        return TailClass.MAX_CONCENTRATING
    if ratios and ratios[-1] > DEFAULT_RATIO_MIN and rising:
        return TailClass.LONG_TAILED
    return TailClass.INTERMEDIATE


def tail_report(
    spec: NoiseSpec, rng: np.random.Generator, *, replications: int = 2000
) -> TailReport:
    """Run both diagnostics and classify the distribution: beta from the
    maximum of n draws over _N_GRID, and the survival ratio over a gap of
    DEFAULT_PROBE_GAP at the DEFAULT_PROBE_QUANTILES of _PROBE_SAMPLES draws."""
    stats = max_order_stats(spec, _N_GRID, replications, rng)
    beta_hat, beta_stderr = beta_from_stats(stats)
    probes = empirical_quantiles(spec, DEFAULT_PROBE_QUANTILES, _PROBE_SAMPLES, rng)
    ratios = tuple(
        (float(x), float(long_tail_ratio(spec, x, DEFAULT_PROBE_GAP).ratio)) for x in probes
    )
    cls = classify_tail(beta_hat, ratios)
    return TailReport(beta_hat, beta_stderr, ratios, cls, tuple(stats))


def empirical_quantiles(
    spec: NoiseSpec,
    quantiles: Sequence[float],
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    draws = spec.sample(rng, samples)
    return np.quantile(draws, np.asarray(quantiles))
