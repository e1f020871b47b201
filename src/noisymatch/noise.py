"""Noise distributions and tail-regime diagnostics.

A noise spec is a small frozen dataclass with a sampler and, for every
built-in family, closed-form log-survival and quantile functions.  The
diagnostics in this module probe the two tail regimes that drive market
behaviour: how fast the maximum of n draws concentrates, whether the
conditional survival ratio Pr[X > x+d | X > x] approaches 1, and, exactly
in the continuum, whether a market's match curve sharpens into a step or
flattens as colleges are added.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DegenerateVarianceError, InsufficientTailMassError, finite_number

DEFAULT_PROBE_GAP = 0.1
# beyond this many standard deviations (Gaussian) or scales (Gumbel) the
# log-survival takes its asymptotic form: erfc nears underflow by z ~ 37,
# and e^(-z)/2 is below rounding against z
_DEEP_Z = 30.0
# the continuum averages over this many equal-mass values, quantiles at
# (i + 1/2) / _CONTINUUM_GRID
_CONTINUUM_GRID = 20_000
# continuum_regime compares a market at these college counts, and calls a
# relative fall of at least _REGIME_FALL a trend: from 10^2 to 10^6 colleges
# exponential noise's sup_deviation moves 0.4 %, Gaussian's below_mass falls
# 35 % and Pareto(2, 0.3)'s sup_deviation falls 100-fold
_REGIME_COLLEGES = (10**2, 10**6)
_REGIME_FALL = 0.1

_MAX_CHUNK_DRAWS = 5_000_000

# numpy has no erfc: math.erfc elementwise, ~100 ns an argument
_erfc = np.vectorize(math.erfc, otypes=[float])


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

    def log_survival(self, x):
        """log Pr[X > x], elementwise; -inf where no mass lies above x."""
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

    def log_survival(self, x):
        with np.errstate(divide="ignore"):
            return np.log(np.clip((self.hi - np.asarray(x, float)) / (self.hi - self.lo), 0, 1))

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

    def log_survival(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        # Pr[Z > |z|], which keeps its relative precision on either side
        tail = 0.5 * _erfc(np.abs(z) / math.sqrt(2.0))
        # past _DEEP_Z, Mills' ratio series: phi(z)/z (1 - 1/z^2 + 3/z^4 - 15/z^6 ...)
        d = np.maximum(z, _DEEP_Z)
        w = 1.0 / (d * d)
        deep = np.log1p(w * (3 * w - 1 - 15 * w * w)) - np.log(d * math.sqrt(2 * math.pi)) - d * d / 2
        with np.errstate(divide="ignore"):
            return np.where(z > _DEEP_Z, deep, np.where(z > 0, np.log(tail), np.log1p(-tail)))

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

    def log_survival(self, x):
        return -self.rate * np.maximum(x, 0.0)

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

    def log_survival(self, x):
        z = (np.asarray(x, dtype=float) - self.location) / self.scale
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # S = 1 - e^(-u) for the cumulative hazard u, through log1p
            # where S is near 1 and expm1 where it is small
            u = np.exp(-z)
            near = np.where(u > 1, np.log1p(-np.exp(-u)), np.log(-np.expm1(-u)))
            return np.where(z > _DEEP_Z, -z - u / 2, near)

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

    def log_survival(self, x):
        return self.shape * (math.log(self.scale) - np.log(np.maximum(x, self.scale)))

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
        chunk = max(1, _MAX_CHUNK_DRAWS // n)
        blocks = []
        for start in range(0, replications, chunk):
            k = min(chunk, replications - start)
            blocks.append(spec.sample(rng, k * n).reshape(k, n).max(axis=1))
        maxima = np.concatenate(blocks)
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
    xc, yc = (np.log(a) - np.log(a).mean() for a in (ns, vs))
    slope = float(xc @ yc / (xc @ xc))
    resid = yc - slope * xc
    # three distinct n leave at least one degree of freedom
    return -slope, float(np.sqrt((resid @ resid) / (len(xc) - 2) / (xc @ xc)))


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
        log_denom = spec.log_survival(x)
        if log_denom == -math.inf:
            raise InsufficientTailMassError(f"Pr[X > {x}] = 0 for {spec!r}")
        return RatioEstimate(float(np.exp(spec.log_survival(x + d) - log_denom)), 0.0)
    draws = spec.sample(rng, samples)
    tail = draws[draws > x]
    if tail.size == 0:
        raise InsufficientTailMassError(f"no draws above x={x} in {samples} samples")
    r = float((tail > x + d).mean())
    return RatioEstimate(r, math.sqrt(max(r * (1.0 - r), 1e-12) / tail.size))


def empirical_quantiles(
    spec: NoiseSpec,
    quantiles: Sequence[float],
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    draws = spec.sample(rng, samples)
    return np.quantile(draws, np.asarray(quantiles))


def shared_cutoff(noise: NoiseSpec, values, n_colleges: int, share: float) -> float:
    """The one cutoff P at which ``n_colleges`` symmetric colleges fill the
    seat ``share`` of a continuum of students with the value law ``values``:
    a student of value v clears each bar with probability S(P - v) and
    matches when they clear any (Azevedo & Leshno 2016)."""
    if noise is None or not (0.0 < share < 1.0 and n_colleges >= 1):
        got = f"noise={noise!r}, share={share!r}, n_colleges={n_colleges!r}"
        raise ConfigError(f"need a noise, share in (0, 1) and n_colleges >= 1; got {got}")
    v = _value_grid(values)
    # at lo every value clears a bar with probability >= share; at hi the
    # top value clears one with share / C, so at most the share matches
    lo = v[0] + noise.quantile(1.0 - share)
    hi = v[-1] + noise.quantile(1.0 - share / n_colleges)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        # more than the share matching at mid puts P above it
        over = _match_probability(noise, v, n_colleges, mid).mean() > share
        lo, hi = (mid, hi) if over else (lo, mid)
    return float(mid)


def continuum_regime(noise: NoiseSpec, values, share: float) -> str:
    """``"attenuating"`` when the continuum market's below_mass (matched mass
    below v_s) falls as colleges go from 10^2 to 10^6, ``"amplifying"`` when
    its sup_deviation (largest distance from the flat ``share``) falls, else
    ``"boundary"``, as for max-stable Gumbel noise.  It draws nothing."""
    v = _value_grid(values)
    first, last = (
        _match_probability(noise, v, c, shared_cutoff(noise, values, c, share))
        for c in _REGIME_COLLEGES
    )
    below = v < values.quantile(1.0 - share)
    if below @ last <= (1.0 - _REGIME_FALL) * (below @ first):
        return "attenuating"
    if np.abs(last - share).max() <= (1.0 - _REGIME_FALL) * np.abs(first - share).max():
        return "amplifying"
    return "boundary"


def _value_grid(values) -> np.ndarray:
    return values.quantile((np.arange(_CONTINUUM_GRID) + 0.5) / _CONTINUUM_GRID)


def _match_probability(noise, v, n_colleges, cutoff) -> np.ndarray:
    # 1 - (1 - S(cutoff - v))^C at each value, through log S
    with np.errstate(divide="ignore"):
        return -np.expm1(n_colleges * np.log1p(-np.exp(noise.log_survival(cutoff - v))))
