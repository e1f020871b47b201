"""Simulator for stable matching markets where colleges act on noisy scores."""

from .cutoffs import check_market_clearing, demand_all, rate_exponent
from .errors import (
    ConfigError,
    DegenerateVarianceError,
    InsufficientTailMassError,
    OverdemandError,
    ReplicationError,
)
from .estimation import (
    AffordProbability,
    ExperimentPlan,
    MatchCurve,
    MatchProbability,
    ReplicationRecords,
    amplification_metrics,
    attenuation_metrics,
    equal_width_edges,
    estimate_afford_curve,
    estimate_match_curve,
    run_replications,
    steepest_ascent_bin,
    trim_coalition,
)
from .market import (
    Coalition,
    College,
    EconomyConfig,
    CommonRanking,
    ExplicitSampler,
    PiecewiseLinearCdf,
    SampledMarket,
    TieredByCoalition,
    UniformRandomPreferences,
    UniformValues,
    sample_market,
    sample_stack,
    v_s_threshold,
)
from .matching import UNMATCHED, Matching, deferred_acceptance, find_blocking_pairs
from .noise import (
    Exponential,
    Gaussian,
    Gumbel,
    NoiseSpec,
    Pareto,
    Uniform,
    continuum_regime,
    estimate_beta,
    long_tail_ratio,
    max_order_stats,
    shared_cutoff,
)

__version__ = "0.1.0"
