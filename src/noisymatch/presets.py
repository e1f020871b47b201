"""Bundled experiment presets behind the CLI's --preset flag.

fig1 is a single-pool benchmark: one coalition, half the students' worth of
seats split equally across C colleges, uniform random preferences.  fig2 is
a two-tier benchmark: a preferred coalition holding a quarter of the
students' worth of seats above a second coalition holding half, with
independent uniform values per coalition.
"""

from __future__ import annotations

from .config_io import KINDS
from .errors import ConfigError
from .estimation import AffordProbability, ExperimentPlan, MatchProbability, equal_width_edges
from .market import (
    Coalition,
    College,
    EconomyConfig,
    TieredByCoalition,
    UniformRandomPreferences,
    UniformValues,
)
from .noise import NoiseSpec, Pareto

PRESET_NAMES = ("fig1", "fig2")

DEFAULT_SEED = 7
DEFAULT_REPLICATIONS = 100
DEFAULT_STUDENTS = 2000
DEFAULT_BINS = 50

# --noise's tokens: each noise kind at its defaults, Pareto at scale 0.3,
# and none.  The exponential rate of 1 is a default; the benchmark
# definition leaves it open.
NOISE_TOKENS = {kind: cls() for kind, cls in KINDS["noise"].items()}
NOISE_TOKENS.update(pareto=Pareto(scale=0.3), none=None)


def noise_from_token(token: str) -> NoiseSpec | None:
    key = token.strip().lower()
    if key not in NOISE_TOKENS:
        raise ConfigError(f"noise: unknown token {token!r}, expected one of {sorted(NOISE_TOKENS)}")
    return NOISE_TOKENS[key]


def split_seats(total: int, count: int) -> list[int]:
    """Split seats as equally as possible while summing exactly to total."""
    base, rem = divmod(total, count)
    return [base + 1 if i < rem else base for i in range(count)]


def _build(coalitions, preferences, curves, *, noise, seed, replications, n_students, bins):
    """A preset with one coalition per (seats, college count) pair, its
    seats split equally, colleges numbered from 1 across coalitions in
    order, and U(0, 1) values and the same noise in every coalition."""
    colleges = []
    for k, (seats, count) in enumerate(coalitions, start=1):
        if count < 1:
            raise ConfigError(f"colleges: must be >= 1, got {count}")
        first = len(colleges) + 1
        colleges += [
            College(id=first + i, capacity=cap, coalition=k)
            for i, cap in enumerate(split_seats(seats, count))
        ]
    spec = noise_from_token(noise)
    config = EconomyConfig(
        n_students=n_students,
        colleges=tuple(colleges),
        coalitions=tuple(
            Coalition(id=k, values=UniformValues(0.0, 1.0), noise=spec)
            for k in range(1, len(coalitions) + 1)
        ),
        preferences=preferences,
        master_seed=seed,
    )
    plan = ExperimentPlan(
        replications=replications,
        bin_edges=equal_width_edges((0.0, 1.0), bins),
        curves=curves,
        record_cutoffs=True,
    )
    return config, plan


def fig1(
    *,
    colleges: int = 100,
    noise: str = "uniform",
    seed: int = DEFAULT_SEED,
    replications: int = DEFAULT_REPLICATIONS,
    n_students: int = DEFAULT_STUDENTS,
    bins: int = DEFAULT_BINS,
) -> tuple[EconomyConfig, ExperimentPlan]:
    """One coalition of `colleges` colleges holding n_students // 2 seats."""
    return _build(
        [(n_students // 2, colleges)],
        UniformRandomPreferences(),
        (MatchProbability(coalition_id=1), AffordProbability(coalition_id=1)),
        noise=noise, seed=seed, replications=replications, n_students=n_students, bins=bins,
    )


def fig2(
    *,
    colleges: int = 20,
    noise: str = "uniform",
    seed: int = DEFAULT_SEED,
    replications: int = DEFAULT_REPLICATIONS,
    n_students: int = DEFAULT_STUDENTS,
    bins: int = DEFAULT_BINS,
) -> tuple[EconomyConfig, ExperimentPlan]:
    """Two coalitions of `colleges` colleges each; coalition 1 preferred."""
    return _build(
        [(n_students // 4, colleges), (n_students // 2, colleges)],
        TieredByCoalition(),
        (
            MatchProbability(coalition_id=1),
            MatchProbability(coalition_id=2),
            AffordProbability(coalition_id=1, trim_epsilon=0.05),
            AffordProbability(coalition_id=2, trim_epsilon=0.05),
        ),
        noise=noise, seed=seed, replications=replications, n_students=n_students, bins=bins,
    )


def preset(name: str, **overrides) -> tuple[EconomyConfig, ExperimentPlan]:
    if name == "fig1":
        return fig1(**overrides)
    if name == "fig2":
        return fig2(**overrides)
    raise ConfigError(f"preset: unknown preset {name!r}, expected one of {PRESET_NAMES}")
