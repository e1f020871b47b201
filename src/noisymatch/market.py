"""Finite sampled economies: student values, preferences, and noisy scores.

An economy is described by a list of colleges grouped into coalitions.
Colleges in one coalition share each student's true value and observe it
through independent noise; students rank all colleges by a configurable
preference model.  Sampling is deterministic given the config's master
seed and a replication index, with separate derived streams for values,
preferences, and noise.
"""

from __future__ import annotations

import functools
import multiprocessing
import numbers
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import ConfigError, OverdemandError, ReplicationError
from .errors import finite_number, identifier, integer, positive_integer
from .noise import NoiseSpec

STREAM_VALUES = 0
STREAM_PREFS = 1
STREAM_NOISE = 2

# The one bound, in (student, college) cells, on every n x C block the
# pipeline draws, stacks or compares at once:
# - sampling draws noise and preference keys in blocks of at most this many
#   cells (2 MiB of float64), so the float64 temporaries, and argsort's int64
#   result, stay small next to the n x C score and preference matrices, and
#   so do the freed blocks malloc keeps in its arenas afterwards;
# - a run's replications are sampled and matched in stacks of consecutive
#   markets of at most this many cells (markets_per_stack), one call of
#   sample_stack and of stacked_deferred_acceptance per stack (a larger
#   market is stacked alone), so a stack of small markets is sampled as one
#   block and matched as one numpy fixed point, and the stack's prefs and
#   scores stay under 2.5 MiB;
# - demand and the blocking-pair scan compare at most an eighth of this
#   many cells with the colleges' bars at a time
#   (matching._cleared_in_order), and afford_from_matching gathers as many.
# Median sample_market time and tracemalloc's peak beyond the finished
# market, fig1 shape with Pareto noise, blocks of 2^16 / 2^18 / 2^20 cells
# (Python 3.11, numpy 2.4, 2-vCPU machine; taken when Pareto noise was drawn
# by rng.pareto, before Pareto._draw's in-place expm1):
#                           time (ms)             peak beyond market (MiB)
#   n=2000,  C=100:      12 /   13 /   13         1.0 / 1.7 / 1.7
#   n=8000,  C=128:      62 /   62 /   67         1.0 / 3.9 / 7.9
#   n=20000, C=1000:   1603 / 1310 / 1389         0.9 / 4.0 / 15.9
#     prefs thread:    1247 /  973 /  915         1.9 / 8.0 / 31.9
# A rerun of 2^18 against 2^20 at n=20000, C=1000: 1430 vs 1395 ms serial,
# 940 vs 930 ms with the preference thread.
# Median matching time per market, matched alone (many-tiny by the heap loop
# that small markets then took) against a stack of 2^18 cells (same machine):
#   many-tiny,       n=200,  C=2     (400 cells, 375 a stack): 0.31 vs 0.08-0.13 ms
#   attenuate-tiers, n=2000, C=20+20 (80,000 cells, 3 a stack): 8.3 vs 6.5 ms
_BLOCK_CELLS = 1 << 18

# Markets of at least this many cells may draw the preference stream on a
# second thread while the noise stream fills the scores.  numpy releases the
# GIL in the random fills, the argsort and large ufuncs, so the two streams
# overlap when a core is free.  Median sample_market time, serial against
# threaded, one process, fig1 shape with Pareto noise (Python 3.11, numpy
# 2.4, 2-vCPU machine):
#   n=200,   C=2     (400 cells): 0.12 ms vs 0.33 ms
#   n=2000,  C=40 (80,000 cells): 4.1 ms vs 4.3 ms
#   n=4000,  C=100  (0.4 M cells): 30 ms vs 19 ms
#   n=8000,  C=128  (1.0 M cells): 60 ms vs 47 ms
#   n=20000, C=1000  (20 M cells): 1.2 s vs 0.76 s
_PREFS_THREAD_MIN_CELLS = 1 << 20

# Preference rows of at least this many colleges are ranked by _packed_rank,
# one uint64 sort a row, instead of np.argsort.  numpy's AVX-512 argsort
# sorts a row of up to 128 keys in registers, which the uint64 sort does not
# beat.  Median time to rank one 2^18-cell block of U(0, 1) keys, packed
# divided by argsort (both into int16), 25 interleaved calls each (Python
# 3.11, numpy 2.4, 2-vCPU machine):
#   C                 8     40    64    100   128   129   150   200   256   500   1000  3000
#   AVX-512 argsort   1.30  1.00  1.09  0.87  0.99  0.57  0.60  0.67  0.74  0.64  0.67  0.61
#   without X86_V4    1.20  0.75  0.88  0.79  1.14  0.51  0.61  0.77  0.93  0.76  0.84  0.71
# So attenuate-tiers (C=40) keeps argsort and amplify-large (C=1000) takes
# the packed sort.  Rows of two colleges (many-tiny) need neither: one
# comparison ranks them, ~0.2 ms for 75,000 rows against ~3 ms of argsort.
_PACKED_RANK_MIN_COLLEGES = 129


class CapacityRegularityWarning(UserWarning):
    """A single college holds a disproportionate share of total capacity."""


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def helper_threads_allowed() -> bool:
    """Whether sampling and deferred acceptance may start a helper thread:
    in a process that may run on more than one CPU and is not a pool worker,
    whose siblings keep every core busy."""
    return multiprocessing.parent_process() is None and usable_cpus() > 1


def markets_per_stack(n_students: int, n_colleges: int) -> int:
    """Markets of n x C cells that fit in ``_BLOCK_CELLS`` cells; one when
    none does, so a larger market stands alone."""
    return max(1, _BLOCK_CELLS // (n_students * n_colleges))


def stack_blocks(shape: tuple[int, int, int], dtype):
    """Blocks of at most ``_BLOCK_CELLS`` cells of an (R, n, C) stack, in
    order: several whole markets when one fits, row blocks of one otherwise.
    Yields each block's (markets, rows) index into the stack and a view, of
    the block's shape, of one buffer of ``dtype`` reused for every block."""
    n_markets, n, n_colleges = shape
    reps = markets_per_stack(n, n_colleges)
    rows = min(max(1, _BLOCK_CELLS // n_colleges), n)
    buffer = np.empty((min(reps, n_markets), rows, n_colleges), dtype=dtype)
    for r0 in range(0, n_markets, reps):
        r1 = min(r0 + reps, n_markets)
        for s0 in range(0, n, rows):
            s1 = min(s0 + rows, n)
            yield (slice(r0, r1), slice(s0, s1)), buffer[: r1 - r0, : s1 - s0]


def prefs_dtype(n_colleges: int) -> np.dtype:
    """Narrowest signed integer type that holds every college index.

    Consumers of prefs index with it but do their index arithmetic in int64
    or intp, so a narrow type never wraps.
    """
    return np.dtype(np.int16 if n_colleges <= np.iinfo(np.int16).max + 1 else np.int32)


def stream_rngs(master_seed: int, replications: range, stream: int) -> list[np.random.Generator]:
    """One stream's generator for each of consecutive replications.

    Generator r is ``np.random.default_rng(np.random.SeedSequence(master_seed,
    spawn_key=(r, stream)))``, draw for draw: numpy mixes the master seed
    once, and the spawn keys of the whole range are mixed into its pool in
    one vectorised pass, so one SeedSequence is built a call, not one a
    generator: about 3 us a generator instead of 28 us.
    """
    seed_words = _seed_words_type()
    words = _seed_words(master_seed, replications, stream)
    return [np.random.Generator(np.random.PCG64(seed_words(w))) for w in words]


@functools.cache
def _seed_words_type() -> type:
    """The ISeedSequence that hands PCG64 the seed words ``_seed_words``
    derived for it.  Made at first use: numpy imports numpy.random lazily,
    and a process that samples nothing, such as the CLI's parent of a pool,
    should not pay its start-up time and memory."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
                raise ValueError("only PCG64's seed, four uint64 words, was derived")
            return self.words

    return SeedWords


# numpy's SeedSequence (numpy/random/bit_generator.pyx) hashes entropy into a
# pool of four 32-bit words and expands the pool into seed words.  With a
# spawn key (r, stream), the entropy is the master seed's words, padded with
# zeros to the pool size, then r's words and the stream.  numpy mixes the
# seed's part, the same for every r: SeedSequence(master_seed).pool.  The
# code mixes only the spawn key's words into copies of that pool.  The hash
# constants advance once per hash, whatever the data, so these steps run on
# arrays of words, one entry per replication.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _n_words(value: int) -> int:
    """How many 32-bit words SeedSequence splits a non-negative integer into."""
    return max(1, -(-value.bit_length() // 32))


def _mix_in(pool: list, word, hash_const: int) -> int:
    """Mix one entropy word, a Python int or a uint64 array of 32-bit words,
    into every pool word by SeedSequence's hashmix and mix; returns the next
    hash constant."""
    for i in range(_POOL_SIZE):
        hash_next = hash_const * _MULT_A & _MASK32
        hashed = (word ^ hash_const) * hash_next & _MASK32
        mixed = (_MIX_MULT_L * pool[i] - _MIX_MULT_R * (hashed ^ hashed >> 16)) & _MASK32
        pool[i], hash_const = mixed ^ mixed >> 16, hash_next
    return hash_const


def _seed_words(master_seed: int, replications: range, stream: int) -> np.ndarray:
    """(R, 4) uint64: ``SeedSequence(master_seed, spawn_key=(r, stream))
    .generate_state(4, np.uint64)`` for every r of a range of step 1."""
    if replications.step != 1:
        raise ValueError(f"replications must be consecutive, got {replications!r}")
    if replications.start < 0:
        raise ValueError("expected non-negative integer")  # as numpy raises
    master_seed = int(master_seed)
    pool = np.random.SeedSequence(master_seed).pool.tolist()
    # 4 initial hashes, 12 self-mixes and 4 for each seed word past the fourth
    hashes = 4 * max(_n_words(master_seed), _POOL_SIZE)
    hash_const = _INIT_A * pow(_MULT_A, hashes, 1 << 32) & _MASK32

    state = np.empty((len(replications), 2 * _POOL_SIZE), dtype=np.uint64)
    start, stop = replications.start, replications.stop
    while start < stop:
        # replications with as many 32-bit words mix in as many steps
        n_words = _n_words(start)
        end = min(stop, 1 << 32 * n_words)
        reps = np.arange(start, end, dtype=np.uint64 if end <= 1 << 64 else object)
        group, hash_group = list(pool), hash_const
        for j in range(n_words):
            word = (reps >> 32 * j & _MASK32).astype(np.uint64)
            hash_group = _mix_in(group, word, hash_group)
        _mix_in(group, stream, hash_group)
        # generate_state: cycle through the pool, hashing with the B constants
        hash_b = _INIT_B
        for i in range(2 * _POOL_SIZE):
            word = group[i % _POOL_SIZE] ^ hash_b
            hash_b = hash_b * _MULT_B & _MASK32
            word = word * hash_b & _MASK32
            state[start - replications.start : end - replications.start, i] = word ^ word >> 16
        start = end
    # pairs of 32-bit words, low word first, make each uint64 seed word
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


# ---------------------------------------------------------------------------
# value distributions


class ValueDistribution:
    kind: str = ""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformValues(ValueDistribution):
    lo: float = 0.0
    hi: float = 1.0
    kind = "uniform"

    def __post_init__(self):
        finite_number(self.lo, "values.lo")
        finite_number(self.hi, "values.hi")
        if not self.hi > self.lo:
            raise ConfigError(f"values: hi must exceed lo, got lo={self.lo}, hi={self.hi}")

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, n)

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def quantile(self, q):
        return self.lo + np.asarray(q, dtype=float) * (self.hi - self.lo)

    def support(self):
        return (self.lo, self.hi)


@dataclass(frozen=True)
class PiecewiseLinearCdf(ValueDistribution):
    """CDF given as sorted (value, cumulative probability) knots.

    Knots must rise strictly in both coordinates from (v0, 0) to (vk, 1),
    which keeps the support a single interval with no atoms.
    """

    knots: tuple[tuple[float, float], ...]
    kind = "piecewise"

    def __post_init__(self):
        ks = []
        for i, knot in enumerate(self.knots):
            field = f"values.knots[{i}]"
            if not isinstance(knot, (tuple, list, np.ndarray)) or len(knot) != 2:
                raise ConfigError(f"{field}: must be a [value, probability] pair, got {knot!r}")
            ks.append((finite_number(knot[0], field), finite_number(knot[1], field)))
        object.__setattr__(self, "knots", tuple(ks))
        if len(ks) < 2:
            raise ConfigError("values.knots: need at least two knots")
        vs = [v for v, _ in ks]
        ps = [p for _, p in ks]
        if ps[0] != 0.0 or ps[-1] != 1.0:
            raise ConfigError("values.knots: cumulative probabilities must start at 0 and end at 1")
        if any(b <= a for a, b in zip(vs, vs[1:])):
            raise ConfigError("values.knots: values must be strictly increasing")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ConfigError("values.knots: cumulative probabilities must be strictly increasing")

    def _arrays(self):
        vs = np.array([v for v, _ in self.knots])
        ps = np.array([p for _, p in self.knots])
        return vs, ps

    def sample(self, rng, n):
        return self.quantile(rng.random(n))

    def cdf(self, x):
        vs, ps = self._arrays()
        return np.interp(np.asarray(x, dtype=float), vs, ps, left=0.0, right=1.0)

    def quantile(self, q):
        vs, ps = self._arrays()
        return np.interp(np.asarray(q, dtype=float), ps, vs)

    def support(self):
        return (self.knots[0][0], self.knots[-1][0])


def v_s_threshold(dist: ValueDistribution, total_capacity_fraction: float) -> float:
    """Value v_S with a mass of exactly S students above it."""
    s = total_capacity_fraction
    if not 0.0 < s < 1.0:
        raise ValueError(f"total capacity fraction must lie in (0, 1), got {s}")
    return float(dist.quantile(1.0 - s))


# ---------------------------------------------------------------------------
# preference models


class PreferenceModel:
    kind: str = ""

    def sample_prefs(
        self, rngs: Sequence[np.random.Generator], n: int, n_colleges: int, tiers: np.ndarray
    ) -> np.ndarray:
        """(R, n, C) array of college indices, most preferred first, of
        ``prefs_dtype(C)``: slot i holds the rankings drawn from rngs[i]."""
        raise NotImplementedError

    def check(self, n_colleges: int) -> None:
        """Raise ConfigError when the model cannot rank n_colleges colleges."""


@dataclass(frozen=True)
class UniformRandomPreferences(PreferenceModel):
    kind = "uniform_random"

    def sample_prefs(self, rngs, n, n_colleges, tiers):
        return _argsort_keys(rngs, n, n_colleges)


@dataclass(frozen=True)
class CommonRanking(PreferenceModel):
    ranking: tuple[int, ...]
    kind = "common_ranking"

    def check(self, n_colleges):
        if not _permutes(self.ranking, n_colleges, "preferences.ranking"):
            raise ConfigError(
                f"preferences.ranking: must be a permutation of 0..{n_colleges - 1}"
            )

    def sample_prefs(self, rngs, n, n_colleges, tiers):
        ranking = np.asarray(self.ranking, dtype=prefs_dtype(n_colleges))
        return np.tile(ranking, (len(rngs), n, 1))


@dataclass(frozen=True)
class TieredByCoalition(PreferenceModel):
    """Lower-indexed coalitions strictly first, uniform random within each."""

    kind = "tiered_by_coalition"

    def sample_prefs(self, rngs, n, n_colleges, tiers):
        # tiers are small integers; a U(0,1) jitter randomises within a tier
        # without ever crossing tier boundaries.
        return _argsort_keys(rngs, n, n_colleges, tiers)


@dataclass(frozen=True)
class ExplicitSampler(PreferenceModel):
    rankings: tuple[tuple[int, ...], ...]
    probabilities: tuple[float, ...]
    kind = "explicit"

    def __post_init__(self):
        if len(self.rankings) != len(self.probabilities):
            raise ConfigError("preferences: rankings and probabilities differ in length")
        if not self.rankings:
            raise ConfigError("preferences.rankings: must be non-empty")
        for i, p in enumerate(self.probabilities):
            finite_number(p, f"preferences.probabilities[{i}]")
        if any(p < 0 for p in self.probabilities):
            raise ConfigError("preferences.probabilities: must be non-negative")
        if abs(sum(self.probabilities) - 1.0) > 1e-9:
            raise ConfigError("preferences.probabilities: must sum to 1")

    def check(self, n_colleges):
        for j, r in enumerate(self.rankings):
            if not _permutes(r, n_colleges, f"preferences.rankings[{j}]"):
                raise ConfigError(
                    f"preferences.rankings: {r} is not a permutation of 0..{n_colleges - 1}"
                )

    def sample_prefs(self, rngs, n, n_colleges, tiers):
        table = np.asarray(self.rankings, dtype=prefs_dtype(n_colleges))
        p = np.asarray(self.probabilities)
        prefs = np.empty((len(rngs), n, n_colleges), dtype=table.dtype)
        for i, rng in enumerate(rngs):
            np.take(table, rng.choice(len(table), size=n, p=p), axis=0, out=prefs[i])
        return prefs


def _permutes(ranking, n_colleges: int, field: str) -> bool:
    """Whether ranking orders the colleges 0..n_colleges-1, each once.  An
    entry that is not an integer (a bool, a float or a string) is an error
    naming ``field[i]``, not a college; so is a ranking that is not a list."""
    if not isinstance(ranking, (tuple, list, np.ndarray)):
        raise ConfigError(f"{field}: must be a list, got {ranking!r}")
    for i, c in enumerate(ranking):
        integer(c, f"{field}[{i}]")
    return sorted(ranking) == list(range(n_colleges))


def _argsort_keys(rngs, n, n_colleges, tiers=None):
    """Rank every row of each generator's (n, C) U(0, 1) key matrix, plus
    tiers, ascending, into an (R, n, C) stack.

    Keys are drawn in the blocks of ``stack_blocks``.  A stream fills its
    matrix in row-major order, so the blocks take the same keys, and each row
    sorts alone, so one argsort of a block equals one argsort per market.
    Rows of two colleges are ranked by one comparison, and rows of at least
    ``_PACKED_RANK_MIN_COLLEGES`` colleges by ``_packed_rank``; both give
    argsort's bytes.
    """
    prefs = np.empty((len(rngs), n, n_colleges), dtype=prefs_dtype(n_colleges))
    packed = n_colleges >= _PACKED_RANK_MIN_COLLEGES
    for (reps, rows), block in stack_blocks(prefs.shape, float):
        for rng, slot in zip(rngs[reps], block):
            rng.random(out=slot)
        if tiers is not None:
            block += tiers
        if n_colleges == 2:
            # argsort of a pair: the second first only when its key is lower
            np.less(block[..., 1], block[..., 0], out=prefs[reps, rows, 0])
            np.logical_not(prefs[reps, rows, 0], out=prefs[reps, rows, 1])
        elif packed:
            _packed_rank(block, prefs[reps, rows])
        else:
            prefs[reps, rows] = np.argsort(block, axis=2)
    return prefs


def _packed_rank(keys: np.ndarray, out: np.ndarray) -> None:
    """Write ``np.argsort(keys, axis=-1)`` into ``out`` with one uint64 sort
    per row.  Keys must be non-negative floats, so their bit patterns sort
    as they do.

    Each cell packs the key's bits, less its b - 1 lowest and its sign bit
    (0 for a key >= 0), above the college index in the b = bit_length(C - 1)
    low bits.  Where a row's truncated keys all differ, they order it as the
    full keys do, and argsort of distinct keys is unique; a row where two
    tie is ranked by argsort itself.  Beside the keys, which stay whole for
    that, this holds one uint64 block, as argsort's int64 result would: the
    shifts and the mask run in place, and the tie check adds one boolean.
    """
    b = (keys.shape[-1] - 1).bit_length()
    packed = keys.view(np.uint64) >> (b - 1)
    packed <<= b
    packed |= np.arange(keys.shape[-1], dtype=np.uint64)
    packed.sort(axis=-1)
    np.bitwise_and(packed, (1 << b) - 1, out=out, casting="unsafe")
    packed >>= b
    tied = (packed[..., 1:] == packed[..., :-1]).any(axis=-1)
    if tied.any():
        out[tied] = np.argsort(keys[tied], axis=-1)


# ---------------------------------------------------------------------------
# economy configuration


@dataclass(frozen=True)
class College:
    id: int
    capacity: int
    coalition: int


@dataclass(frozen=True)
class Coalition:
    id: int
    values: ValueDistribution
    noise: NoiseSpec | None


@dataclass(frozen=True)
class EconomyConfig:
    n_students: int
    colleges: tuple[College, ...]
    coalitions: tuple[Coalition, ...]
    preferences: PreferenceModel
    master_seed: int
    capacity_alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "colleges", tuple(self.colleges))
        object.__setattr__(self, "coalitions", tuple(self.coalitions))
        # a bool is an Integral, and a numpy integer is stored as the int it
        # equals, so it hashes and samples as the int does
        for field in ("n_students", "master_seed"):
            object.__setattr__(self, field, integer(getattr(self, field), field))
        if self.n_students < 1:
            raise ConfigError(f"n_students: must be >= 1, got {self.n_students}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed: must be a non-negative integer, got {self.master_seed}")
        if not finite_number(self.capacity_alpha, "capacity_alpha") > 0:
            raise ConfigError(f"capacity_alpha: must be above 0, got {self.capacity_alpha!r}")
        if not self.colleges:
            raise ConfigError("colleges: must be non-empty")
        if not self.coalitions:
            raise ConfigError("coalitions: must be non-empty")
        for field, items in (("colleges", self.colleges), ("coalitions", self.coalitions)):
            # before the set: NaN equals no id, itself included, so it would
            # pass as unique, and an unhashable id would raise a TypeError
            for i, item in enumerate(items):
                identifier(item.id, f"{field}[{i}].id")
            if len({item.id for item in items}) != len(items):
                raise ConfigError(f"{field}: ids must be unique")
            # the outputs name ids by str(id), and 1 and "1" are distinct ids
            first = {}
            for i, item in enumerate(items):
                j = first.setdefault(str(item.id), i)
                if j != i:
                    message = f"prints as {item.id}, like {field}[{j}].id"
                    raise ConfigError(f"{field}[{i}].id: {message}")
        known = {k.id for k in self.coalitions}
        colleges = []
        for i, c in enumerate(self.colleges):
            # an integral float is not one: it would be written, and hashed, as a float
            if not (isinstance(c.capacity, numbers.Integral) and positive_integer(c.capacity)):
                raise ConfigError(f"colleges[{i}].capacity: must be a positive integer")
            if identifier(c.coalition, f"colleges[{i}].coalition") not in known:
                raise ConfigError(f"colleges[{i}].coalition: unknown coalition {c.coalition!r}")
            # a numpy integer capacity is stored as the int it equals, so it hashes as one
            colleges.append(c if type(c.capacity) is int else replace(c, capacity=int(c.capacity)))
        object.__setattr__(self, "colleges", tuple(colleges))
        used = {c.coalition for c in self.colleges}
        empty = [k for k in known if k not in used]
        if empty:
            raise ConfigError(f"coalitions: no colleges reference coalition(s) {empty}")
        self.preferences.check(len(self.colleges))
        total = sum(c.capacity for c in self.colleges)
        if total >= self.n_students:
            raise OverdemandError(
                f"total capacity {total} must be strictly below n_students {self.n_students}"
            )
        cap_bound = self.capacity_alpha * self.n_students / len(self.colleges)
        worst = max(self.colleges, key=lambda c: c.capacity)
        if worst.capacity > cap_bound:
            warnings.warn(
                f"college {worst.id} capacity {worst.capacity} exceeds "
                f"alpha*n/C = {cap_bound:.1f}",
                CapacityRegularityWarning,
                stacklevel=2,
            )

    @property
    def n_colleges(self) -> int:
        return len(self.colleges)

    def capacities(self) -> np.ndarray:
        return np.array([c.capacity for c in self.colleges], dtype=int)

    def total_capacity(self) -> int:
        return int(sum(c.capacity for c in self.colleges))

    def coalition_position(self, coalition_id) -> int:
        """Position, in config order, of the coalition with this id; every
        coalition has colleges, so any other id has none."""
        for k, coalition in enumerate(self.coalitions):
            if coalition.id == coalition_id:
                return k
        raise ConfigError(f"coalition {coalition_id!r} has no colleges")

    def coalition_index(self) -> np.ndarray:
        """coalition_position of each college, from one dict, not C scans."""
        position = {k.id: i for i, k in enumerate(self.coalitions)}
        return np.array([position[c.coalition] for c in self.colleges], dtype=int)

    def coalition_members(self, coalition_id) -> np.ndarray:
        """College indices belonging to one coalition."""
        return np.flatnonzero(self.coalition_index() == self.coalition_position(coalition_id))


@dataclass(frozen=True)
class SampledMarket:
    """One realisation of an economy.

    scores[s, c] is the student's coalition value at college c plus an
    independent noise draw; prefs rows are college indices, best first, of
    ``prefs_dtype(n_colleges)``: int16 up to 32768 colleges, so a market
    holds 10 bytes per (student, college) cell.  Index arithmetic on prefs
    belongs in int64 or intp.
    """

    values: np.ndarray  # (n_students, n_coalitions)
    prefs: np.ndarray  # (n_students, n_colleges) prefs_dtype(n_colleges)
    scores: np.ndarray  # (n_students, n_colleges)
    college_coalition: np.ndarray  # (n_colleges,) coalition position per college
    replication: int = 0

    @property
    def n_students(self) -> int:
        return self.values.shape[0]

    @property
    def n_colleges(self) -> int:
        return self.scores.shape[1]


def sample_market(config: EconomyConfig, replication: int = 0) -> SampledMarket:
    """Draw students, preferences, and noisy scores for one replication: the
    one-replication case of ``sample_stack``."""
    values, prefs, scores = sample_stack(config, range(replication, replication + 1))
    return SampledMarket(values[0], prefs[0], scores[0], config.coalition_index(), replication)


# what a failed draw may raise; a ReplicationError names its replication
_DRAW_ERRORS = (ConfigError, ValueError, RuntimeError)


def sample_stack(
    config: EconomyConfig, replications: range
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw students, preferences, and noisy scores for consecutive replications.

    Returns the stack's (R, n, n_coalitions) values, (R, n, C) prefs and
    (R, n, C) scores; slot i is replication replications[i], drawn from its
    own three streams exactly as it would be alone.  Keys and noise are drawn
    in blocks of at most ``_BLOCK_CELLS`` cells, so a stack of small markets
    takes one argsort and one add, and a large market stacked alone takes
    row blocks and college runs.

    The three streams are independent generators, so where
    ``helper_threads_allowed()``, a stack of at least
    ``_PREFS_THREAD_MIN_CELLS`` cells draws its preferences on a helper
    thread while this one draws the scores.  The bytes are the same either
    way.  A draw that fails raises ReplicationError naming its replication;
    the preference model draws the whole stack in one call, so its failure
    names the stack's replications.
    """
    n = config.n_students
    coal_idx = config.coalition_index()
    seed = config.master_seed

    values = np.empty((len(replications), n, len(config.coalitions)))
    for i, rng in enumerate(stream_rngs(seed, replications, STREAM_VALUES)):
        try:
            for k, coalition in enumerate(config.coalitions):
                values[i, :, k] = coalition.values.sample(rng, n)
        except _DRAW_ERRORS as e:
            raise ReplicationError.naming(replications[i : i + 1], e) from e

    args = (config, replications, stream_rngs(seed, replications, STREAM_PREFS), coal_idx)
    noise_rngs = stream_rngs(seed, replications, STREAM_NOISE)
    cells = len(replications) * n * config.n_colleges
    if cells >= _PREFS_THREAD_MIN_CELLS and helper_threads_allowed():
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_sample_prefs, *args)
            try:
                scores = _sample_scores(config, replications, noise_rngs, values, coal_idx)
            finally:
                # read it even when the scores fail, so its error is not lost
                prefs = future.result()
    else:
        prefs = _sample_prefs(*args)
        scores = _sample_scores(config, replications, noise_rngs, values, coal_idx)
    return values, prefs, scores


def _sample_prefs(config, replications, rngs, coal_idx):
    try:
        return config.preferences.sample_prefs(rngs, config.n_students, config.n_colleges, coal_idx)
    except _DRAW_ERRORS as e:
        raise ReplicationError.naming(replications, e) from e


def _sample_scores(config, replications, rngs, values, coal_idx):
    """Coalition values plus the noise streams' draws, as an (R, n, C) stack.

    Blocks hold at most ``_BLOCK_CELLS`` cells: several whole markets when
    one fits, runs of colleges of one market otherwise.
    """
    n_markets, n, _ = values.shape
    scores = np.empty((n_markets, n, config.n_colleges))
    cols = max(1, _BLOCK_CELLS // n)
    reps = markets_per_stack(n, config.n_colleges)
    # runs of consecutive colleges of one coalition (by position, not by
    # noise spec: equal specs may sit on different value columns)
    runs, end = [], 0
    for pos, run in groupby(coal_idx.tolist()):
        start, end = end, end + len(list(run))
        runs.append((pos, start, end))
    for r0 in range(0, n_markets, reps):
        r1 = min(r0 + reps, n_markets)
        for pos, start, end in runs:
            spec = config.coalitions[pos].noise
            value = values[r0:r1, :, pos, None]
            # A block of m colleges takes one draw of m * n per market; row j
            # of it is what college c0 + j alone would have drawn next, so
            # each noise stream is consumed in college order and the scores
            # equal a per-college loop's bit for bit.
            for c0 in range(start, end, cols):
                c1 = min(c0 + cols, end)
                if spec is None:
                    scores[r0:r1, :, c0:c1] = value
                    continue
                draws = []
                for i in range(r0, r1):
                    try:
                        draws.append(spec.sample(rngs[i], (c1 - c0) * n).reshape(c1 - c0, n))
                    except _DRAW_ERRORS as e:
                        raise ReplicationError.naming(replications[i : i + 1], e) from e
                noise = draws[0][None] if len(draws) == 1 else np.stack(draws)
                np.add(value, noise.transpose(0, 2, 1), out=scores[r0:r1, :, c0:c1])
    return scores
