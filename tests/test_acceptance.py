"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Heavy experiment runs are shared through session fixtures; every
criterion computes all of its clauses before asserting, so a failing
clause never hides the measurements of the others.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from noisymatch.cli import EXIT_OK, main as cli_main
from noisymatch import rate_exponent, v_s_threshold
from noisymatch.cutoffs import check_market_clearing, demand_all
from noisymatch.estimation import (
    amplification_metrics,
    attenuation_metrics,
    estimate_afford_curve,
    estimate_match_curve,
    run_replications,
    trim_coalition,
)
from noisymatch.market import (
    Coalition,
    College,
    CommonRanking,
    EconomyConfig,
    TieredByCoalition,
    UniformRandomPreferences,
    UniformValues,
    sample_market,
)
from noisymatch.matching import (
    UNMATCHED,
    deferred_acceptance,
    find_blocking_pairs,
    stacked_deferred_acceptance,
)
from noisymatch.noise import (
    DEFAULT_PROBE_GAP,
    Exponential,
    Gaussian,
    Gumbel,
    MaxStat,
    Pareto,
    Uniform,
    beta_from_stats,
    empirical_quantiles,
    estimate_beta,
    long_tail_ratio,
)

THREADS = 2
SEED = 7


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# shared experiment runs


def random_small_economy(rng, index):
    noises = [Uniform(0, 1), Gaussian(0, 0.5), Exponential(1.0), Gumbel(0, 0.5),
              Pareto(2.0, 0.3), None]
    n = int(rng.integers(20, 201))
    n_colleges = int(rng.integers(1, 11))
    total = int(rng.integers(n_colleges, n))
    base, rem = divmod(total, n_colleges)
    caps = [base + 1 if i < rem else base for i in range(n_colleges)]
    two_pools = n_colleges >= 2 and index % 3 == 0
    if two_pools:
        cut = n_colleges // 2
        coalitions = (
            Coalition(id=0, values=UniformValues(0, 1), noise=noises[index % len(noises)]),
            Coalition(id=1, values=UniformValues(0, 1), noise=noises[(index + 1) % len(noises)]),
        )
        colleges = tuple(
            College(id=i, capacity=caps[i], coalition=0 if i < cut else 1)
            for i in range(n_colleges)
        )
        prefs = TieredByCoalition() if index % 2 else UniformRandomPreferences()
    else:
        coalitions = (
            Coalition(id=0, values=UniformValues(0, 1), noise=noises[index % len(noises)]),
        )
        colleges = tuple(College(id=i, capacity=caps[i], coalition=0) for i in range(n_colleges))
        if index % 5 == 0:
            prefs = CommonRanking(ranking=tuple(rng.permutation(n_colleges).tolist()))
        else:
            prefs = UniformRandomPreferences()
    return EconomyConfig(
        n_students=n,
        colleges=colleges,
        coalitions=coalitions,
        preferences=prefs,
        master_seed=1000 + index,
    )


@pytest.fixture(scope="session")
def small_economy_results():
    rng = np.random.default_rng(SEED)
    results = []
    started = time.time()
    for index in range(100):
        with warnings.catch_warnings():
            # random capacity splits may trip the (intentional) regularity
            # warning; it is irrelevant to stability
            warnings.simplefilter("ignore")
            config = random_small_economy(rng, index)
        market = sample_market(config, replication=0)
        matching = deferred_acceptance(market, config.capacities())
        pairs = find_blocking_pairs(matching, market)
        results.append((config, market, matching, pairs))
    elapsed = time.time() - started
    return results, elapsed


@pytest.fixture(scope="session")
def fig1_runs():
    from noisymatch.presets import fig1

    runs = {}
    for noise in ("uniform", "pareto", "exponential"):
        for colleges in (2, 100):
            config, plan = fig1(colleges=colleges, noise=noise, seed=SEED, replications=100)
            runs[(noise, colleges)] = (config, run_replications(config, plan, threads=THREADS))
    return runs


@pytest.fixture(scope="session")
def fig2_runs():
    from noisymatch.presets import fig2

    runs = {}
    for noise in ("none", "uniform", "pareto"):
        config, plan = fig2(colleges=20, noise=noise, seed=SEED, replications=100)
        started = time.time()
        runs[noise] = (config, run_replications(config, plan, threads=THREADS), time.time() - started)
    return runs


# ---------------------------------------------------------------------------
# criteria 1-3: exact structural properties


def test_criterion_1_stability(small_economy_results):
    results, elapsed = small_economy_results
    worst = max(len(pairs) for *_ignored, pairs in results)
    ok = worst == 0 and elapsed < 10.0
    assert report("1 stability", ok, f"blocking pairs max={worst}, {elapsed:.1f}s over 100 economies")


def test_criterion_2_cutoff_characterization(small_economy_results):
    results, _ = small_economy_results
    mismatches = 0
    worst_excess = 0
    for config, market, matching, _pairs in results:
        bar = matching.cutoffs, matching.cut_students
        mismatches += int((demand_all(market, *bar) != matching.assignment).sum())
        excess = check_market_clearing(market, *bar, config.capacities())
        worst_excess = max(worst_excess, int(np.abs(excess).max()))
    ok = mismatches == 0 and worst_excess == 0
    assert report(
        "2 cutoff characterization",
        ok,
        f"demand mismatches={mismatches}, max |excess demand|={worst_excess}",
    )


GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def _matchings(n, c):
    """All unit-capacity occupant tuples, -1 for an empty seat."""
    if c == 1:
        return [(a,) for a in range(-1, n)]
    return [(a, b) for a in range(-1, n) for b in range(-1, n) if b == -1 or b != a]


def _profile_tables(prefs, n, c):
    """Score-independent stability machinery for one preference profile.

    Returns (matching, outcome_ranks, blockers) for every matching that an
    empty-seat argument does not already rule out; `blockers` lists the
    (student, college, occupant) comparisons that scores must settle.
    """
    rank = [{col: r for r, col in enumerate(prefs[s])} for s in range(n)]
    tables = []
    for m in _matchings(n, c):
        out = [c] * n
        for col, occ in enumerate(m):
            if occ != -1:
                out[occ] = rank[occ][col]
        blockers = []
        dead = False
        for s in range(n):
            for col in range(c):
                if rank[s][col] < out[s]:
                    occ = m[col]
                    if occ == -1:
                        dead = True
                        break
                    blockers.append((s, col, occ))
            if dead:
                break
        if not dead:
            tables.append((m, out, blockers))
    return tables


def _check_against_oracle(got, score_rows, tables, n):
    """DA's assignment must be stable and student-optimal versus the
    enumerated stable set."""
    stable_outs = []
    got_out = None
    for m, out, blockers in tables:
        stable = True
        for s, col, occ in blockers:
            if (score_rows[s][col], -s) > (score_rows[occ][col], -occ):
                stable = False
                break
        if stable:
            stable_outs.append(out)
            assign = [UNMATCHED] * n
            for col, occ in enumerate(m):
                if occ != -1:
                    assign[occ] = col
            if assign == got:
                got_out = out
    if got_out is None:
        return False  # DA output not among the stable matchings
    return all(
        got_out[s] <= other[s] for other in stable_outs for s in range(n)
    )


def test_criterion_3_oracle_equivalence():
    """Exhaustive DA-versus-enumeration check on unit-capacity instances.

    Each preference profile's score matrices are matched as one stack by
    stacked_deferred_acceptance, the path every replication takes, and
    each slot is checked against the enumeration.

    Families (all with scores drawn from a fixed 5-value grid):
      - C=1, N=1..5: every preference profile x every score matrix;
      - C=2, N=1..3: every preference profile x every score matrix,
        which covers every within-college tie pattern the grid allows;
      - C=2, N=4..5: every preference profile x every pair of distinct-value
        score columns (5!/(5-N)! arrangements per college).
    """
    started = time.time()
    checked = 0
    failures = 0

    def run_family(n, c, column_iter_factory):
        nonlocal checked, failures
        pref_profiles = list(itertools.product(list(itertools.permutations(range(c))), repeat=n))
        for prefs in pref_profiles:
            tables = _profile_tables(prefs, n, c)
            stack = [
                [tuple(columns[col][s] for col in range(c)) for s in range(n)]
                for columns in column_iter_factory()
            ]
            scores = np.array(stack, dtype=float)
            assignment = stacked_deferred_acceptance(
                np.broadcast_to(np.array(prefs), scores.shape), scores, [1] * c
            )[0]
            for got, score_rows in zip(assignment.tolist(), stack):
                if not _check_against_oracle(got, score_rows, tables, n):
                    failures += 1
                checked += 1

    for n in range(1, 6):
        run_family(n, 1, lambda n=n: ([col] for col in itertools.product(GRID, repeat=n)))
    for n in range(1, 4):
        run_family(
            n, 2,
            lambda n=n: (
                [flat[:n], flat[n:]] for flat in itertools.product(GRID, repeat=2 * n)
            ),
        )
    for n in (4, 5):
        run_family(
            n, 2,
            lambda n=n: (
                [c0, c1]
                for c0 in itertools.permutations(GRID, n)
                for c1 in itertools.permutations(GRID, n)
            ),
        )

    elapsed = time.time() - started
    expected = (
        sum(5 ** n for n in range(1, 6))
        + sum(2 ** n * 5 ** (2 * n) for n in range(1, 4))
        + sum(2 ** n * math.perm(5, n) ** 2 for n in (4, 5))
    )
    ok = failures == 0 and checked == expected and elapsed < 60.0
    assert report(
        "3 oracle equivalence",
        ok,
        f"{checked} instances (expected {expected}), failures={failures}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criteria 4-6: single-pool benchmark reproductions


def test_criterion_4_attenuation(fig1_runs):
    config, records = fig1_runs[("uniform", 100)]
    _, records_c2 = fig1_runs[("uniform", 2)]
    v_s = v_s_threshold(config.coalitions[0].values, 0.5)
    curve = estimate_match_curve(records, coalition_id=1)
    lo, hi = curve.bin_edges[:-1], curve.bin_edges[1:]
    upper_bins = (lo >= 0.6 - 1e-9) & (hi <= 1.0 + 1e-9)
    lower_bins = (lo >= -1e-9) & (hi <= 0.4 + 1e-9)
    min_upper = float(np.nanmin(curve.probability[upper_bins]))
    max_lower = float(np.nanmax(curve.probability[lower_bins]))
    below_100 = attenuation_metrics(curve, v_s).below_mass
    below_2 = attenuation_metrics(estimate_match_curve(records_c2, coalition_id=1), v_s).below_mass
    ok = (
        v_s == pytest.approx(0.5)
        and min_upper >= 0.9
        and max_lower <= 0.1
        and below_100 < below_2
    )
    assert report(
        "4 attenuation (uniform noise)",
        ok,
        f"min p on [0.6,1]={min_upper:.3f}, max p on [0,0.4]={max_lower:.3f}, "
        f"below_mass C=100 {below_100:.4f} < C=2 {below_2:.4f}",
    )


def reckoned_pareto_match_curve(noise, colleges, share, edges):
    """Continuum match probability under Pareto noise, averaged over each bin.

    With uniform random preferences every college of a single pool faces the
    same demand, so in the continuum all share one cutoff P (the cutoff
    characterisation of Azevedo & Leshno 2016).  A student of value v then
    matches iff some college's noisy score clears P:
    Pr[match | v] = 1 - F(P - v)^C, with F the closed-form Pareto CDF and P
    set so that the matched mass equals the capacity share.  Values are
    taken as uniform over the bin range.  Returns (P, per-bin averages).
    """
    edges = np.asarray(edges, dtype=float)
    # midpoint rule on 200 equal sub-cells of every bin
    sub = (np.arange(200) + 0.5) / 200
    v = edges[:-1, None] + np.diff(edges)[:, None] * sub[None, :]

    def curve(cutoff):
        gap = np.maximum(cutoff - v, noise.scale)
        return 1.0 - (1.0 - (noise.scale / gap) ** noise.shape) ** colleges

    def matched_mass(cutoff):
        return float(np.average(curve(cutoff).mean(axis=1), weights=np.diff(edges)))

    lo, hi = edges[0], edges[-1] + noise.scale
    while matched_mass(hi) > share:
        hi = 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if matched_mass(mid) > share:
            lo = mid
        else:
            hi = mid
    cutoff = 0.5 * (lo + hi)
    return cutoff, curve(cutoff).mean(axis=1)


def test_criterion_5_amplification(fig1_runs):
    config, records = fig1_runs[("pareto", 100)]
    _, records_c2 = fig1_runs[("pareto", 2)]
    curve = estimate_match_curve(records, coalition_id=1)
    sup_100 = amplification_metrics(curve, 0.5, min_count=500)
    sup_2 = amplification_metrics(
        estimate_match_curve(records_c2, coalition_id=1), 0.5, min_count=500
    )
    # full amplification is the C -> infinity limit; at C=100 the reckoned
    # curve still rises from ~0.41 to ~0.60, so compare bin by bin with it
    share = config.total_capacity() / config.n_students
    cutoff, reckoned = reckoned_pareto_match_curve(
        config.coalitions[0].noise, len(config.colleges), share, curve.bin_edges
    )
    kept = curve.count >= 500
    z = np.abs(curve.probability[kept] - reckoned[kept]) / curve.stderr[kept]
    sup_reckoned = float(np.abs(reckoned[kept] - share).max())
    curve_ok = bool(kept.any()) and bool((z <= 4.0).all())
    trend_ok = sup_100 < sup_2
    ok = curve_ok and trend_ok
    assert report(
        "5 amplification (pareto noise)",
        ok,
        f"sup_deviation C=100 {sup_100:.4f} (reckoned {sup_reckoned:.4f}, cutoff "
        f"{cutoff:.3f}), C=2 {sup_2:.4f}, trend {'ok' if trend_ok else 'violated'}; "
        f"{int(kept.sum())} bins within 4 stderr of the reckoned curve: {curve_ok} "
        f"(max |z|={z.max():.2f})",
    )


def test_criterion_6_neutrality(fig1_runs):
    config, records = fig1_runs[("exponential", 100)]
    _, records_c2 = fig1_runs[("exponential", 2)]
    v_s = v_s_threshold(config.coalitions[0].values, 0.5)
    curve_100 = estimate_match_curve(records, coalition_id=1)
    curve_2 = estimate_match_curve(records_c2, coalition_id=1)
    d_sup = abs(
        amplification_metrics(curve_100, 0.5) - amplification_metrics(curve_2, 0.5)
    )
    d_below = abs(
        attenuation_metrics(curve_100, v_s).below_mass
        - attenuation_metrics(curve_2, v_s).below_mass
    )
    ok = d_sup < 0.1 and d_below < 0.1
    assert report(
        "6 neutrality (exponential noise)",
        ok,
        f"|sup_deviation change|={d_sup:.4f}, |below_mass change|={d_below:.4f}",
    )


# ---------------------------------------------------------------------------
# criteria 7-8: two-tier benchmark reproductions


def test_criterion_7_noiseless_cutoffs(fig2_runs):
    config, records, elapsed = fig2_runs["none"]
    # the coalition-level cutoff is the lowest member cutoff: the marginal
    # admitted student's value, the finite analog of the shared frontier
    coal = records.config.coalition_index()
    cut_1 = records.cutoffs[:, coal == 0].min(axis=1).mean()
    cut_2 = records.cutoffs[:, coal == 1].min(axis=1).mean()
    ok = abs(cut_1 - 0.75) <= 0.02 and abs(cut_2 - 1.0 / 3.0) <= 0.02 and elapsed < 30.0
    assert report(
        "7 noiseless coalition cutoffs",
        ok,
        f"coalition 1 {cut_1:.4f} (target 0.75), coalition 2 {cut_2:.4f} "
        f"(target {1/3:.4f}), {elapsed:.1f}s",
    )


def test_criterion_8_coalition_regimes(fig2_runs):
    _, rec_u, _ = fig2_runs["uniform"]
    _, rec_p, _ = fig2_runs["pareto"]
    matched_1_u = rec_u.matched_coalition() == 0
    v1_u = rec_u.values[:, :, 0]
    frac_high = float((v1_u[matched_1_u] > 0.7).mean())
    matched_1_p = (rec_p.matched_coalition() == 0).ravel().astype(float)
    v1_p = rec_p.values[:, :, 0].ravel()
    corr = float(np.corrcoef(v1_p, matched_1_p)[0, 1])
    ok = frac_high >= 0.85 and abs(corr) <= 0.15
    assert report(
        "8 coalition regimes",
        ok,
        f"uniform: share v1>0.7 among coalition-1 matches={frac_high:.4f}; "
        f"pareto: |corr(v1, matched)|={abs(corr):.4f}",
    )


# ---------------------------------------------------------------------------
# criteria 9-10: diagnostics and formulas


def gaussian_var_max(n):
    """Variance of the max of n iid N(0,1): trapezoid rule on n Phi^(n-1) phi."""
    x = np.linspace(-10.0, 10.0, 20_001)
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    cdf = np.array([0.5 * math.erfc(-t / math.sqrt(2.0)) for t in x])
    density = n * cdf ** (n - 1) * pdf
    m1 = np.trapezoid(x * density, x)
    m2 = np.trapezoid(x * x * density, x)
    return float(m2 - m1 * m1)


def test_criterion_9_tail_diagnostics():
    grid = [10, 100, 1000, 10_000]
    beta_u, _ = estimate_beta(Uniform(0, 1), grid, 2000, np.random.default_rng(SEED))
    uniform_ok = 1.6 <= beta_u <= 2.4

    # Var(max of n Gaussians) decays like 1/log n, not like a power of n, so
    # the fitted slope on this grid is a fixed small number; pin it to the
    # slope of the exact variances
    beta_g, _ = estimate_beta(Gaussian(0, 1), grid, 2000, np.random.default_rng(SEED))
    beta_exact, _ = beta_from_stats([MaxStat(n, 0.0, gaussian_var_max(n)) for n in grid])
    gaussian_ok = abs(beta_g - beta_exact) <= 0.04

    rng = np.random.default_rng(SEED)
    x999 = float(empirical_quantiles(Pareto(2.0, 1.0), [0.999], 100_000, rng)[0])
    pareto_ratio = long_tail_ratio(Pareto(2.0, 1.0), x999, DEFAULT_PROBE_GAP).ratio
    pareto_ok = pareto_ratio >= 0.95

    exp_ok = True
    exp_detail = []
    probe_xs = empirical_quantiles(Exponential(1.0), [0.9, 0.99, 0.999], 100_000, rng)
    for x in probe_xs:
        est = long_tail_ratio(
            Exponential(1.0), float(x), 1.0, rng=rng, samples=400_000
        )
        exp_detail.append(f"{est.ratio:.4f}±{est.stderr:.4f}")
        if abs(est.ratio - math.exp(-1.0)) > 3 * est.stderr:
            exp_ok = False

    ok = uniform_ok and gaussian_ok and pareto_ok and exp_ok
    assert report(
        "9 tail diagnostics",
        ok,
        f"uniform beta={beta_u:.2f} in [1.6,2.4]:{uniform_ok}; "
        f"gaussian beta={beta_g:.3f} within 0.04 of exact {beta_exact:.4f}:{gaussian_ok}; "
        f"pareto ratio at q999={pareto_ratio:.4f}>=0.95:{pareto_ok}; "
        f"exponential e^-1 within 3se at 3 probes:{exp_ok} ({', '.join(exp_detail)})",
    )


def test_criterion_10_rate_exponent_formula():
    a = rate_exponent(1.0, 1.0)
    b = rate_exponent(2.0, 1.0)
    ok = a == 0.125 and b == 4.0 / 21.0
    assert report("10 rate exponent formula", ok, f"K(1,1)={a}, K(2,1)={b}")


# ---------------------------------------------------------------------------
# criterion 11: determinism


def test_criterion_11_determinism(tmp_path):
    base = ("--preset", "fig1", "--colleges", "10", "--replications", "6", "--seed", "7")
    dirs = [tmp_path / name for name in ("a", "b", "t8")]
    assert cli_main([*base, "--threads", "1", "--out-dir", str(dirs[0])]) == EXIT_OK
    assert cli_main([*base, "--threads", "1", "--out-dir", str(dirs[1])]) == EXIT_OK
    assert cli_main([*base, "--threads", "8", "--out-dir", str(dirs[2])]) == EXIT_OK
    names = ("curves.csv", "metrics.csv", "cutoffs.csv")
    rerun_identical = all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names
    )
    threads_identical = all(
        (dirs[0] / n).read_bytes() == (dirs[2] / n).read_bytes() for n in names
    )
    ok = rerun_identical and threads_identical
    assert report(
        "11 determinism",
        ok,
        f"same-seed rerun byte-identical:{rerun_identical}, "
        f"threads 1 vs 8 identical:{threads_identical}",
    )


# ---------------------------------------------------------------------------
# criterion 12: invariants across every acceptance run


def _monotone_violations(curve):
    p, se = curve.probability, curve.stderr
    bad = 0
    for i in range(len(p) - 1):
        if np.isnan(p[i]) or np.isnan(p[i + 1]):
            continue
        if p[i + 1] < p[i] - 2 * (se[i] + se[i + 1]):
            bad += 1
    return bad


def test_criterion_12_invariant_suite(fig1_runs, fig2_runs):
    problems = []
    all_runs = [
        (f"fig1[{noise},C={c}]", config, records)
        for (noise, c), (config, records) in fig1_runs.items()
    ] + [(f"fig2[{noise}]", config, records) for noise, (config, records, _) in fig2_runs.items()]

    for label, config, records in all_runs:
        seats = config.total_capacity()
        if not (records.matched().sum(axis=1) == seats).all():
            problems.append(f"{label}: matched count != seats")
        s = seats / config.n_students
        for coalition in config.coalitions:
            curve = estimate_match_curve(records, coalition_id=coalition.id)
            ok = curve.count > 0
            integral = float(
                np.sum(curve.probability[ok] * curve.count[ok]) / curve.count.sum()
            )
            if abs(integral - s) > 1.0 / config.n_students:
                problems.append(f"{label}: curve integral {integral:.4f} != S={s}")
            if _monotone_violations(curve) > 0:
                problems.append(f"{label}: match curve not monotone within 2*stderr")
        for (cid, eps), afford in records.afford.items():
            if eps == 0.0 and len(config.coalitions) == 1:
                if not (afford | ~records.matched()).all():
                    problems.append(f"{label}: matched student cannot afford coalition {cid}")
                match_curve = estimate_match_curve(records, coalition_id=cid)
                afford_curve = estimate_afford_curve(records, cid, eps)
                ok = match_curve.count > 0
                if not (
                    afford_curve.probability[ok] >= match_curve.probability[ok] - 1e-12
                ).all():
                    problems.append(f"{label}: afford curve below match curve")
        if records.cutoffs is not None:
            cuts = records.cutoffs[-1]
            for coalition in config.coalitions:
                members = config.coalition_members(coalition.id)
                for eps in (0.0, 0.05, 0.3):
                    kept = trim_coalition(cuts, members, eps)
                    want = int(np.ceil((1 - eps) * len(members) - 1e-9))
                    if len(kept) != want:
                        problems.append(f"{label}: trim({eps}) kept {len(kept)} != {want}")
    ok = not problems
    assert report(
        "12 invariant suite",
        ok,
        "all runs clean" if ok else "; ".join(problems[:4]),
    )
