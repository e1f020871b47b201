"""Unit tests for the replication harness, curves, and metrics."""

import functools
import itertools
import multiprocessing
import os
import re
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from noisymatch import cutoffs, estimation, matching
from noisymatch import market as market_module
from noisymatch.config_io import config_to_dict, dict_to_config
from noisymatch.errors import ConfigError, ReplicationError
from noisymatch.estimation import (
    AffordProbability,
    ExperimentPlan,
    MatchCurve,
    MatchProbability,
    amplification_metrics,
    attenuation_metrics,
    equal_width_edges,
    estimate_afford_curve,
    estimate_match_curve,
    run_replications,
    steepest_ascent_bin,
    trim_coalition,
)
from noisymatch.market import (
    Coalition,
    College,
    EconomyConfig,
    UniformRandomPreferences,
    UniformValues,
    sample_market,
    sample_stack,
)
from noisymatch.matching import UNMATCHED, deferred_acceptance, stacked_deferred_acceptance
from noisymatch.noise import Pareto, Uniform
from noisymatch.presets import fig1, fig2
from test_matching import clears, make_market


def rename_coalition(config, plan, old, new):
    """The config and plan with coalition ``old`` called ``new`` everywhere."""
    def rename(cid):
        return new if cid == old else cid

    config = replace(
        config,
        colleges=tuple(replace(c, coalition=rename(c.coalition)) for c in config.colleges),
        coalitions=tuple(replace(k, id=rename(k.id)) for k in config.coalitions),
    )
    curves = tuple(replace(c, coalition_id=rename(c.coalition_id)) for c in plan.curves)
    return config, replace(plan, curves=curves)


def small_pool(n=400, colleges=4, noise=Uniform(0, 1), seed=17, replications=5):
    seats = n // 2 // colleges
    config = EconomyConfig(
        n_students=n,
        colleges=tuple(College(id=i + 1, capacity=seats, coalition=1) for i in range(colleges)),
        coalitions=(Coalition(id=1, values=UniformValues(0, 1), noise=noise),),
        preferences=UniformRandomPreferences(),
        master_seed=seed,
    )
    plan = ExperimentPlan(
        replications=replications,
        bin_edges=equal_width_edges((0.0, 1.0), 25),
        curves=(MatchProbability(coalition_id=1), AffordProbability(coalition_id=1)),
    )
    return config, plan


class TestTrimCoalition:
    def test_zero_epsilon_keeps_everything(self):
        assert trim_coalition([0.5, 0.2], [0, 1], 0.0) == (0, 1)

    def test_half_trim_keeps_top_cutoffs(self):
        cuts = np.array([1.0, 2.0, 3.0, 4.0])
        assert trim_coalition(cuts, [0, 1, 2, 3], 0.5) == (2, 3)

    def test_small_epsilon_drops_exactly_one_of_twenty(self):
        cuts = np.arange(20.0)
        kept = trim_coalition(cuts, range(20), 0.05)
        assert len(kept) == 19 and 0 not in kept

    def test_cardinality_is_ceiling(self):
        for eps in (0.0, 0.1, 0.3, 0.55, 0.999, 1 - 1e-12):
            for size in (1, 3, 10, 17):
                kept = trim_coalition(np.arange(float(size)), range(size), eps)
                # ceil((1 - eps) * size) is at least 1 for any eps < 1; the
                # nudge that absorbs float error takes it to 0 near eps = 1
                assert len(kept) == max(1, int(np.ceil((1 - eps) * size - 1e-9)))
                assert set(kept) <= set(range(size))

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            trim_coalition([0.0], [0], 1.0)

    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.5])
    def test_tied_cutoffs_drop_the_lower_index(self, eps):
        # 40 members out of order, on a three-value grid with -inf for free
        # seats: numpy's default sort is not stable at this length
        rng = np.random.default_rng(11)
        cuts = rng.choice([-np.inf, 0.25, 0.5], size=(6, 50))
        members = rng.permutation(50)[:40]
        drop = int(np.floor(eps * 40 + 1e-9))
        for row in cuts:
            ranked = sorted(members.tolist(), key=lambda c: (row[c], c))
            assert trim_coalition(row, members, eps) == tuple(sorted(ranked[drop:]))


def helper_threads_started(config, plan):
    """Run the replications serially with every helper-thread minimum at
    zero, on a process that may use two CPUs, and list the modules that
    started a helper."""
    started = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        mp.setattr(market_module, "_PREFS_THREAD_MIN_CELLS", 0)
        mp.setattr(matching, "_SCAN_SPLIT_MIN_STUDENTS", 0)
        for module in (market_module, matching):
            pool = module.ThreadPoolExecutor

            def spy(*args, pool=pool, name=module.__name__, **kwargs):
                started.append(name)
                return pool(*args, **kwargs)

            mp.setattr(module, "ThreadPoolExecutor", spy)
        run_replications(config, plan)
    return started


class InlinePool:
    """Runs a process pool's tasks in this process, and keeps the worker
    count of each pool and the batch size of each map."""

    workers = []
    chunksizes = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *args, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, *args)


class TestRunReplications:
    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_raise(self, threads):
        config, plan = fig1(colleges=2, replications=2)
        with pytest.raises(ValueError, match=rf"^threads: must be at least 1, got {threads}$"):
            run_replications(config, plan, threads=threads)

    def test_matched_count_equals_seats(self):
        config, plan = small_pool()
        records = run_replications(config, plan)
        assert (records.matched().sum(axis=1) == config.total_capacity()).all()

    def test_bitwise_determinism(self):
        config, plan = small_pool()
        a = run_replications(config, plan)
        b = run_replications(config, plan)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.cutoffs, b.cutoffs)

    def test_a_serial_run_is_one_stack_and_a_pool_task_a_capped_stack(self, monkeypatch):
        # run the pool's tasks in this process to see what each one is asked
        asked = []
        matched = []
        monkeypatch.setattr(InlinePool, "chunksizes", [])

        def spy(config, replications):
            asked.append(replications)
            return sample_stack(config, replications)

        def da_spy(prefs, scores, capacities):
            matched.append(len(prefs))
            return stacked_deferred_acceptance(prefs, scores, capacities)

        monkeypatch.setattr(estimation, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(estimation, "sample_stack", spy)
        monkeypatch.setattr(estimation, "stacked_deferred_acceptance", da_spy)
        config, plan = small_pool(replications=3)
        serial = run_replications(config, plan, threads=1)
        # one stack of all three markets
        assert asked == [range(3)] and matched == [3]
        pooled = run_replications(config, plan, threads=2)
        # stacks of one replication each, capped at max(1, 3 // (4 * 2))
        assert asked[1:] == [range(r, r + 1) for r in range(3)]
        assert matched[1:] == [1] * 3
        assert np.array_equal(serial.assignment, pooled.assignment)
        # 40 markets on 2 workers: the cap binds at 40 // (4 * 2) = 5, far
        # below the 163 markets a stack may hold, and 8 stacks go one a batch
        del asked[:], matched[:]
        config, plan = small_pool(replications=40)
        assert market_module.markets_per_stack(config.n_students, config.n_colleges) == 163
        pooled = run_replications(config, plan, threads=2)
        assert asked == [range(r, r + 5) for r in range(0, 40, 5)] and matched == [5] * 8
        assert InlinePool.chunksizes == [1, 1]
        # markets that stand alone make 40 stacks, sent in batches of 5
        monkeypatch.setattr(market_module, "_BLOCK_CELLS", 1)
        del asked[:]
        run_replications(config, plan, threads=2)
        assert asked == [range(r, r + 1) for r in range(40)]
        assert InlinePool.chunksizes[-1] == 5

    def test_a_pool_starts_no_more_workers_than_stacks(self, monkeypatch):
        # a fork pool starts all its workers at the first submit
        monkeypatch.setattr(estimation, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(InlinePool, "workers", [])
        config, plan = fig1(colleges=2, n_students=200, replications=2)
        run_replications(config, plan, threads=4)
        # two stacks of one market each
        assert InlinePool.workers == [2]
        run_replications(config, replace(plan, replications=5), threads=3)
        assert InlinePool.workers == [2, 3]
        # one stack runs in this process
        run_replications(config, replace(plan, replications=1), threads=4)
        assert InlinePool.workers == [2, 3]

    def test_only_the_serial_path_starts_a_helper_thread(self):
        # InlinePool runs in this process, so only a real worker shows what
        # a pool task decides
        config, plan = small_pool(replications=2)
        assert helper_threads_started(config, plan) == ["noisymatch.market", "noisymatch.matching"]
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(helper_threads_started, config, plan).result() == []

    @pytest.mark.parametrize("threads", [1, 2], ids=["one-chunk", "five-chunks"])
    def test_stage_seconds_sum_over_stacks_and_chunks(self, threads, monkeypatch):
        # a clock that ticks once a reading: a stack reads it four times, so
        # each of its three stages takes one second
        ticks = itertools.count()
        monkeypatch.setattr(estimation, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(market_module, "_BLOCK_CELLS", 1)
        monkeypatch.setattr(estimation.time, "perf_counter", lambda: float(next(ticks)))
        config, plan = small_pool(replications=5)
        records = run_replications(config, plan, threads=threads)
        assert records.stage_seconds == {"sample": 5.0, "match": 5.0, "afford": 5.0}

    def test_pool_matches_serial(self):
        config, plan = small_pool(replications=4)
        serial = run_replications(config, plan, threads=1)
        pooled = run_replications(config, plan, threads=4)
        assert np.array_equal(serial.assignment, pooled.assignment)
        assert np.array_equal(serial.cutoffs, pooled.cutoffs)
        for key in serial.afford:
            assert np.array_equal(serial.afford[key], pooled.afford[key])

    @pytest.mark.parametrize("stack_cells", [None, 1], ids=["stacked", "one-a-stack"])
    def test_records_equal_across_threads(self, stack_cells, monkeypatch):
        # 1,600-cell markets stack up to 163 to a stack, so R = 11 is one
        # stack serially and stacks of one on 2 or 3 workers; with a one-cell
        # budget each stands alone
        if stack_cells is not None:
            monkeypatch.setattr(market_module, "_BLOCK_CELLS", stack_cells)
        config, plan = small_pool(replications=11)
        plan = replace(plan, curves=plan.curves + (AffordProbability(1, 0.5),))
        runs = [run_replications(config, plan, threads=t) for t in (1, 2, 3)]
        for records in runs[1:]:
            assert np.array_equal(records.values, runs[0].values)
            assert np.array_equal(records.assignment, runs[0].assignment)
            assert np.array_equal(records.cutoffs, runs[0].cutoffs)
            assert records.afford.keys() == runs[0].afford.keys()
            for key in records.afford:
                assert np.array_equal(records.afford[key], runs[0].afford[key])
        for r in range(plan.replications):
            market = sample_market(config, r)
            alone = deferred_acceptance(market, config.capacities())
            assert np.array_equal(runs[0].assignment[r], alone.assignment)
            assert np.array_equal(runs[0].cutoffs[r], alone.cutoffs)

    def test_sampling_failure_names_its_replication(self, monkeypatch):
        # one coalition: the fourth value draw is replication 3's, inside
        # the one call that samples the stack of five
        draws, stacks = [], []
        sample = UniformValues.sample

        def fail(self, rng, n):
            draws.append(n)
            if len(draws) == 4:
                raise ValueError("planted failure")
            return sample(self, rng, n)

        def spy(config, replications, **kwargs):
            stacks.append(replications)
            return sample_stack(config, replications, **kwargs)

        monkeypatch.setattr(UniformValues, "sample", fail)
        monkeypatch.setattr(estimation, "sample_stack", spy)
        config, plan = small_pool(replications=5)
        with pytest.raises(ReplicationError, match="^replication 3: planted failure$"):
            run_replications(config, plan)
        assert stacks == [range(5)]

    @pytest.mark.parametrize(
        "stack_cells, where", [(None, "replications 0-4"), (1, "replication 0")]
    )
    def test_match_failure_names_its_stack(self, stack_cells, where, monkeypatch):
        def fail(prefs, scores, capacities, **kwargs):
            raise RuntimeError(f"planted failure in {len(prefs)}")

        if stack_cells is not None:
            monkeypatch.setattr(market_module, "_BLOCK_CELLS", stack_cells)
        monkeypatch.setattr(estimation, "stacked_deferred_acceptance", fail)
        config, plan = small_pool(replications=5)
        n = 5 if stack_cells is None else 1
        with pytest.raises(ReplicationError, match=f"^{where}: planted failure in {n}$"):
            run_replications(config, plan)

    def test_stacks_bound_a_run_s_allocations(self, monkeypatch):
        # numpy reports its buffers to tracemalloc.  A run holds its
        # stacks' outputs plus one stack at a time: the stack's copied prefs
        # and scores (10 bytes a cell) and the fixed point's arrays, at most
        # 24 int64 or float64 entries per student.  A run of four stacks
        # allocates no more beyond its outputs than a run of one.
        # as in a pool worker, with no helper thread
        monkeypatch.setattr(market_module, "helper_threads_allowed", lambda: False)
        config, plan = fig1(colleges=2, n_students=200, replications=1)
        per_stack = market_module.markets_per_stack(200, 2)
        bound = 10 * market_module._BLOCK_CELLS + 24 * 8 * per_stack * 200
        beyond = []
        for stacks in (1, 4):
            tracemalloc.start()
            try:
                records = run_replications(
                    config, replace(plan, replications=stacks * per_stack)
                )
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            held = records.values.nbytes + records.assignment.nbytes + records.cutoffs.nbytes
            held += sum(a.nbytes for a in records.afford.values())
            beyond.append(peak - held)
        assert max(beyond) <= bound
        assert beyond[1] <= 1.1 * beyond[0]

    def test_a_pooled_run_holds_the_records_once(self):
        # numpy reports its buffers to tracemalloc, and a pool's results are
        # unpickled in this process.  The records are allocated once and
        # each batch is copied into its rows as it arrives.  While a batch
        # is unpickled it is held up to three times over (the received
        # message, each array's pickled bytes and the array), and each of
        # the two workers may have one batch in flight, so the bound allows
        # six batches beside the records and 1 MiB.  Keeping the results
        # and joining them would hold the records twice.
        assert market_module.markets_per_stack(200, 2) >= 500
        config, plan = fig1(colleges=2, n_students=200, replications=4000)
        tracemalloc.start()
        try:
            records = run_replications(config, plan, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = records.values.nbytes + records.assignment.nbytes + records.cutoffs.nbytes
        held += sum(a.nbytes for a in records.afford.values())
        # stacks of 4000 // (4 * 2) = 500 markets, sent one a batch
        batch = held // 8
        assert peak <= held + 6 * batch + (1 << 20)

    @pytest.mark.parametrize("second", [2, "b"])
    def test_a_pool_trims_as_a_serial_run_does(self, second):
        # fig2's two coalitions each trimmed by 0.05: the trimmed sets are
        # chosen inside each worker, from that worker's stacks' cutoffs; ids
        # of mixed types, which do not sort, run as integer ids do
        config, plan = rename_coalition(*fig2(colleges=3, n_students=400, replications=40), 2, second)
        serial = run_replications(config, plan, threads=1)
        pooled = run_replications(config, plan, threads=2)
        assert np.array_equal(serial.values, pooled.values)
        assert np.array_equal(serial.assignment, pooled.assignment)
        assert np.array_equal(serial.cutoffs, pooled.cutoffs)
        assert serial.afford.keys() == pooled.afford.keys() == {(1, 0.05), (second, 0.05)}
        for key in serial.afford:
            assert np.array_equal(serial.afford[key], pooled.afford[key])

    def test_a_spawned_pool_gives_the_serial_records(self, monkeypatch):
        # workers that import the package afresh, as on macOS and under
        # Python 3.14's forkserver default, get nothing through fork
        spawn = functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
        )
        monkeypatch.setattr(estimation, "ProcessPoolExecutor", spawn)
        config, plan = fig1(colleges=2, n_students=200, replications=64)
        serial = run_replications(config, plan, threads=1)
        pooled = run_replications(config, plan, threads=2)
        assert serial.assignment.dtype == pooled.assignment.dtype == np.int16
        assert np.array_equal(serial.values, pooled.values)
        assert np.array_equal(serial.assignment, pooled.assignment)
        assert np.array_equal(serial.cutoffs, pooled.cutoffs)
        assert serial.afford.keys() == pooled.afford.keys() == {(1, 0.0)}
        for key in serial.afford:
            assert np.array_equal(serial.afford[key], pooled.afford[key])

    # fig2's plan has four curves, so an added one is plan.curves[4]
    ADDED = "plan.curves[4].coalition: "

    @pytest.mark.parametrize(
        "curve, values, message",
        [
            (AffordProbability(999), None, ADDED + "coalition 999 has no colleges"),
            (MatchProbability(999), None, ADDED + "coalition 999 has no colleges"),
            (MatchProbability(), None, ADDED + "required for multi-coalition economies"),
            # coalition 2, which the plan bins on edges [0, 1], takes U(0, 2) values
            (
                None,
                UniformValues(0.0, 2.0),
                "plan.bin_edges: [0.0, 1.0] does not cover the support [0.0, 2.0] "
                "of coalitions[1].values",
            ),
        ],
        ids=["afford-unknown", "match-unknown", "match-none-multi", "edges-short"],
    )
    def test_bad_curve_coalition_fails_before_any_replication(
        self, curve, values, message, monkeypatch
    ):
        config, plan = fig2(colleges=2, replications=2)
        sampled = []
        monkeypatch.setattr(estimation, "sample_stack", lambda *a, **kw: sampled.append(a))
        if curve is not None:
            plan = replace(plan, curves=plan.curves + (curve,))
        if values is not None:
            first, second = config.coalitions
            config = replace(config, coalitions=(first, replace(second, values=values)))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_replications(config, plan)
        assert sampled == []

    def test_single_college_serial_dictatorship_oracle(self):
        # with one college, the matched set is exactly the top-seats students
        # by score, and the match curve follows Pr[v + X > P] for the
        # threshold P read off the sampled population
        config, plan = small_pool(n=2000, colleges=1, replications=30)
        records = run_replications(config, plan)
        seats = config.total_capacity()
        survivals = []
        for r in range(records.n_replications):
            from noisymatch.market import sample_market

            market = sample_market(config, r)
            order = np.argsort(market.scores[:, 0])[::-1]
            top = set(order[:seats].tolist())
            got = set(np.nonzero(records.assignment[r] != UNMATCHED)[0].tolist())
            assert got == top
            survivals.append(np.sort(market.scores[:, 0])[-seats])
        curve = estimate_match_curve(records, coalition_id=1)
        mids = curve.v_mid
        # uniform noise: Pr[v + X > P] = clip(1 - (P - v), 0, 1)
        analytic = np.mean(
            [np.clip(1.0 - (p - mids), 0.0, 1.0) for p in survivals], axis=0
        )
        ok = curve.count > 0
        resid = np.abs(curve.probability[ok] - analytic[ok])
        assert (resid <= 3 * np.maximum(curve.stderr[ok], 1e-3) + 0.01).all()


class TestAffordability:
    """A stack compares scores with per-college bars instead of copying columns."""

    TRIMS = (0.0, 0.05, 0.5, 1 - 1e-12)

    @pytest.mark.parametrize(
        "colleges, noise",
        [(20, "uniform"), (1, "uniform"), (10, "heavy")],
        ids=["fig2-20", "one-college", "infinite-scores"],
    )
    def test_matches_kept_column_expression(self, colleges, noise):
        config, _ = fig2(colleges=colleges, n_students=600, replications=1)
        if noise == "heavy":
            # Pareto(0.005) overflows to +inf in about one draw in 35
            heavy = tuple(replace(k, noise=Pareto(0.005, 1.0)) for k in config.coalitions)
            config = replace(config, coalitions=heavy)
        plan = ExperimentPlan(
            replications=1,
            bin_edges=(0.0, 1.0),
            curves=tuple(AffordProbability(k, eps) for k in (1, 2) for eps in self.TRIMS),
        )
        market = sample_market(config, 0)
        if noise == "heavy":
            assert np.isinf(market.scores).any()
        matched = deferred_acceptance(market, config.capacities())
        cuts = matched.cutoffs
        if noise == "heavy":
            # full colleges whose worst admit scored +inf, where students
            # rejected at +inf tie the bar
            assert np.isposinf(cuts).any()
        _, _, afford, got_cuts, _ = estimation._run_stack(config, plan, range(1))
        assert np.array_equal(got_cuts[0], cuts)
        scores = market.scores.tolist()
        for k in (1, 2):
            for eps in self.TRIMS:
                kept = trim_coalition(cuts, config.coalition_members(k), eps)
                bars = [(c, cuts[c], matched.cut_students[c]) for c in kept]
                want = [
                    any(clears(row[c], s, *bar) for c, *bar in bars)
                    for s, row in enumerate(scores)
                ]
                assert afford[(k, eps)].dtype == bool
                assert np.array_equal(afford[(k, eps)][0], want), (k, eps)
            # a trim of nearly 1 keeps one member, the one with the top
            # cutoff (the higher index among ties), and affords by its bar
            top = max(config.coalition_members(k), key=lambda c: (cuts[c], c))
            bar = (cuts[top], matched.cut_students[top])
            want = [clears(row[top], s, *bar) for s, row in enumerate(scores)]
            assert np.array_equal(afford[(k, 1 - 1e-12)][0], want)

    @pytest.mark.parametrize("rows", [1, 7], ids=["one-row", "seven-rows"])
    def test_row_blocks_match_kept_column_expression(self, rows, monkeypatch):
        # 600 students: seven rows per block leave a last block of five
        monkeypatch.setattr(market_module, "_BLOCK_CELLS", rows * 40)
        self.test_matches_kept_column_expression(20, "uniform")

    @pytest.mark.parametrize(
        "cells", [1, 8 * 7 * 40, 1 << 18], ids=["one-row", "row-blocks", "default"]
    )
    def test_stacked_blocks_match_the_whole_comparison(self, cells, monkeypatch):
        # seven markets, each compared by demand_all in row slices of one
        # row, of seven (the last holding five), or of all 600.  Scores and
        # bars sit on a 41-point grid, so about one score in 41 ties its bar.
        monkeypatch.setattr(market_module, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(4)
        scores = rng.integers(0, 41, (7, 600, 40)) / 40
        scores[0, :5] = np.inf
        bars = rng.integers(39, 41, (7, 40)) / 40
        bars[:, ::3] = np.nan
        bars[0, 1] = np.inf
        bar_students = rng.integers(0, 601, (7, 40))
        prefs = rng.permuted(np.broadcast_to(np.arange(40), scores.shape), axis=2)
        got = np.array(
            [
                cutoffs.demand_all(make_market(prefs[r], scores[r]), bars[r], bar_students[r])
                != UNMATCHED
                for r in range(len(scores))
            ]
        )
        want = [
            [
                any(clears(sc, s, cut, who) for sc, cut, who in zip(row, bars[r], bar_students[r]))
                for s, row in enumerate(market)
            ]
            for r, market in enumerate(scores.tolist())
        ]
        assert got.tolist() == want
        assert got.any() and not got.all()

    def test_builds_no_n_by_c_table(self, monkeypatch):
        # numpy reports its buffers to tracemalloc; the smallest n x C array
        # is a boolean one of n * C bytes
        config, plan = fig2(colleges=100, n_students=20000, replications=1)
        market = sample_market(config, 0)
        matching = deferred_acceptance(market, config.capacities())
        matched = matching.assignment[None], matching.cutoffs[None], matching.cut_students[None]
        stack = market.values[None], market.prefs[None], market.scores[None]
        monkeypatch.setattr(estimation, "sample_stack", lambda *args, **kwargs: stack)
        monkeypatch.setattr(estimation, "stacked_deferred_acceptance", lambda *a, **kw: matched)
        tracemalloc.start()
        try:
            _, _, afford, _, _ = estimation._run_stack(config, plan, range(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert afford
        assert peak < market.n_students * market.n_colleges

    @pytest.mark.parametrize("noise", ["uniform", "pareto"])
    def test_fig1_plan_makes_no_bar_comparison(self, noise, monkeypatch):
        # fig1's one afford curve asks for its one coalition untrimmed: every
        # matched student is matched into it, so no score meets a bar
        config, plan = fig1(colleges=40, noise=noise, n_students=2000, replications=3)
        _, _, compared, _, _ = estimation._run_stack(config, plan, range(3))

        def bar_comparison(*args):
            raise AssertionError("compared a score with a bar")

        monkeypatch.setattr(cutoffs, "_clears", bar_comparison)
        _, assignment, afford, _, _ = estimation._run_stack(config, plan, range(3))
        assert np.array_equal(afford[(1, 0.0)], assignment != UNMATCHED)
        assert np.array_equal(afford[(1, 0.0)], compared[(1, 0.0)])
        # fig2's trimmed curves compare the students matched elsewhere
        config, plan = fig2(colleges=10, noise=noise, n_students=600, replications=1)
        with pytest.raises(AssertionError, match="compared a score with a bar"):
            estimation._run_stack(config, plan, range(1))


class TestCurves:
    def test_noiseless_step(self):
        config, plan = small_pool(n=2000, colleges=4, noise=None, replications=20)
        records = run_replications(config, plan)
        curve = estimate_match_curve(records, coalition_id=1)
        mids = curve.v_mid
        # thresholds hover within ~0.02 of 0.5; stay clear of the boundary
        assert (curve.probability[mids > 0.55] == 1.0).all()
        assert (curve.probability[mids < 0.45] == 0.0).all()

    def test_empty_bin_reports_missing(self):
        config, plan = small_pool(replications=2)
        records = run_replications(config, replace(plan, bin_edges=[0.0, 0.5, 1.0, 7.0, 9.0]))
        wide = estimate_match_curve(records, coalition_id=1)
        assert np.isnan(wide.probability[-1])
        assert wide.count[-1] == 0

    def test_afford_dominates_match_pointwise(self):
        config, plan = small_pool(replications=6)
        records = run_replications(config, plan)
        match = estimate_match_curve(records, coalition_id=1)
        afford = estimate_afford_curve(records, 1, 0.0)
        ok = match.count > 0
        assert (afford.probability[ok] >= match.probability[ok] - 1e-12).all()
        # per-observation dominance, not just in the binned aggregate
        assert (records.afford[(1, 0.0)] | ~records.matched()).all()

    def test_mass_conservation(self):
        config, plan = small_pool(replications=8)
        records = run_replications(config, plan)
        curve = estimate_match_curve(records, coalition_id=1)
        ok = curve.count > 0
        integral = float(np.sum(curve.probability[ok] * curve.count[ok]) / curve.count.sum())
        s = config.total_capacity() / config.n_students
        assert abs(integral - s) <= 1.0 / config.n_students

    def test_monotone_up_to_stderr(self):
        config, plan = fig1(colleges=10, replications=20)
        records = run_replications(config, plan)
        curve = estimate_match_curve(records, coalition_id=1)
        p, se = curve.probability, curve.stderr
        violations = 0
        for i in range(len(p) - 1):
            if np.isnan(p[i]) or np.isnan(p[i + 1]):
                continue
            if p[i + 1] < p[i] - 2 * (se[i] + se[i + 1]):
                violations += 1
        assert violations <= 2

    def test_unrecorded_afford_is_an_error(self):
        config, plan = small_pool(replications=2)
        records = run_replications(config, plan)
        with pytest.raises(ConfigError, match="not recorded"):
            estimate_afford_curve(records, 1, 0.25)

    def test_curves_count_in_chunks(self):
        # numpy reports its buffers to tracemalloc.  Binning and counting a
        # chunk takes under 32 bytes a value, and a curve keeps nothing per
        # observation: 600,000 make 37 chunks, so even one byte for each
        # would break the bound
        config, plan = fig1(colleges=2, n_students=200, replications=3000)
        records = run_replications(config, plan)
        slack = 32 * estimation._BIN_CHUNK + (64 << 10)
        assert records.values.size > slack
        for curve in (
            functools.partial(estimate_match_curve, records),
            functools.partial(estimate_afford_curve, records, 1),
        ):
            tracemalloc.start()
            try:
                curve()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= slack

    def test_each_curve_counts_its_own_column(self):
        config, plan = fig2(colleges=2, replications=3, n_students=400)
        plan = replace(plan, curves=(AffordProbability(1), AffordProbability(2)))
        records = run_replications(config, plan)
        curves = [
            estimate_match_curve(records, coalition_id=1),
            estimate_afford_curve(records, 1),
            estimate_match_curve(records, coalition_id=2),
            estimate_afford_curve(records, 2),
        ]
        for curve, k, hits in zip(
            curves,
            (0, 0, 1, 1),
            [records.matched(), records.afford[(1, 0.0)], records.matched(), records.afford[(2, 0.0)]],
        ):
            values = records.values[:, :, k].ravel()
            count, _ = np.histogram(values, curve.bin_edges)
            hit, _ = np.histogram(values[hits.ravel()], curve.bin_edges)
            assert np.array_equal(curve.count, count)
            with np.errstate(invalid="ignore"):
                assert np.array_equal(curve.probability, hit / count, equal_nan=True)

    def test_multi_coalition_requires_axis(self):
        config, plan = fig2(colleges=2, replications=2, n_students=400)
        records = run_replications(config, plan)
        with pytest.raises(ConfigError, match="coalition_id"):
            estimate_match_curve(records)
        curve = estimate_match_curve(records, coalition_id=1)
        assert curve.count.sum() == 2 * 400


def hand_curve(edges, probs, counts):
    edges = np.asarray(edges, dtype=float)
    probs = np.asarray(probs, dtype=float)
    counts = np.asarray(counts, dtype=int)
    se = np.sqrt(np.clip(probs * (1 - probs), 0, 1) / np.maximum(counts, 1))
    return MatchCurve(edges, probs, se, counts)


class TestBinIndex:
    """_bin_of is searchsorted(edges, values, "right") - 1 clipped to the bins."""

    @staticmethod
    def searchsorted_bins(values, edges):
        idx = np.searchsorted(edges, values, side="right") - 1
        return np.clip(idx, 0, len(edges) - 2)

    @pytest.mark.parametrize(
        "edges",
        [
            np.linspace(0.0, 1.0, 51),
            np.linspace(-3.7, 12.1, 8),
            np.array([0.0, 1e-9, 0.5, 0.5000001, 0.9, 1.0]),
            np.array([0.0, 0.001, 0.002, 0.003, 1.0]),
            np.array([-1.0, 1.0]),
        ],
        ids=["fig1", "equal-width-off-zero", "clustered", "one-wide-bin", "one-bin"],
    )
    def test_equals_searchsorted(self, edges, rng):
        lo, hi = edges[0], edges[-1]
        span = hi - lo
        values = np.concatenate(
            [
                rng.uniform(lo - span, hi + span, 20_000),
                rng.uniform(lo, lo + span * 0.01, 2_000),
                # on every edge, and one ulp to either side of it
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
            ]
        )
        got = estimation._bin_of(values, edges)
        assert got.dtype == np.intp
        assert np.array_equal(got, self.searchsorted_bins(values, edges))

    def test_equals_searchsorted_on_random_edges(self, rng):
        for _ in range(200):
            edges = np.unique(rng.random(int(rng.integers(2, 40))) ** 4 * 5 - 1)
            if len(edges) < 2:
                continue
            values = np.concatenate([rng.uniform(-2, 5, 500), edges, np.nextafter(edges, 9)])
            got = estimation._bin_of(values, edges)
            assert np.array_equal(got, self.searchsorted_bins(values, edges))


class TestMetrics:
    def test_perfect_step_scores_zero(self):
        edges = np.linspace(0, 1, 11)
        probs = (0.5 * (edges[:-1] + edges[1:]) > 0.5).astype(float)
        curve = hand_curve(edges, probs, [100] * 10)
        att = attenuation_metrics(curve, 0.5)
        assert att.below_mass == 0.0 and att.step_deviation == 0.0
        assert amplification_metrics(curve, 0.5) == 0.5

    def test_constant_curve(self):
        edges = np.linspace(0, 1, 11)
        curve = hand_curve(edges, [0.5] * 10, [100] * 10)
        att = attenuation_metrics(curve, 0.5)
        assert att.below_mass == pytest.approx(0.25)
        assert amplification_metrics(curve, 0.5) == 0.0

    def test_min_count_filter(self):
        edges = np.linspace(0, 1, 5)
        curve = hand_curve(edges, [0.5, 0.5, 0.5, 0.9], [500, 500, 500, 3])
        assert amplification_metrics(curve, 0.5) == pytest.approx(0.4)
        assert amplification_metrics(curve, 0.5, min_count=10) == pytest.approx(0.0)

    def test_steepest_ascent_locates_jump(self):
        edges = np.linspace(0, 1, 11)
        probs = [0.0, 0.0, 0.0, 0.05, 0.1, 0.9, 1.0, 1.0, 1.0, 1.0]
        curve = hand_curve(edges, probs, [100] * 10)
        assert steepest_ascent_bin(curve) == pytest.approx(0.5, abs=0.05)

    def test_two_tier_afford_step(self):
        # preferred-coalition affordability under concentrating noise rises
        # from near 0 to near 1 across a narrow value band
        config, plan = fig2(colleges=20, noise="uniform", replications=15)
        records = run_replications(config, plan)
        curve = estimate_afford_curve(records, 1, 0.05)
        v_step = steepest_ascent_bin(curve)
        mids = curve.v_mid
        below = mids <= v_step - 0.1
        above = mids >= v_step + 0.1
        assert (curve.probability[below] <= 0.1).all()
        assert (curve.probability[above] >= 0.9).all()


class TestPlanValidation:
    def test_bin_edges_strictly_increasing(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            ExperimentPlan(replications=1, bin_edges=(0.0, 0.0, 1.0))

    def test_replication_floor(self):
        with pytest.raises(ConfigError, match="replications"):
            ExperimentPlan(replications=0, bin_edges=(0.0, 1.0))

    @pytest.mark.parametrize("value", [True, 2.5, 3.0, "3"], ids=["bool", "fraction", "float", "str"])
    def test_replications_must_be_an_integer(self, value):
        # a library caller reaches ExperimentPlan without config_io's checks
        message = re.escape(f"plan.replications: must be an integer, got {value!r}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ExperimentPlan(replications=value, bin_edges=(0.0, 1.0))

    def test_a_numpy_replication_count_is_stored_as_int(self):
        plan = ExperimentPlan(replications=np.int64(3), bin_edges=(0.0, 1.0))
        assert type(plan.replications) is int and plan.replications == 3

    @pytest.mark.parametrize("value", ["no", 0, None], ids=["string", "number", "null"])
    def test_record_cutoffs_must_be_a_bool(self, value):
        message = re.escape(f"plan.record_cutoffs: must be true or false, got {value!r}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ExperimentPlan(replications=1, bin_edges=(0.0, 1.0), record_cutoffs=value)

    def test_trim_epsilon_domain(self):
        with pytest.raises(ConfigError, match="trim_epsilon"):
            AffordProbability(coalition_id=1, trim_epsilon=1.0)

    # fig2's plan: match 1, match 2, afford (1, 0.05), afford (2, 0.05)
    @pytest.mark.parametrize(
        "preset, curve, first",
        [
            (fig2, AffordProbability(1, 0.05), 2),
            (fig2, MatchProbability(2), 1),
            # the one coalition of fig1, by id and by default
            (fig1, MatchProbability(), 0),
            (fig1, AffordProbability(1, 0), 1),
            # 0.05 and 0.05000001 both name the curve afford_c1_trim0.05
            (fig2, AffordProbability(1, 0.05000001), 2),
        ],
        ids=[
            "afford", "match", "match-default-coalition", "afford-integer-trim",
            "afford-trims-print-alike",
        ],
    )
    def test_a_repeated_curve_is_rejected(self, preset, curve, first, monkeypatch):
        config, plan = preset(colleges=2, replications=2, n_students=400)
        plan = replace(plan, curves=plan.curves + (curve,))
        where = f"plan.curves[{len(plan.curves) - 1}]: repeats plan.curves[{first}]"
        message = f"^{re.escape(where)}$"
        with pytest.raises(ConfigError, match=message):
            dict_to_config(config_to_dict(config, plan))
        sampled = []
        monkeypatch.setattr(estimation, "sample_stack", lambda *a, **kw: sampled.append(a))
        with pytest.raises(ConfigError, match=message):
            run_replications(config, plan)
        assert sampled == []

    def test_curves_that_differ_in_trim_are_kept(self):
        config, plan = fig2(colleges=2, replications=2, n_students=400)
        plan = replace(plan, curves=plan.curves + (AffordProbability(1, 0.0),))
        assert dict_to_config(config_to_dict(config, plan))[1] == plan
