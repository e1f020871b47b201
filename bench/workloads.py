"""The benchmark's workloads: each one writes its own config file from a seed.

The configs are built here as plain JSON documents, not through
``noisymatch.presets``, so the program under test sees only the generated
file.  ``--seed`` becomes the config's ``master_seed`` and nothing else
depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass

UNIFORM01 = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
PARETO = {"kind": "pareto", "shape": 2.0, "scale": 0.3}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int
    replications: int
    n_students: int
    # (capacity, college count, noise spec) per coalition, in preference-tier order
    coalitions: tuple[tuple[int, int, dict], ...]
    preferences: str
    bins: int
    curves: tuple[dict, ...]
    # replications per CLI run checked against the reference cutoffs (check c)
    reference_checks: int
    # check (d): compare the match curve with the reckoned Pareto amplification curve
    reckoned_pareto: bool = False

    @property
    def n_colleges(self) -> int:
        return sum(count for _, count, _ in self.coalitions)

    @property
    def seats(self) -> int:
        return sum(cap * count for cap, count, _ in self.coalitions)

    def config(self, seed: int) -> dict:
        colleges = []
        for k, (cap, count, _) in enumerate(self.coalitions, start=1):
            colleges += [
                {"id": len(colleges) + i + 1, "capacity": cap, "coalition": k}
                for i in range(count)
            ]
        return {
            "n_students": self.n_students,
            "master_seed": seed,
            "capacity_alpha": 1.0,
            "coalitions": [
                {"id": k, "values": dict(UNIFORM01), "noise": dict(noise)}
                for k, (_, _, noise) in enumerate(self.coalitions, start=1)
            ],
            "colleges": colleges,
            "preferences": {"kind": self.preferences},
            "plan": {
                "replications": self.replications,
                "bin_edges": [i / self.bins for i in range(self.bins + 1)],
                "curves": [dict(c) for c in self.curves],
                "record_cutoffs": True,
            },
        }


FIG1_CURVES = (
    {"kind": "match", "coalition": 1},
    {"kind": "afford", "coalition": 1, "trim_epsilon": 0.0},
)

WORKLOADS = {
    w.name: w
    for w in (
        # R=2 and 5 bins give 8000 observations per bin: enough for check (d)
        # to tell the C=1000 curve (0.476 .. 0.525) from a flat 0.5 at 4 stderr.
        Workload(
            name="amplify-large",
            why="large long-tailed market (n=20000, C=1000, Pareto noise, 1 worker): "
            "deferred acceptance dominates time and memory",
            workers=1,
            replications=2,
            n_students=20000,
            coalitions=((10, 1000, PARETO),),
            preferences="uniform_random",
            bins=5,
            curves=FIG1_CURVES,
            reference_checks=1,
            reckoned_pareto=True,
        ),
        Workload(
            name="attenuate-tiers",
            why="two tiered coalitions with uniform noise and trimmed afford curves, "
            "2 workers: matching, cutoffs and afford at a pool-friendly task size",
            workers=2,
            replications=200,
            n_students=2000,
            coalitions=((25, 20, UNIFORM01), (50, 20, UNIFORM01)),
            preferences="tiered_by_coalition",
            bins=50,
            curves=(
                {"kind": "match", "coalition": 1},
                {"kind": "match", "coalition": 2},
                {"kind": "afford", "coalition": 1, "trim_epsilon": 0.05},
                {"kind": "afford", "coalition": 2, "trim_epsilon": 0.05},
            ),
            reference_checks=4,
        ),
        Workload(
            name="many-tiny",
            why="3000 tiny markets (n=200, C=2), 2 workers: per-replication dispatch "
            "and output dominate, matching is negligible",
            workers=2,
            replications=3000,
            n_students=200,
            coalitions=((50, 2, UNIFORM01),),
            preferences="uniform_random",
            bins=50,
            curves=FIG1_CURVES,
            reference_checks=50,
        ),
    )
}
