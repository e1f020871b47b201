"""Golden digests of the CSV bytes the CLI writes for small fixed configs.

For a fixed seed, curves.csv, metrics.csv and cutoffs.csv may change only
when a change says why.  These digests hold that across commits.  They
depend on numpy's Generator streams, which numpy does not promise to keep
across versions (NEP 19); they were recorded with numpy 2.4.6, the version
CI installs.  Pareto noise also depends on which expm1 numpy dispatches to:
libm's, or SVML's on AVX-512 CPUs, which differs in the last bit of ~8 % of
values.  fig1-pareto's cutoffs.csv has one digest per path.
"""

import hashlib

import numpy as np
import pytest

from noisymatch import market, matching
from noisymatch.cli import EXIT_OK, run
from noisymatch.config_io import config_to_dict
from noisymatch.presets import fig1, fig2
from test_noise import EXPM1_IS_LIBM

OUTPUTS = ("curves.csv", "metrics.csv", "cutoffs.csv")


def golden_config(name):
    preset, noise = name.split("-")
    if preset == "fig1":
        return fig1(colleges=100, noise=noise, n_students=2000, replications=2)
    # 20 + 20 colleges, with afford curves at trim_epsilon = 0.05
    return fig2(noise=noise, replications=2)


# sha256 of (curves.csv, metrics.csv, cutoffs.csv), seed 7
GOLDEN = {
    "fig1-uniform": (
        "888fda9b11435497adbb8b032984e5f3c89dcc5970e538a1916f4d50564e4805",
        "f0cc77a028ae8d5822ffa06215bb036d168c47a42e070cb652f641ad9fb59407",
        "a910695969777da90f6f124c199372900d5a0df2f1bb4a85ced2e7fd9f990f06",
    ),
    "fig1-exponential": (
        "314af36b3621cd6da64b000c7834463ed02cf02f285b8017c09f3d6c40560d57",
        "6494c613360ba8ff10720a9e134a86e862a0bd6787eb87688211fd8f78e75055",
        "dc385b74cdee17ab3896291072aa5f5613bf07a8438bbb79da554025d612f7b8",
    ),
    "fig1-pareto": (
        "8017fab0144de9687fb4434174b75a4af8b0955cd188f459ecbbeb3bc55fc168",
        "29a3703c7d4b5a251c0c6c698e79d248cbd89337b5b68212058ee2ebf2ed80a7",
        # on SVML, 18 of the 200 cutoffs move by at most 2 ulp
        "95deb34065cdcccfb67aa448bc37da08fa0318f205e7650bb93795851121098d"
        if EXPM1_IS_LIBM
        else "34df571ff12f17c53c9d634e19f1691947664d2d3a7924873dafdd5c5345ba64",
    ),
    "fig1-gaussian": (
        "c65ee0ee3ef6daac67b87c4c1dbf86008346556d5830f2cb24e9d5cb42057222",
        "be8116488fc678f08ba6afb763f0e3902c1362ce7ee3c55bcd2badbcad46020c",
        "eb213bc854ce6b7c7f2a326b02fd146f97bf2eb84ed2398f31e74c8b4b985732",
    ),
    "fig1-gumbel": (
        "32a1e5bd825638f980a01e677ba508f79c51cde784f0623a908f72c859d34558",
        "b93d12c0fb15f1023bf86b8c106d1ffb366c486437ea3cbddc3f170c12bcf68c",
        "2ab941a9d12629305edf063d58a948fc620e70fa8da62ee72916e49484a089ec",
    ),
    "fig1-none": (
        "dfd4838b19019381b6314d7ec61b35d977da0f84b788d4c5d2ff200400133161",
        "080a75900158e71d0fcf07d1381a882c2885575fa3de084b0e861c20a2b5fb33",
        "2898f1054015c2980135fb74bb5626d0159e35b62299fb732e2243ba17d0f2bd",
    ),
    "fig2-uniform": (
        "21c84ab58185c5b11ce565bafdc9c33f3dbad4be0e7f1a6546009aa509e09a40",
        "beb406b07afc4139887873597a2505e33d07a78361ad174879141152877e055d",
        "62ccfcb3fc09b13d0c56d0ec273b982c6575002ae89be6d6e7a09c1b2be1ff3d",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_bytes_unchanged(name, tmp_path):
    config, plan = golden_config(name)
    assert run(config_to_dict(config, plan), tmp_path, 1) == EXIT_OK
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in OUTPUTS)
    assert got == GOLDEN[name], f"CSV bytes changed (numpy {np.__version__})"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_bytes_unchanged_with_every_prune(name, tmp_path, monkeypatch):
    # at zero cells a rejection, every stack that reaches a second round
    # prunes before that round's scan, not once its scans run long
    monkeypatch.setattr(matching, "_PRUNE_MIN_CELLS", 0)
    test_csv_bytes_unchanged(name, tmp_path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_bytes_unchanged_in_the_smallest_slices(name, tmp_path, monkeypatch):
    # one student per scan slice, one market per stack, one college (noise)
    # or one row (keys) per sampling block, and one row per affordability block
    monkeypatch.setattr(market, "_BLOCK_CELLS", 1)
    test_csv_bytes_unchanged(name, tmp_path)


# sha256 of (curves.csv, metrics.csv, cutoffs.csv), seed 7: 700 markets of
# 200 x 2 cells, up to 655 a stack.  One worker runs stacks of 655 and 45;
# pooled, the stacks are capped at 700 // (4 * threads): 87 on 2 workers,
# 58 on 3.
POOLED = (
    "44d1eee61f69aac462eb9c7fa6822967f0a49a772479c693a48b52c966e3e694",
    "a7ff552d4c6a837ab6c9f80b26abacdcfc5f8678322d625e03d36128cf86877b",
    "7cead0891b8479c4b340a2939a41ed987302813bd136493aef8b39fc21cd5f17",
)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_csv_bytes_unchanged_in_pooled_stacks(threads, tmp_path):
    config, plan = fig1(colleges=2, noise="uniform", n_students=200, replications=700)
    assert run(config_to_dict(config, plan), tmp_path, threads) == EXIT_OK
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in OUTPUTS)
    assert got == POOLED, f"CSV bytes changed (numpy {np.__version__})"
