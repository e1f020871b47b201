"""The program names that the benchmark under ``bench/`` calls still exist.

The benchmark imports, calls and wraps these names from outside the
package, so a change that drops or renames one fails only the benchmark's
own runs.  These tests fail in the tier-1 suite instead.  They read
``bench/`` and change nothing there; a name the benchmark no longer uses
fails the last test, so the list here follows the benchmark.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from noisymatch import cli, config_io, cutoffs, estimation, market, matching
from noisymatch.market import EconomyConfig, SampledMarket
from noisymatch.matching import Matching

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (owner, name) of each function, class or method the benchmark calls
CALLED = [
    (cutoffs, "extract_cutoffs"),
    (cutoffs, "afford_matrix"),
    (matching, "deferred_acceptance"),
    (market, "sample_market"),
    (estimation, "trim_coalition"),
    (estimation, "AffordProbability"),
    (config_io, "load_config_file"),
    (config_io, "dict_to_config"),
    (config_io, "config_to_dict"),
    (config_io, "config_hash"),
    (EconomyConfig, "capacities"),
    (EconomyConfig, "coalition_members"),
]
# (dataclass, field) of each field the benchmark reads
FIELDS = [
    (SampledMarket, "values"),
    (SampledMarket, "prefs"),
    (SampledMarket, "scores"),
    (SampledMarket, "college_coalition"),
    (SampledMarket, "replication"),
    (Matching, "assignment"),
]


def label(owner, name) -> str:
    return f"{owner.__name__.split('.')[-1]}.{name}"


def wrapped_names() -> dict:
    """The ``WRAPPED`` table of ``bench/traced_cli.py``, read without running it."""
    tree = ast.parse((BENCH / "traced_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/traced_cli.py has no WRAPPED table")


def test_every_name_the_traced_cli_wraps_is_on_the_cli():
    wrapped = wrapped_names()
    assert wrapped
    assert [name for name in wrapped if not callable(getattr(cli, name, None))] == []


@pytest.mark.parametrize("owner, name", CALLED, ids=[label(*item) for item in CALLED])
def test_every_function_the_benchmark_calls_exists(owner, name):
    assert callable(getattr(owner, name, None))


@pytest.mark.parametrize("owner, name", FIELDS, ids=[label(*item) for item in FIELDS])
def test_every_field_the_benchmark_reads_exists(owner, name):
    assert name in {f.name for f in dataclasses.fields(owner)}


def test_the_benchmark_still_uses_every_listed_name():
    source = "\n".join(path.read_text() for path in sorted(BENCH.glob("*.py")))
    assert [label(*item) for item in CALLED + FIELDS if item[1] not in source] == []
