"""Tests for presets, the config file round trip, and the CLI contract."""

import copy
import json
import math
import multiprocessing
import re
from dataclasses import replace

import numpy as np
import pytest

from noisymatch.cli import EXIT_INVARIANT, EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, main, run
from noisymatch.config_io import (
    KINDS,
    apply_overrides,
    canonical_json,
    config_hash,
    config_to_dict,
    dict_to_config,
    kind_entry,
)
from noisymatch import estimation
from noisymatch import market as market_module
from noisymatch.errors import ConfigError
from noisymatch.presets import NOISE_TOKENS, fig1, fig2, noise_from_token, preset, split_seats


class TestPresets:
    def test_degenerate_single_college(self):
        config, _ = fig1(colleges=1)
        assert len(config.colleges) == 1
        assert config.colleges[0].capacity == 1000

    @pytest.mark.parametrize("colleges", [1, 2, 7, 10, 100])
    def test_total_seats_invariant(self, colleges):
        config, _ = fig1(colleges=colleges)
        assert config.total_capacity() == 1000

    def test_two_tier_seat_fractions(self):
        config, _ = fig2(colleges=20)
        seats = {}
        for college in config.colleges:
            seats.setdefault(college.coalition, []).append(college.capacity)
        assert sum(seats[1]) == 500 and all(s == 25 for s in seats[1])
        assert sum(seats[2]) == 1000 and all(s == 50 for s in seats[2])

    def test_noise_tokens(self):
        assert noise_from_token("none") is None
        assert kind_entry(noise_from_token("pareto")) == {
            "kind": "pareto",
            "shape": 2.0,
            "scale": 0.3,
        }
        with pytest.raises(ConfigError, match="noise"):
            noise_from_token("lognormal")

    def test_noise_tokens_are_the_noise_kinds_and_none(self):
        assert list(NOISE_TOKENS) == [*KINDS["noise"], "none"]
        for kind, spec in NOISE_TOKENS.items():
            assert spec is None if kind == "none" else spec.kind == kind

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            preset("fig3")

    def test_split_seats_sums(self):
        assert split_seats(10, 3) == [4, 3, 3]
        assert sum(split_seats(1000, 7)) == 1000


class TestConfigRoundTrip:
    def test_doc_round_trip_is_identity(self):
        config, plan = fig2(colleges=3, replications=2)
        doc = config_to_dict(config, plan)
        config2, plan2 = dict_to_config(json.loads(json.dumps(doc)))
        assert config_to_dict(config2, plan2) == doc

    def test_direct_api_config_round_trips(self):
        # ids of each type a document holds, and numpy capacities, which are
        # stored as the ints they equal
        config, plan = fig2(colleges=3, replications=2)
        ids = {1: "a", 2: 2.5}
        config = replace(
            config,
            colleges=tuple(
                replace(c, capacity=np.int64(c.capacity), coalition=ids[c.coalition])
                for c in config.colleges
            ),
            coalitions=tuple(replace(k, id=ids[k.id]) for k in config.coalitions),
        )
        curves = tuple(replace(c, coalition_id=ids[c.coalition_id]) for c in plan.curves)
        plan = replace(plan, curves=curves)
        text = canonical_json(config_to_dict(config, plan))
        assert dict_to_config(json.loads(text)) == (config, plan)

    def test_numpy_capacity_hashes_as_an_int(self):
        config, plan = fig1(colleges=2, replications=2)
        numpy_caps = tuple(replace(c, capacity=np.int64(c.capacity)) for c in config.colleges)
        wide = replace(config, colleges=numpy_caps)
        assert all(type(c.capacity) is int for c in wide.colleges)
        digest = config_hash(config_to_dict(config, plan))
        assert config_hash(config_to_dict(wide, plan)) == digest

    def test_hash_ignores_key_order(self):
        config, plan = fig1(colleges=2, replications=1)
        doc = config_to_dict(config, plan)
        shuffled = json.loads(json.dumps(doc))
        shuffled = dict(reversed(list(shuffled.items())))
        assert config_hash(doc) == config_hash(shuffled)
        assert canonical_json(doc) == canonical_json(shuffled)

    def test_overrides(self):
        doc = {"a": {"b": 1}, "seed": 2}
        out = apply_overrides(doc, ["a.b=5", "seed=9", "tag=fast"])
        assert out["a"]["b"] == 5 and out["seed"] == 9 and out["tag"] == "fast"
        assert doc["a"]["b"] == 1  # original untouched
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(doc, ["oops"])

    def test_override_creates_absent_objects(self):
        out = apply_overrides({"a": {}}, ["a.b.c=1", "x.y=2"])
        assert out == {"a": {"b": {"c": 1}}, "x": {"y": 2}}

    @pytest.mark.parametrize(
        "item, where",
        [("colleges.0.capacity=5", "colleges"), ("seed.x=1", "seed"), ("a.b.c=1", "a.b")],
        ids=["list", "number", "nested-string"],
    )
    def test_override_through_a_non_object_is_rejected(self, item, where):
        doc = {"colleges": [{"capacity": 1}], "seed": 2, "a": {"b": "text"}}
        message = re.escape(f"override {item!r}: {where} is not an object")
        with pytest.raises(ConfigError, match="^" + message + "$"):
            apply_overrides(doc, [item])

    def test_missing_field_diagnostics(self):
        with pytest.raises(ConfigError, match="missing required field"):
            dict_to_config({"n_students": 10})


# the README's "Config file" example
README_DOC = {
    "n_students": 2000,
    "master_seed": 7,
    "capacity_alpha": 1.0,
    "coalitions": [
        {
            "id": 1,
            "values": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "noise": {"kind": "pareto", "shape": 2.0, "scale": 0.3},
        }
    ],
    "colleges": [{"id": 1, "capacity": 10, "coalition": 1}],
    "preferences": {"kind": "uniform_random"},
    "plan": {
        "replications": 100,
        "bin_edges": [0.0, 0.25, 0.5, 0.75, 1.0],
        "curves": [
            {"kind": "match", "coalition": 1},
            {"kind": "afford", "coalition": 1, "trim_epsilon": 0.05},
        ],
        "record_cutoffs": True,
    },
}


def integer_doc():
    """The README example with every number it may hold as an integer."""
    doc = copy.deepcopy(README_DOC)
    doc["coalitions"][0]["noise"] = {"kind": "pareto", "shape": 2, "scale": 1}
    doc["coalitions"][0]["values"] = {"kind": "uniform", "lo": 0, "hi": 1}
    doc["plan"]["curves"][1]["trim_epsilon"] = 0
    doc["plan"]["bin_edges"] = [0, 1]
    doc["capacity_alpha"] = 1
    return doc


# one entry of every kind, each field given, as the canonical form writes it
KIND_ENTRIES = {
    "noise": [
        {"kind": "uniform", "lo": -1.0, "hi": 2.0},
        {"kind": "gaussian", "mean": 0.5, "sd": 2.0},
        {"kind": "exponential", "rate": 3.0},
        {"kind": "gumbel", "location": 0.25, "scale": 0.5},
        {"kind": "pareto", "shape": 1.5, "scale": 0.3},
    ],
    "values": [
        {"kind": "uniform", "lo": 0, "hi": 1},
        {"kind": "piecewise", "knots": [[0.0, 0.0], [0.5, 0.75], [1.0, 1.0]]},
    ],
    "preferences": [
        {"kind": "uniform_random"},
        {"kind": "common_ranking", "ranking": [1, 0]},
        {"kind": "tiered_by_coalition"},
        {"kind": "explicit", "rankings": [[0, 1], [1, 0]], "probabilities": [0.25, 0.75]},
    ],
    "plan.curves": [
        {"kind": "match", "coalition": 1},
        {"kind": "afford", "coalition": 1, "trim_epsilon": 0.1},
    ],
}


def with_entry(field, entry):
    doc = small_doc()
    if field == "plan.curves":
        doc["plan"]["curves"] = [entry]
    elif field == "preferences":
        doc["preferences"] = entry
    else:
        doc["coalitions"][0][field] = entry
    return doc


class TestConfigHash:
    """config_hash of the canonical form, as metrics.csv carries it, for
    documents whose hashes earlier versions wrote."""

    def test_readme_example(self):
        digest = config_hash(config_to_dict(*dict_to_config(copy.deepcopy(README_DOC))))
        assert digest == "43dc03e3efcd05f7fef0ed215ea960e991b92e7249ce92a8a54663f08f2ed2eb"

    def test_readme_example_with_integers(self):
        # noise parameters and trim_epsilon are floated, values' ends kept
        digest = config_hash(config_to_dict(*dict_to_config(integer_doc())))
        assert digest == "b95c68421c7aedaa97f3b0ebde91cd85caca82c801d87b86c06875795f6631da"

    def test_every_kind_in_the_table_has_a_case(self):
        assert {f: sorted(e["kind"] for e in entries) for f, entries in KIND_ENTRIES.items()} == {
            f: sorted(kinds) for f, kinds in KINDS.items()
        }

    @pytest.mark.parametrize(
        "field, entry",
        [(f, e) for f, entries in KIND_ENTRIES.items() for e in entries],
        ids=[f"{f}-{e['kind']}" for f, entries in KIND_ENTRIES.items() for e in entries],
    )
    def test_every_kind_round_trips(self, field, entry):
        doc = with_entry(field, entry)
        canonical = config_to_dict(*dict_to_config(copy.deepcopy(doc)))
        assert canonical_json(canonical) == canonical_json(doc)


def small_doc():
    config, plan = fig1(colleges=2, replications=2, n_students=40)
    return config_to_dict(config, plan)


def field_slot(doc, field):
    """The dict holding one integer field, and its key."""
    if field == "capacity":
        return doc["colleges"][0], "capacity"
    if field == "replications":
        return doc["plan"], "replications"
    return doc, field


def set_field(doc, field, value):
    slot, key = field_slot(doc, field)
    slot[key] = value
    return doc


INTEGER_FIELDS = {
    "capacity": "colleges[0].capacity",
    "n_students": "n_students",
    "replications": "plan.replications",
    "master_seed": "master_seed",
}


class TestIntegerFields:
    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    @pytest.mark.parametrize("value", [2.9, "3", True])
    def test_non_integral_rejected(self, field, value):
        doc = set_field(small_doc(), field, value)
        message = re.escape(f"{INTEGER_FIELDS[field]}: must be an integer")
        with pytest.raises(ConfigError, match="^" + message):
            dict_to_config(doc)

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_integral_values_accepted(self, field):
        doc = small_doc()
        slot, key = field_slot(doc, field)
        for value in (slot[key], float(slot[key])):
            config, plan = dict_to_config(set_field(copy.deepcopy(doc), field, value))
            assert config_to_dict(config, plan) == doc

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_cli_exits_three_naming_the_field(self, field, tmp_path, capsys):
        path = tmp_path / "econ.json"
        path.write_text(json.dumps(set_field(small_doc(), field, 50.7)))
        code = run_cli("--config", str(path), "--out-dir", str(tmp_path / "o"), "--threads", "1")
        assert code == EXIT_INVARIANT
        assert INTEGER_FIELDS[field] in capsys.readouterr().err


def rename_key(node, old, new):
    node[new] = node.pop(old)


MISSPELLINGS = {
    # a required key misspelled next to the real one, as --set leaves it
    "plan.replicatons": lambda d: d["plan"].update(replicatons=5),
    "colleges[1].capacty": lambda d: d["colleges"][1].update(capacty=9),
    # an optional key misspelled in place of the real one
    "coalitions[0].noize": lambda d: rename_key(d["coalitions"][0], "noise", "noize"),
    "plan.curves[1].trim_epsilonn": lambda d: rename_key(
        d["plan"]["curves"][1], "trim_epsilon", "trim_epsilonn"
    ),
    "preferences.ranking": lambda d: d["preferences"].update(ranking=[1, 0]),
    "preferences.rankings": lambda d: d.update(
        preferences={"kind": "common_ranking", "ranking": [1, 0], "rankings": [[1, 0]]}
    ),
    "coalitions[0].values.mid": lambda d: d["coalitions"][0]["values"].update(mid=0.5),
    "plan.curves[0].trim_epsilon": lambda d: d["plan"]["curves"][0].update(trim_epsilon=0.1),
    "seed": lambda d: d.update(seed=3),
}


class TestUnknownFields:
    @pytest.mark.parametrize("path", sorted(MISSPELLINGS))
    def test_rejected_naming_the_path(self, path):
        doc = small_doc()
        MISSPELLINGS[path](doc)
        with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: unknown field")):
            dict_to_config(doc)

    def test_misspelled_set_key_exits_three(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "--preset", "fig1", "--colleges", "2", "--set", "plan.replicatons=5",
            "--threads", "1", "--out-dir", str(out),
        )
        assert code == EXIT_INVARIANT
        assert "plan.replicatons: unknown field" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    def test_misspelled_nested_key_in_file_exits_three(self, tmp_path, capsys):
        doc = small_doc()
        rename_key(doc["coalitions"][0], "noise", "noize")
        path = tmp_path / "econ.json"
        path.write_text(json.dumps(doc))
        code = run_cli("--config", str(path), "--out-dir", str(tmp_path / "o"), "--threads", "1")
        assert code == EXIT_INVARIANT
        assert "coalitions[0].noize: unknown field" in capsys.readouterr().err

    def test_unknown_noise_parameter_names_the_coalition(self):
        doc = small_doc()
        doc["coalitions"][0]["noise"]["shap"] = 2.0
        # the one unknown-key rule: named by its dotted path, as every kind's are
        with pytest.raises(ConfigError, match=r"^coalitions\[0\]\.noise\.shap: unknown field$"):
            dict_to_config(doc)


class TestCollegeFields:
    """A college's fields are named by its index in the list, whatever its id."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("capacity", 2.5, "colleges[1].capacity: must be an integer, got 2.5"),
            ("capacity", 0, "colleges[1].capacity: must be a positive integer"),
            ("coalition", 99, "colleges[1].coalition: unknown coalition 99"),
        ],
        ids=["not-an-integer", "not-positive", "unknown-coalition"],
    )
    def test_a_college_is_named_by_its_list_index(self, field, value, message):
        # string ids, so a message that named the id would read colleges[b]
        doc = small_doc()
        for c, college_id in zip(doc["colleges"], ("a", "b")):
            c["id"] = college_id
        doc["colleges"][1][field] = value
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            dict_to_config(doc)


def run_cli(*argv):
    return main(list(argv))


def run_doc(doc, tmp_path):
    path = tmp_path / "econ.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    return run_cli("--config", str(path), "--out-dir", str(out), "--threads", "1"), out


def colleges_as_an_object(doc):
    doc["colleges"] = {str(c["id"]): c for c in doc["colleges"]}


# each wrong JSON type, and the start of the message that names its field
WRONG_TYPES = {
    "capacity_alpha": (
        lambda d: d.update(capacity_alpha="abc"), "capacity_alpha: must be a number, got 'abc'"
    ),
    "coalition-id": (
        lambda d: d["coalitions"][0].update(id=[1]),
        "coalitions[0].id: must be a number or a string, got [1]",
    ),
    "bin_edges": (
        lambda d: d["plan"].update(bin_edges="ab"), "plan.bin_edges: must be a list, got 'ab'"
    ),
    "trim_epsilon": (
        lambda d: d["plan"]["curves"][1].update(trim_epsilon="x"),
        "plan.curves[1].trim_epsilon: must be a number, got 'x'",
    ),
    "curves": (
        lambda d: d["plan"].update(curves={"kind": "match"}), "plan.curves: must be a list, got {"
    ),
    "preferences": (
        lambda d: d.update(preferences="uniform_random"),
        "preferences: must be an object, got 'uniform_random'",
    ),
    "colleges": (colleges_as_an_object, "colleges: must be a list, got {"),
    "noise": (
        lambda d: d["coalitions"][0].update(noise=[1]),
        "coalitions[0]: noise: must be an object, got [1]",
    ),
    "knots": (
        lambda d: d["coalitions"][0].update(
            values={"kind": "piecewise", "knots": [[0, 0], [1]]}
        ),
        # the document's lists arrive as tuples
        "coalitions[0]: values.knots[1]: must be a [value, probability] pair, got (1,)",
    ),
    "ranking": (
        lambda d: d.update(preferences={"kind": "common_ranking", "ranking": 5}),
        "preferences.ranking: must be a list, got 5",
    ),
    "noise-kind": (
        lambda d: d["coalitions"][0].update(noise={"kind": ["uniform"]}),
        "coalitions[0]: noise.kind: unknown kind ['uniform']",
    ),
    # a ranking holds college indices: true, 1.0 and "1" are not one
    "ranking-bool": (
        lambda d: d.update(preferences={"kind": "common_ranking", "ranking": [True, False]}),
        "preferences.ranking[0]: must be an integer, got True",
    ),
    "ranking-float": (
        lambda d: d.update(preferences={"kind": "common_ranking", "ranking": [0, 1.0]}),
        "preferences.ranking[1]: must be an integer, got 1.0",
    ),
    "ranking-string": (
        lambda d: d.update(preferences={"kind": "common_ranking", "ranking": ["1", "0"]}),
        "preferences.ranking[0]: must be an integer, got '1'",
    ),
    # a bool is an int in Python, but true names no college or coalition
    "college-id-bool": (
        lambda d: d["colleges"][0].update(id=True),
        "colleges[0].id: must be a number or a string, got True",
    ),
    "college-coalition-bool": (
        lambda d: d["colleges"][1].update(coalition=True),
        "colleges[1].coalition: must be a number or a string, got True",
    ),
    "coalition-id-bool": (
        lambda d: d["coalitions"][0].update(id=True),
        "coalitions[0].id: must be a number or a string, got True",
    ),
    # null names no college or coalition either
    "college-id-null": (
        lambda d: d["colleges"][0].update(id=None),
        "colleges[0].id: must be a number or a string, got None",
    ),
    "college-coalition-null": (
        lambda d: d["colleges"][1].update(coalition=None),
        "colleges[1].coalition: must be a number or a string, got None",
    ),
    "coalition-id-null": (
        lambda d: d["coalitions"][0].update(id=None),
        "coalitions[0].id: must be a number or a string, got None",
    ),
    "curve-coalition-bool": (
        lambda d: d["plan"]["curves"].append({"kind": "match", "coalition": True}),
        "plan.curves[2].coalition: must be a number or a string, got True",
    ),
    "rankings-float": (
        lambda d: d.update(
            preferences={
                "kind": "explicit", "rankings": [[0, 1], [1.0, 0]], "probabilities": [0.5, 0.5]
            }
        ),
        "preferences.rankings[1][0]: must be an integer, got 1.0",
    ),
}


def college_ids(value):
    def plant(doc):
        for college in doc["colleges"]:
            college["id"] = value

    return plant


# parameters that parse as numbers but are not finite (JSON's Infinity and NaN)
NON_FINITE = {
    "gaussian-sd": (
        lambda d: d["coalitions"][0].update(noise={"kind": "gaussian", "mean": 0.0, "sd": math.inf}),
        "coalitions[0]: gaussian.sd: must be finite, got inf",
    ),
    "uniform-noise-hi": (
        lambda d: d["coalitions"][0].update(noise={"kind": "uniform", "lo": 0.0, "hi": math.inf}),
        "coalitions[0]: uniform.hi: must be finite, got inf",
    ),
    "uniform-values-hi": (
        lambda d: d["coalitions"][0].update(values={"kind": "uniform", "lo": 0.0, "hi": math.inf}),
        "coalitions[0]: values.hi: must be finite, got inf",
    ),
    "probabilities": (
        lambda d: d.update(
            preferences={
                "kind": "explicit", "rankings": [[0, 1], [1, 0]], "probabilities": [math.nan, 1.0]
            }
        ),
        "preferences.probabilities[0]: must be finite, got nan",
    ),
    "capacity_alpha-nan": (
        lambda d: d.update(capacity_alpha=math.nan), "capacity_alpha: must be finite, got nan"
    ),
    # NaN equals no id, so two colleges with id NaN would pass as unique
    "college-ids-nan": (college_ids(math.nan), "colleges[0].id: must be finite, got nan"),
    "college-ids-inf": (college_ids(-math.inf), "colleges[0].id: must be finite, got -inf"),
    "coalition-id-inf": (
        lambda d: d["coalitions"][0].update(id=math.inf),
        "coalitions[0].id: must be finite, got inf",
    ),
}
# a kind's field without a default, left out, or a list that is not one
KIND_FIELDS = {
    "knots-missing": (
        lambda d: d["coalitions"][0].update(values={"kind": "piecewise"}),
        "coalitions[0]: values.knots: missing required field",
    ),
    "ranking-missing": (
        lambda d: d.update(preferences={"kind": "common_ranking"}),
        "preferences.ranking: missing required field",
    ),
    "probabilities-not-a-list": (
        lambda d: d.update(
            preferences={"kind": "explicit", "rankings": [[0, 1]], "probabilities": 1}
        ),
        "preferences.probabilities: must be a list, got 1",
    ),
    "rankings-entry-not-a-list": (
        lambda d: d.update(
            preferences={"kind": "explicit", "rankings": [5, [0, 1]], "probabilities": [0.5, 0.5]}
        ),
        "preferences.rankings[0]: must be a list, got 5",
    ),
}


def second_coalition_called(cid):
    def plant(doc):
        doc["coalitions"].append({**doc["coalitions"][0], "id": cid})
        doc["colleges"][1]["coalition"] = cid

    return plant


# distinct ids that print alike would write one output name twice
ALIKE_IDS = {
    "coalition-id-prints-alike": (
        second_coalition_called("1"),
        "coalitions[1].id: prints as 1, like coalitions[0].id",
    ),
    "college-id-prints-alike": (
        lambda d: d["colleges"][1].update(id="1"),
        "colleges[1].id: prints as 1, like colleges[0].id",
    ),
}
BAD_FIELDS = {**WRONG_TYPES, **NON_FINITE, **KIND_FIELDS, **ALIKE_IDS}


class TestLoadTimeChecks:
    """Config invariants that need the colleges or the plan are checked when
    the file is loaded, before any replication runs."""

    @pytest.mark.parametrize("case", sorted(BAD_FIELDS))
    def test_bad_field_exits_three_naming_it(self, case, tmp_path, capsys):
        plant, message = BAD_FIELDS[case]
        doc = small_doc()
        plant(doc)
        code, out = run_doc(doc, tmp_path)
        assert code == EXIT_INVARIANT
        assert f"invariant violation: {message}" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    def test_afford_curve_without_a_coalition_exits_three_naming_it(self, tmp_path, capsys):
        doc = small_doc()
        doc["plan"]["curves"].append({"kind": "afford"})
        code, out = run_doc(doc, tmp_path)
        assert code == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err == "invariant violation: plan.curves[2].coalition: missing required field\n"
        assert not (out / "curves.csv").exists()

    def test_bad_ranking_exits_three(self, tmp_path, capsys, monkeypatch):
        # every market takes the threaded sampling path, were it reached
        monkeypatch.setattr(market_module, "_PREFS_THREAD_MIN_CELLS", 0)
        doc = small_doc()
        doc["preferences"] = {"kind": "common_ranking", "ranking": [0, 0]}
        code, out = run_doc(doc, tmp_path)
        assert code == EXIT_INVARIANT
        assert "preferences.ranking: must be a permutation of 0..1" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    @pytest.mark.parametrize(
        "values",
        [
            {"kind": "uniform", "lo": 0.0, "hi": 1.25},
            {"kind": "piecewise", "knots": [[-0.5, 0.0], [0.5, 0.6], [1.0, 1.0]]},
        ],
        ids=["uniform", "piecewise"],
    )
    def test_edges_short_of_the_values_exit_three(self, values, tmp_path, capsys):
        doc = small_doc()
        doc["coalitions"][0]["values"] = values
        code, out = run_doc(doc, tmp_path)
        assert code == EXIT_INVARIANT
        assert "plan.bin_edges: [0.0, 1.0] does not cover the support" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()
        doc["plan"]["bin_edges"] = [-0.5, 0.0, 0.5, 1.0, 1.25]
        dict_to_config(doc)  # edges that span the support load

    @pytest.mark.parametrize(
        "edges, bad", [("[0, NaN, 1]", 1), ("[0, 0.5, 1, Infinity]", 3)], ids=["nan", "inf"]
    )
    def test_non_finite_bin_edge_exits_three(self, edges, bad, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "--preset", "fig1", "--colleges", "2", "--set", f"plan.bin_edges={edges}",
            "--threads", "1", "--out-dir", str(out),
        )
        assert code == EXIT_INVARIANT
        assert f"plan.bin_edges[{bad}]: must be finite" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    @pytest.mark.parametrize("value", ["false", 0, None], ids=["string", "number", "null"])
    def test_record_cutoffs_must_be_a_boolean(self, value, tmp_path, capsys):
        doc = small_doc()
        doc["plan"]["record_cutoffs"] = value
        code, out = run_doc(doc, tmp_path)
        assert code == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert f"plan.record_cutoffs: must be true or false, got {value!r}" in err
        assert not (out / "cutoffs.csv").exists()

    def test_set_through_a_list_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "--preset", "fig1", "--colleges", "2", "--set", "colleges.0.capacity=5",
            "--threads", "1", "--out-dir", str(out),
        )
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "override 'colleges.0.capacity=5': colleges is not an object" in err
        assert not out.exists()

    @pytest.mark.parametrize("item", ["=5", "plan..replications=3", "plan.=3"])
    def test_set_with_an_empty_key_segment_exits_two(self, item, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "--preset", "fig1", "--colleges", "2", "--set", item,
            "--threads", "1", "--out-dir", str(out),
        )
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: override {item!r}: empty key segment\n"
        assert not out.exists()

    # where a run takes one value: a flag on a preset, the file, a flag on a
    # file, or --set
    SOURCES = ("preset-flag", "config-file", "config-flag", "set")

    @staticmethod
    def run_with(source, flag, key, value, tmp_path):
        path, out = tmp_path / "econ.json", tmp_path / "o"
        doc = small_doc()
        if source == "config-file":
            doc = apply_overrides(doc, [f"{key}={value}"])
        path.write_text(json.dumps(doc))
        argv = {
            "preset-flag": ("--preset", "fig1", "--colleges", "2", flag, str(value)),
            "config-file": ("--config", str(path)),
            "config-flag": ("--config", str(path), flag, str(value)),
            "set": ("--preset", "fig1", "--colleges", "2", "--set", f"{key}={value}"),
        }[source]
        return run_cli(*argv, "--threads", "1", "--out-dir", str(out)), out

    @pytest.mark.parametrize("source", SOURCES)
    def test_negative_master_seed_exits_three(self, source, tmp_path, capsys):
        code, out = self.run_with(source, "--seed", "master_seed", -3, tmp_path)
        assert code == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err == "invariant violation: master_seed: must be a non-negative integer, got -3\n"
        assert not (out / "curves.csv").exists()

    @pytest.mark.parametrize("source", SOURCES)
    def test_zero_replications_exits_three(self, source, tmp_path, capsys):
        code, out = self.run_with(source, "--replications", "plan.replications", 0, tmp_path)
        assert code == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err == "invariant violation: plan.replications: must be >= 1, got 0\n"
        assert not (out / "curves.csv").exists()

    @pytest.mark.parametrize(
        "colleges, message",
        [("5000", "colleges[1000].capacity: must be a positive integer"),
         ("0", "colleges: must be >= 1, got 0")],
        ids=["seatless-colleges", "no-colleges"],
    )
    def test_preset_flags_that_build_an_invalid_economy_exit_three(
        self, colleges, message, tmp_path, capsys
    ):
        out = tmp_path / "o"
        code = run_cli("--preset", "fig1", "--colleges", colleges, "--out-dir", str(out))
        assert code == EXIT_INVARIANT
        assert capsys.readouterr().err == f"invariant violation: {message}\n"
        assert not out.exists()

    def test_seatless_colleges_exit_three_from_a_preset_and_from_a_file_alike(
        self, tmp_path, capsys
    ):
        # fig1's 1000 seats over 5000 colleges: one each for the first 1000
        doc = config_to_dict(*fig1(colleges=1000))
        doc["colleges"] += [
            {"id": i, "capacity": 0, "coalition": 1} for i in range(1001, 5001)
        ]
        code, _ = run_doc(doc, tmp_path)
        from_file = capsys.readouterr().err
        assert code == EXIT_INVARIANT
        out = tmp_path / "preset"
        assert run_cli("--preset", "fig1", "--colleges", "5000", "--out-dir", str(out)) == EXIT_INVARIANT
        assert capsys.readouterr().err == from_file

    def test_unknown_preset_or_noise_token_stays_a_parse_error(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("--preset", "fig9", "--out-dir", str(out)) == EXIT_PARSE
        assert run_cli("--preset", "fig1", "--noise", "lognormal", "--out-dir", str(out)) == EXIT_PARSE
        assert not out.exists()

    def test_unbinned_coalition_is_not_checked(self):
        config, plan = fig2(colleges=2, replications=1)
        doc = config_to_dict(config, plan)
        doc["plan"]["curves"] = [{"kind": "match", "coalition": 1}]
        doc["coalitions"][1]["values"] = {"kind": "uniform", "lo": 0.0, "hi": 2.0}
        dict_to_config(doc)
        doc["plan"]["curves"].append({"kind": "afford", "coalition": 2, "trim_epsilon": 0.0})
        with pytest.raises(ConfigError, match=r"^plan\.bin_edges: .* of coalitions\[1\]\.values"):
            dict_to_config(doc)


class TestCliContract:
    def test_preset_run_writes_outputs(self, tmp_path):
        out = tmp_path / "run1"
        code = run_cli(
            "--preset", "fig1", "--colleges", "5", "--replications", "2",
            "--seed", "7", "--threads", "1", "--out-dir", str(out),
        )
        assert code == EXIT_OK
        for name in ("curves.csv", "metrics.csv", "cutoffs.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert "config_hash" in manifest
        assert set(manifest["outputs"]) == {"curves.csv", "metrics.csv", "cutoffs.csv"}

    def test_same_seed_byte_identical(self, tmp_path):
        args = ("--preset", "fig1", "--colleges", "4", "--replications", "3",
                "--seed", "11", "--threads", "1")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out-dir", str(a)) == EXIT_OK
        assert run_cli(*args, "--out-dir", str(b)) == EXIT_OK
        for name in ("curves.csv", "metrics.csv", "cutoffs.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        base = ("--preset", "fig2", "--colleges", "3", "--replications", "4", "--seed", "5")
        one, many = tmp_path / "t1", tmp_path / "t8"
        assert run_cli(*base, "--threads", "1", "--out-dir", str(one)) == EXIT_OK
        assert run_cli(*base, "--threads", "8", "--out-dir", str(many)) == EXIT_OK
        assert (one / "curves.csv").read_bytes() == (many / "curves.csv").read_bytes()
        assert (one / "metrics.csv").read_bytes() == (many / "metrics.csv").read_bytes()

    def test_manifest_times_the_run_without_moving_a_csv_byte(self, tmp_path):
        base = ("--preset", "fig2", "--colleges", "2", "--replications", "5", "--seed", "9")
        runs = {t: tmp_path / f"t{t}" for t in (1, 2)}
        for threads, out in runs.items():
            assert run_cli(*base, "--threads", str(threads), "--out-dir", str(out)) == EXIT_OK
        for name in ("curves.csv", "metrics.csv", "cutoffs.csv"):
            assert (runs[1] / name).read_bytes() == (runs[2] / name).read_bytes()
        keys = {
            "replications_s", "sample_s", "match_s", "afford_s", "curves_s", "output_s",
            "peak_rss_mib",
        }
        # five stacks start a pool of two at --threads 2, and no pool at 1
        pooled = {1: set(), 2: {"workers_peak_rss_mib"}}
        for threads, out in runs.items():
            timings = json.loads((out / "manifest.json").read_text())["timings"]
            assert set(timings) == keys | pooled[threads]
            assert all(isinstance(v, float) and v >= 0 for v in timings.values())
            assert timings["peak_rss_mib"] > 0
        serial = json.loads((runs[1] / "manifest.json").read_text())["timings"]
        # one process: its stages run inside the replications' wall time
        stages = serial["sample_s"] + serial["match_s"] + serial["afford_s"]
        assert 0 < stages <= serial["replications_s"] + 1e-3

    def test_one_stack_on_two_threads_reports_no_workers(self, tmp_path):
        # one replication is one stack, which runs in this process at any
        # --threads, so no worker's memory is reported
        argv = ("--preset", "fig1", "--colleges", "2", "--replications", "1", "--threads", "2")
        assert run_cli(*argv, "--out-dir", str(tmp_path)) == EXIT_OK
        timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
        assert "peak_rss_mib" in timings and "workers_peak_rss_mib" not in timings

    def test_mixed_id_types_run_as_integer_ids_do(self, tmp_path):
        # fig2 with coalition 2 called "b", on two workers against one: only
        # the names it prints move
        doc = config_to_dict(*fig2(colleges=3, n_students=400, replications=40, seed=3))
        mixed = copy.deepcopy(doc)
        mixed["coalitions"][1]["id"] = "b"
        for item in mixed["colleges"] + mixed["plan"]["curves"]:
            if item["coalition"] == 2:
                item["coalition"] = "b"
        runs = {}
        for name, d, threads in (("int", doc, "1"), ("mixed", mixed, "2")):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(d))
            runs[name] = tmp_path / name
            argv = ("--config", str(path), "--out-dir", str(runs[name]), "--threads", threads)
            assert run_cli(*argv) == EXIT_OK

        def rows(name, csv_name):
            return [line.split(",") for line in (runs[name] / csv_name).read_text().splitlines()]

        def renamed(metric):
            return re.sub(r"(value|_c)2(?=_|$)", r"\1b", metric)

        curves = [[renamed(curve), *rest] for curve, *rest in rows("int", "curves.csv")]
        assert rows("mixed", "curves.csv") == curves
        # the config hash differs; the names and values do not
        metrics = [[renamed(metric), value] for metric, value, _ in rows("int", "metrics.csv")]
        assert [row[:2] for row in rows("mixed", "metrics.csv")] == metrics
        cuts = [[r, c, "b" if k == "2" else k, cut] for r, c, k, cut in rows("int", "cutoffs.csv")]
        assert rows("mixed", "cutoffs.csv") == cuts

    def test_a_curve_prints_its_coalition_id(self, tmp_path):
        # a curve naming coalition 1 as 1.0 writes the names the colleges'
        # coalition 1 does: only the config hash moves
        doc = config_to_dict(*fig1(colleges=2, n_students=200, replications=20, seed=3))
        floated = copy.deepcopy(doc)
        for curve in floated["plan"]["curves"]:
            curve["coalition"] = 1.0
        runs = {}
        for name, d in (("int", doc), ("float", floated)):
            (tmp_path / name).mkdir()
            code, runs[name] = run_doc(d, tmp_path / name)
            assert code == EXIT_OK
        for csv_name in ("curves.csv", "cutoffs.csv"):
            assert (runs["float"] / csv_name).read_bytes() == (runs["int"] / csv_name).read_bytes()

        def metrics(name):
            lines = (runs[name] / "metrics.csv").read_text().splitlines()
            return [line.rpartition(",")[0] for line in lines]

        assert metrics("float") == metrics("int")
        assert "afford_c1_trim0_step_location" in "".join(metrics("float"))

    # Pareto noise of shape 0.005 overflows to +inf, so the college of two
    # seats cuts at +inf in both replications.  Every model ranks every
    # college and seats are fewer than students, so no run leaves a seat
    # free: the -inf of a free seat is planted in the records.
    CUTOFF_ROWS = {
        "overflow": (
            b"0,1,1,inf\r\n"
            b"0,2,1,5.115818437629411e+127\r\n"
            b"0,3,1,1.2056105880880297e+121\r\n"
            b"1,1,1,inf\r\n"
            b"1,2,1,8.222590507535226e+130\r\n"
            b"1,3,1,2.071606037100616e+151\r\n"
        ),
        "free-seat": (
            b"0,1,1,1.1139867216696904\r\n"
            b"0,2,1,1.0112950747343297\r\n"
            b"1,1,1,-inf\r\n"
            b"1,2,1,0.9414419803773142\r\n"
        ),
    }

    @pytest.mark.parametrize("case", sorted(CUTOFF_ROWS))
    def test_cutoffs_csv_rows_pin_their_text(self, case, tmp_path, monkeypatch):
        if case == "overflow":
            doc = config_to_dict(*fig1(colleges=3, n_students=200, replications=2, noise="pareto"))
            doc["coalitions"][0]["noise"]["shape"] = 0.005
            for college, seats in zip(doc["colleges"], (2, 40, 40)):
                college["capacity"] = seats
        else:
            doc = config_to_dict(*fig1(colleges=2, n_students=200, replications=2, noise="gaussian"))
            real = estimation.run_replications

            def free_seat(config, plan, threads):
                records = real(config, plan, threads=threads)
                records.cutoffs[1, 0] = -math.inf
                return records

            monkeypatch.setattr("noisymatch.cli.run_replications", free_seat)
        code, out = run_doc(doc, tmp_path)
        assert code == EXIT_OK
        header = b"replication,college_id,coalition_id,cutoff\r\n"
        assert (out / "cutoffs.csv").read_bytes() == header + self.CUTOFF_ROWS[case]

    def test_config_file_run(self, tmp_path):
        config, plan = fig1(colleges=3, replications=2)
        doc = config_to_dict(config, plan)
        path = tmp_path / "econ.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert run_cli("--config", str(path), "--out-dir", str(out), "--threads", "1") == EXIT_OK
        assert (out / "curves.csv").exists()

    @pytest.mark.parametrize(
        "name, reason",
        [
            ("missing.json", "No such file or directory"),
            ("a-directory", "Is a directory"),
            ("latin1.json", "not UTF-8 at byte 12: invalid continuation byte"),
        ],
        ids=["missing", "directory", "latin-1"],
    )
    def test_unreadable_config_file_exits_two(self, name, reason, tmp_path, capsys):
        path = tmp_path / name
        if name == "a-directory":
            path.mkdir()
        elif name == "latin1.json":
            path.write_bytes('{"tag": "caf\u00e9"}'.encode("latin-1"))
        code = run_cli("--config", str(path), "--out-dir", str(tmp_path / "o"), "--threads", "1")
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: config file {path}: {reason}\n"

    def test_parse_errors_exit_two(self, tmp_path):
        assert run_cli("--preset", "nope", "--out-dir", str(tmp_path)) == EXIT_PARSE
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("--config", str(bad), "--out-dir", str(tmp_path)) == EXIT_PARSE
        assert run_cli("--bogus-flag") == EXIT_PARSE
        # removed: cutoffs.csv follows plan.record_cutoffs alone
        assert run_cli("--preset", "fig1", "--emit-cutoffs") == EXIT_PARSE

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_two(self, threads, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("--preset", "fig1", "--threads", threads, "--out-dir", str(out))
        assert code == EXIT_PARSE
        assert f"--threads: must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_invariant_violation_exits_three(self, tmp_path):
        code = run_cli(
            "--preset", "fig1", "--set", "n_students=100",
            "--out-dir", str(tmp_path / "x"), "--threads", "1",
        )
        assert code == EXIT_INVARIANT

    def test_set_n_students_on_a_preset_warns_and_runs(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = run_cli(
            "--preset", "fig1", "--set", "n_students=4000", "--colleges", "10",
            "--replications", "1", "--threads", "1", "--out-dir", str(out),
        )
        assert code == EXIT_OK
        assert capsys.readouterr().err == (
            "warning: --set n_students=4000 keeps preset fig1's 1000 seats; build the point "
            "with presets.fig1(n_students=...) or a config file\n"
        )
        assert "matched_share,0.25," in (out / "metrics.csv").read_text()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the planted failure reaches the workers only through fork",
    )
    def test_replication_failure_in_pool_exits_one(self, tmp_path, capsys, monkeypatch):
        # every worker fails; the first failing replication in order is
        # replication 0, in a stack of its own
        def fail(prefs, scores, capacities, **kwargs):
            raise RuntimeError("planted failure")

        monkeypatch.setattr(estimation, "stacked_deferred_acceptance", fail)
        doc = small_doc()
        doc["plan"]["replications"] = 4
        path = tmp_path / "econ.json"
        path.write_text(json.dumps(doc))
        code = run_cli("--config", str(path), "--out-dir", str(tmp_path / "o"), "--threads", "2")
        assert code == EXIT_RUNTIME
        assert "replication 0: planted failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset_doc, curve, message",
        [
            (
                "fig1",
                {"kind": "afford", "coalition": 999, "trim_epsilon": 0.0},
                "coalition 999 has no colleges",
            ),
            ("fig1", {"kind": "match", "coalition": 999}, "coalition 999 has no colleges"),
            ("fig2", {"kind": "match", "coalition": None}, "required for multi-coalition economies"),
            (
                "fig1",
                {"kind": "afford", "coalition": None, "trim_epsilon": 0.0},
                "coalition None has no colleges",
            ),
        ],
        ids=["afford-unknown", "match-unknown", "match-none-multi", "afford-none"],
    )
    def test_curve_naming_a_bad_coalition_exits_three(
        self, preset_doc, curve, message, tmp_path, capsys, monkeypatch
    ):
        sampled = []
        monkeypatch.setattr(estimation, "sample_stack", lambda *a, **kw: sampled.append(a))
        if preset_doc == "fig1":
            doc = small_doc()
        else:
            config, plan = fig2(colleges=2, replications=2)
            doc = config_to_dict(config, plan)
        i = len(doc["plan"]["curves"])
        doc["plan"]["curves"].append(curve)
        # the file fails to load, with the message run_replications gives
        message = f"plan.curves[{i}].coalition: {message}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dict_to_config(doc)
        code, out = run_doc(doc, tmp_path)
        assert code == EXIT_INVARIANT
        assert message in capsys.readouterr().err
        assert sampled == []
        assert not (out / "curves.csv").exists()

    def test_run_leaves_caller_doc_unchanged(self, tmp_path):
        doc = small_doc()
        doc["plan"]["record_cutoffs"] = False
        before = copy.deepcopy(doc)
        assert run(doc, tmp_path / "o", 1) == EXIT_OK
        assert doc == before
        assert not (tmp_path / "o" / "cutoffs.csv").exists()
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["effective_config"]["plan"]["record_cutoffs"] is False

    def test_unrecorded_cutoffs_through_a_pool(self, tmp_path):
        doc = small_doc()
        doc["plan"]["record_cutoffs"] = False
        doc["plan"]["replications"] = 8
        config, plan = dict_to_config(doc)
        assert estimation.run_replications(config, plan, threads=2).cutoffs is None
        outs = {threads: tmp_path / f"t{threads}" for threads in (1, 2)}
        for threads, out in outs.items():
            assert run(doc, out, threads) == EXIT_OK
            assert not (out / "cutoffs.csv").exists()
        for name in ("curves.csv", "metrics.csv"):
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()

    def test_effective_config_recorded(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "--preset", "fig1", "--colleges", "2", "--replications", "2",
            "--set", "master_seed=123", "--threads", "1", "--out-dir", str(out),
        )
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["effective_config"]["master_seed"] == 123
        assert manifest["master_seed"] == 123
