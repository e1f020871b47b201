"""The config document, its canonical form and its hash.

Configs are JSON documents; this module alone reads and writes them.  A
noise, value, preference or curve entry names its class by ``kind`` in
KINDS.  Hashing goes through the canonical form (sorted keys, compact
separators), so field order in the file never changes the hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, fields
from pathlib import Path

from .errors import ConfigError, finite_number, identifier, integer
from .estimation import AffordProbability, ExperimentPlan, MatchProbability, check_plan
from .market import (
    Coalition, College, CommonRanking, EconomyConfig, ExplicitSampler, PiecewiseLinearCdf,
    TieredByCoalition, UniformRandomPreferences, UniformValues,
)
from .noise import Exponential, Gaussian, Gumbel, Pareto, Uniform

# each field of the document that holds a kind entry -> {kind: class}
KINDS = {
    field: {cls.kind: cls for cls in classes}
    for field, classes in (
        ("noise", (Uniform, Gaussian, Exponential, Gumbel, Pareto)),
        ("values", (UniformValues, PiecewiseLinearCdf)),
        (
            "preferences",
            (UniformRandomPreferences, CommonRanking, TieredByCoalition, ExplicitSampler),
        ),
        ("plan.curves", (MatchProbability, AffordProbability)),
    )
}

# a class field whose key in the document differs from its name
_KEYS = {"coalition_id": "coalition"}


def build_kind(field: str, entry: dict, path: str | None = None):
    """The object of the class ``entry["kind"]`` names in KINDS[field], each
    field from its key, lists as tuples.  A key no field has is left for
    _reject_unknown_fields; other faults raise ConfigError naming ``path``."""
    path = path or field
    kinds = KINDS[field]
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}, expected one of {sorted(kinds)}")
    cls = kinds[kind]
    args = {}
    for f in fields(cls):
        key = _KEYS.get(f.name, f.name)
        if key in entry:
            value = entry[key]
            # annotations are strings here (from __future__ import annotations)
            if f.type.startswith("tuple"):
                value = _tuples(_expect(value, list, f"{path}.{key}"))
            args[f.name] = value
        elif f.default is MISSING:
            raise ConfigError(f"{path}.{key}: missing required field")
    return cls(**args)


def kind_entry(obj) -> dict:
    """obj's entry: its kind and each field under its key, tuples as lists."""
    keyed = {_KEYS.get(f.name, f.name): _lists(getattr(obj, f.name)) for f in fields(obj)}
    return {"kind": obj.kind, **keyed}


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _lists(value):
    return list(map(_lists, value)) if isinstance(value, tuple) else value


def config_to_dict(config: EconomyConfig, plan: ExperimentPlan) -> dict:
    return {
        "n_students": config.n_students,
        "master_seed": config.master_seed,
        "capacity_alpha": config.capacity_alpha,
        "coalitions": [
            {
                "id": k.id,
                "values": kind_entry(k.values),
                "noise": None if k.noise is None else kind_entry(k.noise),
            }
            for k in config.coalitions
        ],
        # written out, not by kind_entry: a generic writer over every
        # college doubled dict_to_config's time on a 1000-college document
        "colleges": [
            {"id": c.id, "capacity": c.capacity, "coalition": c.coalition}
            for c in config.colleges
        ],
        "preferences": kind_entry(config.preferences),
        "plan": {
            "replications": plan.replications,
            "bin_edges": list(plan.bin_edges),
            "curves": [kind_entry(c) for c in plan.curves],
            "record_cutoffs": plan.record_cutoffs,
        },
    }


def _integer(value, field: str) -> int:
    """An integral number as int; anything else, 50.7 or "10" included, is an error."""
    return int(value) if isinstance(value, float) and value.is_integer() else integer(value, field)


# what a field must be, by the JSON type it holds
_TYPES = {list: "a list", dict: "an object"}


def _expect(value, kind, field: str):
    """value when it is an instance of kind; else a ConfigError naming field."""
    if not isinstance(value, kind):
        raise ConfigError(f"{field}: must be {_TYPES[kind]}, got {value!r}")
    return value


def _objects(value, field: str) -> list[tuple[str, dict]]:
    """Each object of a list, with its field name."""
    items = enumerate(_expect(value, list, field))
    return [(f"{field}[{i}]", _expect(item, dict, f"{field}[{i}]")) for i, item in items]


def _curve(c: dict, path: str):
    """A plan.curves entry: its coalition an id or null (a match curve's
    default, as config_to_dict writes it), its trim_epsilon a number."""
    if c.get("coalition") is not None:
        identifier(c["coalition"], f"{path}.coalition")
    if "trim_epsilon" in c:
        finite_number(c["trim_epsilon"], f"{path}.trim_epsilon")
    return build_kind("plan.curves", c, path)


def _coalition(k: dict, path: str) -> Coalition:
    try:
        values = build_kind("values", _expect(k["values"], dict, "values"))
        noise = k.get("noise")
        noise = None if noise is None else build_kind("noise", _expect(noise, dict, "noise"))
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    return Coalition(id=k["id"], values=values, noise=noise)


def _reject_unknown_fields(doc, canonical, path: str = "") -> None:
    """Raise on the first key of doc that its canonical form does not have.

    The canonical form, config_to_dict of the parsed config, holds every
    field the program reads, so any other key is a misspelling or a field
    this version does not know.
    """
    if isinstance(doc, dict) and isinstance(canonical, dict):
        for key, value in doc.items():
            where = f"{path}.{key}" if path else key
            if key not in canonical:
                raise ConfigError(f"{where}: unknown field")
            _reject_unknown_fields(value, canonical[key], where)
    elif isinstance(doc, list) and isinstance(canonical, list):
        for i, (item, canon) in enumerate(zip(doc, canonical)):
            _reject_unknown_fields(item, canon, f"{path}[{i}]")


def dict_to_config(doc: dict) -> tuple[EconomyConfig, ExperimentPlan]:
    try:
        # EconomyConfig checks the ids, as it does a config built in code
        coalitions = tuple(_coalition(k, at) for at, k in _objects(doc["coalitions"], "coalitions"))
        colleges = tuple(
            College(
                id=c["id"],
                capacity=_integer(c["capacity"], f"{at}.capacity"),
                coalition=c["coalition"],
            )
            for at, c in _objects(doc["colleges"], "colleges")
        )
        config = EconomyConfig(
            n_students=_integer(doc["n_students"], "n_students"),
            colleges=colleges,
            coalitions=coalitions,
            preferences=build_kind("preferences", _expect(doc["preferences"], dict, "preferences")),
            master_seed=_integer(doc["master_seed"], "master_seed"),
            capacity_alpha=finite_number(doc.get("capacity_alpha", 1.0), "capacity_alpha"),
        )
        p = _expect(doc["plan"], dict, "plan")
        plan = ExperimentPlan(
            replications=_integer(p["replications"], "plan.replications"),
            bin_edges=tuple(_expect(p["bin_edges"], list, "plan.bin_edges")),
            curves=tuple(_curve(c, at) for at, c in _objects(p.get("curves", []), "plan.curves")),
            record_cutoffs=p.get("record_cutoffs", True),
        )
    except KeyError as e:
        raise ConfigError(f"config: missing required field {e.args[0]!r}") from e
    _reject_unknown_fields(doc, config_to_dict(config, plan))
    check_plan(config, plan)
    return config, plan


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def load_config_file(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:  # a missing path or a directory, say
        raise ConfigError(f"config file {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path}: not UTF-8 at byte {e.start}: {e.reason}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return doc


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply key=value pairs with dotted paths; values parse as JSON literals.

    A missing key on the path becomes an empty object.  An empty key
    segment, or a path through a value that is not an object, such as a list
    entry, is an error.
    """
    out = json.loads(json.dumps(doc))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        if "" in parts:
            raise ConfigError(f"override {item!r}: empty key segment")
        for i, part in enumerate(parts[:-1]):
            if part not in node:
                node[part] = {}
            elif not isinstance(node[part], dict):
                where = ".".join(parts[: i + 1])
                raise ConfigError(f"override {item!r}: {where} is not an object")
            node = node[part]
        node[parts[-1]] = value
    return out
