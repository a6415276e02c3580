"""JSON file formats for structures, teams, assignments, and dependencies.

Structure:   {"domain": ["a","b"], "constants": {"one": "a"},
              "relations": {"E": {"arity": 2, "tuples": [["a","b"]]}}}
Team:        {"vars": ["x","y"], "rows": [["a","b"]]}
Assignment:  {"x": "a", "y": "b"}
Dependency:  {"name": "antisym", "arity": 2, "kind": "fo",
              "sentence": "forall x,y. ((R(x,y) & R(y,x)) -> x=y)"}
  builtin:     {..., "kind": "builtin", "builtin": "dep", "split": [1, 1]}
  extensional: {..., "kind": "extensional", "default": "false",
                "table": [{"domain": ["a"], "tuples": [["a"]], "holds": true}]}
Chain spec:  {"base": ["a","b"], "relations": [[], [["a"]], [["a"],["b"]]]}
"""

from __future__ import annotations

import json
from typing import Any

from .dependencies import Dependency
from .errors import ValidationError
from .structures import Structure, Team


def _expect(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


def _is_tokens(value: Any) -> bool:
    """A JSON list of strings: variable names or element tokens."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _token_lists(value: Any, what: str) -> list[tuple[str, ...]]:
    _expect(isinstance(value, list) and all(map(_is_tokens, value)),
            f"{what} must be a list of element-token lists")
    return [tuple(t) for t in value]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(data: dict, name: str, kind: type, default):
    """data[name], or the default when it is missing or null."""
    value = data.get(name)
    if value is None:
        return default
    _expect(isinstance(value, kind), f"{name!r} must be a JSON {kind.__name__}")
    return value


def structure_from_dict(data: dict) -> Structure:
    _expect(isinstance(data, dict), "structure file must hold a JSON object")
    _expect("domain" in data, "structure needs a 'domain' list")
    _expect(_is_tokens(data["domain"]),
            "structure 'domain' must be a list of element tokens")
    constants = _field(data, "constants", dict, {})
    _expect(all(isinstance(v, str) for v in constants.values()),
            "constants must map to element tokens")
    relations = {}
    for name, rel in _field(data, "relations", dict, {}).items():
        _expect(isinstance(rel, dict) and "arity" in rel and "tuples" in rel,
                f"relation {name!r} needs 'arity' and 'tuples'")
        arity = rel["arity"]
        _expect(_is_int(arity), f"relation {name!r} needs an integer 'arity'")
        relations[name] = (arity, _token_lists(rel["tuples"],
                                               f"relation {name!r} 'tuples'"))
    return Structure(data["domain"], constants, relations)


def structure_to_dict(structure: Structure) -> dict:
    return {
        "domain": list(structure.domain),
        "constants": dict(sorted(structure.constants.items())),
        "relations": {
            name: {"arity": rel.arity,
                   "tuples": [list(t) for t in sorted(rel.tuples)]}
            for name, rel in sorted(structure.relations.items())
        },
    }


def team_from_dict(data: dict) -> Team:
    _expect(isinstance(data, dict), "team file must hold a JSON object")
    _expect("vars" in data, "team needs a 'vars' list")
    _expect(_is_tokens(data["vars"]), "team 'vars' must be a list of names")
    rows = _token_lists(_field(data, "rows", list, []), "team 'rows'")
    return Team(data["vars"], rows)


def team_to_dict(team: Team) -> dict:
    return {"vars": list(team.vars), "rows": [list(r) for r in sorted(team.rows)]}


def assignment_from_dict(data: dict) -> dict[str, str]:
    _expect(isinstance(data, dict), "assignment file must hold a JSON object")
    _expect(all(isinstance(v, str) for v in data.values()),
            "assignment values must be element tokens")
    return dict(data)


def dependency_from_dict(data: dict) -> Dependency:
    _expect(isinstance(data, dict), "dependency file must hold a JSON object")
    for field in ("name", "arity", "kind"):
        _expect(field in data, f"dependency needs a {field!r} field")
    kind, name, arity = data["kind"], data["name"], data["arity"]
    _expect(isinstance(name, str), "dependency 'name' must be a string")
    _expect(_is_int(arity), "dependency 'arity' must be an integer")
    if kind == "fo":
        _expect(isinstance(data.get("sentence"), str),
                "fo dependencies need a 'sentence' string")
        from .syntax import parse_fo_sentence
        return Dependency(name, arity, "fo",
                          sentence=parse_fo_sentence(data["sentence"]),
                          rel_name=_field(data, "rel_name", str, "R"))
    if kind == "builtin":
        _expect(isinstance(data.get("builtin"), str),
                "builtin dependencies need a 'builtin' string")
        split = _field(data, "split", list, None)
        _expect(not split or len(split) == 2 and all(map(_is_int, split)),
                "builtin 'split' must be a list of two integers")
        return Dependency(name, arity, "builtin", builtin=data["builtin"],
                          split=tuple(split) if split else None)
    if kind == "extensional":
        table = []
        for entry in _field(data, "table", list, []):
            _expect(isinstance(entry, dict)
                    and all(k in entry for k in ("domain", "tuples", "holds")),
                    "table entries need 'domain', 'tuples', 'holds'")
            _expect(_is_tokens(entry["domain"]),
                    "table entry 'domain' must be a list of element tokens")
            _expect(isinstance(entry["holds"], bool),
                    "table entry 'holds' must be true or false")
            table.append((entry["domain"],
                          _token_lists(entry["tuples"], "table entry 'tuples'"),
                          entry["holds"]))
        return Dependency(name, arity, "extensional", table=table,
                          default=_field(data, "default", str, "strict"))
    raise ValidationError(f"unknown dependency kind {kind!r}")


def chain_spec_from_dict(data: dict) -> tuple[list[str], list[list[tuple[str, ...]]]]:
    """(base domain, chain links) of a `chain` command spec."""
    _expect(isinstance(data, dict), "chain spec must hold a JSON object")
    for field in ("base", "relations"):
        _expect(field in data, f"chain spec needs a {field!r} field")
    _expect(_is_tokens(data["base"]),
            "chain spec 'base' must be a list of element tokens")
    _expect(isinstance(data["relations"], list),
            "chain spec 'relations' must be a list of links")
    return data["base"], [_token_lists(rel, "chain spec link")
                          for rel in data["relations"]]


def load_json(path: str) -> Any:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None


def dump_json(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True)
