"""Finite first-order structures, assignments, teams, and identity types.

All values are immutable after construction and safe to share across
concurrent evaluators.  Element identity is by opaque token (a string);
two structures share elements only when their domains share tokens.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError
from . import syntax
from .syntax import Eq, Formula, Var

Element = str


@dataclass(frozen=True)
class Relation:
    arity: int
    tuples: frozenset[tuple[Element, ...]]


class Structure:
    """A finite first-order model: domain, constants, named relations.

    The domain is kept sorted so that every enumeration the evaluator
    performs is deterministic.  Domains are nonempty by convention.
    """

    __slots__ = ("domain", "constants", "relations")

    def __init__(self, domain: Iterable[Element],
                 constants: Mapping[str, Element] | None = None,
                 relations: Mapping[str, tuple[int, Iterable[Sequence[Element]]] | Relation] | None = None):
        dom = tuple(sorted(set(domain)))
        if not dom:
            raise DomainError("structure domains are nonempty by convention")
        domset = set(dom)
        consts = dict(constants or {})
        for name, value in consts.items():
            if value not in domset:
                raise DomainError(f"constant {name}={value!r} is outside the domain")
        rels: dict[str, Relation] = {}
        for name, rel in (relations or {}).items():
            if not isinstance(rel, Relation):
                arity, tuples = rel
                rel = Relation(int(arity), frozenset(tuple(t) for t in tuples))
            if rel.arity < 1:
                raise DomainError(f"relation {name} must have positive arity")
            for t in rel.tuples:
                if len(t) != rel.arity:
                    raise DomainError(f"tuple {t} does not match arity {rel.arity} "
                                      f"of relation {name}")
                if any(e not in domset for e in t):
                    raise DomainError(f"tuple {t} of relation {name} leaves the domain")
            rels[name] = rel
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "constants", consts)
        object.__setattr__(self, "relations", rels)

    def __setattr__(self, name, value):
        raise AttributeError("Structure is immutable")

    def constant(self, name: str) -> Element:
        try:
            return self.constants[name]
        except KeyError:
            raise DomainError(f"uninterpreted constant symbol {name!r}") from None

    def relation(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise DomainError(f"uninterpreted relation symbol {name!r}") from None

    def __repr__(self):
        rels = {n: sorted(r.tuples) for n, r in sorted(self.relations.items())}
        return f"Structure(domain={list(self.domain)}, constants={self.constants}, relations={rels})"


class Team:
    """A set of assignments over a shared variable domain.

    Rows are stored as element tuples aligned with the sorted variable
    tuple, so duplicate assignments collapse on construction and the
    canonical form used as a memoization key is cheap to compute.
    """

    __slots__ = ("vars", "rows", "_key")

    def __init__(self, variables: Sequence[str],
                 rows: Iterable[Mapping[str, Element] | Sequence[Element]] = ()):
        given = tuple(variables)
        if len(set(given)) != len(given):
            raise DomainError(f"duplicate variables in team domain: {given}")
        svars = tuple(sorted(given))
        packed = set()
        for row in rows:
            if isinstance(row, Mapping):
                if set(row) != set(given):
                    raise DomainError(f"assignment {dict(row)} is not total on {given}")
                packed.add(tuple(row[v] for v in svars))
            else:
                row = tuple(row)
                if len(row) != len(given):
                    raise DomainError(f"row {row} does not match variables {given}")
                m = dict(zip(given, row))
                packed.add(tuple(m[v] for v in svars))
        object.__setattr__(self, "vars", svars)
        object.__setattr__(self, "rows", frozenset(packed))
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("Team is immutable")

    def __eq__(self, other):
        return (isinstance(other, Team) and self.vars == other.vars
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.vars, self.rows))

    def __len__(self):
        return len(self.rows)

    def __bool__(self):
        # Truthiness would be ambiguous between "nonempty" and "satisfied".
        raise TypeError("use len(team) or team.rows explicitly")

    @property
    def canonical_key(self) -> tuple:
        """Rows sorted under the fixed variable order; memoization key."""
        key = object.__getattribute__(self, "_key")
        if key is None:
            key = (self.vars, tuple(sorted(self.rows)))
            object.__setattr__(self, "_key", key)
        return key

    def assignments(self) -> list[dict[str, Element]]:
        return [dict(zip(self.vars, row)) for row in sorted(self.rows)]

    def index_of(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise DomainError(f"variable {var!r} is not in the team domain "
                              f"{self.vars}") from None

    def with_rows(self, rows: Iterable[tuple[Element, ...]]) -> "Team":
        """A team over the same variables with the given aligned rows."""
        t = Team(self.vars)
        object.__setattr__(t, "rows", frozenset(rows))
        return t

    def __repr__(self):
        return f"Team(vars={list(self.vars)}, rows={sorted(self.rows)})"


def team_projection(team: Team, variables: Sequence[str]) -> set[tuple[Element, ...]]:
    """The relation {s(v) : s in team}; repetitions in v are allowed."""
    idx = [team.index_of(v) for v in variables]
    return {tuple(row[i] for i in idx) for row in team.rows}


def team_equiv_on(x: Team, y: Team, variables: Iterable[str]) -> bool:
    """True when the two teams project identically onto the variable set."""
    vs = tuple(sorted(set(variables)))
    return team_projection(x, vs) == team_projection(y, vs)


def restrict_team(team: Team, guard: Formula, structure: Structure) -> Team:
    """The subteam of rows that individually satisfy a first-order guard."""
    from .tarski import tarski_eval  # local import; tarski builds on this module

    if syntax.has_dependency_atoms(guard):
        raise TypeError("team restriction takes a first-order formula "
                        "(dependency atom found)")
    loose = syntax.free_vars(guard) - set(team.vars)
    if loose:
        raise DomainError(f"guard mentions variables {sorted(loose)} outside "
                          f"the team domain {team.vars}")
    keep = []
    for row in team.rows:
        if tarski_eval(structure, dict(zip(team.vars, row)), guard):
            keep.append(row)
    return team.with_rows(keep)


def extend_universal(team: Team, var: str, structure: Structure) -> Team:
    """The team {s[m/var] : s in team, m in the domain}."""
    if not structure.domain:
        raise DomainError("structure domains are nonempty by convention")
    if var in team.vars:
        i = team.index_of(var)
        rows = {row[:i] + (m,) + row[i + 1:]
                for row in team.rows for m in structure.domain}
        return team.with_rows(rows)
    out = Team(team.vars + (var,))
    i = out.index_of(var)
    rows = set()
    for row in team.rows:
        for m in structure.domain:
            rows.add(row[:i] + (m,) + row[i:])
    return out.with_rows(rows)


# --- Identity types ---

@dataclass(frozen=True)
class IdentityType:
    """The equality pattern of a tuple: position i holds the index of the
    first position carrying the same element.  Invariant under injective
    renaming of elements."""

    pattern: tuple[int, ...]

    def matches(self, elements: Sequence[Element]) -> bool:
        if len(elements) != len(self.pattern):
            return False
        return identity_type_of(elements) == self

    def formula(self, names: Sequence[str] | None = None) -> Formula:
        """The conjunction of equalities and inequalities defining the type."""
        k = len(self.pattern)
        if names is None:
            names = [f"x{i + 1}" for i in range(k)]
        parts: list[Formula] = []
        for i in range(k):
            for j in range(i + 1, k):
                same = self.pattern[i] == self.pattern[j]
                parts.append(Eq(Var(names[i]), Var(names[j]), positive=same))
        if not parts:
            return Eq(Var(names[0]), Var(names[0]))
        return syntax.conj(parts)


def identity_type_of(elements: Sequence[Element]) -> IdentityType:
    if not elements:
        raise DomainError("identity types are defined for nonempty tuples")
    first: dict[Element, int] = {}
    pattern = []
    for i, e in enumerate(elements):
        pattern.append(first.setdefault(e, i))
    return IdentityType(tuple(pattern))


# --- Single-relation structures ---

@dataclass(frozen=True)
class RelStructure:
    """A finite structure carrying one relation, the shape dependency
    checks and U-sentence tooling operate on."""

    domain: tuple[Element, ...]
    arity: int
    tuples: frozenset[tuple[Element, ...]]

    @staticmethod
    def make(domain: Iterable[Element], arity: int,
             tuples: Iterable[Sequence[Element]]) -> "RelStructure":
        dom = tuple(sorted(set(domain)))
        if not dom:
            raise DomainError("structure domains are nonempty by convention")
        ts = frozenset(tuple(t) for t in tuples)
        domset = set(dom)
        for t in ts:
            if len(t) != arity:
                raise DomainError(f"tuple {t} does not match arity {arity}")
            if any(e not in domset for e in t):
                raise DomainError(f"tuple {t} leaves the domain")
        return RelStructure(dom, arity, ts)

    def as_structure(self, rel_name: str = "R",
                     constants: Mapping[str, Element] | None = None) -> Structure:
        return Structure(self.domain, constants,
                         {rel_name: Relation(self.arity, self.tuples)})


def enumerate_relations(domain: Sequence[Element], arity: int) -> Iterator[frozenset]:
    """All relations of the given arity over the domain, in a fixed order."""
    cells = sorted(itertools.product(sorted(set(domain)), repeat=arity))
    for mask in range(1 << len(cells)):
        yield frozenset(cells[i] for i in range(len(cells)) if mask >> i & 1)


def is_substructure(sub: RelStructure, sup: RelStructure) -> bool:
    """Domain inclusion plus the relation-trace condition R = S restricted
    to the smaller domain."""
    if sub.arity != sup.arity:
        return False
    a = set(sub.domain)
    if not a <= set(sup.domain):
        return False
    trace = {t for t in sup.tuples if all(e in a for e in t)}
    return trace == sub.tuples


def enumerate_retraction_homs(sub: RelStructure,
                              sup: RelStructure) -> Iterator[dict[Element, Element]]:
    """All maps h from the superstructure onto the substructure that fix the
    substructure pointwise and carry every relation tuple into the smaller
    relation.  Precondition: sub is a substructure of sup."""
    if sub.arity != sup.arity:
        raise DomainError(f"arity mismatch: {sub.arity} vs {sup.arity}")
    if not is_substructure(sub, sup):
        raise DomainError("not a substructure: the smaller relation must be the "
                          "trace of the larger one on the smaller domain")
    a = list(sub.domain)
    extra = [e for e in sup.domain if e not in set(sub.domain)]
    base = {e: e for e in sub.domain}
    for choice in itertools.product(a, repeat=len(extra)):
        h = dict(base)
        h.update(zip(extra, choice))
        if all(tuple(h[e] for e in t) in sub.tuples for t in sup.tuples):
            yield h


def full_team(variables: Sequence[str], structure: Structure) -> Team:
    """All assignments of the variables into the structure's domain."""
    vs = tuple(variables)
    rows = itertools.product(structure.domain, repeat=len(vs))
    return Team(vs, [tuple(r) for r in rows])
