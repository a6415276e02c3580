"""Generalized dependencies: the registry, satisfaction on single-relation
structures, and the bounded checkers for domain independence, closure
properties, union-of-chain preservation, and retraction-homomorphism
preservation.

A dependency is a class of single-relation structures (M, R).  Three kinds
are supported: builtin (closed-form set computations), first-order defined
(a sentence over the relation symbol evaluated Tarski-style), and
extensional (a finite decision table plus a default policy).  Extensional
tables may violate isomorphism closure; the checkers report it rather than
forbidding it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DependencyLookupError, DomainError, ValidationError
from .structures import (Element, RelStructure, Relation, Structure,
                         enumerate_relations, enumerate_retraction_homs,
                         is_substructure)
from .syntax import (BUILTIN_KINDS, UNSPLIT_KINDS, And, DedSentence, Formula,
                     Forall, NamedDep, Or, RelAtom, Var, parse_fo_sentence,
                     validate_ded)
from .tarski import tarski_sentence

# Removing tuples cannot break functionality or constancy; it can break
# nonemptiness, inclusion, independence and anonymity.
DOWNWARD_CLOSED_KINDS = frozenset({"dep", "const"})
_DEFAULTS = ("strict", "true", "false")

RelationSet = frozenset


def _canon_rel(rel: Iterable[Sequence[Element]]) -> frozenset:
    return frozenset(tuple(t) for t in rel)


class Dependency:
    """A registered k-ary generalized dependency.

    downward_closed is a syntactic certificate used by the evaluator for
    sound search pruning: builtins dep/const qualify, and first-order
    dependencies qualify when their sentence is a disjunctive EGD (every
    consequent disjunct is a conjunction of identities, with no
    existential prefix).  A consequent R atom can fail on a subrelation:
    `forall u,v,w. (R(u,v) -> R(u,w))` holds on {(a,a),(a,b)} but not on
    {(a,a)}.
    """

    def __init__(self, name: str, arity: int, kind: str, *,
                 builtin: str | None = None,
                 split: tuple[int, int] | None = None,
                 sentence: Formula | None = None,
                 rel_name: str = "R",
                 table: Sequence[tuple[Sequence[Element], Iterable[Sequence[Element]], bool]] = (),
                 default: str = "strict",
                 downward_closed: bool | None = None):
        if arity < 1:
            raise DomainError("dependency arity must be positive")
        if kind not in ("builtin", "fo", "extensional"):
            raise ValidationError(f"unknown dependency kind {kind!r}")
        self.name = name
        self.arity = arity
        self.kind = kind
        self.builtin = builtin
        self.split = split
        self.sentence = sentence
        self.rel_name = rel_name
        self.default = default
        self._table: dict[tuple, bool] = {}
        self._iso_check: bool | None = None
        if kind == "builtin":
            if builtin not in BUILTIN_KINDS:
                raise ValidationError(f"unknown builtin dependency {builtin!r}")
            if builtin not in UNSPLIT_KINDS:
                if split is None or sum(split) != arity or any(s < 0 for s in split):
                    raise ValidationError(
                        f"builtin {builtin} needs a split (n, m) with n+m={arity}")
                if builtin == "inc" and split[0] != split[1]:
                    raise ValidationError("inclusion compares tuples of equal length")
        elif kind == "fo":
            if sentence is None:
                raise ValidationError("fo dependencies need a defining sentence")
            syms = _relation_arities(sentence)
            if set(syms) - {rel_name}:
                raise ValidationError(
                    f"defining sentence may mention only {rel_name!r}; "
                    f"found {sorted(set(syms) - {rel_name})}")
            if syms.get(rel_name, arity) != arity:
                raise ValidationError(
                    f"defining sentence uses {rel_name} with arity "
                    f"{syms[rel_name]}, expected {arity}")
        else:
            if default not in _DEFAULTS:
                raise ValidationError(f"unknown default policy {default!r}")
            for domain, tuples, holds in table:
                key = (tuple(sorted(set(domain))), _canon_rel(tuples))
                self._table.setdefault(key, bool(holds))
        if downward_closed is None:
            downward_closed = self._derive_downward_closed()
        self.downward_closed = downward_closed

    def _derive_downward_closed(self) -> bool:
        if self.kind == "builtin":
            return self.builtin in DOWNWARD_CLOSED_KINDS
        if self.kind == "fo" and self.sentence is not None:
            try:
                ded = validate_ded(self.sentence, self.rel_name)
            except ValidationError:
                return False
            return all(not exists_vars
                       and not any(isinstance(a, RelAtom) for a in atoms)
                       for exists_vars, atoms in ded.disjuncts)
        return False

    def isomorphism_closure_recorded(self) -> bool | None:
        """Result of the last on-demand table isomorphism check, if any."""
        return self._iso_check

    def __repr__(self):
        return f"Dependency({self.name!r}, arity={self.arity}, kind={self.kind})"


def _relation_arities(phi: Formula) -> dict[str, int]:
    from .syntax import relation_symbols
    return relation_symbols(phi)


# --- Constructors for the standard catalogue ---

def functional_dependency(n: int, m: int, name: str | None = None) -> Dependency:
    """R is the graph of a function from n-prefixes to m-suffixes."""
    return Dependency(name or f"dep_{n}_{m}", n + m, "builtin",
                      builtin="dep", split=(n, m))


def constancy(k: int = 1, name: str | None = None) -> Dependency:
    return Dependency(name or f"const_{k}", k, "builtin", builtin="const")


def nonemptiness(k: int = 1, name: str | None = None) -> Dependency:
    return Dependency(name or "NE", k, "builtin", builtin="ne")


def inclusion(m: int = 1, name: str | None = None) -> Dependency:
    """First m-projection of R contained in the last m-projection."""
    return Dependency(name or f"inc_{m}_{m}", 2 * m, "builtin",
                      builtin="inc", split=(m, m))


def independence(n: int = 1, m: int = 1, name: str | None = None) -> Dependency:
    return Dependency(name or f"ind_{n}_{m}", n + m, "builtin",
                      builtin="ind", split=(n, m))


def anonymity(n: int = 1, m: int = 1, name: str | None = None) -> Dependency:
    return Dependency(name or f"anon_{n}_{m}", n + m, "builtin",
                      builtin="anon", split=(n, m))


def fo_dependency(name: str, arity: int, sentence: Formula | str,
                  rel_name: str = "R") -> Dependency:
    if isinstance(sentence, str):
        sentence = parse_fo_sentence(sentence)
    return Dependency(name, arity, "fo", sentence=sentence, rel_name=rel_name)


def antisymmetry_egd(name: str = "antisym") -> Dependency:
    """The binary equality-generating dependency forbidding 2-cycles."""
    return fo_dependency(name, 2, "forall x,y. ((R(x,y) & R(y,x)) -> x=y)")


def extensional_dependency(name: str, arity: int,
                           table: Sequence[tuple[Sequence[Element], Iterable[Sequence[Element]], bool]],
                           default: str = "strict") -> Dependency:
    return Dependency(name, arity, "extensional", table=table, default=default)


def ded_dependency(name: str, ded: DedSentence | str | Formula) -> Dependency:
    """A dependency defined by a validated DED sentence."""
    if not isinstance(ded, DedSentence):
        ded = validate_ded(ded)
    return Dependency(name, ded.rel_arity, "fo", sentence=ded.to_formula(),
                      rel_name=ded.rel_name)


class Registry:
    """Name table for dependencies; resolves D:name atoms in formulas."""

    def __init__(self, deps: Iterable[Dependency] = ()):
        self._deps: dict[str, Dependency] = {}
        for d in deps:
            self.register(d)

    def register(self, dep: Dependency) -> Dependency:
        if dep.name in self._deps:
            raise ValidationError(f"dependency {dep.name!r} is already registered")
        self._deps[dep.name] = dep
        return dep

    def get(self, name: str) -> Dependency:
        try:
            return self._deps[name]
        except KeyError:
            raise DependencyLookupError(f"unregistered dependency {name!r}") from None

    def arity_of(self, name: str) -> int | None:
        dep = self._deps.get(name)
        return dep.arity if dep else None

    def __contains__(self, name: str) -> bool:
        return name in self._deps

    def names(self) -> list[str]:
        return sorted(self._deps)


# --- Satisfaction ---

def dep_holds(dep: Dependency, domain: Iterable[Element],
              rel: Iterable[Sequence[Element]]) -> bool:
    """Whether (domain, rel) belongs to the dependency's class."""
    dom = tuple(sorted(set(domain)))
    domset = set(dom)
    r = _canon_rel(rel)
    for t in r:
        if len(t) != dep.arity:
            raise DomainError(f"tuple {t} does not match dependency arity {dep.arity}")
        if not domset.issuperset(t):
            raise DomainError(f"tuple {t} leaves the domain")
    if dep.kind == "builtin":
        return builtin_holds(dep.builtin, dep.split[0] if dep.split else 0, r)
    if dep.kind == "fo":
        structure = Structure(dom, {}, {dep.rel_name: Relation(dep.arity, r)})
        return tarski_sentence(structure, dep.sentence)
    entry = dep._table.get((dom, r))
    if entry is not None:
        return entry
    if dep.default == "strict":
        raise DependencyLookupError(
            f"extensional dependency {dep.name!r} has no entry for "
            f"domain {list(dom)} with {len(r)} tuples")
    return dep.default == "true"


def builtin_holds(kind: str, n_left: int,
                  relation: set[tuple] | frozenset[tuple]) -> bool:
    """Whether a relation lies in the class of the builtin kind, each tuple
    split into its first n_left places and the rest (the split is ignored
    by the unsplit kinds const and ne).

    This is the one definition of the builtin atoms: BuiltinAtom(kind, v,
    w) holds on a team exactly when its projection onto v + w satisfies
    builtin_holds(kind, len(v), .).
    """
    if kind == "ne":
        return bool(relation)
    if kind == "const":
        return len(relation) <= 1
    if kind == "dep":
        seen: dict[tuple, tuple] = {}
        for t in relation:
            if seen.setdefault(t[:n_left], t[n_left:]) != t[n_left:]:
                return False
        return True
    left = {t[:n_left] for t in relation}
    right = {t[n_left:] for t in relation}
    if kind == "inc":
        return left <= right
    if kind == "ind":
        return relation == {a + c for a in left for c in right}
    if kind == "anon":
        # every left value has at least two distinct right values
        groups: dict[tuple, set] = {}
        for t in relation:
            groups.setdefault(t[:n_left], set()).add(t[n_left:])
        return all(len(vals) >= 2 for vals in groups.values())
    raise ValueError(f"unknown builtin kind {kind!r}")


def dep_class_sentence(dep: Dependency, rel_name: str = "R") -> Formula:
    """The team sentence forall v. (!R(v) | (R(v) & D(v))), true in a model
    exactly when the model's interpretation of R is in the dependency."""
    vs = tuple(f"v{i + 1}" for i in range(dep.arity))
    terms = tuple(Var(v) for v in vs)
    body: Formula = Or(RelAtom(rel_name, terms, positive=False),
                       And(RelAtom(rel_name, terms), NamedDep(dep.name, vs)))
    for v in reversed(vs):
        body = Forall(v, body)
    return body


# --- Bounded checkers ---

@dataclass(frozen=True)
class Verdict:
    """Outcome of a bounded exhaustive check; never a claim beyond its bound."""

    passed: bool
    bound: str
    counterexample: dict | None = None

    def __bool__(self):
        return self.passed


def _pool(size: int) -> list[Element]:
    return [f"e{i + 1}" for i in range(size)]


def _sorted_rel(r: Iterable) -> list[list[Element]]:
    return [list(t) for t in sorted(r)]


def check_domain_independence(dep: Dependency, max_domain: int = 3) -> Verdict:
    """Exhaustively compare membership across all pairs of domains up to the
    bound, over all relations living in both."""
    if max_domain < 1:
        raise DomainError("max_domain must be at least 1")
    pool = _pool(max_domain)
    domains = [c for size in range(1, max_domain + 1)
               for c in itertools.combinations(pool, size)]
    bound = f"max_domain={max_domain}"
    for dm in domains:
        for dn in domains:
            shared = tuple(sorted(set(dm) & set(dn)))
            if not shared and dep.arity:
                rels: Iterable = [frozenset()]
            else:
                rels = enumerate_relations(shared, dep.arity)
            for r in rels:
                if dep_holds(dep, dm, r) != dep_holds(dep, dn, r):
                    return Verdict(False, bound, {
                        "domain_m": list(dm), "domain_n": list(dn),
                        "relation": _sorted_rel(r)})
    return Verdict(True, bound)


def check_closure_properties(dep: Dependency, max_domain: int = 3) -> dict[str, Verdict]:
    """Bounded exhaustive report: downwards / upwards / union closure over
    canonical domains, plus isomorphism closure (same-domain permutations
    and transport to a disjoint copy)."""
    bound = f"max_domain={max_domain}"
    report = {
        "downwards": Verdict(True, bound),
        "upwards": Verdict(True, bound),
        "union_closed": Verdict(True, bound),
        "isomorphism_closed": Verdict(True, bound),
    }
    done = set()
    for size in range(1, max_domain + 1):
        domain = _pool(size)
        rels = [r for r in enumerate_relations(domain, dep.arity)]
        holds = {r: dep_holds(dep, domain, r) for r in rels}
        members = [r for r in rels if holds[r]]
        for r in members:
            if "downwards" not in done:
                for s in _subrelations(r):
                    if not holds[s]:
                        report["downwards"] = Verdict(False, bound, {
                            "domain": domain, "relation": _sorted_rel(r),
                            "subrelation": _sorted_rel(s)})
                        done.add("downwards")
                        break
            if "upwards" not in done:
                full = frozenset(itertools.product(domain, repeat=dep.arity))
                for s in _superrelations(r, full):
                    if not holds[s]:
                        report["upwards"] = Verdict(False, bound, {
                            "domain": domain, "relation": _sorted_rel(r),
                            "superrelation": _sorted_rel(s)})
                        done.add("upwards")
                        break
        if "union_closed" not in done:
            # Pairwise closure implies closure under finite nonempty unions.
            for r1, r2 in itertools.combinations_with_replacement(members, 2):
                if not holds.get(r1 | r2, dep_holds(dep, domain, r1 | r2)):
                    report["union_closed"] = Verdict(False, bound, {
                        "domain": domain, "relation_1": _sorted_rel(r1),
                        "relation_2": _sorted_rel(r2),
                        "union": _sorted_rel(r1 | r2)})
                    done.add("union_closed")
                    break
        if "isomorphism_closed" not in done:
            copy = [f"f{i + 1}" for i in range(size)]
            bijections = [dict(zip(domain, p)) for p in itertools.permutations(domain)]
            bijections.append(dict(zip(domain, copy)))
            for r in rels:
                for f in bijections:
                    image = frozenset(tuple(f[e] for e in t) for t in r)
                    target = sorted(set(f.values()))
                    if holds[r] != dep_holds(dep, target, image):
                        report["isomorphism_closed"] = Verdict(False, bound, {
                            "domain": domain, "relation": _sorted_rel(r),
                            "map": dict(sorted(f.items())),
                            "image": _sorted_rel(image)})
                        done.add("isomorphism_closed")
                        break
                if "isomorphism_closed" in done:
                    break
    if dep.kind == "extensional":
        dep._iso_check = report["isomorphism_closed"].passed
    return report


def _subrelations(r: frozenset) -> Iterator[frozenset]:
    elems = sorted(r)
    for size in range(len(elems)):
        for combo in itertools.combinations(elems, size):
            yield frozenset(combo)


def _superrelations(r: frozenset, full: frozenset) -> Iterator[frozenset]:
    extra = sorted(full - r)
    for size in range(1, len(extra) + 1):
        for combo in itertools.combinations(extra, size):
            yield r | frozenset(combo)


def check_union_chain_preservation(dep: Dependency, domain: Sequence[Element],
                                   chain: Sequence[Iterable[Sequence[Element]]]) -> Verdict:
    """If the dependency holds on every link of an inclusion chain it must
    hold on the union of the chain.

    For a finite chain the union equals the last link, so a counterexample
    can only arise from an incoherent dependency implementation; the check
    is a regression guard mirroring the infinite-chain preservation law.
    """
    rels = [_canon_rel(r) for r in chain]
    if not rels:
        raise DomainError("empty chain")
    for a, b in zip(rels, rels[1:]):
        if not a <= b:
            raise DomainError("not a chain: links must be ordered by inclusion")
    bound = f"chain_length={len(rels)}"
    if not all(dep_holds(dep, domain, r) for r in rels):
        return Verdict(True, bound)  # premise fails; nothing to preserve
    union = frozenset().union(*rels)
    if dep_holds(dep, domain, union):
        return Verdict(True, bound)
    return Verdict(False, bound, {
        "domain": list(domain), "chain": [_sorted_rel(r) for r in rels],
        "union": _sorted_rel(union)})


def check_hom_preservation(dep: Dependency, sub: RelStructure,
                           sup: RelStructure) -> Verdict:
    """If a retraction homomorphism exists and the dependency holds on the
    superstructure, it must hold on the substructure."""
    if not is_substructure(sub, sup):
        raise DomainError("not a substructure")
    bound = f"|B|={len(sup.domain)}"
    has_hom = next(enumerate_retraction_homs(sub, sup), None) is not None
    if not has_hom or not dep_holds(dep, sup.domain, sup.tuples):
        return Verdict(True, bound)
    if dep_holds(dep, sub.domain, sub.tuples):
        return Verdict(True, bound)
    return Verdict(False, bound, {
        "sub_domain": list(sub.domain), "sub_relation": _sorted_rel(sub.tuples),
        "sup_domain": list(sup.domain), "sup_relation": _sorted_rel(sup.tuples),
        "hom": dict(sorted(next(enumerate_retraction_homs(sub, sup)).items()))})


def search_hom_counterexample(dep: Dependency, max_b: int = 2) -> dict | None:
    """First (in canonical order) substructure pair witnessing a failure of
    retraction-homomorphism preservation, or None."""
    for size_b in range(1, max_b + 1):
        domain_b = _pool(size_b)
        for s in enumerate_relations(domain_b, dep.arity):
            sup = RelStructure.make(domain_b, dep.arity, s)
            for size_a in range(1, size_b + 1):
                for domain_a in itertools.combinations(domain_b, size_a):
                    aset = set(domain_a)
                    trace = {t for t in s if all(e in aset for e in t)}
                    sub = RelStructure.make(domain_a, dep.arity, trace)
                    verdict = check_hom_preservation(dep, sub, sup)
                    if not verdict.passed:
                        return verdict.counterexample
    return None
