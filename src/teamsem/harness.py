"""Brute-force oracles, instance generators, and the executable model
constructions: the indexed-chain sentence and the parity models.

Every oracle here is an independent code path: none of them call the team
evaluator, so they can arbitrate its verdicts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .dependencies import (Dependency, Registry, Verdict, antisymmetry_egd,
                           dep_holds)
from .errors import DomainError, ValidationError
from .structures import (Element, RelStructure, Structure, Team,
                         enumerate_relations)
from . import syntax
from .syntax import (And, BuiltinAtom, ConstSym, Eq, Exists, Forall,
                     Formula, GlobalOr, Hook, NamedDep, Or, RelAtom, USentence,
                     Var, conj, free_vars, relation_symbols, to_text)
from .tarski import tarski_sentence
from .teameval import team_eval


# --- Instance enumeration ---

def enumerate_instances(max_domain: int, arity: int,
                        variables: Sequence[str] = ("x", "y"),
                        rel_name: str = "R") -> Iterator[tuple[Structure, Team]]:
    """All (structure, team) pairs with a single relation symbol, domains
    e1..em for m up to the bound, every relation of the given arity, and
    every team over the variables.  Raw exhaustive enumeration in a fixed
    order; no isomorphism reduction."""
    if max_domain < 1 or arity < 1:
        raise DomainError("bounds must be at least 1")
    variables = tuple(variables)
    for m in range(1, max_domain + 1):
        domain = [f"e{i + 1}" for i in range(m)]
        for rel in enumerate_relations(domain, arity):
            structure = Structure(domain, {}, {rel_name: (arity, rel)})
            for team in enumerate_teams(domain, variables):
                yield structure, team


def enumerate_teams(domain: Sequence[Element],
                    variables: Sequence[str]) -> Iterator[Team]:
    """All teams over the variables with values in the domain, smallest
    bitmask first over the sorted assignment list."""
    variables = tuple(variables)
    rows = sorted(itertools.product(sorted(domain), repeat=len(variables)))
    for mask in range(1 << len(rows)):
        yield Team(variables, [rows[i] for i in range(len(rows)) if mask >> i & 1])


def _structure_space(max_domain: int, symbols: dict[str, int]) -> Iterator[Structure]:
    names = sorted(symbols)
    for m in range(1, max_domain + 1):
        domain = [f"e{i + 1}" for i in range(m)]
        spaces = [list(enumerate_relations(domain, symbols[n])) for n in names]
        for combo in itertools.product(*spaces):
            yield Structure(domain, {},
                            {n: (symbols[n], r) for n, r in zip(names, combo)})


def check_semantic_equivalence(phi: Formula, psi: Formula, max_domain: int = 3,
                               strategy: str = "memoized",
                               registry: Registry | None = None) -> Verdict:
    """Exhaustive comparison of team satisfaction over all structures
    interpreting the mentioned relation symbols and all teams over the
    shared free variables, up to the domain bound."""
    symbols = dict(relation_symbols(phi))
    for name, k in relation_symbols(psi).items():
        if symbols.setdefault(name, k) != k:
            raise ValidationError(f"relation {name} used with mixed arities")
    variables = tuple(sorted(free_vars(phi) | free_vars(psi)))
    bound = f"max_domain={max_domain}"
    for structure in _structure_space(max_domain, symbols):
        for team in enumerate_teams(structure.domain, variables):
            a = team_eval(structure, team, phi, strategy, registry)
            b = team_eval(structure, team, psi, strategy, registry)
            if a != b:
                return Verdict(False, bound, {
                    "structure": repr(structure),
                    "team": repr(team),
                    "left": a, "right": b})
    return Verdict(True, bound)


# --- Seeded formula corpus ---

def fo_formula_corpus(count: int = 500, depth: int = 3, seed: int = 20260809,
                      variables: Sequence[str] = ("x", "y"),
                      rel_name: str = "E", rel_arity: int = 2,
                      include_hooks: bool = True) -> list[Formula]:
    """Deterministic pseudo-random NNF dependency-free formulas with free
    variables among the given ones, distinct modulo printing."""
    rng = random.Random(seed)
    fresh = ["z1", "z2", "z3"]

    def literal(scope: list[str]) -> Formula:
        kind = rng.randrange(4)
        if kind < 2:
            terms = tuple(Var(rng.choice(scope)) for _ in range(rel_arity))
            return RelAtom(rel_name, terms, positive=(kind == 0))
        return Eq(Var(rng.choice(scope)), Var(rng.choice(scope)),
                  positive=(kind == 2))

    def build(d: int, scope: list[str]) -> Formula:
        if d == 0:
            return literal(scope)
        choices = ["and", "or", "exists", "forall", "lit"]
        if include_hooks:
            choices.append("hook")
        kind = rng.choice(choices)
        if kind == "lit":
            return literal(scope)
        if kind in ("and", "or"):
            node = And if kind == "and" else Or
            return node(build(d - 1, scope), build(d - 1, scope))
        if kind == "hook":
            return Hook(build(d - 1, scope), build(d - 1, scope))
        var = rng.choice(fresh + list(variables))
        inner = scope if var in scope else scope + [var]
        node = Exists if kind == "exists" else Forall
        return node(var, build(d - 1, inner))

    seen: dict[str, Formula] = {}
    guard = 0
    while len(seen) < count:
        guard += 1
        if guard > 100 * count:
            raise RuntimeError("formula generator stalled")
        f = build(rng.randrange(1, depth + 1), list(variables))
        seen.setdefault(to_text(f), f)
    return [seen[k] for k in sorted(seen)][:count]


def hook_formula_corpus(count: int = 100, seed: int = 911,
                        variables: Sequence[str] = ("x", "y"),
                        rel_name: str = "E") -> list[Hook]:
    """Hook formulas with first-order guards and bodies."""
    base = fo_formula_corpus(2 * count, depth=2, seed=seed, variables=variables,
                             rel_name=rel_name, include_hooks=False)
    return [Hook(g, b) for g, b in zip(base[:count], base[count:2 * count])]


def guarded_forall_corpus(count: int = 40, seed: int = 16) -> list[Formula]:
    """Deterministic pseudo-random `forall v. (g ->> psi)` formulas, distinct
    modulo printing, with free variables among x, y.

    The signature is a binary E, a ternary T and the constant c.  The block
    has one or two variables and may shadow x.  The guard g is a DNF of
    literals, now and then with a quantified conjunct; most disjuncts carry
    a positive atom naming the whole block, the shape guarded-forall fusion
    reads, and the others exercise its fallback.  The body psi is a
    conjunction of builtin dependency atoms over the block and x, y.
    """
    rng = random.Random(seed)
    relations = (("E", 2), ("T", 3))

    def term(scope: list[str]):
        return ConstSym("c") if rng.random() < 0.15 else Var(rng.choice(scope))

    def naming_atom(block: list[str], scope: list[str]) -> Formula:
        name, arity = rng.choice(relations)
        terms = [term(scope) for _ in range(arity)]
        for v, i in zip(block, rng.sample(range(arity), len(block))):
            terms[i] = Var(v)
        return RelAtom(name, tuple(terms))

    def literal(scope: list[str]) -> Formula:
        kind = rng.randrange(5)
        if kind < 2:
            name, arity = rng.choice(relations)
            return RelAtom(name, tuple(term(scope) for _ in range(arity)),
                           positive=kind == 0)
        if kind < 4:
            return Eq(term(scope), term(scope), positive=kind == 2)
        return Exists("q", RelAtom("E", (Var(rng.choice(scope)), Var("q"))))

    def guard(block: list[str], scope: list[str]) -> Formula:
        out = None
        for _ in range(rng.randint(1, 2)):
            parts = [literal(scope) for _ in range(rng.randint(0, 2))]
            if rng.random() < 0.85 or not parts:
                parts.insert(rng.randint(0, len(parts)),
                             naming_atom(block, scope))
            d = conj(parts)
            if out is None:
                out = d
            else:
                out = (GlobalOr if rng.random() < 0.25 else Or)(out, d)
        return out

    def atom(scope: list[str]) -> Formula:
        kind = rng.choice(("dep", "const", "ne", "inc", "ind", "anon"))
        a, b = rng.choice(scope), rng.choice(scope)
        if kind in ("const", "ne"):
            return BuiltinAtom(kind, (a,))
        if kind == "dep" and rng.random() < 0.3:
            return BuiltinAtom("dep", (), (b,))
        return BuiltinAtom(kind, (a,), (b,))

    seen: dict[str, Formula] = {}
    guard_count = 0
    while len(seen) < count:
        guard_count += 1
        if guard_count > 100 * count:
            raise RuntimeError("formula generator stalled")
        block = rng.sample(["u", "w", "x"], rng.randint(1, 2))
        scope = sorted(set(block) | {"x", "y"})
        body: Formula = Hook(guard(block, scope),
                             conj([atom(scope) for _ in range(rng.randint(1, 2))]))
        for v in reversed(block):
            body = Forall(v, body)
        seen.setdefault(to_text(body), body)
    return [seen[k] for k in sorted(seen)]


# --- Indexed chains ---

@dataclass(frozen=True)
class ChainInstance:
    structure: Structure
    formula: Formula
    registry: Registry
    dependency: Dependency
    threshold: int
    chain: tuple[frozenset, ...]


def build_chain_instance(d: int, dep: Dependency,
                         chain: Sequence[Iterable[Sequence[Element]]],
                         base_domain: Sequence[Element]) -> ChainInstance:
    """A model indexing an inclusion chain of relations, plus the sentence

        exists i. (lt(i, d) & forall v. (S(i, v) ->> D:dep(v)))

    which holds exactly when some nonempty set of chain links with indices
    below the threshold has a union inside the dependency.  (For chains the
    union of the selected links is just the largest selected link.)"""
    rels = [frozenset(tuple(t) for t in r) for r in chain]
    if not rels:
        raise DomainError("empty chain")
    for a, b in zip(rels, rels[1:]):
        if not a <= b:
            raise DomainError("not a chain: links must be ordered by inclusion")
    if not 1 <= d <= len(rels):
        raise DomainError(f"threshold d={d} must lie in 1..{len(rels)}")
    base = sorted(set(base_domain))
    indices = [str(n) for n in range(1, len(rels) + 1)]
    if set(base) & set(indices):
        raise DomainError("base domain may not contain the index tokens")
    for r in rels:
        for t in r:
            if len(t) != dep.arity:
                raise DomainError(f"tuple {t} does not match arity {dep.arity}")
            if not set(base).issuperset(t):
                raise DomainError(f"tuple {t} leaves the base domain")
    domain = base + indices
    n_rel = {(i,) for i in indices}
    lt_rel = {(indices[i], indices[j])
              for i in range(len(indices)) for j in range(len(indices)) if i < j}
    s_rel = {(indices[n],) + t for n, r in enumerate(rels) for t in r}
    structure = Structure(domain, {"d": indices[d - 1]}, {
        "N": (1, n_rel), "lt": (2, lt_rel), "S": (1 + dep.arity, s_rel)})
    registry = Registry([dep])
    vs = tuple(f"v{i + 1}" for i in range(dep.arity))
    guard = RelAtom("S", (Var("i"),) + tuple(Var(v) for v in vs))
    body: Formula = Hook(guard, NamedDep(dep.name, vs))
    for v in reversed(vs):
        body = Forall(v, body)
    formula = Exists("i", And(RelAtom("lt", (Var("i"), ConstSym("d"))), body))
    return ChainInstance(structure, formula, registry, dep, d, tuple(rels))


def chain_oracle(instance: ChainInstance) -> bool:
    """Subset search; independent of the team evaluator.

    True when some nonempty family of links with indices strictly below the
    threshold has its union in the dependency."""
    below = list(range(1, instance.threshold))  # 1-based indices < d
    domain = instance.structure.domain
    for size in range(1, len(below) + 1):
        for combo in itertools.combinations(below, size):
            union = frozenset().union(*(instance.chain[n - 1] for n in combo))
            if dep_holds(instance.dependency, domain, union):
                return True
    return False


# --- Parity models ---

@dataclass(frozen=True)
class ParityInstance:
    structure: Structure
    formula: Formula
    registry: Registry
    dependency: Dependency
    ell: int


def build_parity_instance(ell: int) -> ParityInstance:
    """The chain-of-indices model whose satisfaction of the two-sided
    dependency sentence flips with the parity of the index count.

    Index i carries a private pair p_i, q_i; the ternary relations Q and T
    attach to i the one-step cycles {(p_i, q_i)} and {(q_i, p_i)}.  The
    antisymmetry dependency rejects a union exactly when it picks up both
    halves of some pair, so the sentence amounts to 2-coloring the index
    path with its endpoints forced apart: possible exactly for even length.
    """
    if ell < 2:
        raise DomainError("need at least two indices")
    indices = [str(i) for i in range(1, ell + 1)]
    pairs = [(f"p{i}", f"q{i}") for i in range(1, ell + 1)]
    domain = indices + [e for pq in pairs for e in pq]
    n_rel = {(i,) for i in indices}
    e_rel = {(indices[i], indices[i + 1]) for i in range(ell - 1)}
    q_rel = {(indices[i], pairs[i][0], pairs[i][1]) for i in range(ell)}
    t_rel = {(indices[i], pairs[i][1], pairs[i][0]) for i in range(ell)}
    structure = Structure(domain, {"one": "1", "end": str(ell)}, {
        "N": (1, n_rel), "E": (2, e_rel), "Q": (3, q_rel), "T": (3, t_rel)})
    dep = antisymmetry_egd()
    registry = Registry([dep])

    one = ConstSym("one")
    end = ConstSym("end")
    n, np, v, vp = Var("n"), Var("np"), Var("v"), Var("vp")

    def guarded_dep(index_var, choice_var, z1, z2):
        guard = Or(And(Eq(choice_var, one), RelAtom("Q", (index_var, Var(z1), Var(z2)))),
                   And(Eq(choice_var, one, positive=False),
                       RelAtom("T", (index_var, Var(z1), Var(z2)))))
        return Forall(z1, Forall(z2, Hook(guard, NamedDep(dep.name, (z1, z2)))))

    inner = conj([
        Hook(Eq(n, one), Eq(v, one)),
        Hook(Eq(n, end), Eq(v, one, positive=False)),
        Hook(RelAtom("E", (n, np)),
             And(Hook(Eq(v, one), Eq(vp, one, positive=False)),
                 Hook(Eq(v, one, positive=False), Eq(vp, one)))),
        guarded_dep(n, v, "z1", "z2"),
        guarded_dep(np, vp, "w1", "w2"),
        Hook(Eq(n, np), Eq(v, vp)),
    ])
    formula = Forall("n", Forall("np", Hook(
        And(RelAtom("N", (n,)), RelAtom("N", (np,))),
        Exists("v", Exists("vp", inner)))))
    return ParityInstance(structure, formula, registry, dep, ell)


def parity_oracle(ell: int) -> bool:
    """Index-set search, straight from the intended witness shape: a split
    of 1..ell into disjoint I, J covering everything, with 1 in I, ell in
    J, and membership alternating along the successor chain."""
    universe = list(range(1, ell + 1))
    for bits in range(1 << ell):
        i_set = {universe[k] for k in range(ell) if bits >> k & 1}
        j_set = set(universe) - i_set
        if 1 not in i_set or ell not in j_set:
            continue
        ok = True
        for i in universe[:-1]:
            if i in i_set and (i + 1) not in j_set:
                ok = False
                break
            if i in j_set and (i + 1) not in i_set:
                ok = False
                break
        if ok:
            return True
    return False


# --- Even cardinality ---

def even_cardinality_sentence() -> Formula:
    """The dependence-logic sentence asserting a fixed-point-free involution:
    a function y of x (and its mirror w of z) that is injective, symmetric,
    and never maps a point to itself.  Such a pairing exists exactly on
    even-size domains."""
    return syntax.parse_formula(
        "forall x. exists y. forall z. exists w. ("
        "dep(x;y) & dep(z;w)"
        " & ((x=z & y!=w) ->> x!=x)"
        " & ((x!=z & y=w) ->> x!=x)"
        " & ((x=w & y!=z) ->> x!=x)"
        " & x!=y)")


def involution_oracle(size: int) -> bool:
    """Brute-force search for a fixed-point-free involution on 1..size."""
    points = list(range(size))
    for perm in itertools.permutations(points):
        if all(perm[perm[i]] == i and perm[i] != i for i in points):
            return True
    return False


# --- U-sentence transfer ---

def u_transfer_check(a_inst: RelStructure, b_inst: RelStructure,
                     catalogue: Sequence[USentence]) -> Verdict:
    """Report the catalogue sentences holding in the first structure but
    failing in the second."""
    if a_inst.arity != b_inst.arity:
        raise DomainError("arity mismatch between the two structures")
    violations = []
    for sentence in catalogue:
        if sentence.constants:
            raise ValidationError(
                "transfer checks run over the bare relational signature; "
                f"constants {list(sentence.constants)} are not interpreted")
        phi = sentence.to_formula()
        holds_a = tarski_sentence(a_inst.as_structure(sentence.rel_name), phi)
        holds_b = tarski_sentence(b_inst.as_structure(sentence.rel_name), phi)
        if holds_a and not holds_b:
            violations.append(to_text(phi))
    if violations:
        return Verdict(False, "finite", {"violations": violations})
    return Verdict(True, "finite")
