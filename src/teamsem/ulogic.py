"""U-sentence toolkit: conjunction closure, compilation into team formulas
over constancy and nonemptiness atoms, the whole-team-disjunction compiler,
and the finite U-embedding check.

A U-sentence  exists x. (eta & forall y. (R(y) -> theta))  talks about a
single-relation structure (M, R).  Its compilation phi'(y) is a team
formula over the empty signature such that a team X satisfies phi'(y)
exactly when (M, X(y)) satisfies the sentence; the relation is smuggled in
as the projection of the team onto y.
"""

from __future__ import annotations

from typing import Sequence

from .dependencies import Verdict
from .errors import DomainError, ValidationError
from .structures import RelStructure, identity_type_of
from . import syntax
from .syntax import (And, BuiltinAtom, Eq, Exists, Forall, Formula,
                     GlobalOr, NamedDep, Or, RelAtom, USentence, Var,
                     all_var_names, children, conj, rebuild, to_nnf)


# --- Fresh names and capture-avoiding substitution ---

def _fresh(base: str, used: set[str]) -> str:
    """Deterministic fresh name: suffix counters, first free one wins."""
    if base not in used:
        return base
    i = 1
    while f"{base}_{i}" in used:
        i += 1
    return f"{base}_{i}"


def substitute_vars(phi: Formula, mapping: dict[str, syntax.Term],
                    avoid: frozenset[str] = frozenset()) -> Formula:
    """Replace free variables per the mapping, renaming bound variables
    (with deterministic suffix counters) wherever capture threatens."""
    avoid = frozenset(avoid) | all_var_names(phi) | \
        frozenset(t.name for t in mapping.values() if isinstance(t, Var))

    def term(t, env):
        if isinstance(t, Var):
            got = env.get(t.name)
            if got is not None:
                return got
        return t

    def dep_vars(names, env):
        out = []
        for name in names:
            got = env.get(name, Var(name))
            if not isinstance(got, Var):
                raise ValidationError(
                    f"cannot substitute the constant {got.name!r} into a "
                    f"dependency atom's variable tuple")
            out.append(got.name)
        return tuple(out)

    def walk(f: Formula, env: dict) -> Formula:
        if isinstance(f, RelAtom):
            return RelAtom(f.name, tuple(term(t, env) for t in f.terms), f.positive)
        if isinstance(f, Eq):
            return Eq(term(f.left, env), term(f.right, env), f.positive)
        if isinstance(f, BuiltinAtom):
            return BuiltinAtom(f.kind, dep_vars(f.left, env), dep_vars(f.right, env))
        if isinstance(f, NamedDep):
            return NamedDep(f.dep_name, dep_vars(f.vars, env))
        if isinstance(f, (Exists, Forall)):
            env = dict(env)
            env.pop(f.var, None)
            binder = f.var
            targets = {t.name for t in env.values() if isinstance(t, Var)}
            if binder in targets:
                nonlocal_used = set(avoid) | targets | set(env)
                binder = _fresh(f.var, nonlocal_used)
                env[f.var] = Var(binder)
            return type(f)(binder, walk(f.body, env))
        return rebuild(f, [walk(k, env) for k in children(f)])

    return walk(phi, {k: v for k, v in mapping.items()})


# --- Conjunction closure ---

def usentence_conjoin(a: USentence, b: USentence) -> USentence:
    """One U-sentence equivalent to the conjunction of two.

    The existential prefixes are concatenated after renaming apart, and the
    universal parts merge under a shared quantified tuple, so the guarded
    implications conjoin pointwise.
    """
    if a.rel_name != b.rel_name:
        raise ValidationError(f"relation symbols differ: {a.rel_name} vs {b.rel_name}")
    if a.rel_arity != b.rel_arity:
        raise ValidationError(
            f"universal prefixes must match the relation arity; "
            f"got {a.rel_arity} vs {b.rel_arity}")
    used = set(a.exists_vars) | set(a.forall_vars) | set(all_var_names(a.theta))
    for f in a.eta:
        used |= all_var_names(f)
    rename: dict[str, syntax.Term] = {}
    new_exists = []
    for v in b.exists_vars:
        nv = _fresh(v, used)
        used.add(nv)
        rename[v] = Var(nv)
        new_exists.append(nv)
    for v, target in zip(b.forall_vars, a.forall_vars):
        rename[v] = Var(target)
    eta_b = tuple(substitute_vars(f, rename) for f in b.eta)
    theta_b = substitute_vars(b.theta, rename)
    return USentence(
        exists_vars=a.exists_vars + tuple(new_exists),
        eta=a.eta + eta_b,
        forall_vars=a.forall_vars,
        theta=And(a.theta, theta_b),
        rel_name=a.rel_name,
        rel_arity=a.rel_arity,
        constants=tuple(sorted(set(a.constants) | set(b.constants))),
    )


# --- Compilation to team formulas ---

def usentence_translate(sentence: USentence) -> Formula:
    """Compile to a team formula over constancy and nonemptiness atoms.

    The existential witnesses become team constants (constancy atoms); each
    positive relation literal R(z) in eta becomes

        z = z  |  (ne(z) & z = y)

    whose lax split can absorb the whole team on the left while the right
    side pins a nonempty subteam witnessing that the value of z occurs in
    the projection X(y).  On the empty team that nonempty witness is
    unavailable, matching the failure of the sentence on an empty relation.
    """
    if sentence.constants:
        raise ValidationError(
            "translation targets the empty signature; constant symbols "
            f"{list(sentence.constants)} are not available")
    ys = sentence.forall_vars
    parts: list[Formula] = []
    if sentence.exists_vars:
        parts.append(BuiltinAtom("const", sentence.exists_vars))
    for lit in sentence.eta:
        if isinstance(lit, RelAtom):
            zs = tuple(t.name for t in lit.terms)
            left = conj([Eq(Var(z), Var(z)) for z in zs])
            right = conj([Eq(Var(z), Var(y)) for z, y in zip(zs, ys)])
            parts.append(Or(left, And(BuiltinAtom("ne", zs), right)))
        else:
            parts.append(lit)
    parts.append(to_nnf(sentence.theta))
    body = conj(parts)
    for v in reversed(sentence.exists_vars):
        body = Exists(v, body)
    syntax.validate_team_formula(body)
    return body


def disjunction_translate(sentences: Sequence[USentence]) -> Formula:
    """Whole-team disjunction of the individual compilations.

    All inputs must share the relation arity.  When their universal tuples
    differ by name they are renamed to a shared canonical tuple first; a
    single sentence compiles exactly as usentence_translate does.
    """
    if not sentences:
        raise ValidationError("need at least one U-sentence")
    arities = {s.rel_arity for s in sentences}
    if len(arities) != 1:
        raise DomainError(f"mixed relation arities {sorted(arities)}")
    tuples = {s.forall_vars for s in sentences}
    if len(tuples) == 1:
        ys = sentences[0].forall_vars
        renamed = list(sentences)
    else:
        k = arities.pop()
        ys = tuple(f"y{i + 1}" for i in range(k))
        renamed = [_rename_universal(s, ys) for s in sentences]
    out = usentence_translate(renamed[0])
    for s in renamed[1:]:
        out = GlobalOr(out, usentence_translate(s))
    return out


def _rename_universal(sentence: USentence, ys: tuple[str, ...]) -> USentence:
    used = set(sentence.exists_vars) | set(ys) | all_var_names(sentence.theta)
    for f in sentence.eta:
        used |= all_var_names(f)
    rename: dict[str, syntax.Term] = {}
    new_exists = []
    for v in sentence.exists_vars:
        if v in ys:
            nv = _fresh(v, used)
            used.add(nv)
            rename[v] = Var(nv)
            new_exists.append(nv)
        else:
            new_exists.append(v)
    for v, y in zip(sentence.forall_vars, ys):
        rename[v] = Var(y)
    return USentence(
        exists_vars=tuple(new_exists),
        eta=tuple(substitute_vars(f, rename) for f in sentence.eta),
        forall_vars=ys,
        theta=substitute_vars(sentence.theta, rename),
        rel_name=sentence.rel_name,
        rel_arity=sentence.rel_arity,
        constants=sentence.constants,
    )


# --- Compiler composition ---

def inline_dependency(host: Formula, dep_name: str, translation: Formula,
                      params: tuple[str, ...]) -> Formula:
    """Replace every D:dep_name(w) atom by the translation with its free
    parameter tuple renamed to w, bound variables freshened as needed."""
    host_names = all_var_names(host)

    def walk(f: Formula) -> Formula:
        if isinstance(f, NamedDep) and f.dep_name == dep_name:
            if len(f.vars) != len(params):
                raise DomainError(
                    f"dependency {dep_name} applied to {len(f.vars)} variables, "
                    f"translation has {len(params)} parameters")
            mapping = {p: Var(w) for p, w in zip(params, f.vars)}
            return substitute_vars(translation, mapping, avoid=host_names)
        return rebuild(f, [walk(k) for k in children(f)])

    return walk(host)


# --- Finite U-embedding check ---

def u_embedding_check(sub: RelStructure, sup: RelStructure) -> Verdict:
    """Decide the U-embedding conditions on finite structures.

    Condition 1 is the substructure relation (the smaller relation is the
    trace of the larger).  Condition 2 asks that universally guarded,
    relation-free properties with parameters transfer upward; over the
    empty signature a quantifier-free property can only constrain the
    equality pattern of a tuple against the parameters, and listing the
    whole smaller domain as parameters is the strongest choice.  So the
    check reduces to: every tuple of the larger relation must realize,
    relative to that list, an identity type already realized by some tuple
    of the smaller relation.

    For finite domains any tuple with elements outside the smaller domain
    has no matching type, so proper extensions always fail here; genuinely
    nontrivial U-embeddings need an infinite smaller structure.
    """
    if sub.arity != sup.arity:
        raise DomainError(f"arity mismatch: {sub.arity} vs {sup.arity}")
    a = set(sub.domain)
    if not a <= set(sup.domain):
        raise DomainError("domains are not nested")
    bound = f"|A|={len(sub.domain)},|B|={len(sup.domain)}"
    trace = {t for t in sup.tuples if a.issuperset(t)}
    if trace != sub.tuples:
        return Verdict(False, bound, {
            "condition": 1,
            "trace": sorted(list(t) for t in trace),
            "relation": sorted(list(t) for t in sub.tuples)})
    anchor = tuple(sub.domain)
    realized = {identity_type_of(r + anchor) for r in sub.tuples}
    for b in sorted(sup.tuples):
        if identity_type_of(b + anchor) not in realized:
            return Verdict(False, bound, {
                "condition": 2, "tuple": list(b),
                "parameters": list(anchor)})
    return Verdict(True, bound)
