"""Formula abstract syntax, parser, printer, NNF normalizer, and the
validators for the two syntactic sentence classes (DEDs and U-sentences).

Grammar (ASCII):

    formula  := quant | gdisj
    quant    := ("exists"|"forall") varlist "." formula
    gdisj    := disj ( "<|>" disj )*
    disj     := conj ( "|" conj )*
    conj     := unit ( "&" unit )*
    unit     := atom | "(" formula ")" | fo_unit "->>" unit
    atom     := ["!"] NAME "(" termlist ")" | term ("="|"!=") term
              | "dep(" varlist ";" varlist ")" | "const(" varlist ")"
              | "inc(" varlist ";" varlist ")" | "ind(" varlist ";" varlist ")"
              | "anon(" varlist ";" varlist ")" | "ne(" varlist ")"
              | "D:" NAME "(" varlist ")"

Precedence: "&" > "|" > "<|>"; quantifier scope extends maximally to the
right; the left operand of "->>" must be first order.  "dep(;w)" with an
empty left list denotes the constancy pattern.

First-order *sentences* (inputs to the DED / U-sentence validators) may
additionally use classical implication "->", which is rejected in team
formulas: team formulas must be in negation normal form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import FormulaSyntaxError, ValidationError


# --- Terms ---

@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"Var({self.name})"


@dataclass(frozen=True)
class ConstSym:
    """A constant symbol, resolved against a structure's constant map."""

    name: str

    def __repr__(self):
        return f"ConstSym({self.name})"


Term = Var | ConstSym


# --- Formula nodes ---

class Formula:
    """Base class for all formula nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class RelAtom(Formula):
    name: str
    terms: tuple[Term, ...]
    positive: bool = True


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term
    positive: bool = True


@dataclass(frozen=True)
class Not(Formula):
    """General negation; only valid on first-order subformulas.

    Not parseable from the team grammar (which admits "!" on relational
    atoms only); exists so that programmatic formulas can be normalized
    through to_nnf.
    """

    body: Formula


@dataclass(frozen=True)
class Implies(Formula):
    """Classical material implication; first-order sentences only."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction: lax team split in team semantics, classical in Tarskian."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class GlobalOr(Formula):
    """Whole-team disjunction: either side must hold on the full team."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Hook(Formula):
    """guard ->> body: body must hold on the subteam of rows satisfying guard.

    The guard is a first-order formula in negation normal form.
    """

    guard: Formula
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


# Builtin dependency atom kinds.  The unsplit kinds take one variable list,
# the others two lists separated by ";".
BUILTIN_KINDS = ("dep", "const", "inc", "ind", "anon", "ne")
UNSPLIT_KINDS = ("const", "ne")


@dataclass(frozen=True)
class BuiltinAtom(Formula):
    """kind(left;right), or kind(left) for the unsplit kinds.

    A team satisfies it exactly when its projection onto left + right lies
    in the class dependencies.builtin_holds(kind, len(left), .) defines:

      dep(v;w)   rows agreeing on v agree on w; empty v means constancy
      const(w)   all rows agree on w
      inc(v;w)   the v-projection is contained in the w-projection
      ind(v;w)   the vw-projection is the product of the two projections
      anon(v;w)  every row has a partner agreeing on v and differing on w
      ne(v)      the v-projection is nonempty
    """

    kind: str
    left: tuple[str, ...]
    right: tuple[str, ...] = ()

    def __post_init__(self):
        # the shapes the parser accepts, so to_text round-trips
        if self.kind not in BUILTIN_KINDS:
            raise ValidationError(f"unknown builtin atom kind {self.kind!r}")
        if not self.left and self.kind != "dep":
            raise ValidationError(f"{self.kind} needs a nonempty first "
                                  "variable list")
        if self.kind in UNSPLIT_KINDS:
            if self.right:
                raise ValidationError(f"{self.kind} takes one variable list")
        elif not self.right:
            raise ValidationError(f"{self.kind} needs a variable after ';'")
        if self.kind == "inc" and len(self.left) != len(self.right):
            raise ValidationError("inc takes variable tuples of equal length")


@dataclass(frozen=True)
class NamedDep(Formula):
    """D:name(v): a registered generalized dependency applied to v."""

    dep_name: str
    vars: tuple[str, ...]


_DEPENDENCY_ATOMS = (BuiltinAtom, NamedDep)


# --- Tree helpers ---

def conj(parts: Sequence[Formula]) -> Formula:
    """Left-associated conjunction of one or more formulas."""
    if not parts:
        raise ValueError("empty conjunction has no canonical node")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts: Sequence[Formula]) -> Formula:
    if not parts:
        raise ValueError("empty disjunction has no canonical node")
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def conjuncts(phi: Formula) -> list[Formula]:
    """Flatten a left- or right-nested conjunction into its conjunct list."""
    if isinstance(phi, And):
        return conjuncts(phi.left) + conjuncts(phi.right)
    return [phi]


def disjuncts_of(phi: Formula) -> list[Formula]:
    if isinstance(phi, Or):
        return disjuncts_of(phi.left) + disjuncts_of(phi.right)
    return [phi]


# --- Generic traversal ---
#
# One table, keyed on the node type, lists each node's formula children in
# printing order.  Walks that treat most node types alike dispatch through
# it; code that gives each node its own meaning (the Tarski kernel, the
# printer, the evaluator's rules) keeps its own dispatch.

def _no_children(phi: Formula) -> tuple[()]:
    return ()


def _body(phi: Formula) -> tuple[Formula]:
    return (phi.body,)


_left_right = attrgetter("left", "right")

_CHILDREN = {
    RelAtom: _no_children, Eq: _no_children,
    BuiltinAtom: _no_children, NamedDep: _no_children,
    Not: _body, Exists: _body, Forall: _body,
    And: _left_right, Or: _left_right, GlobalOr: _left_right,
    Implies: _left_right, Hook: attrgetter("guard", "body"),
}

_BINDERS = (Exists, Forall)


def children(phi: Formula) -> tuple[Formula, ...]:
    """The formula children of a node in printing order; () for atoms."""
    try:
        get = _CHILDREN[type(phi)]
    except KeyError:
        raise TypeError(f"not a formula: {phi!r}") from None
    return get(phi)


def rebuild(phi: Formula, kids: Sequence[Formula]) -> Formula:
    """A node of phi's type and fields with its children replaced by kids,
    given in children() order."""
    if not kids:
        return phi
    if type(phi) in _BINDERS:
        return type(phi)(phi.var, *kids)
    return type(phi)(*kids)


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Every node of phi, phi first, depth first and left to right."""
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(reversed(children(f)))


def _terms(phi: Formula) -> tuple[Term, ...]:
    """The terms of a literal; () for every other node."""
    if type(phi) is RelAtom:
        return phi.terms
    if type(phi) is Eq:
        return (phi.left, phi.right)
    return ()


def _literal_vars(phi: Formula) -> frozenset[str]:
    return frozenset([t.name for t in _terms(phi) if isinstance(t, Var)])


# The variables each kind of atom mentions.
_ATOM_VARS = {
    RelAtom: _literal_vars, Eq: _literal_vars,
    BuiltinAtom: lambda phi: frozenset(phi.left + phi.right),
    NamedDep: lambda phi: frozenset(phi.vars),
}


def atom_vars(phi: Formula) -> frozenset[str]:
    """The variables an atom mentions; empty for every other node."""
    get = _ATOM_VARS.get(type(phi))
    return frozenset() if get is None else get(phi)


def free_vars(phi: Formula) -> frozenset[str]:
    get = _ATOM_VARS.get(type(phi))
    if get is not None:
        return get(phi)
    if type(phi) in _BINDERS:
        return free_vars(phi.body) - {phi.var}
    out = frozenset()
    for kid in children(phi):
        out |= free_vars(kid)
    return out


def all_var_names(phi: Formula) -> frozenset[str]:
    """Every variable name occurring anywhere, bound or free."""
    names: set[str] = set()
    for f in subformulas(phi):
        names |= atom_vars(f)
        if type(f) in _BINDERS:
            names.add(f.var)
    return frozenset(names)


def constant_symbols(phi: Formula) -> frozenset[str]:
    return frozenset(t.name for f in subformulas(phi) for t in _terms(f)
                     if isinstance(t, ConstSym))


def relation_symbols(phi: Formula) -> dict[str, int]:
    """Relation names with arities; raises on inconsistent use."""
    out: dict[str, int] = {}
    for f in subformulas(phi):
        if type(f) is RelAtom:
            k = len(f.terms)
            if out.setdefault(f.name, k) != k:
                raise ValidationError(f"relation {f.name} used with mixed arities")
    return out


def has_dependency_atoms(phi: Formula) -> bool:
    return (isinstance(phi, _DEPENDENCY_ATOMS)
            or any(map(has_dependency_atoms, children(phi))))


def validate_team_formula(phi: Formula) -> None:
    """Enforce the NNF invariant for team formulas.

    Negation may appear only on relational atoms and as inequality;
    dependency atoms are never negated; hook guards are first order and
    themselves NNF; Implies does not occur.
    """
    if type(phi) is Not:
        raise TypeError("team formulas must be in negation normal form "
                        f"(found general negation over {to_text(phi.body)})")
    if type(phi) is Implies:
        raise TypeError("classical implication is not a team connective; "
                        "normalize with to_nnf or use the hook ->>")
    if type(phi) is Hook and has_dependency_atoms(phi.guard):
        raise TypeError("hook guard must be first order (dependency atom found)")
    for kid in children(phi):
        validate_team_formula(kid)


# --- Negation normal form ---

def to_nnf(phi: Formula) -> Formula:
    """Push negations down to literals and expand classical implications.

    Tarski-equivalent on first-order fragments.  Negation over a subformula
    containing a dependency atom has no meaning here and raises TypeError.
    """
    if type(phi) is Implies:
        return Or(_nnf_neg(phi.left), to_nnf(phi.right))
    if type(phi) is Not:
        return _nnf_neg(phi.body)
    return rebuild(phi, [to_nnf(k) for k in children(phi)])


def _nnf_neg(phi: Formula) -> Formula:
    if isinstance(phi, RelAtom):
        return RelAtom(phi.name, phi.terms, not phi.positive)
    if isinstance(phi, Eq):
        return Eq(phi.left, phi.right, not phi.positive)
    if isinstance(phi, Not):
        return to_nnf(phi.body)
    if isinstance(phi, And):
        return Or(_nnf_neg(phi.left), _nnf_neg(phi.right))
    if isinstance(phi, Or):
        return And(_nnf_neg(phi.left), _nnf_neg(phi.right))
    if isinstance(phi, Implies):
        return And(to_nnf(phi.left), _nnf_neg(phi.right))
    if isinstance(phi, Exists):
        return Forall(phi.var, _nnf_neg(phi.body))
    if isinstance(phi, Forall):
        return Exists(phi.var, _nnf_neg(phi.body))
    if isinstance(phi, Hook):
        # guard ->> body is first order when the body is; negate the
        # desugared form neg(guard) | (guard & body).
        if has_dependency_atoms(phi.body):
            raise TypeError("cannot negate a hook whose body has dependency atoms")
        return And(to_nnf(phi.guard), _nnf_neg(phi.body))
    if isinstance(phi, _DEPENDENCY_ATOMS):
        raise TypeError(f"cannot negate a dependency atom: {to_text(phi)}")
    if isinstance(phi, GlobalOr):
        raise TypeError("cannot negate a global disjunction")
    raise TypeError(f"not a formula: {phi!r}")


def nnf_negate(phi: Formula) -> Formula:
    """NNF formula equivalent (in Tarskian terms) to the negation of phi."""
    return _nnf_neg(phi)


def hook_desugared(phi: Hook) -> Formula:
    """neg(guard) | (guard & body), the splitting form of the hook."""
    return Or(nnf_negate(phi.guard), And(phi.guard, phi.body))


# --- Printer ---

_LVL_FORMULA = 0   # quantifiers, implication
_LVL_GDISJ = 1
_LVL_DISJ = 2
_LVL_CONJ = 3
_LVL_UNIT = 4


def _term_text(t: Term) -> str:
    return t.name


def _varlist(vs: Iterable[str]) -> str:
    return ",".join(vs)


def to_text(phi: Formula) -> str:
    """Render a formula in the concrete grammar; parse(to_text(f)) == f."""
    return _print(phi, _LVL_FORMULA)


def _print(phi: Formula, need: int) -> str:
    text, level = _print_node(phi)
    if level < need:
        return f"({text})"
    return text


def _print_node(phi: Formula) -> tuple[str, int]:
    if isinstance(phi, RelAtom):
        bang = "" if phi.positive else "!"
        args = ",".join(_term_text(t) for t in phi.terms)
        return f"{bang}{phi.name}({args})", _LVL_UNIT
    if isinstance(phi, Eq):
        op = "=" if phi.positive else "!="
        return f"{_term_text(phi.left)}{op}{_term_text(phi.right)}", _LVL_UNIT
    if isinstance(phi, BuiltinAtom):
        if phi.kind in UNSPLIT_KINDS:
            return f"{phi.kind}({_varlist(phi.left)})", _LVL_UNIT
        return f"{phi.kind}({_varlist(phi.left)};{_varlist(phi.right)})", _LVL_UNIT
    if isinstance(phi, NamedDep):
        return f"D:{phi.dep_name}({_varlist(phi.vars)})", _LVL_UNIT
    if isinstance(phi, And):
        return f"{_print(phi.left, _LVL_CONJ)} & {_print(phi.right, _LVL_UNIT)}", _LVL_CONJ
    if isinstance(phi, Or):
        return f"{_print(phi.left, _LVL_DISJ)} | {_print(phi.right, _LVL_CONJ)}", _LVL_DISJ
    if isinstance(phi, GlobalOr):
        return f"{_print(phi.left, _LVL_GDISJ)} <|> {_print(phi.right, _LVL_DISJ)}", _LVL_GDISJ
    if isinstance(phi, Hook):
        # The left operand of ->> parses only as an atom or a parenthesized
        # formula; the right operand is a unit, so hooks chain to the right.
        left, llevel = _print_node(phi.guard)
        if llevel < _LVL_UNIT or isinstance(phi.guard, Hook):
            left = f"({left})"
        return f"{left} ->> {_print(phi.body, _LVL_UNIT)}", _LVL_UNIT
    if isinstance(phi, (Exists, Forall)):
        names = []
        body = phi
        kind = type(phi)
        while isinstance(body, kind):
            names.append(body.var)
            body = body.body
        q = "exists" if kind is Exists else "forall"
        return f"{q} {_varlist(names)}. {_print(body, _LVL_FORMULA)}", _LVL_FORMULA
    if isinstance(phi, Implies):
        return f"{_print(phi.left, _LVL_GDISJ)} -> {_print(phi.right, _LVL_FORMULA)}", _LVL_FORMULA
    if isinstance(phi, Not):
        return f"!({to_text(phi.body)})", _LVL_UNIT
    raise TypeError(f"not a formula: {phi!r}")


# --- Tokenizer / parser ---

_TOKEN_RE = re.compile(
    r"\s*(<\|>|->>|->|!=|D:|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[()&|!=.,;])"
)


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, registry=None, constants: Iterable[str] = (),
                 allow_implies: bool = False):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.registry = registry
        self.constants = frozenset(constants)
        self.allow_implies = allow_implies

    # token plumbing
    def _peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _here(self) -> int:
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else -1

    def _next(self) -> str:
        if self.pos >= len(self.tokens):
            raise FormulaSyntaxError("unexpected end of input")
        tok = self.tokens[self.pos][0]
        self.pos += 1
        return tok

    def _expect(self, tok: str) -> None:
        got = self._peek()
        if got != tok:
            raise FormulaSyntaxError(f"expected {tok!r}, found {got!r}", self._here())
        self.pos += 1

    def _name(self, what="name") -> str:
        tok = self._peek()
        if tok is None or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+", tok):
            raise FormulaSyntaxError(f"expected {what}, found {tok!r}", self._here())
        self.pos += 1
        return tok

    # grammar
    def parse(self) -> Formula:
        phi = self.formula()
        if self.pos < len(self.tokens):
            raise FormulaSyntaxError(f"trailing input {self._peek()!r}", self._here())
        return phi

    def formula(self) -> Formula:
        if self._peek() in ("exists", "forall"):
            return self.quant()
        phi = self.gdisj()
        if self._peek() == "->":
            where = self._here()
            if not self.allow_implies:
                raise FormulaSyntaxError(
                    "'->' is only allowed in first-order sentences; "
                    "team formulas use the hook '->>'", where)
            self._next()
            return Implies(phi, self.formula())
        return phi

    def quant(self) -> Formula:
        kind = self._next()
        names = [self._name("variable")]
        while self._peek() == ",":
            self._next()
            names.append(self._name("variable"))
        self._expect(".")
        body = self.formula()
        node = Exists if kind == "exists" else Forall
        for name in reversed(names):
            body = node(name, body)
        return body

    def gdisj(self) -> Formula:
        phi = self.disj()
        while self._peek() == "<|>":
            self._next()
            phi = GlobalOr(phi, self.disj())
        return phi

    def disj(self) -> Formula:
        phi = self.conj()
        while self._peek() == "|":
            self._next()
            phi = Or(phi, self.conj())
        return phi

    def conj(self) -> Formula:
        phi = self.unit()
        while self._peek() == "&":
            self._next()
            phi = And(phi, self.unit())
        return phi

    def unit(self) -> Formula:
        where = self._here()
        if self._peek() in ("exists", "forall"):
            # Scope extends maximally right within the enclosing group.
            return self.quant()
        if self._peek() == "(":
            self._next()
            phi = self.formula()
            self._expect(")")
        else:
            phi = self.atom()
        if self._peek() == "->>":
            self._next()
            if has_dependency_atoms(phi):
                raise FormulaSyntaxError(
                    "left operand of '->>' must be first order", where)
            if isinstance(phi, (Not, Implies)):
                raise FormulaSyntaxError(
                    "left operand of '->>' must be in negation normal form", where)
            return Hook(phi, self.unit())
        return phi

    def atom(self) -> Formula:
        tok = self._peek()
        where = self._here()
        if tok == "!":
            self._next()
            name = self._name("relation name")
            if name in BUILTIN_KINDS or self._peek() != "(":
                raise FormulaSyntaxError(
                    "'!' applies to relational atoms only "
                    "(dependency atoms cannot be negated)", where)
            return self.rel_atom(name, positive=False)
        if tok == "D:":
            self._next()
            name = self._name("dependency name")
            self._expect("(")
            args = self.varlist()
            self._expect(")")
            arity = self._dep_arity(name, where)
            if arity is not None and arity != len(args):
                raise FormulaSyntaxError(
                    f"dependency {name} has arity {arity}, got {len(args)} variables",
                    where)
            return NamedDep(name, args)
        if tok in BUILTIN_KINDS and self._lookahead_is("("):
            return self.builtin_atom()
        # term (= | !=) term, or a relational atom
        left = self._term()
        if isinstance(left, (Var, ConstSym)) and self._peek() == "(":
            return self.rel_atom(left.name, positive=True)
        op = self._next()
        if op not in ("=", "!="):
            raise FormulaSyntaxError(f"expected '=' or '!=', found {op!r}", where)
        right = self._term()
        return Eq(left, right, positive=(op == "="))

    def _lookahead_is(self, tok: str) -> bool:
        return self.pos + 1 < len(self.tokens) and self.tokens[self.pos + 1][0] == tok

    def rel_atom(self, name: str, positive: bool) -> Formula:
        self._expect("(")
        terms = [self._term()]
        while self._peek() == ",":
            self._next()
            terms.append(self._term())
        self._expect(")")
        return RelAtom(name, tuple(terms), positive)

    def builtin_atom(self) -> Formula:
        kind = self._next()
        self._expect("(")
        where = self._here()
        left = self.varlist(allow_empty=kind == "dep")
        right: tuple[str, ...] = ()
        if kind not in UNSPLIT_KINDS:
            self._expect(";")
            right = self.varlist()
        self._expect(")")
        if kind == "inc" and len(left) != len(right):
            raise FormulaSyntaxError(
                "inc takes variable tuples of equal length", where)
        return BuiltinAtom(kind, left, right)

    def varlist(self, allow_empty: bool = False) -> tuple[str, ...]:
        if allow_empty and self._peek() in (";", ")"):
            return ()
        names = [self._name("variable")]
        while self._peek() == ",":
            self._next()
            names.append(self._name("variable"))
        return tuple(names)

    def _term(self) -> Term:
        name = self._name("term")
        if name in self.constants:
            return ConstSym(name)
        return Var(name)

    def _dep_arity(self, name: str, where: int) -> int | None:
        if self.registry is None:
            raise FormulaSyntaxError(
                f"unknown dependency name {name!r} (no registry supplied)", where)
        arity = None
        if hasattr(self.registry, "arity_of"):
            arity = self.registry.arity_of(name)
        elif isinstance(self.registry, Mapping):
            dep = self.registry.get(name)
            arity = getattr(dep, "arity", dep)
        if arity is None:
            raise FormulaSyntaxError(f"unknown dependency name {name!r}", where)
        return int(arity)


def parse_formula(text: str, registry=None, constants: Iterable[str] = ()) -> Formula:
    """Parse a team formula; the result satisfies the NNF invariant.

    `registry` resolves D:name atoms (anything with an .arity_of(name)
    method, or a mapping name -> dependency/arity).  Names in `constants`
    parse as constant symbols; every other term is a variable.
    """
    phi = _Parser(text, registry, constants, allow_implies=False).parse()
    validate_team_formula(phi)
    return phi


def parse_fo_sentence(text: str, constants: Iterable[str] = ()) -> Formula:
    """Parse a first-order sentence; classical '->' is allowed."""
    phi = _Parser(text, None, constants, allow_implies=True).parse()
    if has_dependency_atoms(phi):
        raise ValidationError("first-order sentences cannot contain dependency atoms")
    return phi


# --- DED sentences ---

@dataclass(frozen=True)
class DedSentence:
    """forall x. (antecedent -> disjunction of exists y(i). consequent_i).

    The antecedent and every consequent are conjunctions of positive
    relational and equality atoms over the single relation symbol rel_name.
    An empty atom tuple denotes the trivially true conjunction.
    """

    forall_vars: tuple[str, ...]
    antecedent: tuple[Formula, ...]
    disjuncts: tuple[tuple[tuple[str, ...], tuple[Formula, ...]], ...]
    rel_name: str
    rel_arity: int

    def to_formula(self) -> Formula:
        ante = conj(self.antecedent) if self.antecedent else _trivial_eq(self.forall_vars)
        parts = []
        for exists_vars, atoms in self.disjuncts:
            body = conj(atoms) if atoms else _trivial_eq(exists_vars or self.forall_vars)
            for v in reversed(exists_vars):
                body = Exists(v, body)
            parts.append(body)
        out: Formula = Implies(ante, disj(parts))
        for v in reversed(self.forall_vars):
            out = Forall(v, out)
        return out


def _trivial_eq(vs: Sequence[str]) -> Formula:
    # Empty conjunctions render as the always-true identity "x=x".
    v = Var(vs[0]) if vs else Var("x")
    return Eq(v, v)


def _strip_quant(phi: Formula, kind) -> tuple[tuple[str, ...], Formula]:
    names = []
    while isinstance(phi, kind):
        names.append(phi.var)
        phi = phi.body
    return tuple(names), phi


def _atom_conjunction(phi: Formula, rel_name: str, what: str) -> tuple[tuple[Formula, ...], int | None]:
    """Split into positive relational/equality atoms; returns (atoms, arity)."""
    atoms = []
    arity = None
    for part in conjuncts(phi):
        if isinstance(part, RelAtom):
            if not part.positive:
                raise ValidationError(f"negated atom in {what}: {to_text(part)}")
            if part.name != rel_name:
                raise ValidationError(
                    f"unexpected relation symbol {part.name!r} in {what} "
                    f"(the single relation symbol is {rel_name!r})")
            if any(isinstance(t, ConstSym) for t in part.terms):
                raise ValidationError(f"constant symbol in {what}: {to_text(part)}")
            if arity is None:
                arity = len(part.terms)
            elif arity != len(part.terms):
                raise ValidationError(f"mixed arities for {rel_name} in {what}")
        elif isinstance(part, Eq):
            if not part.positive:
                raise ValidationError(f"inequality in {what}: {to_text(part)}")
            if any(isinstance(t, ConstSym) for t in (part.left, part.right)):
                raise ValidationError(f"constant symbol in {what}: {to_text(part)}")
        else:
            raise ValidationError(
                f"{what} must be a conjunction of relational and identity atoms; "
                f"found {to_text(part)}")
        atoms.append(part)
    # A lone trivial identity stands for the empty conjunction.
    if len(atoms) == 1 and isinstance(atoms[0], Eq) and atoms[0].left == atoms[0].right:
        return (), arity
    return tuple(atoms), arity


def validate_ded(phi: Formula | str, rel_name: str = "R") -> DedSentence:
    """Check the disjunctive-embedded-dependency shape and decompose it."""
    if isinstance(phi, str):
        phi = parse_fo_sentence(phi)
    forall_vars, body = _strip_quant(phi, Forall)
    if not isinstance(body, Implies):
        raise ValidationError("expected 'antecedent -> consequent' after the "
                              f"universal prefix; found {to_text(body)}")
    antecedent, ante_arity = _atom_conjunction(body.left, rel_name, "the antecedent")
    out_disjuncts = []
    arities = {ante_arity} - {None}
    for d in disjuncts_of(body.right):
        exists_vars, inner = _strip_quant(d, Exists)
        atoms, arity = _atom_conjunction(inner, rel_name, "a consequent")
        arities |= {arity} - {None}
        scope = set(forall_vars) | set(exists_vars)
        for atom in atoms:
            loose = free_vars(atom) - scope
            if loose:
                raise ValidationError(f"unquantified variables {sorted(loose)} "
                                      f"in {to_text(atom)}")
        out_disjuncts.append((exists_vars, atoms))
    for atom in antecedent:
        loose = free_vars(atom) - set(forall_vars)
        if loose:
            raise ValidationError(f"unquantified variables {sorted(loose)} "
                                  f"in the antecedent atom {to_text(atom)}")
    if len(arities) > 1:
        raise ValidationError(f"mixed arities for {rel_name}: {sorted(arities)}")
    if not arities:
        raise ValidationError(f"the relation symbol {rel_name!r} does not occur")
    if free_vars(phi):
        raise ValidationError(f"not a sentence; free variables {sorted(free_vars(phi))}")
    return DedSentence(forall_vars, antecedent, tuple(out_disjuncts),
                       rel_name, arities.pop())


# --- U-sentences ---

@dataclass(frozen=True)
class USentence:
    """exists x. (eta & forall y. (R(y) -> theta)).

    eta is a conjunction of literals over {rel_name, constants} in which
    the relation occurs only positively; theta is relation-free.  The
    existential and universal prefixes are disjoint and repetition-free.
    """

    exists_vars: tuple[str, ...]
    eta: tuple[Formula, ...]
    forall_vars: tuple[str, ...]
    theta: Formula
    rel_name: str
    rel_arity: int
    constants: tuple[str, ...] = ()

    def to_formula(self) -> Formula:
        guard = RelAtom(self.rel_name, tuple(Var(v) for v in self.forall_vars))
        inner: Formula = Implies(guard, self.theta)
        for v in reversed(self.forall_vars):
            inner = Forall(v, inner)
        body = conj(tuple(self.eta) + (inner,))
        for v in reversed(self.exists_vars):
            body = Exists(v, body)
        return body


def validate_usentence(phi: Formula | str, rel_name: str = "R",
                       constants: Iterable[str] = ()) -> USentence:
    """Check the U-sentence shape and decompose it."""
    constants = tuple(constants)
    if isinstance(phi, str):
        phi = parse_fo_sentence(phi, constants=constants)
    exists_vars, body = _strip_quant(phi, Exists)
    if len(set(exists_vars)) != len(exists_vars):
        raise ValidationError("repeated variables in the existential prefix")
    eta: list[Formula] = []
    universal: Formula | None = None
    for part in conjuncts(body):
        if isinstance(part, Forall):
            if universal is not None:
                raise ValidationError("more than one universal part")
            universal = part
        else:
            eta.append(part)
    if universal is None:
        raise ValidationError("missing the universal part 'forall y. (R(y) -> theta)'")
    forall_vars, inner = _strip_quant(universal, Forall)
    if len(set(forall_vars)) != len(forall_vars):
        raise ValidationError("repeated variables in the universal prefix")
    if set(forall_vars) & set(exists_vars):
        raise ValidationError("existential and universal prefixes must be disjoint")
    if not isinstance(inner, Implies):
        raise ValidationError(f"expected 'R(y) -> theta'; found {to_text(inner)}")
    guard = inner.left
    if not (isinstance(guard, RelAtom) and guard.positive and guard.name == rel_name
            and guard.terms == tuple(Var(v) for v in forall_vars)):
        raise ValidationError(
            f"the universal part must guard on {rel_name} applied to the "
            f"quantified tuple; found {to_text(guard)}")
    theta = inner.right
    if rel_name in relation_symbols(theta):
        raise ValidationError(f"{rel_name} occurs in theta: {to_text(theta)}")
    extra_rel = set(relation_symbols(theta))
    if extra_rel:
        raise ValidationError(f"theta must be relation-free; found {sorted(extra_rel)}")
    loose = free_vars(theta) - set(exists_vars) - set(forall_vars)
    if loose:
        raise ValidationError(f"unquantified variables {sorted(loose)} in theta")
    # eta literals: identity literals and positive occurrences of the relation.
    for lit in eta:
        if isinstance(lit, RelAtom):
            if lit.name != rel_name:
                raise ValidationError(f"unexpected relation symbol {lit.name!r} in eta")
            if not lit.positive:
                raise ValidationError(
                    f"{rel_name} occurs negatively in eta: {to_text(lit)}")
            if len(lit.terms) != len(forall_vars):
                raise ValidationError(f"arity mismatch for {rel_name} in eta")
            if any(isinstance(t, ConstSym) and t.name not in constants
                   for t in lit.terms):
                raise ValidationError(f"undeclared constant in {to_text(lit)}")
        elif isinstance(lit, Eq):
            pass
        else:
            raise ValidationError(
                f"eta must be a conjunction of literals; found {to_text(lit)}")
        loose = free_vars(lit) - set(exists_vars)
        if loose:
            raise ValidationError(f"unquantified variables {sorted(loose)} in eta "
                                  f"literal {to_text(lit)}")
    used = constant_symbols(phi)
    return USentence(exists_vars, tuple(eta), forall_vars, theta,
                     rel_name, len(forall_vars), tuple(sorted(used)))
