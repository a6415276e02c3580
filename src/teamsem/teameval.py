"""The lax team-semantics evaluator.

Satisfaction rules, on a structure M and a team X:

  * literal:   every row satisfies it Tarski-style
  * p & q:     both hold on X
  * p | q:     some cover X = X1 u X2 (rows may go to both sides) with
               X1 |= p and X2 |= q
  * p <|> q:   p or q holds on the whole team
  * g ->> p:   p holds on the subteam of rows satisfying the guard g
  * exists v:  some team Y agreeing with X off v, obtained by giving every
               off-v projection a nonempty set of witness values, satisfies
               the body
  * forall v:  the full extension X[M/v] satisfies the body
  * dependency atoms: membership of the projection X(v) in the atom's
               class, builtin or registered

Three interchangeable strategies compute the same boolean wherever they
terminate within budget:

  * naive:     literal rule-by-rule search, covers and witness-set products
               in full; the reference implementation
  * memoized:  adds a cache keyed on (subformula, canonical team) and
               restricts disjunction covers to partitions when both sides
               are syntactically downward closed
  * optimized: adds flat-formula fast paths (answered from a per-row
               cache, never memoized), joint handling of consecutive
               existentials, equality-guard symmetry reduction for witness
               values, search pruning through downward-closed conjuncts,
               singleton witnesses for downward-closed existential bodies,
               and guarded-forall fusion (both below)

Guarded-forall fusion.  For `forall v1 ... vk. (g ->> psi)` with distinct
vi, where every top-level disjunct of g has a top-level conjunct that is a
positive relational atom naming each vi as a variable, optimized builds
the guarded subteam directly: each row s looks up its candidate tuples a
in an index of that atom's relation, keyed on the atom's positions outside
the block, and s[a/v] is kept when g holds on it.  Exact: a row satisfying
g satisfies some disjunct, whose atom then holds, so its a is a candidate;
every candidate is filtered by the whole of g, so the team is
restrict(X[M/v], g).  Without such atoms, or when the structure does not
interpret every symbol of g, the literal extend-and-filter rules run.

Singleton witnesses.  When every conjunct of an `exists` block body is
flat or downward closed, optimized gives each off-block projection row a
single witness tuple instead of searching nonempty witness sets.  Exact:
flat formulas are downward closed, so the whole body is.  If some Y
agreeing with X off the block satisfies the body, keep one of Y's witness
tuples for each off-block projection row; the result Y' is a subteam of Y
with the same off-block projection, so it still agrees with X and
satisfies the body by downward closure.  Under symmetry reduction Y draws
its tuples from the reduced list, and Y' keeps only tuples of Y, so the
reduction stays sound.

Evaluation of independent branch obligations is sequential here; verdicts
are deterministic because every enumeration runs in canonical order.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Sequence

from .dependencies import (DOWNWARD_CLOSED_KINDS, Dependency, Registry,
                           builtin_holds, dep_holds)
from .errors import BudgetExceededError, DependencyLookupError, DomainError
from .structures import Structure, Team, extend_universal, team_projection
from .syntax import (And, BuiltinAtom, ConstSym, Eq, Exists,
                     Forall, Formula, GlobalOr, Hook, NamedDep, Or, RelAtom,
                     Var, atom_vars, children, conjuncts, constant_symbols,
                     free_vars, subformulas, validate_team_formula)
from .tarski import tarski_eval

STRATEGIES = ("naive", "memoized", "optimized")

DEFAULT_BUDGET = 50_000_000

_LITERALS = (RelAtom, Eq)
# Connectives and atoms under which flatness and downward closure pass
# from the children to the node.
_FLAT_KEEPING = frozenset({RelAtom, Eq, And, Or, Exists, Forall, Hook})
_DC_KEEPING = frozenset({RelAtom, Eq, And, Or, GlobalOr, Exists, Forall})


def _nonempty_subsets(items: Sequence) -> Iterable[tuple]:
    """All nonempty subsets, smallest first, in a fixed order."""
    for k in range(1, len(items) + 1):
        yield from itertools.combinations(items, k)


def _singletons(items: Sequence) -> Iterable[tuple]:
    """The one-element subsets, in order."""
    return ((t,) for t in items)


class Evaluator:
    """Evaluation context: one structure, one registry, shared caches.

    A fresh context per call gives the per-call cache the memoized strategy
    documents; reusing one context across calls on the same structure
    legitimately shares the cache (results are identical, evaluation is
    deterministic and side-effect free).
    """

    def __init__(self, structure: Structure, registry: Registry | None = None,
                 strategy: str = "memoized", budget: int | None = DEFAULT_BUDGET,
                 symmetry_reduction: bool | None = None):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
        self.structure = structure
        self.registry = registry
        self.strategy = strategy
        self.budget = budget
        if symmetry_reduction is None:
            symmetry_reduction = strategy == "optimized"
        self.symmetry = symmetry_reduction
        self.nodes = 0
        self._memo: dict = {}
        self._flat: dict[int, bool] = {}
        self._dc: dict[int, bool] = {}
        # guarded-forall fusion plan of each Forall node, by id; None where
        # the rule does not apply
        self._fuse: dict[int, tuple | None] = {}
        self._rowcache: dict = {}
        # free variables of each validated formula, by id
        self._free: dict[int, frozenset[str]] = {}
        self._pins: list[Formula] = []  # keep node ids stable across calls

    # -- public entry --

    def eval(self, team: Team, phi: Formula) -> bool:
        free = self._free.get(id(phi))
        if free is None:
            validate_team_formula(phi)
            free = free_vars(phi)
            self._pins.append(phi)
            self._free[id(phi)] = free
        loose = free - set(team.vars)
        if loose:
            raise DomainError(f"free variables {sorted(loose)} outside the "
                              f"team domain {team.vars}")
        return self._eval(team, phi)

    # -- plumbing --

    def _tick(self):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceededError(
                f"node budget of {self.budget} exhausted")

    # -- closure analysis --

    def is_flat(self, phi: Formula) -> bool:
        """Dependency-atom-free and built from flat-preserving connectives;
        such formulas hold on a team exactly when they hold on each row."""
        got = self._flat.get(id(phi))
        if got is None:
            got = self._flat_walk(phi)
            self._flat[id(phi)] = got
        return got

    def _flat_walk(self, phi: Formula) -> bool:
        return type(phi) in _FLAT_KEEPING and all(map(self.is_flat, children(phi)))

    def is_downward_closed(self, phi: Formula) -> bool:
        """Syntactic certificate that satisfaction passes to subteams."""
        got = self._dc.get(id(phi))
        if got is None:
            got = self._dc_walk(phi)
            self._dc[id(phi)] = got
        return got

    def _dc_walk(self, phi: Formula) -> bool:
        if type(phi) is BuiltinAtom:
            return phi.kind in DOWNWARD_CLOSED_KINDS
        if type(phi) is NamedDep:
            if self.registry is None or phi.dep_name not in self.registry:
                return False
            return self.registry.get(phi.dep_name).downward_closed
        if type(phi) is Hook:
            # Rows dropped from the team only shrink the guarded subteam.
            return self.is_downward_closed(phi.body)
        return (type(phi) in _DC_KEEPING
                and all(map(self.is_downward_closed, children(phi))))

    # -- dispatch --

    def _eval(self, team: Team, phi: Formula) -> bool:
        self._tick()
        if self.strategy == "naive":
            return self._eval_inner(team, phi)
        if self.strategy == "optimized" and self.is_flat(phi):
            # Answered row by row from the row cache, so no memo entry.
            return all(self._singleton(team.vars, row, phi)
                       for row in sorted(team.rows))
        key = (id(phi), team.canonical_key)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._eval_inner(team, phi)
        return got

    def _eval_inner(self, team: Team, phi: Formula) -> bool:
        if isinstance(phi, _LITERALS):
            m = self.structure
            return all(tarski_eval(m, dict(zip(team.vars, row)), phi)
                       for row in sorted(team.rows))
        if isinstance(phi, And):
            return self._eval(team, phi.left) and self._eval(team, phi.right)
        if isinstance(phi, Or):
            return self._eval_or(team, phi)
        if isinstance(phi, GlobalOr):
            return self._eval(team, phi.left) or self._eval(team, phi.right)
        if isinstance(phi, Hook):
            m, guard = self.structure, phi.guard
            kept = team.with_rows([
                row for row in team.rows
                if tarski_eval(m, dict(zip(team.vars, row)), guard)])
            return self._eval(kept, phi.body)
        if isinstance(phi, Forall):
            plan = self._fusion_plan(phi) if self.strategy == "optimized" else None
            if plan is None:
                return self._eval(extend_universal(team, phi.var, self.structure),
                                  phi.body)
            block, guard, body, lookups = plan
            return self._eval(self._guarded_team(team, block, guard, lookups),
                              body)
        if isinstance(phi, Exists):
            return self._eval_exists(team, phi)
        if isinstance(phi, BuiltinAtom):
            return eval_builtin_atom(self.structure, team, phi)
        if isinstance(phi, NamedDep):
            if self.registry is None:
                raise DependencyLookupError(
                    f"no registry supplied for dependency {phi.dep_name!r}")
            dep = self.registry.get(phi.dep_name)
            return eval_dep_atom(self.structure, team, dep, phi.vars)
        raise TypeError(f"not a team formula: {phi!r}")

    # -- single-row evaluation of flat formulas --
    #
    # On a one-row team the lax rules specialize to a Tarskian recursion:
    # a cover of {r} can park the row on either side because flat formulas
    # hold on the empty team, and a downward-closed existential body never
    # needs a witness set larger than a singleton.

    def _singleton(self, svars: tuple[str, ...], row: tuple, phi: Formula) -> bool:
        key = (id(phi), svars, row)
        got = self._rowcache.get(key)
        if got is not None:
            return got
        self._tick()
        result = self._singleton_inner(svars, row, phi)
        self._rowcache[key] = result
        return result

    def _singleton_inner(self, svars, row, phi) -> bool:
        if isinstance(phi, _LITERALS):
            return tarski_eval(self.structure, dict(zip(svars, row)), phi)
        if isinstance(phi, And):
            return (self._singleton(svars, row, phi.left)
                    and self._singleton(svars, row, phi.right))
        if isinstance(phi, Or):
            return (self._singleton(svars, row, phi.left)
                    or self._singleton(svars, row, phi.right))
        if isinstance(phi, Hook):
            if not tarski_eval(self.structure, dict(zip(svars, row)), phi.guard):
                return True
            return self._singleton(svars, row, phi.body)
        if isinstance(phi, (Exists, Forall)):
            nvars, at = _insert_var(svars, phi.var)
            if len(nvars) == len(svars):
                rows = [row[:at] + (m,) + row[at + 1:] for m in self.structure.domain]
            else:
                rows = [row[:at] + (m,) + row[at:] for m in self.structure.domain]
            if isinstance(phi, Exists):
                return any(self._singleton(nvars, r, phi.body) for r in rows)
            return all(self._singleton(nvars, r, phi.body) for r in rows)
        raise TypeError(f"not a flat formula: {phi!r}")

    # -- guarded-forall fusion --

    def _fusion_plan(self, phi: Forall) -> tuple | None:
        """(block, guard, body, lookups) for a fusable guarded block, one
        lookup per disjunct of the guard; built on first use."""
        if id(phi) in self._fuse:
            return self._fuse[id(phi)]
        block: list[str] = []
        node: Formula = phi
        while type(node) is Forall and node.var not in block:
            block.append(node.var)
            node = node.body
        plan = None
        if type(node) is Hook and _interprets(self.structure, node.guard):
            lookups = []
            for disjunct in _guard_disjuncts(node.guard):
                atom = next((a for a in conjuncts(disjunct)
                             if _names_block(a, block)), None)
                if atom is None:
                    break
                lookups.append(_relation_lookup(self.structure, atom, block))
            else:
                plan = (tuple(block), node.guard, node.body, lookups)
        self._fuse[id(phi)] = plan
        return plan

    def _guarded_team(self, team: Team, block: tuple[str, ...],
                      guard: Formula, lookups: list) -> Team:
        """restrict(X[M/block], guard), from the candidates the lookups
        give each row instead of all |D|^k extensions."""
        nvars = tuple(sorted(set(team.vars) | set(block)))
        build = _row_builder(team.vars, block, nvars)
        keyed = [(index, [team.vars.index(v) for v in outer])
                 for index, outer in lookups]
        candidates = set()
        for row in team.rows:
            for index, at in keyed:
                for values in index.get(tuple([row[i] for i in at]), ()):
                    candidates.add(build(row, values))
        m = self.structure
        return Team(nvars).with_rows(
            r for r in candidates if tarski_eval(m, dict(zip(nvars, r)), guard))

    # -- lax disjunction --

    def _eval_or(self, team: Team, phi: Or) -> bool:
        left, right = phi.left, phi.right
        rows = sorted(team.rows)
        if self.strategy == "optimized":
            lflat, rflat = self.is_flat(left), self.is_flat(right)
            if lflat or rflat:
                flat_side, other = (left, right) if lflat else (right, left)
                sat = [r for r in rows
                       if self._singleton(team.vars, r, flat_side)]
                core = [r for r in rows
                        if not self._singleton(team.vars, r, flat_side)]
                # Valid covers pin the non-flat side to a superset of the
                # rows the flat side cannot absorb.
                if self.is_downward_closed(other):
                    extras: Iterable[tuple] = ((),)
                else:
                    extras = itertools.chain(((),), _nonempty_subsets(sat))
                for extra in extras:
                    self._tick()
                    if self._eval(team.with_rows(set(core) | set(extra)), other):
                        return True
                return False
        if (self.strategy in ("memoized", "optimized")
                and self.is_downward_closed(left)
                and self.is_downward_closed(right)):
            # A working cover yields a working partition by shrinking one side.
            for mask in range(1 << len(rows)):
                self._tick()
                left_rows = {rows[i] for i in range(len(rows)) if mask >> i & 1}
                if not self._eval(team.with_rows(left_rows), left):
                    continue
                if self._eval(team.with_rows(team.rows - left_rows), right):
                    return True
            return False
        # General covers: each row goes left, right, or to both sides.
        for assignment in itertools.product((0, 1, 2), repeat=len(rows)):
            self._tick()
            left_rows = {r for r, a in zip(rows, assignment) if a != 1}
            right_rows = {r for r, a in zip(rows, assignment) if a != 0}
            if (self._eval(team.with_rows(left_rows), left)
                    and self._eval(team.with_rows(right_rows), right)):
                return True
        return False

    # -- lax existential --

    def _eval_exists(self, team: Team, phi: Exists) -> bool:
        block = [phi.var]
        body = phi.body
        use_blocks = self.strategy == "optimized" or (
            self.strategy == "naive" and self.symmetry)
        if use_blocks:
            while isinstance(body, Exists):
                block.append(body.var)
                body = body.body
        return self._exists_block(team, tuple(block), body)

    def _witness_tuples(self, block: tuple[str, ...],
                        body: Formula) -> list[tuple]:
        """Candidate value tuples for a quantifier block, symmetry-reduced
        when sound.

        A block variable whose every occurrence sits in an (in)equality
        against a constant symbol or another such variable never interacts
        with relations, dependency atoms, or outside variables, so its
        value matters only through its equality pattern against the
        structure's constants and its fellow reduced variables.  Witness
        values for those variables can be drawn from the constant elements
        plus one fresh representative per reduced variable; every witness
        family collapses onto that pool without changing any such pattern.
        Two tuples realizing the same equality pattern over the reduced
        positions are then interchangeable, so only the one whose fresh
        values first appear in pool order is kept.  Values of non-reduced
        positions are meaningful and never canonicalized.
        """
        domain = list(self.structure.domain)
        reduced = (_equality_guarded_vars(block, body) if self.symmetry
                   else frozenset())
        if not reduced:
            return list(itertools.product(domain, repeat=len(block)))
        const_elems = set(self.structure.constants.values())
        fresh = [e for e in domain if e not in const_elems][:len(reduced)]
        pool = sorted(const_elems) + fresh
        out = []
        for t in itertools.product(*(pool if v in reduced else domain
                                     for v in block)):
            firsts: list = []
            for v, value in zip(block, t):
                if v in reduced and value not in const_elems and value not in firsts:
                    firsts.append(value)
            if firsts == fresh[:len(firsts)]:
                out.append(t)
        return out

    def _exists_block(self, team: Team, block: tuple[str, ...], body: Formula) -> bool:
        # Teams agreeing with X off the block are exactly those assigning
        # every off-block projection row of X a nonempty set of witness
        # tuples: both have the same off-block projection, and the rows of
        # such a Y are determined by the tuples it realizes on each
        # projection row.  Rows differing only on the block merge first.
        keep = tuple(v for v in team.vars if v not in block)
        keep_idx = [team.vars.index(v) for v in keep]
        keys = sorted({tuple(row[i] for i in keep_idx) for row in team.rows})
        nvars = tuple(sorted(set(keep) | set(block)))
        empty = Team(nvars)
        if not keys:
            return self._eval(empty, body)
        build = _row_builder(keep, block, nvars)
        tuples = self._witness_tuples(block, body)
        allowed = [tuples] * len(keys)
        order: Sequence[int] = range(len(keys))
        rest, prunable = [body], []
        subsets = _nonempty_subsets
        if self.strategy == "optimized":
            parts = conjuncts(body)
            flat_parts = [p for p in parts if self.is_flat(p)]
            rest = [p for p in parts if not self.is_flat(p)]
            if flat_parts:
                allowed = []
                for key in keys:
                    ok = [t for t in tuples
                          if all(self._singleton(nvars, build(key, t), p)
                                 for p in flat_parts)]
                    if not ok:
                        return False
                    allowed.append(ok)
                # Most-constrained projection rows first; pruning bites
                # earlier.  The sort is stable and keys are sorted.
                order = sorted(order, key=lambda i: len(allowed[i]))
            if not rest:
                return True  # pick any witness tuple per projection row
            prunable = [p for p in rest if self.is_downward_closed(p)]
            if len(prunable) == len(rest):
                subsets = _singletons  # a witness function suffices

        # Depth-first over the witness families, one level per projection
        # row, on an explicit stack of open subset iterators: a team's row
        # count must not meet the interpreter's recursion limit.
        picked: list = [None] * len(keys)  # the rows chosen at each level
        stack = [subsets(allowed[order[0]])]
        while stack:
            depth = len(stack) - 1
            key = keys[order[depth]]
            for subset in stack[-1]:
                self._tick()
                picked[depth] = [build(key, t) for t in subset]
                if prunable:
                    partial = empty.with_rows(
                        itertools.chain.from_iterable(picked[:depth + 1]))
                    if not all(self._eval(partial, p) for p in prunable):
                        continue
                if depth + 1 < len(keys):
                    stack.append(subsets(allowed[order[depth + 1]]))
                    break
                final = empty.with_rows(itertools.chain.from_iterable(picked))
                if all(self._eval(final, p) for p in rest):
                    return True
            else:
                stack.pop()
        return False


def _insert_var(svars: tuple[str, ...], var: str) -> tuple[tuple[str, ...], int]:
    """Sorted var tuple with var added (or found), and its index."""
    if var in svars:
        return svars, svars.index(var)
    out = tuple(sorted(svars + (var,)))
    return out, out.index(var)


def _row_builder(keep: tuple[str, ...], block: tuple[str, ...],
                 nvars: tuple[str, ...]):
    """Maps an off-block key and a witness tuple to the row over nvars."""
    # later binding wins for repeated names
    source = {v: i for i, v in enumerate(keep + block)}
    pick = itemgetter(*(source[v] for v in nvars))
    if len(nvars) == 1:  # itemgetter of one index returns a bare value
        return lambda key, values: (pick(key + values),)
    return lambda key, values: pick(key + values)


def _guard_disjuncts(guard: Formula) -> list[Formula]:
    """Top-level disjuncts, reading Or and GlobalOr alike as Tarski does."""
    if type(guard) in (Or, GlobalOr):
        return _guard_disjuncts(guard.left) + _guard_disjuncts(guard.right)
    return [guard]


def _names_block(atom: Formula, block: Sequence[str]) -> bool:
    """A positive relational atom with every block variable among its terms."""
    return (type(atom) is RelAtom and atom.positive
            and set(block) <= {t.name for t in atom.terms if type(t) is Var})


def _interprets(structure: Structure, phi: Formula) -> bool:
    """Every constant and relation symbol of phi is interpreted, each
    relation at the arity phi applies it with."""
    rels = structure.relations
    return (constant_symbols(phi) <= structure.constants.keys()
            and all(f.name in rels and rels[f.name].arity == len(f.terms)
                    for f in subformulas(phi) if type(f) is RelAtom))


def _relation_lookup(structure: Structure, atom: RelAtom,
                     block: Sequence[str]) -> tuple[dict, list[str]]:
    """(index, outer variables) for a relational atom over a block.

    The index maps the values at the atom's outer-variable positions to the
    block tuples its relation carries there, each block variable read at
    its first position.  Tuples that disagree with a constant symbol of the
    atom are left out.
    """
    first: dict[str, int] = {}
    outer, outer_pos, fixed = [], [], []
    for i, t in enumerate(atom.terms):
        if type(t) is ConstSym:
            fixed.append((i, structure.constant(t.name)))
        elif t.name in block:
            first.setdefault(t.name, i)
        else:
            outer.append(t.name)
            outer_pos.append(i)
    value_pos = [first[v] for v in block]
    index: dict[tuple, set[tuple]] = {}
    for tup in structure.relation(atom.name).tuples:
        if all(tup[i] == c for i, c in fixed):
            index.setdefault(tuple([tup[i] for i in outer_pos]), set()).add(
                tuple([tup[i] for i in value_pos]))
    return index, outer


def _equality_guarded_vars(block: Sequence[str], body: Formula) -> frozenset[str]:
    """Block variables whose free occurrences all sit in (in)equalities
    against constant symbols or other such variables."""
    good = set(block)

    def offending(phi: Formula, shadowed: frozenset) -> set[str]:
        bad: set[str] = set()
        if isinstance(phi, Eq):
            sides = (phi.left, phi.right)
            names = [t.name for t in sides
                     if isinstance(t, Var) and t.name not in shadowed]
            mine = [n for n in names if n in good]
            if mine:
                for t in sides:
                    if isinstance(t, ConstSym):
                        continue
                    name = t.name
                    if name in shadowed or name not in good:
                        bad.update(mine)  # ties a reduced var to an outsider
            return bad
        if isinstance(phi, (Exists, Forall)):
            return offending(phi.body, shadowed | {phi.var})
        kids = children(phi)
        if not kids:  # a relational or dependency atom
            return (atom_vars(phi) & good) - shadowed
        for kid in kids:
            bad |= offending(kid, shadowed)
        return bad

    while True:
        bad = offending(body, frozenset())
        if not bad:
            return frozenset(good)
        good -= bad
        if not good:
            return frozenset()


# --- Atom semantics ---

def eval_builtin_atom(structure: Structure, team: Team, atom: BuiltinAtom) -> bool:
    """The atom's class, builtin_holds, applied to the team's projection
    onto its variables."""
    return builtin_holds(atom.kind, len(atom.left),
                         team_projection(team, atom.left + atom.right))


def eval_dep_atom(structure: Structure, team: Team, dep: Dependency,
                  variables: Sequence[str]) -> bool:
    """Membership of (M, X(v)) in the dependency's class."""
    if len(variables) != dep.arity:
        raise DomainError(f"dependency {dep.name} has arity {dep.arity}, "
                          f"applied to {len(variables)} variables")
    return dep_holds(dep, structure.domain, team_projection(team, variables))


# --- Public entry points ---

def team_eval(structure: Structure, team: Team, phi: Formula,
              strategy: str = "memoized", registry: Registry | None = None,
              budget: int | None = DEFAULT_BUDGET,
              symmetry_reduction: bool | None = None) -> bool:
    """Evaluate with a fresh per-call context."""
    ev = Evaluator(structure, registry, strategy, budget, symmetry_reduction)
    return ev.eval(team, phi)


def eval_sentence(structure: Structure, phi: Formula,
                  strategy: str = "memoized", registry: Registry | None = None,
                  budget: int | None = DEFAULT_BUDGET,
                  symmetry_reduction: bool | None = None) -> bool:
    """Sentence satisfaction: evaluation on the one-empty-assignment team."""
    start = Team((), [()])
    return team_eval(structure, start, phi, strategy, registry, budget,
                     symmetry_reduction)
