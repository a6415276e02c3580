import itertools
import random

import pytest

from teamsem import teameval
from teamsem.dependencies import (Registry, antisymmetry_egd,
                                  functional_dependency, nonemptiness,
                                  fo_dependency)
from teamsem.errors import BudgetExceededError, DomainError
from teamsem.harness import (build_parity_instance, enumerate_teams,
                             fo_formula_corpus, guarded_forall_corpus)
from teamsem.structures import (Structure, Team, enumerate_relations,
                                full_team, restrict_team, team_equiv_on)
from teamsem.syntax import (And, Exists, Forall, RelAtom, Var, free_vars,
                            hook_desugared, parse_formula, subformulas,
                            to_text)
from teamsem.tarski import tarski_eval
from teamsem.teameval import (Evaluator, eval_builtin_atom, eval_dep_atom,
                              eval_sentence, team_eval)

M = Structure(["a", "b"], {}, {"E": (2, [("a", "b")])})

# Deterministic corpus touching every atom kind and connective.
CORPUS_TEXTS = [
    "E(x,y)", "!E(y,x)", "x=y", "x!=y",
    "E(x,y) | x=y", "E(x,x) & E(y,y)",
    "exists z. E(x,z)", "forall z. (E(z,z) | z=x)",
    "dep(x;y)", "dep(;y)", "const(y)", "ne(x)",
    "inc(x;y)", "ind(x;y)", "anon(x;y)",
    "dep(x;y) | ne(y)", "x=y ->> dep(x;y)", "E(x,y) ->> ne(x)",
    "const(x) <|> ne(y)", "exists z. (dep(z;y) & E(x,z))",
    "forall z. dep(z;y)", "exists z. anon(z;x)",
]
CORPUS = [parse_formula(t) for t in CORPUS_TEXTS]

DOWNWARD_TEXTS = [
    "E(x,y)", "x=y", "dep(x;y)", "const(y)", "dep(;y)",
    "E(x,y) | x=y", "dep(x;y) & const(y)",
    "exists z. dep(z;y)", "forall z. (E(z,z) | dep(x;z))",
]


def structures_up_to(max_domain, arity=2, rel_name="E"):
    for m in range(1, max_domain + 1):
        domain = [f"e{i + 1}" for i in range(m)]
        for rel in enumerate_relations(domain, arity):
            yield Structure(domain, {}, {rel_name: (arity, rel)})


class TestLiterals:
    def test_failing_row(self):
        x = Team(["x", "y"], [("a", "b"), ("b", "b")])
        assert not team_eval(M, x, parse_formula("E(x,y)"))

    def test_empty_team_satisfies_fo(self):
        empty = Team(["x", "y"])
        for text in ("E(x,y)", "x!=x", "forall z. E(z,z)", "exists z. E(x,z)"):
            assert team_eval(M, empty, parse_formula(text))

    def test_free_variable_scoping(self):
        with pytest.raises(DomainError):
            team_eval(M, Team(["x"]), parse_formula("E(x,y)"))


class TestBuiltinAtoms:
    def test_independence_full_product(self):
        x = Team(["v", "w"], [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")])
        assert eval_builtin_atom(M, x, parse_formula("ind(v;w)"))

    def test_independence_diagonal(self):
        rows = {("a", "a"), ("b", "b")}
        product = {(p, q) for p, _ in rows for _, q in rows}
        assert product != rows  # the product adds the mixed pairs
        x = Team(["v", "w"], rows)
        assert not eval_builtin_atom(M, x, parse_formula("ind(v;w)"))

    def test_anonymity(self):
        lone = Team(["v", "w"], [("a", "a")])
        assert not eval_builtin_atom(M, lone, parse_formula("anon(v;w)"))
        paired = Team(["v", "w"], [("a", "a"), ("a", "b")])
        assert eval_builtin_atom(M, paired, parse_formula("anon(v;w)"))

    def test_empty_team_cases(self):
        empty = Team(["v", "w"])
        assert not eval_builtin_atom(M, empty, parse_formula("ne(v)"))
        assert eval_builtin_atom(M, empty, parse_formula("const(v)"))
        assert eval_builtin_atom(M, empty, parse_formula("dep(v;w)"))

    def test_constancy_as_empty_determinant(self):
        x = Team(["v", "w"], [("a", "a"), ("b", "a")])
        assert eval_builtin_atom(M, x, parse_formula("dep(;w)"))
        assert not eval_builtin_atom(M, x, parse_formula("dep(;v)"))


class TestDependencyAtoms:
    def test_fo_defined_nonempty(self):
        dep = fo_dependency("has_elem", 1, "exists x. R(x)")
        x = Team(["x"], [("a",)])
        assert eval_dep_atom(M, x, dep, ("x",))

    def test_functional_violation(self):
        dep = functional_dependency(1, 1)
        x = Team(["v", "w"], [("a", "a"), ("a", "b")])
        assert not eval_dep_atom(M, x, dep, ("v", "w"))

    def test_empty_team_delegates(self):
        empty = Team(["v", "w"])
        assert not eval_dep_atom(M, empty, nonemptiness(2), ("v", "w"))
        assert eval_dep_atom(M, empty, functional_dependency(1, 1), ("v", "w"))

    def test_arity_mismatch(self):
        with pytest.raises(DomainError):
            eval_dep_atom(M, Team(["v"]), functional_dependency(1, 1), ("v",))


class TestFlatness:
    def test_small_exhaustive(self):
        corpus = fo_formula_corpus(count=40, depth=2, seed=7)
        for structure in structures_up_to(2):
            ev = Evaluator(structure, strategy="memoized")
            for team in enumerate_teams(structure.domain, ("x", "y")):
                for phi in corpus:
                    flat = all(
                        tarski_eval(structure, dict(zip(team.vars, row)), phi)
                        for row in team.rows)
                    assert ev.eval(team, phi) == flat, \
                        f"{to_text(phi)} on {team} over {structure}"

    def test_naive_sample(self):
        corpus = fo_formula_corpus(count=8, depth=2, seed=7)
        structure = Structure(["e1", "e2"], {}, {"E": (2, [("e1", "e2")])})
        for team in enumerate_teams(structure.domain, ("x", "y")):
            for phi in corpus:
                flat = all(tarski_eval(structure, dict(zip(team.vars, row)), phi)
                           for row in team.rows)
                assert team_eval(structure, team, phi, "naive") == flat


class TestLocality:
    def test_satisfaction_depends_only_on_free_projection(self):
        # All teams over (x, y, z) grouped by their projection onto the
        # free variables must agree, for every corpus formula with free
        # variables among x, y.
        structure = Structure(["e1", "e2"], {}, {"E": (2, [("e1", "e2")])})
        teams = list(enumerate_teams(structure.domain, ("x", "y", "z")))
        ev = Evaluator(structure, Registry([]), strategy="memoized")
        for phi in CORPUS:
            fv = tuple(sorted(free_vars(phi)))
            groups: dict = {}
            for team in teams:
                key = frozenset(tuple(row[team.vars.index(v)] for v in fv)
                                for row in team.rows)
                groups.setdefault(key, []).append(ev.eval(team, phi))
            for key, verdicts in groups.items():
                assert len(set(verdicts)) == 1, to_text(phi)


class TestEmptyTeam:
    def test_without_nonemptiness_always_satisfied(self):
        empty = Team(["x", "y"])
        for phi, text in zip(CORPUS, CORPUS_TEXTS):
            if "ne(" in text:
                continue
            assert team_eval(M, empty, phi), text

    def test_ne_false_on_empty(self):
        assert not team_eval(M, Team(["x", "y"]), parse_formula("ne(x)"))


class TestHookCoherence:
    def test_three_way_equivalence(self):
        hooks = [phi for phi in CORPUS if "->>" in to_text(phi)]
        hooks += [parse_formula("x!=y ->> anon(x;y)"),
                  parse_formula("E(x,y) ->> (ne(x) | dep(x;y))")]
        for structure in structures_up_to(2):
            ev = Evaluator(structure, strategy="memoized")
            for team in enumerate_teams(structure.domain, ("x", "y")):
                for hook in hooks:
                    direct = ev.eval(team, hook)
                    restricted = ev.eval(
                        restrict_team(team, hook.guard, structure), hook.body)
                    sugar = ev.eval(team, hook_desugared(hook))
                    assert direct == restricted == sugar, to_text(hook)


class TestGlobalDisjunction:
    def test_whole_team_split(self):
        phi = parse_formula("const(x) <|> ne(y)")
        left, right = parse_formula("const(x)"), parse_formula("ne(y)")
        for structure in structures_up_to(2):
            for team in enumerate_teams(structure.domain, ("x", "y")):
                want = team_eval(structure, team, left) or \
                    team_eval(structure, team, right)
                assert team_eval(structure, team, phi) == want


class TestDownwardClosure:
    def test_subteams_inherit_satisfaction(self):
        formulas = [parse_formula(t) for t in DOWNWARD_TEXTS]
        structure = Structure(["e1", "e2"], {}, {"E": (2, [("e1", "e2")])})
        ev = Evaluator(structure, strategy="memoized")
        for team in enumerate_teams(structure.domain, ("x", "y")):
            rows = sorted(team.rows)
            for phi in formulas:
                if not ev.eval(team, phi):
                    continue
                for k in range(len(rows)):
                    for sub in itertools.combinations(rows, k):
                        assert ev.eval(Team(team.vars, sub), phi), to_text(phi)


class TestExistsRule:
    def test_matches_direct_enumeration(self):
        # Direct reading: some team over Dom(X) + {v} agreeing with X off v
        # satisfies the body.
        bodies = ["E(x,v) & dep(x;v)", "ne(v) & v!=x", "anon(x;v)",
                  "const(v) | x=v"]
        for structure in structures_up_to(2):
            for team in enumerate_teams(structure.domain, ("x",)):
                if len(team.rows) > 2:
                    continue
                for text in bodies:
                    body = parse_formula(text.replace("y", "v"))
                    phi = Exists("v", body)
                    direct = False
                    for cand in enumerate_teams(structure.domain, ("x", "v")):
                        if team_equiv_on(cand, team, {"x"}) and \
                                team_eval(structure, cand, body):
                            direct = True
                            break
                    assert team_eval(structure, team, phi) == direct, text

    def test_overwrite_merges_before_extension(self):
        # Rows differing only on the requantified variable collapse.
        structure = Structure(["e1", "e2"])
        team = Team(["x"], [("e1",), ("e2",)])
        phi = parse_formula("exists x. const(x)")
        assert team_eval(structure, team, phi)

    def test_many_projection_rows(self):
        # One search level per off-block projection row: 1,000 of them
        # must not meet the interpreter's recursion limit.
        structure = Structure([f"e{i}" for i in range(10)])
        team = full_team(("x", "y", "z"), structure)
        phi = parse_formula("exists u. dep(x,y,z;u)")
        for strategy in ("naive", "memoized", "optimized"):
            assert team_eval(structure, team, phi, strategy)

    @staticmethod
    def counted(monkeypatch, name):
        """Counts the calls to a witness-set enumerator of teameval."""
        calls = []
        real = getattr(teameval, name)

        def wrapped(items):
            calls.append(len(items))
            return real(items)

        monkeypatch.setattr(teameval, name, wrapped)
        return calls

    def test_downward_closed_bodies_take_singletons(self, monkeypatch):
        def refuse(items):
            raise AssertionError("optimized searched witness sets")

        monkeypatch.setattr(teameval, "_nonempty_subsets", refuse)
        structure = Structure(["a", "b", "c"], {}, {"E": (2, [("a", "b")])})
        team = Team(["x", "z"], [("a", "a"), ("a", "b"), ("b", "c"),
                                 ("c", "c")])
        for text, want in (("exists y. dep(x;y)", True),
                           ("exists y. (dep(y;z) & E(x,y))", False),
                           ("exists y. (x!=y & dep(z;y) & const(x) <|> "
                            "dep(;y))", True)):
            assert team_eval(structure, team, parse_formula(text),
                             "optimized") == want, text
        instance = build_parity_instance(2)
        assert eval_sentence(instance.structure, instance.formula,
                             "optimized", instance.registry)

    def test_other_bodies_keep_witness_sets(self, monkeypatch):
        # Each holds only when one projection row takes two witnesses.
        calls = self.counted(monkeypatch, "_nonempty_subsets")
        structure = Structure(["a", "b"])
        cases = [("exists y. anon(x;y)", Team(["x"], [("a",)])),
                 ("exists y. (inc(x;y) & inc(z;y))",
                  Team(["x", "z"], [("a", "b")]))]
        for text, team in cases:
            phi = parse_formula(text)
            for strategy in ("naive", "memoized", "optimized"):
                del calls[:]
                assert team_eval(structure, team, phi, strategy), \
                    f"{text} under {strategy}"
                assert calls, f"{text} under {strategy}"

    def test_fo_dependency_bodies(self):
        # A universal DED with a consequent R atom is not downward closed,
        # so its body keeps witness sets: `exists y. D:tot(x,y)` on {x=a}
        # needs both (a,a) and (a,b).  The EGDs take singletons.
        deps = [fo_dependency("tot", 2, "forall u,v,w. (R(u,v) -> R(u,w))"),
                fo_dependency("sym", 2, "forall u,v. (R(u,v) -> R(v,u))"),
                fo_dependency("loop", 2,
                              "forall u,v. (R(u,v) -> (u=v | R(v,u)))"),
                antisymmetry_egd(),
                fo_dependency("fun", 2,
                              "forall u,v,w. ((R(u,v) & R(u,w)) -> v=w)")]
        registry = Registry(deps)
        two = Structure(["a", "b"])
        tot = parse_formula("exists y. D:tot(x,y)", registry)
        for strategy in ("naive", "memoized", "optimized"):
            assert team_eval(two, Team(["x"], [("a",)]), tot, strategy,
                             registry), strategy
        texts = [f"exists y. {body}" for d in deps for body in (
            f"D:{d.name}(x,y)", f"(D:{d.name}(x,y) & x!=y)",
            f"(D:{d.name}(x,y) & dep(z;y))", f"(D:{d.name}(y,z) | E(x,y))")]
        for m in (1, 2):
            domain = [f"e{i + 1}" for i in range(m)]
            structure = Structure(domain, {}, {"E": (2, [
                (u, v) for u in domain for v in domain if u < v])})
            rows = list(itertools.product(domain, repeat=2))
            teams = [Team(("x", "z"), c) for k in range(1, 4)
                     for c in itertools.combinations(rows, k)]
            for text in texts:
                phi = parse_formula(text, registry)
                for team in teams:
                    want = team_eval(structure, team, phi, "naive", registry)
                    for strategy in ("memoized", "optimized"):
                        assert team_eval(structure, team, phi, strategy,
                                         registry) == want, \
                            f"{text} on {team} under {strategy}"

    def test_guarded_corpus_under_exists(self, monkeypatch):
        # Bodies mix downward-closed dep/const with ne/inc/ind/anon, so
        # the singleton rule and the witness-set search both run.
        fired = self.counted(monkeypatch, "_singletons")
        rng = random.Random(18)
        edge = RelAtom("E", (Var("x"), Var("y")))
        formulas = [wrapped for phi in guarded_forall_corpus(60, 16)
                    for wrapped in (Exists("y", phi),
                                    Exists("y", And(edge, phi)))]
        checked = singleton = 0
        for m in (1, 2):
            domain = [f"e{i + 1}" for i in range(m)]
            cells = {k: list(itertools.product(domain, repeat=k))
                     for k in (2, 3)}
            rows = list(itertools.product(domain, repeat=2))
            teams = [Team(("x", "y"), c) for k in range(4)
                     for c in itertools.combinations(rows, k)]
            for _ in range(2):
                structure = Structure(domain, {"c": "e1"}, {
                    "E": (2, [t for t in cells[2] if rng.random() < 0.5]),
                    "T": (3, [t for t in cells[3] if rng.random() < 0.3])})
                for phi in formulas:
                    for team in teams:
                        want = team_eval(structure, team, phi, "naive")
                        assert team_eval(structure, team, phi,
                                         "memoized") == want
                        del fired[:]
                        assert team_eval(structure, team, phi,
                                         "optimized") == want, \
                            f"{to_text(phi)} on {structure} {team}"
                        singleton += bool(fired)
                        checked += 1
        assert checked == 4080
        assert 0 < singleton < checked


class TestStrategyAgreement:
    def test_three_strategies_agree(self):
        structure = Structure(["e1", "e2"], {}, {"E": (2, [("e1", "e2")])})
        extra = [
            "exists u. exists v. (u!=v & u!=x & v!=x)",
            "exists u. exists v. (u=v & ne(u))",
            "exists u. (u=x | u!=y)",
            "exists u. exists v. ((u=v ->> ne(x)) & dep(x;u))",
            "const(x) | inc(y;x)",
            "exists u. (ind(x;u) & anon(y;u))",
            "dep(;y) <|> anon(x;y)",
            "forall x. exists x. (E(x,y) | inc(x;y))",
            "exists u. (dep(;u) & inc(u;x))",
            "E(x,y) ->> const(y) | ne(x)",
            "exists u. (u!=u | ne(x))",
        ]
        formulas = CORPUS + [parse_formula(t) for t in extra]
        # memoized with symmetry reduction draws the witnesses of an
        # equality-guarded variable from a reduced pool
        settings = [("naive", None), ("memoized", None), ("optimized", None),
                    ("memoized", True)]
        for team in enumerate_teams(structure.domain, ("x", "y")):
            for phi in formulas:
                verdicts = {
                    (strategy, symmetry): team_eval(
                        structure, team, phi, strategy,
                        symmetry_reduction=symmetry)
                    for strategy, symmetry in settings
                }
                assert len(set(verdicts.values())) == 1, \
                    f"{to_text(phi)} on {sorted(team.rows)}: {verdicts}"

    def test_symmetry_reduction_needs_enough_representatives(self):
        # Realizing two distinct non-constant values requires two fresh
        # representatives; a single shared one would flip this verdict.
        structure = Structure(["e1", "e2", "e3"])
        phi = parse_formula("exists u. exists v. (u!=v & u!=x & v!=x)")
        team = Team(["x"], [("e1",)])
        assert team_eval(structure, team, phi, "optimized") == \
            team_eval(structure, team, phi, "memoized") == True  # noqa: E712

    def test_block_handling_matches_nested(self):
        structure = Structure(["e1", "e2"], {}, {"E": (2, [("e1", "e2")])})
        phi = parse_formula("exists u. exists v. (E(u,v) & dep(u;v) & ne(u))")
        for team in enumerate_teams(structure.domain, ("x",)):
            assert team_eval(structure, team, phi, "optimized") == \
                team_eval(structure, team, phi, "memoized")


class TestGuardedForallFusion:
    """Optimized builds the guarded subteam of `forall v. (g ->> psi)` from
    relation-index lookups; naive extends and filters literally."""

    REGISTRY = Registry([antisymmetry_egd()])
    # (formula, the block variables optimized still extends the team by)
    SHAPES = [
        ("forall z. (E(x,z) ->> dep(x;z))", []),  # z is also a team variable
        ("forall z. (E(z,z) ->> const(z))", []),
        ("forall z. (T(c,x,z) ->> dep(;z))", []),
        ("forall z. (T(z,x,z) ->> ne(z))", []),
        ("forall z. ((E(x,z) | z=x) ->> dep(x;z))", ["z"]),
        ("forall z. (!E(x,z) ->> const(z))", ["z"]),
        ("forall z. ((E(x,z) & !E(z,x)) ->> const(z))", []),
        ("forall z. ((E(x,z) & exists w. E(z,w)) ->> dep(x;z))", []),
        ("forall z. ((exists w. E(w,z)) ->> const(z))", ["z"]),
        ("forall u,w. (((x=c & E(u,w)) | (x!=c & T(x,w,u))) ->> D:antisym(u,w))",
         []),
        ("forall u,w. ((E(u,w) <|> T(c,u,w)) ->> (D:antisym(u,w) & dep(x;u)))",
         []),
        ("forall u,w. (E(u,x) ->> dep(u;w))", ["u", "w"]),  # no atom names w
        ("forall z. forall z. (E(x,z) ->> ne(x))", ["z"]),  # the inner one fuses
    ]

    @staticmethod
    def structures():
        domain = ["e1", "e2"]
        t_rel = [("e1", "e1", "e2"), ("e2", "e1", "e1"), ("e1", "e2", "e1")]
        for rel in enumerate_relations(domain, 2):
            yield Structure(domain, {"c": "e1"},
                            {"E": (2, rel), "T": (3, t_rel)})

    @staticmethod
    def extensions(monkeypatch):
        """Counts the forall extensions evaluation makes."""
        calls = []
        real = teameval.extend_universal

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(teameval, "extend_universal", counted)
        return calls

    def test_agrees_with_naive(self, monkeypatch):
        calls = self.extensions(monkeypatch)
        for text, extended in self.SHAPES:
            phi = parse_formula(text, self.REGISTRY, ["c"])
            for structure in self.structures():
                for team in enumerate_teams(structure.domain, ("x", "z")):
                    want = team_eval(structure, team, phi, "naive",
                                     self.REGISTRY)
                    del calls[:]
                    got = team_eval(structure, team, phi, "optimized",
                                    self.REGISTRY)
                    assert got == want, f"{text} on {sorted(team.rows)}"
                    assert calls == extended, text

    def test_empty_team(self):
        structure = next(self.structures())
        empty = Team(["x", "z"])
        for text, _ in self.SHAPES:
            phi = parse_formula(text, self.REGISTRY, ["c"])
            verdicts = {team_eval(structure, empty, phi, strategy,
                                  self.REGISTRY)
                        for strategy in ("naive", "optimized")}
            # ne fails on the empty guarded subteam; the rest hold
            assert verdicts == {"ne(" not in text}, text

    def test_uninterpreted_symbols_fall_back(self, monkeypatch):
        calls = self.extensions(monkeypatch)
        m = Structure(["e1", "e2"], {}, {"E": (2, [("e1", "e2")])})
        team = Team(["x"], [("e1",)])
        for text in ("forall z. ((E(x,z) & G(z)) ->> dep(x;z))",
                     "forall z. (E(x,z,z) ->> dep(x;z))",
                     "forall z. ((E(x,z) & z!=c) ->> dep(x;z))"):
            phi = parse_formula(text, constants=["c"])
            for strategy in ("naive", "optimized"):
                del calls[:]
                with pytest.raises(DomainError):
                    team_eval(m, team, phi, strategy)
                assert calls == ["z"]

    def test_guarded_dep_needs_no_extension(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("forall extended the team")

        instance = build_parity_instance(3)
        guarded = next(f for f in subformulas(instance.formula)
                       if isinstance(f, Forall) and f.var == "z1")
        team = Team(["n", "np", "v", "vp"],
                    [("1", "2", "1", "3"), ("2", "3", "3", "1")])
        want = team_eval(instance.structure, team, guarded, "naive",
                         instance.registry)
        monkeypatch.setattr(teameval, "extend_universal", refuse)
        assert team_eval(instance.structure, team, guarded, "optimized",
                         instance.registry) == want


class TestBudget:
    def test_budget_exceeded_is_an_error_not_an_answer(self):
        structure = Structure(["e1", "e2", "e3"])
        team = full_team(("x", "y"), structure)
        phi = parse_formula("exists u. forall z. (anon(x;u) | dep(z;u))")
        with pytest.raises(BudgetExceededError):
            team_eval(structure, team, phi, "naive", budget=50)

    def test_nodes_counted(self):
        ev = Evaluator(M, strategy="memoized")
        ev.eval(Team(["x"], [("a",)]), parse_formula("E(x,x) | x=x"))
        assert ev.nodes > 0


class TestRegistryErrors:
    def test_unregistered_dependency(self):
        from teamsem.errors import DependencyLookupError
        phi = parse_formula("D:ghost(x)", Registry([fo_dependency(
            "ghost", 1, "forall x. (R(x) -> x=x)")]))
        with pytest.raises(DependencyLookupError):
            team_eval(M, Team(["x"], [("a",)]), phi, registry=Registry([]))
        with pytest.raises(DependencyLookupError):
            team_eval(M, Team(["x"], [("a",)]), phi, registry=None)


class TestSentences:
    def test_even_cardinality_core_case(self):
        # Fixed-point-free pairing sentence fragment: needs a partner.
        phi = parse_formula("forall x. exists y. (dep(x;y) & x!=y)")
        assert eval_sentence(Structure(["a", "b"]), phi)
        assert eval_sentence(Structure(["a"]), phi) is False
