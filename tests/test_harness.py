import itertools
import random
import time

import pytest

from teamsem.dependencies import (Registry, fo_dependency,
                                  functional_dependency, nonemptiness)
from teamsem.errors import DomainError
from teamsem import teameval
from teamsem.harness import (build_chain_instance, build_parity_instance,
                             chain_oracle, check_semantic_equivalence,
                             enumerate_instances, even_cardinality_sentence,
                             fo_formula_corpus, guarded_forall_corpus,
                             hook_formula_corpus,
                             involution_oracle, parity_oracle,
                             u_transfer_check)
from teamsem.structures import RelStructure, Structure, Team
from teamsem.syntax import (free_vars, hook_desugared, parse_formula, to_text,
                            validate_team_formula, validate_usentence)
from teamsem.teameval import eval_sentence, team_eval


class TestEnumerateInstances:
    def test_count_at_smallest_bound(self):
        got = list(enumerate_instances(1, 1, ("x",)))
        assert len(got) == 4  # 1 domain, 2 relations, 2 teams

    def test_unary_relation_count_per_domain(self):
        got = list(enumerate_instances(2, 1, ("x",)))
        by_domain = {}
        for structure, _ in got:
            key = structure.domain
            by_domain.setdefault(key, set()).add(structure.relations["R"].tuples)
        assert len(by_domain[("e1",)]) == 2
        assert len(by_domain[("e1", "e2")]) == 4

    def test_enumeration_order_is_stable(self):
        golden = [
            "Structure(domain=['e1'], constants={}, relations={'R': []}) "
            "Team(vars=['x'], rows=[])",
            "Structure(domain=['e1'], constants={}, relations={'R': []}) "
            "Team(vars=['x'], rows=[('e1',)])",
            "Structure(domain=['e1'], constants={}, relations={'R': [('e1',)]}) "
            "Team(vars=['x'], rows=[])",
            "Structure(domain=['e1'], constants={}, relations={'R': [('e1',)]}) "
            "Team(vars=['x'], rows=[('e1',)])",
        ]
        got = [f"{s!r} {t!r}" for s, t in enumerate_instances(1, 1, ("x",))]
        assert got == golden

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            list(enumerate_instances(0, 1))


class TestSemanticEquivalence:
    def test_hook_desugaring_equivalent(self):
        hook = parse_formula("x=y ->> dep(x;y)")
        assert check_semantic_equivalence(hook, hook_desugared(hook),
                                          max_domain=2).passed

    def test_functional_atom_matches_fo_definition(self):
        dep = fo_dependency("fdep", 2,
                            "forall x,y,z. ((R(x,y) & R(x,z)) -> y=z)")
        registry = Registry([dep])
        atom = parse_formula("dep(x;y)")
        named = parse_formula("D:fdep(x,y)", registry)
        assert check_semantic_equivalence(atom, named, max_domain=3,
                                          registry=registry).passed

    def test_ne_const_counterexample(self):
        verdict = check_semantic_equivalence(parse_formula("ne(x)"),
                                             parse_formula("const(x)"),
                                             max_domain=2)
        assert not verdict.passed
        assert verdict.counterexample is not None

    def test_symmetric_and_reflexive(self):
        a, b = parse_formula("ne(x)"), parse_formula("const(x)")
        assert check_semantic_equivalence(a, a, max_domain=2).passed
        assert check_semantic_equivalence(b, b, max_domain=2).passed
        assert check_semantic_equivalence(a, b, max_domain=2).passed == \
            check_semantic_equivalence(b, a, max_domain=2).passed


class TestFormulaCorpus:
    def test_deterministic_and_distinct(self):
        a = fo_formula_corpus(count=50, seed=3)
        b = fo_formula_corpus(count=50, seed=3)
        assert [to_text(f) for f in a] == [to_text(f) for f in b]
        assert len({to_text(f) for f in a}) == 50

    def test_all_team_valid_with_expected_free_vars(self):
        for phi in fo_formula_corpus(count=100, seed=5):
            validate_team_formula(phi)
            assert free_vars(phi) <= {"x", "y"}

    def test_hook_corpus(self):
        hooks = hook_formula_corpus(count=20, seed=6)
        assert len(hooks) == 20
        for h in hooks:
            validate_team_formula(h)


class TestGuardedForallCorpus:
    def test_deterministic_distinct_and_valid(self):
        a = guarded_forall_corpus(30, seed=4)
        assert [to_text(f) for f in a] == \
            [to_text(f) for f in guarded_forall_corpus(30, seed=4)]
        assert len({to_text(f) for f in a}) == 30
        for phi in a:
            validate_team_formula(phi)
            assert free_vars(phi) <= {"x", "y"}

    def test_strategies_agree(self, monkeypatch):
        # One fixed seed: seeded structures over domains 1-3 and teams of
        # at most 3 rows over x, y.
        start = time.time()
        rng = random.Random(16)
        extended = []
        real = teameval.extend_universal

        def counted(*args):
            extended.append(args[1])
            return real(*args)

        monkeypatch.setattr(teameval, "extend_universal", counted)
        formulas = guarded_forall_corpus(60, seed=16)
        checked = fused = 0
        for m in (1, 2, 3):
            domain = [f"e{i + 1}" for i in range(m)]
            cells = {k: list(itertools.product(domain, repeat=k)) for k in (2, 3)}
            rows = list(itertools.product(domain, repeat=2))
            teams = [Team(("x", "y"), c) for k in range(4)
                     for c in itertools.combinations(rows, k)]
            for _ in range(3):
                structure = Structure(domain, {"c": "e1"}, {
                    "E": (2, [t for t in cells[2] if rng.random() < 0.4]),
                    "T": (3, [t for t in cells[3] if rng.random() < 0.3])})
                for phi in formulas:
                    for team in teams:
                        want = team_eval(structure, team, phi, "naive")
                        assert team_eval(structure, team, phi,
                                         "memoized") == want
                        del extended[:]
                        assert team_eval(structure, team, phi,
                                         "optimized") == want, \
                            f"{to_text(phi)} on {structure} {team}"
                        fused += not extended
                        checked += 1
        # the corpus reaches both the fused path and its fallback
        assert 0 < fused < checked
        print(f"guarded forall corpus: {checked} instances agreed, "
              f"{fused} fused, {time.time() - start:.1f}s")


class TestChainInstances:
    def test_nonempty_link_below_threshold(self):
        inst = build_chain_instance(3, nonemptiness(1),
                                    [[], [("a",)], [("a",), ("b",)]],
                                    ["a", "b"])
        assert chain_oracle(inst) is True  # the second link is nonempty
        assert eval_sentence(inst.structure, inst.formula, "optimized",
                             inst.registry) is True

    def test_all_links_empty(self):
        inst = build_chain_instance(3, nonemptiness(1), [[], [], []],
                                    ["a", "b"])
        assert chain_oracle(inst) is False
        assert eval_sentence(inst.structure, inst.formula, "optimized",
                             inst.registry) is False

    def test_functional_prefix(self):
        dep11 = functional_dependency(1, 1)
        chain = [[("a", "a")], [("a", "a"), ("a", "b")]]
        inst = build_chain_instance(2, dep11, chain, ["a", "b"])
        assert chain_oracle(inst) is True  # the first link is functional
        assert eval_sentence(inst.structure, inst.formula, "optimized",
                             inst.registry) is True

    def test_threshold_one_sees_nothing(self):
        inst = build_chain_instance(1, nonemptiness(1), [[("a",)]], ["a"])
        assert chain_oracle(inst) is False
        assert eval_sentence(inst.structure, inst.formula, "optimized",
                             inst.registry) is False

    def test_validation(self):
        with pytest.raises(DomainError):
            build_chain_instance(1, nonemptiness(1),
                                 [[("a",)], []], ["a"])  # not increasing
        with pytest.raises(DomainError):
            build_chain_instance(5, nonemptiness(1), [[("a",)]], ["a"])


class TestParity:
    def test_oracle_values(self):
        assert [parity_oracle(ell) for ell in (2, 3, 4, 5, 6)] == \
            [True, False, True, False, True]

    def test_model_shape(self):
        inst = build_parity_instance(3)
        assert len(inst.structure.domain) == 9
        assert inst.structure.constants == {"one": "1", "end": "3"}
        q = inst.structure.relations["Q"].tuples
        assert ("2", "p2", "q2") in q and len(q) == 3

    def test_smallest_even_case(self):
        inst = build_parity_instance(2)
        assert eval_sentence(inst.structure, inst.formula, "optimized",
                             inst.registry) is True

    def test_rejects_tiny(self):
        with pytest.raises(DomainError):
            build_parity_instance(1)


class TestEvenCardinality:
    def test_small_domains(self):
        phi = even_cardinality_sentence()
        for size in (1, 2, 3):
            structure = Structure([f"e{i}" for i in range(size)])
            assert eval_sentence(structure, phi, "optimized") == \
                involution_oracle(size)

    def test_without_symmetry_clause_a_three_cycle_sneaks_in(self):
        # The weaker variant only asks for an injective fixed-point-free
        # self-map, which a 3-cycle provides; the mirror-image clause is
        # what forces the pairing and with it even cardinality.
        weak = parse_formula(
            "forall x. exists y. forall z. exists w. ("
            "dep(x;y) & dep(z;w)"
            " & ((x=z & y!=w) ->> x!=x)"
            " & ((x!=z & y=w) ->> x!=x)"
            " & x!=y)")
        structure = Structure(["e0", "e1", "e2"])
        assert eval_sentence(structure, weak, "optimized") is True
        assert involution_oracle(3) is False


class TestUTransfer:
    def test_identical_instances_pass(self):
        catalogue = [validate_usentence("exists x. (R(x) & forall y. (R(y) -> y=y))")]
        inst = RelStructure.make(["a"], 1, [("a",)])
        assert u_transfer_check(inst, inst, catalogue).passed

    def test_nonemptiness_violation(self):
        catalogue = [validate_usentence("exists x. (R(x) & forall y. (R(y) -> y=y))")]
        a = RelStructure.make(["a"], 1, [("a",)])
        b = RelStructure.make(["a"], 1, [])
        verdict = u_transfer_check(a, b, catalogue)
        assert not verdict.passed
        assert len(verdict.counterexample["violations"]) == 1

    def test_singleton_class_violation(self):
        catalogue = [validate_usentence(
            "exists x. (R(x) & forall y. (R(y) -> y=x))")]
        a = RelStructure.make(["a", "b"], 1, [("a",)])
        b = RelStructure.make(["a", "b"], 1, [("a",), ("b",)])
        assert not u_transfer_check(a, b, catalogue).passed
        assert u_transfer_check(b, a, catalogue).passed  # nothing to transfer
