import itertools

import pytest

from teamsem.dependencies import (Dependency, Registry, anonymity,
                                  antisymmetry_egd, check_closure_properties,
                                  check_domain_independence,
                                  check_hom_preservation,
                                  check_union_chain_preservation, constancy,
                                  ded_dependency, dep_class_sentence,
                                  dep_holds, extensional_dependency,
                                  fo_dependency, functional_dependency,
                                  inclusion, independence, nonemptiness,
                                  search_hom_counterexample)
from teamsem.errors import (DependencyLookupError, DomainError,
                            ValidationError)
from teamsem.structures import RelStructure, Structure, enumerate_relations
from teamsem.teameval import eval_sentence

DEP11 = functional_dependency(1, 1)
NE1 = nonemptiness(1)


class TestDepHolds:
    def test_functional(self):
        assert dep_holds(DEP11, ["a", "b"], [("a", "a"), ("b", "a")])
        assert not dep_holds(DEP11, ["a", "b"], [("a", "a"), ("a", "b")])

    def test_nonemptiness(self):
        assert not dep_holds(NE1, ["a"], [])
        assert dep_holds(NE1, ["a"], [("a",)])

    def test_antisymmetry_egd(self):
        antisym = antisymmetry_egd()
        assert not dep_holds(antisym, ["a", "b"], [("a", "b"), ("b", "a")])
        assert dep_holds(antisym, ["a", "b"], [("a", "b")])
        assert dep_holds(antisym, ["a"], [("a", "a")])

    def test_builtin_catalogue(self):
        assert dep_holds(constancy(1), ["a", "b"], [("a",)])
        assert not dep_holds(constancy(1), ["a", "b"], [("a",), ("b",)])
        assert dep_holds(inclusion(1), ["a", "b"], [("a", "a"), ("b", "a")]) is False
        assert dep_holds(inclusion(1), ["a", "b"], [("a", "b"), ("b", "a")])
        assert dep_holds(independence(1, 1), ["a", "b"],
                         [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")])
        assert not dep_holds(anonymity(1, 1), ["a", "b"], [("a", "a")])

    def test_arity_checked(self):
        with pytest.raises(DomainError):
            dep_holds(DEP11, ["a"], [("a",)])

    def test_extensional_lookup_and_strict_miss(self):
        dep = extensional_dependency("table", 1, [
            (["a"], [("a",)], True),
            (["a"], [], False),
        ])
        assert dep_holds(dep, ["a"], [("a",)])
        assert not dep_holds(dep, ["a"], [])
        with pytest.raises(DependencyLookupError):
            dep_holds(dep, ["a", "b"], [("b",)])

    def test_extensional_default_policies(self):
        dep = extensional_dependency("perm", 1, [], default="true")
        assert dep_holds(dep, ["a"], [])
        dep = extensional_dependency("none", 1, [], default="false")
        assert not dep_holds(dep, ["a"], [("a",)])


class TestDownwardClosedCertificates:
    def test_builtins(self):
        assert DEP11.downward_closed
        assert constancy(1).downward_closed
        for dep in (NE1, inclusion(1), independence(1, 1), anonymity(1, 1)):
            assert not dep.downward_closed

    def test_universal_ded_qualifies(self):
        assert antisymmetry_egd().downward_closed

    def test_disjunctive_egd_qualifies(self):
        egd = ded_dependency(
            "two", "forall x,y,z. ((R(x) & R(y) & R(z)) -> (x=y | y=z | x=z))")
        assert egd.downward_closed

    def test_existential_ded_does_not(self):
        ne_ded = ded_dependency("ne_ded", "forall x. (x=x -> exists y. R(y))")
        assert not ne_ded.downward_closed

    @pytest.mark.parametrize("text", [
        "forall u,v. (R(u,v) -> R(v,u))",
        "forall u,v,w. (R(u,v) -> R(u,w))",
        "forall u,v. (R(u,v) -> (u=v | R(v,u)))",
    ], ids=["symmetry", "totality", "disjunct-with-atom"])
    def test_universal_ded_with_consequent_atom_does_not(self, text):
        # Each holds on some relation and fails on a subrelation of it.
        dep = fo_dependency("d", 2, text)
        assert not dep.downward_closed
        domain = ["a", "b"]
        assert any(dep_holds(dep, domain, big)
                   and not dep_holds(dep, domain, small)
                   for big in enumerate_relations(domain, 2)
                   for small in enumerate_relations(domain, 2)
                   if small < big)


class TestClassSentence:
    @pytest.mark.parametrize("dep", [NE1, DEP11], ids=lambda d: d.name)
    def test_matches_membership_exhaustively(self, dep):
        sentence = dep_class_sentence(dep)
        registry = Registry([dep])
        for m in range(1, 4):
            domain = [f"e{i + 1}" for i in range(m)]
            for rel in enumerate_relations(domain, dep.arity):
                structure = Structure(domain, {}, {"R": (dep.arity, rel)})
                want = dep_holds(dep, domain, rel)
                got = eval_sentence(structure, sentence, "optimized", registry)
                assert got == want, (domain, sorted(rel))

    def test_nonemptiness_verdicts(self):
        reg = Registry([NE1])
        sentence = dep_class_sentence(NE1)
        m = Structure(["a"], {}, {"R": (1, [("a",)])})
        assert eval_sentence(m, sentence, "memoized", reg)
        m0 = Structure(["a"], {}, {"R": (1, [])})
        assert not eval_sentence(m0, sentence, "memoized", reg)


class TestBuiltinsAgainstFoEncodings:
    @pytest.mark.parametrize("builtin,text", [
        (DEP11, "forall x,y,z. ((R(x,y) & R(x,z)) -> y=z)"),
        (NE1, "forall x. (x=x -> exists y. R(y))"),
        (inclusion(1), "forall x,y. (R(x,y) -> exists z. R(z,x))"),
        (anonymity(1, 1), "forall x,y. (R(x,y) -> exists z. (R(x,z) & z!=y))"),
    ], ids=("dep11", "ne", "inc", "anon"))
    def test_same_class(self, builtin, text):
        fo = fo_dependency(f"fo_{builtin.name}", builtin.arity, text)
        for m in range(1, 4):
            domain = [f"e{i + 1}" for i in range(m)]
            for rel in enumerate_relations(domain, builtin.arity):
                assert dep_holds(builtin, domain, rel) == \
                    dep_holds(fo, domain, rel), (builtin.name, domain, sorted(rel))


def even_cardinality_dependency(max_domain=3):
    """The pathological dependency that inspects the ambient domain size,
    tabulated over the checker's canonical pools."""
    pool = [f"e{i + 1}" for i in range(max_domain)]
    table = []
    for size in range(1, max_domain + 1):
        for dom in itertools.combinations(pool, size):
            for rel in enumerate_relations(dom, 1):
                table.append((dom, rel, len(dom) % 2 == 0))
    return extensional_dependency("even_domain", 1, table)


class TestDomainIndependence:
    def test_ne_passes(self):
        assert check_domain_independence(NE1, 3).passed

    def test_dep11_passes(self):
        assert check_domain_independence(DEP11, 3).passed

    def test_domain_size_sniffing_caught(self):
        verdict = check_domain_independence(even_cardinality_dependency(), 3)
        assert not verdict.passed
        cx = verdict.counterexample
        assert cx == {"domain_m": ["e1"], "domain_n": ["e1", "e2"],
                      "relation": []}


class TestClosureProperties:
    def test_functional_profile(self):
        report = check_closure_properties(DEP11, 3)
        assert report["downwards"].passed
        assert not report["upwards"].passed
        assert not report["union_closed"].passed
        assert report["isomorphism_closed"].passed
        # Reported counterexamples must actually violate the property.
        up = report["upwards"].counterexample
        assert dep_holds(DEP11, up["domain"], up["relation"])
        assert not dep_holds(DEP11, up["domain"], up["superrelation"])
        un = report["union_closed"].counterexample
        assert dep_holds(DEP11, un["domain"], un["relation_1"])
        assert dep_holds(DEP11, un["domain"], un["relation_2"])
        assert not dep_holds(DEP11, un["domain"], un["union"])

    def test_inclusion_union_closed(self):
        report = check_closure_properties(inclusion(1), 3)
        assert report["union_closed"].passed

    def test_ne_profile(self):
        report = check_closure_properties(NE1, 3)
        assert report["upwards"].passed
        assert not report["downwards"].passed
        cx = report["downwards"].counterexample
        assert cx["relation"] and not cx["subrelation"]

    def test_broken_extensional_table_flagged(self):
        dep = extensional_dependency("lopsided", 1, [
            (["e1"], [("e1",)], True),
        ], default="false")
        report = check_closure_properties(dep, 1)
        assert not report["isomorphism_closed"].passed
        assert dep.isomorphism_closure_recorded() is False


class TestUnionChainPreservation:
    def test_functional_chain_passes(self):
        chain = [[("a", "a")], [("a", "a"), ("b", "b")]]
        assert check_union_chain_preservation(DEP11, ["a", "b"], chain).passed

    def test_ded_dependencies_pass_on_all_small_chains(self):
        domain = ["e1", "e2"]
        rels = list(enumerate_relations(domain, 1))
        ne_ded = ded_dependency("ne_ded", "forall x. (x=x -> exists y. R(y))")
        for r1, r2 in itertools.product(rels, repeat=2):
            if not r1 <= r2:
                continue
            assert check_union_chain_preservation(ne_ded, domain, [r1, r2]).passed

    def test_non_chain_rejected(self):
        with pytest.raises(DomainError):
            check_union_chain_preservation(DEP11, ["a", "b"],
                                           [[("a", "a")], [("b", "b")]])

    def test_finite_chains_cannot_trap_a_coherent_dependency(self):
        # The union of a finite inclusion chain is its last link, so the
        # premise already contains the conclusion; only an incoherent
        # dependency implementation could produce a counterexample.  An
        # extensional table that dislikes the union necessarily breaks the
        # premise instead.
        table = [(["a"], [], True), (["a"], [("a",)], False)]
        antichain = extensional_dependency("antichain", 1, table)
        verdict = check_union_chain_preservation(
            antichain, ["a"], [[], [("a",)]])
        assert verdict.passed  # vacuously: the last link is off the class


class TestHomPreservation:
    def test_ded_dependency_preserved(self):
        inc_ded = ded_dependency("inc_ded",
                                 "forall x,y. (R(x,y) -> exists z. R(z,x))")
        sup = RelStructure.make(["a", "b"], 2, [("a", "a"), ("a", "b")])
        sub = RelStructure.make(["a"], 2, [("a", "a")])
        assert check_hom_preservation(inc_ded, sub, sup).passed

    def test_anonymity_counterexample_found(self):
        found = search_hom_counterexample(anonymity(1, 1), max_b=2)
        assert found == {
            "sub_domain": ["e1"], "sub_relation": [["e1", "e1"]],
            "sup_domain": ["e1", "e2"],
            "sup_relation": [["e1", "e1"], ["e1", "e2"]],
            "hom": {"e1": "e1", "e2": "e1"},
        }
        # Verify the counterexample against the raw definitions.
        assert dep_holds(anonymity(1, 1), found["sup_domain"],
                         found["sup_relation"])
        assert not dep_holds(anonymity(1, 1), found["sub_domain"],
                             found["sub_relation"])

    def test_trivial_identity_case(self):
        s = RelStructure.make(["a"], 1, [("a",)])
        assert check_hom_preservation(NE1, s, s).passed

    def test_no_counterexample_for_ded_backed(self):
        for dep in (DEP11, ded_dependency(
                "ne2", "forall x. (x=x -> exists y1,y2. R(y1,y2))")):
            assert search_hom_counterexample(dep, max_b=2) is None


class TestRegistry:
    def test_duplicate_rejected(self):
        reg = Registry([NE1])
        with pytest.raises(ValidationError):
            reg.register(nonemptiness(1))

    def test_lookup(self):
        reg = Registry([DEP11])
        assert reg.get("dep_1_1") is DEP11
        assert reg.arity_of("dep_1_1") == 2
        with pytest.raises(DependencyLookupError):
            reg.get("missing")


class TestDependencyValidation:
    def test_fo_with_foreign_symbol_rejected(self):
        with pytest.raises(ValidationError):
            fo_dependency("bad", 1, "forall x. (Q(x) -> x=x)")

    def test_fo_arity_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            fo_dependency("bad", 2, "forall x. (R(x) -> x=x)")

    def test_builtin_split_required(self):
        with pytest.raises(ValidationError):
            Dependency("oops", 2, "builtin", builtin="dep")
