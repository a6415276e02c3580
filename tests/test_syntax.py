import itertools

import pytest
from hypothesis import given, strategies as st

from teamsem.dependencies import Registry, functional_dependency
from teamsem.errors import FormulaSyntaxError, ValidationError
from teamsem.structures import Structure, enumerate_relations
from teamsem.syntax import (And, BuiltinAtom, ConstSym, Eq, Exists, Forall,
                            GlobalOr, Hook, Implies, NamedDep,
                            Not, Or, RelAtom, Var, free_vars,
                            hook_desugared, parse_formula, parse_fo_sentence,
                            to_nnf, to_text, validate_ded,
                            validate_team_formula, validate_usentence)
from teamsem.tarski import tarski_eval


class TestParser:
    def test_functional_dependence_atom(self):
        assert parse_formula("dep(x;y)") == BuiltinAtom("dep", ("x",), ("y",))

    def test_quantified_tree_with_hook(self):
        phi = parse_formula("exists x. (R(x) & forall y. (R(y) ->> y=x))")
        assert isinstance(phi, Exists)
        body = phi.body
        assert isinstance(body, And) and isinstance(body.right, Forall)
        assert isinstance(body.right.body, Hook)

    def test_negated_dependency_atom_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("!dep(x;y)")

    def test_constancy_shorthand(self):
        assert parse_formula("dep(;w)") == BuiltinAtom("dep", (), ("w",))

    def test_builtin_atom_rejects_shapes_the_parser_rejects(self):
        for kind, left, right in [("foo", ("x",), ("y",)),
                                  ("const", ("x",), ("y",)),
                                  ("ne", (), ()),
                                  ("dep", ("x",), ()),
                                  ("ind", (), ("y",)),
                                  ("inc", ("x", "y"), ("z",))]:
            with pytest.raises(ValidationError):
                BuiltinAtom(kind, left, right)

    def test_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("E(x,")
        assert err.value.position is not None

    def test_unknown_dependency_name(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("D:mystery(x)")

    def test_registry_arity_mismatch(self):
        reg = Registry([functional_dependency(1, 1)])
        with pytest.raises(FormulaSyntaxError):
            parse_formula("D:dep_1_1(x)", reg)
        assert parse_formula("D:dep_1_1(x,y)", reg) == NamedDep("dep_1_1", ("x", "y"))

    def test_implication_rejected_in_team_formulas(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("R(x) -> x=y")

    def test_constants_resolve(self):
        phi = parse_formula("x=one", constants=("one",))
        assert phi == Eq(Var("x"), ConstSym("one"))

    def test_precedence(self):
        phi = parse_formula("x=y & y=z | ne(x) <|> const(z)")
        assert isinstance(phi, GlobalOr)
        assert isinstance(phi.left, Or)
        assert isinstance(phi.left.left, And)

    def test_hook_left_must_be_first_order(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("ne(x) ->> x=y")

    def test_inc_arity_mismatch(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("inc(x;y,z)")


def _ast_strategy():
    variables = st.sampled_from(["x", "y", "z"])
    terms = variables.map(Var)
    literal = st.one_of(
        st.builds(Eq, terms, terms, st.booleans()),
        st.builds(lambda ts, pos: RelAtom("E", tuple(ts), pos),
                  st.lists(terms, min_size=2, max_size=2), st.booleans()),
        st.builds(lambda kind, v, w: BuiltinAtom(kind, (v,), (w,)),
                  st.sampled_from(["dep", "inc", "ind", "anon"]),
                  variables, variables),
        st.builds(lambda kind, v: BuiltinAtom(kind, (v,)),
                  st.sampled_from(["const", "ne"]), variables),
        st.builds(lambda w: BuiltinAtom("dep", (), (w,)), variables),
    )

    def extend(children):
        guards = st.one_of(
            st.builds(Eq, terms, terms, st.booleans()),
            st.builds(lambda ts, pos: RelAtom("E", tuple(ts), pos),
                      st.lists(terms, min_size=2, max_size=2), st.booleans()))
        return st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(GlobalOr, children, children),
            st.builds(Hook, guards, children),
            st.builds(Exists, variables, children),
            st.builds(Forall, variables, children),
        )

    return st.recursive(literal, extend, max_leaves=8)


class TestPrinterRoundTrip:
    @given(_ast_strategy())
    def test_parse_print_identity(self, phi):
        reg = Registry([])
        assert parse_formula(to_text(phi), reg) == phi

    def test_fo_roundtrip_with_implication(self):
        text = "forall x,y,z. ((R(x,y) & R(x,z)) -> y=z)"
        phi = parse_fo_sentence(text)
        assert parse_fo_sentence(to_text(phi)) == phi


class TestNnf:
    def test_de_morgan(self):
        phi = Not(And(RelAtom("R", (Var("x"),)), Eq(Var("x"), Var("y"))))
        assert to_text(to_nnf(phi)) == "!R(x) | x!=y"

    def test_quantifier_dual(self):
        phi = Not(Exists("x", RelAtom("R", (Var("x"),))))
        assert to_text(to_nnf(phi)) == "forall x. !R(x)"

    def test_double_negation(self):
        phi = Not(Not(RelAtom("R", (Var("x"),))))
        assert to_nnf(phi) == RelAtom("R", (Var("x"),))

    def test_negation_over_dependency_atom_rejected(self):
        with pytest.raises(TypeError):
            to_nnf(Not(BuiltinAtom("dep", ("x",), ("y",))))

    def test_result_is_team_valid(self):
        phi = Not(Implies(RelAtom("E", (Var("x"), Var("y"))),
                          Exists("z", Eq(Var("z"), Var("x")))))
        validate_team_formula(to_nnf(phi))

    def test_tarski_equivalent_exhaustively(self):
        cases = [
            Not(Implies(RelAtom("E", (Var("x"), Var("y"))), Eq(Var("x"), Var("y")))),
            Not(Forall("z", Or(RelAtom("E", (Var("z"), Var("x"))),
                               Eq(Var("z"), Var("y"))))),
            Implies(Not(RelAtom("E", (Var("x"), Var("x")))),
                    Exists("z", And(RelAtom("E", (Var("x"), Var("z"))),
                                    Not(Eq(Var("z"), Var("y")))))),
            Not(Not(Hook(Eq(Var("x"), Var("y")), RelAtom("E", (Var("x"), Var("y")))))),
        ]
        for phi in cases:
            nnf = to_nnf(phi)
            validate_team_formula(nnf)
            for m in range(1, 4):
                domain = [f"e{i}" for i in range(m)]
                for rel in enumerate_relations(domain, 2):
                    structure = Structure(domain, {}, {"E": (2, rel)})
                    for row in itertools.product(domain, repeat=2):
                        s = dict(zip(("x", "y"), row))
                        assert tarski_eval(structure, s, phi) == \
                            tarski_eval(structure, s, nnf)


class TestValidateDed:
    def test_functional(self):
        ded = validate_ded("forall x,y,z. ((R(x,y) & R(x,z)) -> y=z)")
        assert ded.forall_vars == ("x", "y", "z")
        assert len(ded.disjuncts) == 1
        assert ded.disjuncts[0][0] == ()
        assert ded.rel_arity == 2

    def test_nonemptiness(self):
        ded = validate_ded("forall x. (x=x -> exists y1,y2. R(y1,y2))")
        assert ded.antecedent == ()  # trivial identity renders as empty
        assert ded.disjuncts[0][0] == ("y1", "y2")

    def test_negated_consequent_rejected(self):
        with pytest.raises(ValidationError):
            validate_ded("forall x,y. (R(x,y) -> exists z. !R(z,x))")

    def test_inequality_rejected(self):
        with pytest.raises(ValidationError):
            validate_ded("forall x,y. (R(x,y) -> x!=y)")

    def test_disjunctive_consequent(self):
        ded = validate_ded("forall x. (R(x) -> ((exists y. R(y)) | x=x))")
        assert len(ded.disjuncts) == 2

    def test_roundtrip_tarski_equivalent(self):
        text = "forall x,y. (R(x,y) -> exists z. R(z,x))"
        ded = validate_ded(text)
        phi, psi = parse_fo_sentence(text), ded.to_formula()
        for m in range(1, 3):
            domain = [f"e{i}" for i in range(m)]
            for rel in enumerate_relations(domain, 2):
                structure = Structure(domain, {}, {"R": (2, rel)})
                assert tarski_eval(structure, {}, phi) == \
                    tarski_eval(structure, {}, psi)


class TestValidateUsentence:
    def test_constancy_like(self):
        u = validate_usentence("exists x. (x=x & forall y. (R(y) -> y=x))")
        assert u.exists_vars == ("x",)
        assert to_text(u.theta) == "y=x"
        # Independent check: the sentence holds exactly when |R| <= 1.
        for m in range(1, 4):
            domain = [f"e{i}" for i in range(m)]
            for rel in enumerate_relations(domain, 1):
                structure = Structure(domain, {}, {"R": (1, rel)})
                assert tarski_eval(structure, {}, u.to_formula()) == (len(rel) <= 1)

    def test_singleton_class(self):
        u = validate_usentence("exists x. (R(x) & forall y. (R(y) -> y=x))")
        for m in range(1, 4):
            domain = [f"e{i}" for i in range(m)]
            for rel in enumerate_relations(domain, 1):
                structure = Structure(domain, {}, {"R": (1, rel)})
                assert tarski_eval(structure, {}, u.to_formula()) == (len(rel) == 1)

    def test_negative_r_in_eta_rejected(self):
        with pytest.raises(ValidationError):
            validate_usentence("exists x. (!R(x) & forall y. (R(y) -> y=y))")

    def test_r_in_theta_rejected(self):
        with pytest.raises(ValidationError):
            validate_usentence("exists x. (R(x) & forall y. (R(y) -> R(x)))")

    def test_prefix_overlap_rejected(self):
        with pytest.raises(ValidationError):
            validate_usentence("exists y. (R(y) & forall y. (R(y) -> y=y))")

    def test_pure_universal_shape(self):
        u = validate_usentence("forall y. (R(y) -> y!=y)")
        assert u.exists_vars == () and u.eta == ()

    def test_quantified_theta_allowed(self):
        u = validate_usentence("exists x. (R(x) & forall y. (R(y) -> exists z. z=x))")
        assert "exists" in to_text(u.theta)


class TestFreeVars:
    def test_quantifier_binding(self):
        phi = parse_formula("exists z. (E(x,z) & dep(z;y))")
        assert free_vars(phi) == {"x", "y"}

    def test_hook_desugaring_shape(self):
        hook = parse_formula("x=y ->> dep(x;y)")
        sugar = hook_desugared(hook)
        assert to_text(sugar) == "x!=y | x=y & dep(x;y)"
