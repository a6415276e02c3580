"""Acceptance suite.

One test per criterion; each prints a single pass line with the counts and
timing that justify it.  Run with  pytest tests/test_acceptance.py -v -s
"""

import itertools
import time

import pytest

from teamsem.dependencies import (Registry, anonymity, ded_dependency,
                                  dep_class_sentence, dep_holds,
                                  functional_dependency, nonemptiness,
                                  search_hom_counterexample,
                                  check_hom_preservation,
                                  check_union_chain_preservation)
from teamsem.errors import BudgetExceededError
from teamsem.harness import (build_chain_instance, build_parity_instance,
                             chain_oracle, enumerate_teams,
                             even_cardinality_sentence, fo_formula_corpus,
                             hook_formula_corpus, involution_oracle,
                             parity_oracle)
from teamsem.structures import (RelStructure, Structure, Team,
                                enumerate_relations,
                                enumerate_retraction_homs, restrict_team)
from teamsem.syntax import hook_desugared, to_text, validate_usentence
from teamsem.tarski import tarski_eval, tarski_sentence
from teamsem.teameval import Evaluator, eval_sentence, team_eval
from teamsem.ulogic import usentence_conjoin, usentence_translate

VARS = ("x", "y")


def _domains(max_domain=3):
    for m in range(1, max_domain + 1):
        yield [f"e{i + 1}" for i in range(m)]


def _spot_masks(n: int) -> list[int]:
    full = (1 << n) - 1
    return sorted({0, full, full // 3, full // 5})


@pytest.fixture(scope="module")
def corpus():
    return fo_formula_corpus(count=500, depth=3)


@pytest.fixture(scope="module")
def hooks():
    return hook_formula_corpus(count=120, seed=911)


@pytest.fixture(scope="module")
def catalogue():
    texts_unary = [
        "exists x. (R(x) & forall y. (R(y) -> y=y))",              # nonempty
        "exists x. forall y. (R(y) -> y=x)",                       # constancy class
        "exists x. (R(x) & forall y. (R(y) -> y=x))",              # singleton class
        "exists x. forall y. (R(y) -> y!=y)",                      # empty class
        "exists x. (x=x & forall y. (R(y) -> y=y))",               # trivial
        "forall y. (R(y) -> y!=y)",                                # bare universal
        "exists x1,x2. (R(x1) & R(x2) & x1!=x2 & forall y. (R(y) -> y=y))",
        "exists x. (R(x) & forall y. (R(y) -> exists z. z=x))",    # quantified theta
    ]
    texts_binary = [
        "exists x. forall y1,y2. (R(y1,y2) -> y1=y2)",             # diagonal
        "exists x1,x2. forall y1,y2. (R(y1,y2) -> (y1=x1 & y2=x2))",
        "exists x1,x2. (R(x1,x2) & x1!=x2 & forall y1,y2. (R(y1,y2) -> y1=y1))",
    ]
    unary = [validate_usentence(t) for t in texts_unary]
    binary = [validate_usentence(t) for t in texts_binary]
    combined = [
        usentence_conjoin(unary[0], unary[1]),   # nonempty & constancy
        usentence_conjoin(unary[3], unary[0]),   # unsatisfiable
        usentence_conjoin(binary[0], binary[1]),
    ]
    return unary + binary + combined


def test_criterion_01_flatness(corpus):
    start = time.time()
    assert len(corpus) >= 500
    team_comparisons = row_comparisons = spot_checks = 0
    for domain in _domains():
        rows = sorted(itertools.product(domain, repeat=2))
        n = len(rows)
        singles = [Team(VARS, [r]) for r in rows]
        spots = [(mask, Team(VARS, [rows[i] for i in range(n) if mask >> i & 1]))
                 for mask in _spot_masks(n)]
        for rel in enumerate_relations(domain, 2):
            structure = Structure(domain, {}, {"E": (2, rel)})
            ev = Evaluator(structure, strategy="optimized")
            for phi in corpus:
                tmask = omask = 0
                for i, row in enumerate(rows):
                    if ev.eval(singles[i], phi):
                        tmask |= 1 << i
                    if tarski_eval(structure, dict(zip(VARS, row)), phi):
                        omask |= 1 << i
                row_comparisons += n
                # Team satisfaction of a flat formula is containment of the
                # team's rows in the satisfying-row set on both sides, so
                # equal row masks give pointwise-equal verdicts on every one
                # of the 2^n teams; a mask difference names a concrete
                # mismatching singleton.
                if tmask != omask:
                    bad = next(i for i in range(n) if (tmask ^ omask) >> i & 1)
                    pytest.fail(
                        f"flatness mismatch on {to_text(phi)} at row "
                        f"{rows[bad]} over domain {domain}, E={sorted(rel)}")
                team_comparisons += 1 << n
                for mask, team in spots:
                    got = ev.eval(team, phi)
                    assert got == ((mask & ~omask) == 0), \
                        f"team-level flatness mismatch on {to_text(phi)}"
                    spot_checks += 1
    elapsed = time.time() - start
    assert elapsed < 300, f"flatness sweep took {elapsed:.0f}s (budget 300s)"
    print(f"criterion 1 (flatness): PASS — {len(corpus)} formulas, "
          f"{team_comparisons} team comparisons, {row_comparisons} row "
          f"comparisons, {spot_checks} materialized team checks, "
          f"0 mismatches, {elapsed:.1f}s")


def test_criterion_02_hook_coherence(hooks):
    start = time.time()
    pairs = [(h, hook_desugared(h)) for h in hooks]
    team_comparisons = row_comparisons = spot_checks = 0
    for domain in _domains():
        rows = sorted(itertools.product(domain, repeat=2))
        n = len(rows)
        singles = [Team(VARS, [r]) for r in rows]
        spots = [(mask, Team(VARS, [rows[i] for i in range(n) if mask >> i & 1]))
                 for mask in _spot_masks(n)]
        for rel in enumerate_relations(domain, 2):
            structure = Structure(domain, {}, {"E": (2, rel)})
            ev = Evaluator(structure, strategy="optimized")
            for hook, sugar in pairs:
                for i, single in enumerate(singles):
                    direct = ev.eval(single, hook)
                    restricted = restrict_team(single, hook.guard, structure)
                    via_restrict = ev.eval(restricted, hook.body)
                    via_sugar = ev.eval(single, sugar)
                    assert direct == via_restrict == via_sugar, \
                        f"hook mismatch on {to_text(hook)} at {rows[i]}"
                    row_comparisons += 1
                team_comparisons += 3 * (1 << n)
                for _, team in spots:
                    direct = ev.eval(team, hook)
                    via_restrict = ev.eval(
                        restrict_team(team, hook.guard, structure), hook.body)
                    via_sugar = ev.eval(team, sugar)
                    assert direct == via_restrict == via_sugar, \
                        f"hook team mismatch on {to_text(hook)}"
                    spot_checks += 1
    elapsed = time.time() - start
    print(f"criterion 2 (hook coherence): PASS — {len(hooks)} hooks, "
          f"{team_comparisons} three-way team comparisons, "
          f"{row_comparisons} row comparisons, {spot_checks} materialized "
          f"team checks, 0 mismatches, {elapsed:.1f}s")


def test_criterion_03_translation_soundness(catalogue):
    start = time.time()
    assert len(catalogue) >= 10
    checked = empty_cases = 0
    for sentence in catalogue:
        compiled = usentence_translate(sentence)
        ys = sentence.forall_vars
        assert len(ys) <= 2
        for domain in _domains():
            structure = Structure(domain)
            for team in enumerate_teams(domain, ys):
                rel = set(team.rows)
                rel_structure = Structure(
                    domain, {}, {sentence.rel_name: (sentence.rel_arity, rel)})
                want = tarski_sentence(rel_structure, sentence.to_formula())
                got = team_eval(structure, team, compiled, "optimized")
                assert got == want, \
                    f"translation mismatch: {to_text(sentence.to_formula())} " \
                    f"on team {sorted(team.rows)} over {domain}"
                checked += 1
                if not team.rows:
                    empty_cases += 1
    elapsed = time.time() - start
    assert empty_cases == len(catalogue) * 3  # the empty team at every bound
    print(f"criterion 3 (translation soundness): PASS — "
          f"{len(catalogue)} sentences, {checked} instances "
          f"({empty_cases} with the empty team), 0 mismatches, {elapsed:.1f}s")


def test_criterion_04_conjunction_closure(catalogue):
    start = time.time()
    checked = pairs = 0
    for a, b in itertools.product(catalogue, repeat=2):
        if a.rel_arity != b.rel_arity:
            continue
        conj = usentence_conjoin(a, b)
        pairs += 1
        for domain in _domains():
            for rel in enumerate_relations(domain, a.rel_arity):
                structure = Structure(domain, {},
                                      {a.rel_name: (a.rel_arity, rel)})
                want = (tarski_sentence(structure, a.to_formula())
                        and tarski_sentence(structure, b.to_formula()))
                got = tarski_sentence(structure, conj.to_formula())
                assert got == want, \
                    f"conjunction mismatch for pair over {domain}, R={sorted(rel)}"
                checked += 1
    elapsed = time.time() - start
    print(f"criterion 4 (conjunction closure): PASS — {pairs} pairs, "
          f"{checked} instances, 0 mismatches, {elapsed:.1f}s")


DED_TEXTS = {
    "functional": "forall x,y,z. ((R(x,y) & R(x,z)) -> y=z)",
    "inclusion": "forall x,y. (R(x,y) -> exists z. R(z,x))",
    "independence": "forall x,y,z,w. ((R(x,y) & R(z,w)) -> R(x,w))",
    "nonemptiness": "forall x. (x=x -> exists y1,y2. R(y1,y2))",
}


def _dep_table(dep, domain):
    cells = sorted(itertools.product(domain, repeat=2))
    table = []
    for mask in range(1 << len(cells)):
        rel = frozenset(cells[i] for i in range(len(cells)) if mask >> i & 1)
        table.append(dep_holds(dep, domain, rel))
    return cells, table


def test_criterion_05_ded_theorem_conformance():
    start = time.time()
    deps = {name: ded_dependency(name, text) for name, text in DED_TEXTS.items()}
    chain_instances = hom_instances = 0
    spot = 0
    for name, dep in deps.items():
        for domain in _domains():
            cells, table = _dep_table(dep, domain)
            ncells = len(cells)
            # Chains of length 1..3 encoded by a first-appearance stage per
            # cell (0 = never); the union of a chain is its last link.
            for length in (1, 2, 3):
                for combo in itertools.product(range(length + 1), repeat=ncells):
                    masks = []
                    for stage in range(1, length + 1):
                        masks.append(sum(1 << i for i in range(ncells)
                                         if combo[i] and combo[i] <= stage))
                    if all(table[m] for m in masks):
                        assert table[masks[-1]], \
                            f"{name}: chain violation over {domain}"
                    chain_instances += 1
            # Retraction-homomorphism preservation over every substructure
            # pair with the canonical larger domain.
            for smask in range(1 << ncells):
                s_rel = frozenset(cells[i] for i in range(ncells)
                                  if smask >> i & 1)
                holds_s = table[smask]
                for size_a in range(1, len(domain) + 1):
                    for dom_a in itertools.combinations(domain, size_a):
                        aset = set(dom_a)
                        trace = frozenset(t for t in s_rel
                                          if aset.issuperset(t))
                        sub = RelStructure(tuple(dom_a), 2, trace)
                        sup = RelStructure(tuple(domain), 2, frozenset(s_rel))
                        hom_instances += 1
                        if not holds_s:
                            continue
                        if next(enumerate_retraction_homs(sub, sup), None) is None:
                            continue
                        assert dep_holds(dep, dom_a, trace), \
                            f"{name}: homomorphism violation at {dom_a}, " \
                            f"S={sorted(s_rel)}"
        # Tie the sweep back to the public checkers on a sample.
        sample_domain = ["e1", "e2"]
        sample_cells = sorted(itertools.product(sample_domain, repeat=2))
        for i in range(0, len(sample_cells) + 1):
            chain = [frozenset(sample_cells[:max(0, i - 1)]),
                     frozenset(sample_cells[:i])]
            assert check_union_chain_preservation(dep, sample_domain, chain).passed
            spot += 1
            sub = RelStructure.make(["e1"], 2,
                                    {t for t in chain[1] if set(t) == {"e1"}})
            sup = RelStructure.make(sample_domain, 2, chain[1])
            assert check_hom_preservation(dep, sub, sup).passed
            spot += 1
    elapsed = time.time() - start
    print(f"criterion 5 (DED preservation laws): PASS — {len(deps)} DEDs, "
          f"{chain_instances} chains, {hom_instances} substructure pairs, "
          f"{spot} public-checker spot calls, 0 violations, {elapsed:.1f}s")


def test_criterion_06_anonymity_negative_control():
    start = time.time()
    found = search_hom_counterexample(anonymity(1, 1), max_b=2)
    elapsed = time.time() - start
    assert found is not None, "expected a preservation counterexample"
    assert found["sub_domain"] == ["e1"]
    assert found["sub_relation"] == [["e1", "e1"]]
    assert found["sup_relation"] == [["e1", "e1"], ["e1", "e2"]]
    assert dep_holds(anonymity(1, 1), found["sup_domain"], found["sup_relation"])
    assert not dep_holds(anonymity(1, 1), found["sub_domain"],
                         found["sub_relation"])
    assert elapsed < 10, f"search took {elapsed:.1f}s (budget 10s)"
    print(f"criterion 6 (anonymity negative control): PASS — counterexample "
          f"{found['sub_domain']} inside {found['sup_domain']} found in "
          f"{elapsed:.2f}s")


def test_criterion_07_class_defining_sentence():
    start = time.time()
    checked = 0
    for dep in (nonemptiness(1), functional_dependency(1, 1)):
        sentence = dep_class_sentence(dep)
        registry = Registry([dep])
        for domain in _domains():
            for rel in enumerate_relations(domain, dep.arity):
                structure = Structure(domain, {}, {"R": (dep.arity, rel)})
                want = dep_holds(dep, domain, rel)
                got = eval_sentence(structure, sentence, "optimized", registry)
                assert got == want, \
                    f"{dep.name}: sentence vs membership at {domain}, " \
                    f"R={sorted(rel)}"
                checked += 1
    elapsed = time.time() - start
    print(f"criterion 7 (class-defining sentence): PASS — {checked} "
          f"instances, 0 mismatches, {elapsed:.1f}s")


def test_criterion_08_parity_construction():
    lines = []
    for ell, mode, strategy in [(2, "optimized", "optimized"),
                                (3, "optimized", "optimized"),
                                (4, "optimized", "optimized"),
                                (5, "optimized", "optimized"),
                                (6, "optimized", "optimized"),
                                (2, "naive+symmetry", "naive")]:
        instance = build_parity_instance(ell)
        start = time.time()
        got = eval_sentence(instance.structure, instance.formula, strategy,
                            instance.registry, symmetry_reduction=True)
        elapsed = time.time() - start
        want = parity_oracle(ell)
        assert got == want, f"parity mismatch at ell={ell} ({mode})"
        assert got == (ell % 2 == 0)
        assert elapsed < 300, f"ell={ell} {mode} took {elapsed:.0f}s"
        lines.append(f"ell={ell} {mode}: {str(got).lower()} in {elapsed:.1f}s")
    print("criterion 8 (parity construction): PASS — " + "; ".join(lines))


def test_criterion_09_even_cardinality():
    start = time.time()
    phi = even_cardinality_sentence()
    verdicts = {}
    for size in (1, 2, 3, 4, 5, 6):
        structure = Structure([f"e{i + 1}" for i in range(size)])
        got = eval_sentence(structure, phi, "optimized")
        assert got == involution_oracle(size), f"mismatch at size {size}"
        verdicts[size] = got
    assert verdicts == {1: False, 2: True, 3: False, 4: True, 5: False,
                        6: True}
    elapsed = time.time() - start
    assert elapsed < 120, f"took {elapsed:.0f}s (budget 120s)"
    print(f"criterion 9 (even cardinality): PASS — verdicts {verdicts}, "
          f"{elapsed:.1f}s")


def test_criterion_10_chain_sentence():
    start = time.time()
    checked = 0
    for dep in (nonemptiness(1), functional_dependency(1, 1)):
        for domain in _domains():
            cells = sorted(itertools.product(domain, repeat=dep.arity))
            ncells = len(cells)
            for length in (1, 2, 3):
                for combo in itertools.product(range(length + 1), repeat=ncells):
                    chain = [frozenset(cells[i] for i in range(ncells)
                                       if combo[i] and combo[i] <= stage)
                             for stage in range(1, length + 1)]
                    for threshold in range(1, length + 1):
                        instance = build_chain_instance(threshold, dep, chain,
                                                        domain)
                        got = eval_sentence(instance.structure,
                                            instance.formula, "optimized",
                                            instance.registry)
                        want = chain_oracle(instance)
                        assert got == want, \
                            f"chain mismatch: {dep.name}, d={threshold}, " \
                            f"chain={[sorted(r) for r in chain]}"
                        checked += 1
    elapsed = time.time() - start
    print(f"criterion 10 (chain sentence): PASS — {checked} instances, "
          f"0 mismatches, {elapsed:.1f}s")


def test_criterion_11_strategy_agreement(corpus, hooks, catalogue):
    start = time.time()
    checked = skipped = 0
    formulas = corpus[:12] + hooks[:8]
    for domain in [["e1"], ["e1", "e2"]]:
        for rel in enumerate_relations(domain, 2):
            structure = Structure(domain, {}, {"E": (2, rel)})
            for team in enumerate_teams(domain, VARS):
                if len(team.rows) > 2:
                    continue
                for phi in formulas:
                    try:
                        base = team_eval(structure, team, phi, "naive",
                                         budget=300_000)
                    except BudgetExceededError:
                        skipped += 1
                        continue
                    assert team_eval(structure, team, phi, "memoized") == base
                    assert team_eval(structure, team, phi, "optimized") == base
                    checked += 1
    for sentence in catalogue:
        if sentence.rel_arity != 1:
            continue
        compiled = usentence_translate(sentence)
        for domain in [["e1"], ["e1", "e2"]]:
            structure = Structure(domain)
            for team in enumerate_teams(domain, sentence.forall_vars):
                if len(team.rows) > 2:
                    continue
                try:
                    base = team_eval(structure, team, compiled, "naive",
                                     budget=300_000)
                except BudgetExceededError:
                    skipped += 1
                    continue
                assert team_eval(structure, team, compiled, "memoized") == base
                assert team_eval(structure, team, compiled, "optimized") == base
                checked += 1
    elapsed = time.time() - start
    assert checked >= 1000
    print(f"criterion 11 (strategy agreement): PASS — {checked} instances "
          f"agreed across naive/memoized/optimized, {skipped} beyond the "
          f"naive budget, {elapsed:.1f}s")
