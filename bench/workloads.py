"""The benchmark's workloads.

Each workload has three parts, all given the imported `teamsem` package:

  setup(ts, seed, size)  builds the inputs; it is timed as set-up
  run_pass(ts, inputs, p)  one timed pass: every verdict goes through the
                           `Pass` recorder `p`, in a fixed order
  oracle(ts, inputs)     the expected verdicts of one pass, in the same
                         order, from an oracle that never calls the team
                         evaluator

The same seed gives the same inputs.  A pass always evaluates the same
instances, on evaluators it builds itself, so its counts repeat exactly.

Calls that the traced run times are made through the module attribute
(`ts.syntax.parse_formula`, `ts.ulogic.usentence_translate`) so that the
wrappers in `tracing.py` see them.
"""

from __future__ import annotations

import itertools
import random
import time
from array import array
from dataclasses import dataclass

# Node budget per evaluator: far above the largest instance here (about
# 24k nodes), low enough that a runaway search stops in seconds.
BUDGET = 1_000_000

class Pass:
    """Times and records the verdicts of one pass.

    A verdict that runs out of node budget, memory or recursion depth is
    recorded as undecided (`None`) with its kind; it is never read as a
    verdict.
    """

    def __init__(self, ts, tracer=None):
        self.evaluator = ts.teameval.Evaluator
        self.team = ts.structures.Team
        self.errors = (ts.errors.BudgetExceededError, MemoryError,
                       RecursionError)
        self.tracer = tracer
        self.results: list[bool | None] = []
        self.durations = array("d")
        self.failures: dict[str, int] = {}
        self.nodes = self.memo_entries = self.rowcache_entries = 0
        self.detail: dict[str, dict[str, int]] = {}

    def fresh(self, structure, registry, team, phi, strategy,
              symmetry=None):
        """One verdict on its own evaluator, as `team_eval` and
        `eval_sentence` make one per call; `team=None` is the sentence
        team holding the one empty assignment."""
        start = self._begin()
        ev = self.evaluator(structure, registry, strategy, BUDGET, symmetry)
        if team is None:
            team = self.team((), [()])
        self._end(start, self._eval(ev, team, phi))
        self.retire(ev)
        return ev

    def shared(self, ev, team, phi) -> None:
        """One verdict on an evaluator shared across calls."""
        start = self._begin()
        self._end(start, self._eval(ev, team, phi))

    def retire(self, ev) -> None:
        """Add an evaluator's work to the pass totals."""
        self.nodes += ev.nodes
        self.memo_entries += len(ev._memo)
        self.rowcache_entries += len(ev._rowcache)

    def _begin(self) -> float:
        if self.tracer is not None:
            self.tracer.open_verdict()
        return time.perf_counter()

    def _end(self, start: float, got) -> None:
        elapsed = time.perf_counter() - start
        self.durations.append(elapsed)
        self.results.append(got)
        if self.tracer is not None:
            self.tracer.close_verdict(elapsed)

    def _eval(self, ev, team, phi):
        try:
            return ev.eval(team, phi)
        except self.errors as exc:
            kind = type(exc).__name__
            self.failures[kind] = self.failures.get(kind, 0) + 1
            return None


def _domain(m: int) -> list[str]:
    return [f"e{i + 1}" for i in range(m)]


# --- parity: parity models and even cardinality ---

PARITY_SIZES = {"full": {"ells": (2, 3, 4), "even": (1, 2, 3, 4, 5, 6)},
                "tiny": {"ells": (2,), "even": (1, 2, 3)}}


def parity_setup(ts, seed: int, size: str):
    """The same instances, in the same order, for every seed: the order
    decides which verdict the collector interrupts with a pass's garbage."""
    sizes = PARITY_SIZES[size]
    h = ts.harness
    items = [("ell", ell, h.build_parity_instance(ell)) for ell in sizes["ells"]]
    phi = h.even_cardinality_sentence()
    items += [("even", n, (ts.structures.Structure(_domain(n)), phi))
              for n in sizes["even"]]
    return items


def parity_pass(ts, items, p: Pass) -> None:
    for kind, n, inst in items:
        if kind == "ell":
            # As `teamsem parity --mode optimized` runs it.
            ev = p.fresh(inst.structure, inst.registry, None, inst.formula,
                         "optimized", symmetry=True)
        else:
            structure, phi = inst
            ev = p.fresh(structure, None, None, phi, "optimized")
        p.detail[f"{kind}={n}"] = {"nodes": ev.nodes,
                                   "memo_entries": len(ev._memo)}


def parity_oracle(ts, items) -> list[bool]:
    h = ts.harness
    return [h.parity_oracle(n) if kind == "ell" else h.involution_oracle(n)
            for kind, n, _ in items]


# --- chain: a seeded draw from the indexed-chain sentence space ---

# Instances drawn per (dependency, domain size, chain length, threshold)
# stratum; smaller strata are taken whole.  Threshold 1 leaves no index
# to choose and costs about half as much as the others, so fixing each
# threshold's share keeps the verdict-time median off the gap between the
# two groups.
CHAIN_SIZES = {"full": 600, "tiny": 1}


def chain_setup(ts, seed: int, size: str):
    """Draws without repeats from the space criterion 10 sweeps: every
    chain of length 1-3 over the cells of a domain of size 1-3, every
    threshold, for `nonemptiness(1)` and `functional_dependency(1,1)`."""
    cap = CHAIN_SIZES[size]
    deps = ts.dependencies
    rng = random.Random(seed)
    instances = []
    for dep in (deps.nonemptiness(1), deps.functional_dependency(1, 1)):
        for m in (1, 2, 3):
            domain = _domain(m)
            cells = sorted(itertools.product(domain, repeat=dep.arity))
            for length, threshold in ((1, 1), (2, 1), (2, 2),
                                      (3, 1), (3, 2), (3, 3)):
                # A chain gives each cell the first link it is in, or 0.
                space = (length + 1) ** len(cells)
                for code in rng.sample(range(space), min(space, cap)):
                    stage_of = []
                    for _ in cells:
                        code, digit = divmod(code, length + 1)
                        stage_of.append(digit)
                    chain = [frozenset(c for c, s in zip(cells, stage_of)
                                       if s and s <= stage)
                             for stage in range(1, length + 1)]
                    instances.append(ts.harness.build_chain_instance(
                        threshold, dep, chain, domain))
    return instances


def chain_pass(ts, instances, p: Pass) -> None:
    for inst in instances:
        p.fresh(inst.structure, inst.registry, None, inst.formula, "optimized")


def chain_oracle(ts, instances) -> list[bool]:
    return [ts.harness.chain_oracle(inst) for inst in instances]


# --- fo_sweep: first-order formulas and U-sentences from text ---

FO_SIZES = {
    "full": {"corpus": 500, "hooks": 120, "d3_sample": 24,
             "slice": (12, 8), "c3_domain": 3},
    "tiny": {"corpus": 20, "hooks": 6, "d3_sample": 1,
             "slice": (4, 2), "c3_domain": 2},
}

VARS = ("x", "y")

# The criterion-3 U-sentence catalogue.
USENTENCES_UNARY = [
    "exists x. (R(x) & forall y. (R(y) -> y=y))",
    "exists x. forall y. (R(y) -> y=x)",
    "exists x. (R(x) & forall y. (R(y) -> y=x))",
    "exists x. forall y. (R(y) -> y!=y)",
    "exists x. (x=x & forall y. (R(y) -> y=y))",
    "forall y. (R(y) -> y!=y)",
    "exists x1,x2. (R(x1) & R(x2) & x1!=x2 & forall y. (R(y) -> y=y))",
    "exists x. (R(x) & forall y. (R(y) -> exists z. z=x))",
]
USENTENCES_BINARY = [
    "exists x. forall y1,y2. (R(y1,y2) -> y1=y2)",
    "exists x1,x2. forall y1,y2. (R(y1,y2) -> (y1=x1 & y2=x2))",
    "exists x1,x2. (R(x1,x2) & x1!=x2 & forall y1,y2. (R(y1,y2) -> y1=y1))",
]


@dataclass
class FoStructure:
    structure: object
    rows: list[tuple]
    teams: list[tuple[object, int]]  # (team, mask over rows)


@dataclass
class FoInputs:
    formulas: list      # generated formulas, for the oracle
    texts: list[str]    # their printed form, parsed in the timed pass
    sweep: list[FoStructure]
    slice_idx: list[int]
    slice_cases: list[tuple[int, object, int]]  # (sweep index, team, mask)
    usentences: list    # USentence objects, for the oracle
    usentence_texts: list[str]
    usentence_cases: list[list[tuple[object, object]]]  # (structure, team)


def fo_setup(ts, seed: int, size: str) -> FoInputs:
    sizes = FO_SIZES[size]
    h, syn, st = ts.harness, ts.syntax, ts.structures
    formulas = (h.fo_formula_corpus(sizes["corpus"])
                + h.hook_formula_corpus(sizes["hooks"]))
    texts = [syn.to_text(f) for f in formulas]

    sweep = []
    for m in (1, 2, 3):
        domain = _domain(m)
        rows = sorted(itertools.product(domain, repeat=len(VARS)))
        full = (1 << len(rows)) - 1
        teams = [(st.Team(VARS, [r]), 1 << i) for i, r in enumerate(rows)]
        teams.append((st.Team(VARS, rows), full))
        rels = list(st.enumerate_relations(domain, 2))
        if m == 3:
            rels = random.Random(seed).sample(rels, sizes["d3_sample"])
        for rel in rels:
            sweep.append(FoStructure(
                st.Structure(domain, {}, {"E": (2, rel)}), rows, teams))

    # The criterion-11 slice: the first formulas of each corpus on teams
    # of at most two rows over domains 1-2.
    n_fo, n_hooks = sizes["slice"]
    slice_idx = list(range(n_fo)) + list(range(sizes["corpus"],
                                               sizes["corpus"] + n_hooks))
    slice_cases = []
    for k, item in enumerate(sweep):
        if len(item.structure.domain) > 2:
            continue
        for team in h.enumerate_teams(item.structure.domain, VARS):
            if len(team.rows) <= 2:
                mask = sum(1 << item.rows.index(r) for r in team.rows)
                slice_cases.append((k, team, mask))

    unary = [syn.validate_usentence(t) for t in USENTENCES_UNARY]
    binary = [syn.validate_usentence(t) for t in USENTENCES_BINARY]
    conjoin = ts.ulogic.usentence_conjoin
    usentences = unary + binary + [conjoin(unary[0], unary[1]),
                                   conjoin(unary[3], unary[0]),
                                   conjoin(binary[0], binary[1])]
    usentence_texts = [syn.to_text(s.to_formula()) for s in usentences]
    usentence_cases = []
    for s in usentences:
        cases = []
        for m in range(1, sizes["c3_domain"] + 1):
            structure = st.Structure(_domain(m))
            cases += [(structure, team)
                      for team in h.enumerate_teams(_domain(m), s.forall_vars)]
        usentence_cases.append(cases)
    return FoInputs(formulas, texts, sweep, slice_idx, slice_cases,
                    usentences, usentence_texts, usentence_cases)


def fo_pass(ts, inp: FoInputs, p: Pass) -> None:
    parsed = [ts.syntax.parse_formula(t) for t in inp.texts]
    for item in inp.sweep:
        ev = p.evaluator(item.structure, None, "optimized", BUDGET)
        for phi in parsed:
            for team, _ in item.teams:
                p.shared(ev, team, phi)
        p.retire(ev)
    sliced = [parsed[i] for i in inp.slice_idx]
    for k, team, _ in inp.slice_cases:
        structure = inp.sweep[k].structure
        for phi in sliced:
            for strategy in ("naive", "memoized"):
                p.fresh(structure, None, team, phi, strategy)
    for text, cases in zip(inp.usentence_texts, inp.usentence_cases):
        sentence = ts.syntax.validate_usentence(text)
        compiled = ts.ulogic.usentence_translate(sentence)
        for structure, team in cases:
            p.fresh(structure, None, team, compiled, "optimized")


def fo_oracle(ts, inp: FoInputs) -> list[bool]:
    """Tarski row by row, as criterion 1 checks flatness: a first-order
    formula holds on a team exactly when it holds on each of its rows."""
    tarski_eval = ts.tarski.tarski_eval
    want = []
    row_masks = []
    for item in inp.sweep:
        masks = []
        for phi in inp.formulas:
            mask = 0
            for i, row in enumerate(item.rows):
                if tarski_eval(item.structure, dict(zip(VARS, row)), phi):
                    mask |= 1 << i
            masks.append(mask)
            want += [team_mask & ~mask == 0 for _, team_mask in item.teams]
        row_masks.append(masks)
    for k, _, team_mask in inp.slice_cases:
        for i in inp.slice_idx:
            ok = team_mask & ~row_masks[k][i] == 0
            want += [ok, ok]  # naive, memoized
    for s, cases in zip(inp.usentences, inp.usentence_cases):
        sentence = s.to_formula()
        for structure, team in cases:
            rel = ts.structures.Structure(
                structure.domain, {}, {s.rel_name: (s.rel_arity, set(team.rows))})
            want.append(ts.tarski.tarski_sentence(rel, sentence))
    return want


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    oracle: object


WORKLOADS = {
    "parity": Workload(parity_setup, parity_pass, parity_oracle),
    "chain": Workload(chain_setup, chain_pass, chain_oracle),
    "fo_sweep": Workload(fo_setup, fo_pass, fo_oracle),
}
