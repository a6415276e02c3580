"""Command-line surface.

Exit codes: 0 true/pass, 1 false/counterexample found, 2 usage or
validation error, 3 node budget exceeded, 4 out of memory or recursion
depth, or an unexpected internal error (its traceback follows the
``error:`` line).  All diagnostics go to standard error with an ``error:``
prefix.
``--format json`` switches the payload on standard output to a stable JSON
document.

The node budget is configurable per invocation with ``--budget`` or the
``TEAMSEM_NODE_BUDGET`` environment variable.  ``--seed`` only affects
sampled corpora; every check this tool currently exposes is exhaustive at
its bound, so the flag is accepted for interface stability and recorded in
the JSON payload.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from typing import Sequence

from . import formats
from .dependencies import (Registry, check_closure_properties,
                           check_domain_independence)
from .errors import (BudgetExceededError, DependencyLookupError, DomainError,
                     FormulaSyntaxError, ValidationError)
from .harness import (build_chain_instance, build_parity_instance,
                      check_semantic_equivalence)
from .syntax import (parse_formula, parse_fo_sentence, to_text, validate_ded,
                     validate_usentence)
from .tarski import tarski_eval
from .teameval import DEFAULT_BUDGET, STRATEGIES, team_eval, eval_sentence
from .ulogic import usentence_translate

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_RESOURCE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--budget", type=int, default=None,
                        help="node-expansion budget (default: "
                             "TEAMSEM_NODE_BUDGET or a generous constant)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for sampled corpora; exhaustive checks ignore it")

    parser = _Parser(prog="teamsem",
                     description="Model checker for first-order logic under "
                                 "lax team semantics on finite structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a team formula on a structure and team")
    p.add_argument("-s", "--structure", required=True)
    p.add_argument("-t", "--team", required=True)
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-d", "--dependency", action="append", default=[],
                   help="dependency JSON file (repeatable)")
    p.add_argument("--strategy", choices=STRATEGIES, default="memoized")

    p = sub.add_parser("tarski", parents=[common],
                       help="evaluate a first-order formula at one assignment")
    p.add_argument("-s", "--structure", required=True)
    p.add_argument("-a", "--assignment", required=True)
    p.add_argument("-f", "--formula", required=True)

    p = sub.add_parser("equiv", parents=[common],
                       help="exhaustive semantic-equivalence check at a bound")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-g", "--other", required=True)
    p.add_argument("-d", "--dependency", action="append", default=[])
    p.add_argument("--max-domain", type=int, default=3)
    p.add_argument("--strategy", choices=STRATEGIES, default="memoized")

    p = sub.add_parser("translate", parents=[common],
                       help="compile a U-sentence to a team formula over "
                            "constancy and nonemptiness atoms")
    p.add_argument("-f", "--formula", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="validate a sentence against a syntactic class")
    p.add_argument("kind", choices=("ded", "usentence"))
    p.add_argument("-f", "--formula", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="closure and domain-independence report for a dependency")
    p.add_argument("-d", "--dependency", required=True)
    p.add_argument("--max-domain", type=int, default=3)

    p = sub.add_parser("parity", parents=[common],
                       help="evaluate the parity-model sentence")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--mode", choices=("naive", "optimized"), default="optimized")

    p = sub.add_parser("chain", parents=[common],
                       help="evaluate the indexed-chain sentence")
    p.add_argument("--spec", required=True,
                   help='JSON file {"base": [...], "relations": [[...], ...]}')
    p.add_argument("--threshold", type=int, required=True,
                   help="index bound d of the sentence")
    p.add_argument("-d", "--dependency", required=True)

    return parser


def _budget(args) -> int | None:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("TEAMSEM_NODE_BUDGET")
    if env:
        return int(env)
    return DEFAULT_BUDGET


def _registry(paths: Sequence[str]) -> Registry:
    return Registry([formats.dependency_from_dict(formats.load_json(p))
                     for p in paths])


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        payload = dict(payload)
        payload["command"] = args.command
        if args.seed is not None:
            payload["seed"] = args.seed
        print(formats.dump_json(payload))
    else:
        print(text)


def _cmd_eval(args) -> int:
    structure = formats.structure_from_dict(formats.load_json(args.structure))
    team = formats.team_from_dict(formats.load_json(args.team))
    registry = _registry(args.dependency)
    phi = parse_formula(args.formula, registry, structure.constants)
    result = team_eval(structure, team, phi, args.strategy, registry,
                       budget=_budget(args))
    _emit(args, {"result": result, "strategy": args.strategy},
          "true" if result else "false")
    return EXIT_TRUE if result else EXIT_FALSE


def _cmd_tarski(args) -> int:
    structure = formats.structure_from_dict(formats.load_json(args.structure))
    assignment = formats.assignment_from_dict(formats.load_json(args.assignment))
    phi = parse_fo_sentence(args.formula, constants=structure.constants)
    result = tarski_eval(structure, assignment, phi)
    _emit(args, {"result": result}, "true" if result else "false")
    return EXIT_TRUE if result else EXIT_FALSE


def _cmd_equiv(args) -> int:
    registry = _registry(args.dependency)
    phi = parse_formula(args.formula, registry)
    psi = parse_formula(args.other, registry)
    verdict = check_semantic_equivalence(phi, psi, args.max_domain,
                                         args.strategy, registry)
    payload = {"equivalent": verdict.passed, "bound": verdict.bound,
               "counterexample": verdict.counterexample}
    if verdict.passed:
        _emit(args, payload, f"equivalent ({verdict.bound})")
        return EXIT_TRUE
    _emit(args, payload, f"counterexample: {verdict.counterexample}")
    return EXIT_FALSE


def _cmd_translate(args) -> int:
    sentence = validate_usentence(args.formula)
    compiled = usentence_translate(sentence)
    _emit(args, {"result": to_text(compiled),
                 "free_vars": list(sentence.forall_vars)}, to_text(compiled))
    return EXIT_TRUE


def _cmd_validate(args) -> int:
    if args.kind == "ded":
        ded = validate_ded(args.formula)
        payload = {
            "valid": True, "class": "ded",
            "forall_vars": list(ded.forall_vars),
            "antecedent": [to_text(a) for a in ded.antecedent],
            "disjuncts": [{"exists_vars": list(ev),
                           "atoms": [to_text(a) for a in atoms]}
                          for ev, atoms in ded.disjuncts],
            "rel_arity": ded.rel_arity,
        }
        _emit(args, payload, f"valid ded: {to_text(ded.to_formula())}")
    else:
        u = validate_usentence(args.formula)
        payload = {
            "valid": True, "class": "usentence",
            "exists_vars": list(u.exists_vars),
            "eta": [to_text(a) for a in u.eta],
            "forall_vars": list(u.forall_vars),
            "theta": to_text(u.theta),
            "rel_arity": u.rel_arity,
        }
        _emit(args, payload, f"valid usentence: {to_text(u.to_formula())}")
    return EXIT_TRUE


def _verdict_dict(v) -> dict:
    return {"pass": v.passed, "bound": v.bound, "counterexample": v.counterexample}


def _cmd_classify(args) -> int:
    dep = formats.dependency_from_dict(formats.load_json(args.dependency))
    independence = check_domain_independence(dep, args.max_domain)
    closure = check_closure_properties(dep, args.max_domain)
    payload = {
        "dependency": dep.name, "arity": dep.arity, "kind": dep.kind,
        "bound": f"max_domain={args.max_domain}",
        "domain_independent": _verdict_dict(independence),
    }
    payload.update({k: _verdict_dict(v) for k, v in closure.items()})
    lines = [f"dependency {dep.name} (arity {dep.arity}, {dep.kind}), "
             f"bound max_domain={args.max_domain}"]
    for label, v in [("domain_independent", independence)] + list(closure.items()):
        lines.append(f"  {label}: " + ("pass" if v.passed
                                       else f"counterexample {v.counterexample}"))
    _emit(args, payload, "\n".join(lines))
    healthy = independence.passed and closure["isomorphism_closed"].passed
    return EXIT_TRUE if healthy else EXIT_FALSE


def _cmd_parity(args) -> int:
    instance = build_parity_instance(args.ell)
    strategy = "optimized" if args.mode == "optimized" else "naive"
    result = eval_sentence(instance.structure, instance.formula, strategy,
                           instance.registry, budget=_budget(args),
                           symmetry_reduction=True)
    _emit(args, {"result": result, "ell": args.ell, "mode": args.mode},
          "true" if result else "false")
    return EXIT_TRUE if result else EXIT_FALSE


def _cmd_chain(args) -> int:
    base, chain = formats.chain_spec_from_dict(formats.load_json(args.spec))
    dep = formats.dependency_from_dict(formats.load_json(args.dependency))
    instance = build_chain_instance(args.threshold, dep, chain, base)
    result = eval_sentence(instance.structure, instance.formula, "optimized",
                           instance.registry, budget=_budget(args))
    _emit(args, {"result": result, "d": args.threshold},
          "true" if result else "false")
    return EXIT_TRUE if result else EXIT_FALSE


_HANDLERS = {
    "eval": _cmd_eval,
    "tarski": _cmd_tarski,
    "equiv": _cmd_equiv,
    "translate": _cmd_translate,
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "parity": _cmd_parity,
    "chain": _cmd_chain,
}


def run_command(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (RecursionError, MemoryError) as exc:
        # Exit status 1 means "false"; running out of a resource is no verdict.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of resources ({type(exc).__name__}{detail})",
              file=sys.stderr)
        return EXIT_RESOURCE
    except (FormulaSyntaxError, ValidationError, DomainError,
            DependencyLookupError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Any other failure is a fault, not a verdict: status 1 means "false".
        print(f"error: internal error ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_RESOURCE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
