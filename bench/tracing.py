"""Per-layer timing wrappers for the traced benchmark run.

The wrappers live here, in the benchmark, not in the checker.  Each one
replaces a public function at the module attribute where its caller looks
it up: `teamsem.teameval.tarski_eval` rather than
`teamsem.tarski.tarski_eval`, so Tarski's own recursion, which resolves
the name inside `teamsem.tarski`, is not counted as separate calls.

Wrappers nest (`eval_dep_atom` calls `dep_holds`, which calls
`tarski_sentence`), so every layer reports self time: the time spent in
its calls minus the time spent in wrapped calls they made.  Calls are
aggregated per layer instead of being kept as one span each, so a pass
with a million Tarski calls stays small.
"""

from __future__ import annotations

import time

# layer name -> the (module, attribute) call sites timed as that layer
SITES = {
    "syntax.parse": [("syntax", "parse_formula"), ("syntax", "parse_fo_sentence")],
    "syntax.validate": [("teameval", "validate_team_formula"),
                        ("teameval", "free_vars")],
    "tarski": [("teameval", "tarski_eval"), ("dependencies", "tarski_sentence")],
    "structures.extend": [("teameval", "extend_universal")],
    "teameval.atoms": [("teameval", "eval_builtin_atom"),
                       ("teameval", "eval_dep_atom")],
    "dependencies.dep_holds": [("teameval", "dep_holds")],
    "ulogic.translate": [("ulogic", "usentence_translate")],
}


class Layer:
    __slots__ = ("calls", "self_s", "rows_out")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.rows_out = 0


class Tracer:
    """Installs the wrappers on an imported `teamsem` package and
    accumulates calls and self time per layer until `reset`."""

    def __init__(self, ts):
        self.ts = ts
        self.stack: list[float] = []  # child time of each open frame
        self.layers = {name: Layer() for name in
                       list(SITES) + ["structures.canonical_key",
                                      "structures.teams"]}
        self.verdict_self_s = 0.0
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for layer in self.layers.values():
            layer.calls, layer.self_s, layer.rows_out = 0, 0.0, 0
        self.verdict_self_s = 0.0

    def install(self) -> None:
        for name, sites in SITES.items():
            for module_name, attr in sites:
                module = getattr(self.ts, module_name)
                self._patch(module, attr, self._timed(
                    self.layers[name], getattr(module, attr),
                    count_rows=name == "structures.extend"))
        team_cls = self.ts.structures.Team
        key_getter = self._timed(self.layers["structures.canonical_key"],
                                 team_cls.canonical_key.fget)
        self._patch(team_cls, "canonical_key", property(key_getter))
        built = self.layers["structures.teams"]
        original_init = team_cls.__init__

        def counted_init(team, *args, **kwargs):
            built.calls += 1
            original_init(team, *args, **kwargs)

        self._patch(team_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, layer: Layer, fn, count_rows: bool = False):
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                layer.calls += 1
                layer.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count_rows:
                layer.rows_out += len(out.rows)
            return out

        return wrapper

    def open_verdict(self) -> None:
        self.stack.append(0.0)

    def close_verdict(self, elapsed: float) -> None:
        """Charge a verdict's time outside every wrapped call to the
        evaluator itself."""
        self.verdict_self_s += elapsed - self.stack.pop()

    def snapshot(self) -> tuple[dict[str, int], dict[str, float]]:
        """Counts and self times accumulated since the last reset."""
        ly = self.layers
        counts = {
            "syntax.parse.calls": ly["syntax.parse"].calls,
            "syntax.validate.calls": ly["syntax.validate"].calls,
            "tarski.calls": ly["tarski"].calls,
            "structures.extend.calls": ly["structures.extend"].calls,
            "structures.extend.rows_out": ly["structures.extend"].rows_out,
            "structures.canonical_key.calls": ly["structures.canonical_key"].calls,
            "structures.teams_built": ly["structures.teams"].calls,
            "teameval.atoms.calls": ly["teameval.atoms"].calls,
            "dependencies.dep_holds.calls": ly["dependencies.dep_holds"].calls,
            "ulogic.translate.calls": ly["ulogic.translate"].calls,
        }
        times = {
            "syntax.parse.s": ly["syntax.parse"].self_s,
            "syntax.validate.s": ly["syntax.validate"].self_s,
            "tarski.s": ly["tarski"].self_s,
            "structures.extend.s": ly["structures.extend"].self_s,
            "structures.canonical_key.s": ly["structures.canonical_key"].self_s,
            "teameval.atoms.s": ly["teameval.atoms"].self_s,
            "dependencies.dep_holds.s": ly["dependencies.dep_holds"].self_s,
            "ulogic.translate.s": ly["ulogic.translate"].self_s,
            "teameval.self_s": self.verdict_self_s,
        }
        return counts, times
