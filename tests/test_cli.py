import json

import pytest
from jsonschema import validate as js_validate

from teamsem.cli import run_command


@pytest.fixture()
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "structure": write("m.json", {
            "domain": ["a", "b"],
            "constants": {},
            "relations": {"E": {"arity": 2, "tuples": [["a", "b"]]}},
        }),
        "functional_team": write("team.json", {
            "vars": ["x", "y"], "rows": [["a", "b"], ["b", "b"]],
        }),
        "branching_team": write("team2.json", {
            "vars": ["x", "y"], "rows": [["a", "a"], ["a", "b"]],
        }),
        "assignment": write("s.json", {"x": "a", "y": "b"}),
        "antisym": write("antisym.json", {
            "name": "antisym", "arity": 2, "kind": "fo",
            "sentence": "forall x,y. ((R(x,y) & R(y,x)) -> x=y)",
        }),
        "chain": write("chain.json", {
            "base": ["a", "b"],
            "relations": [[], [["a"]], [["a"], ["b"]]],
        }),
        "ne": write("ne.json", {
            "name": "NE", "arity": 1, "kind": "builtin", "builtin": "ne",
        }),
    }


RESULT_SCHEMA = {
    "type": "object",
    "required": ["command", "result"],
    "properties": {"command": {"type": "string"},
                   "result": {"type": ["boolean", "string"]}},
}


class TestEvalCommand:
    def test_true_exit_zero(self, files, capsys):
        code = run_command(["eval", "-s", files["structure"],
                            "-t", files["functional_team"], "-f", "dep(x;y)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_false_exit_one(self, files, capsys):
        code = run_command(["eval", "-s", files["structure"],
                            "-t", files["branching_team"], "-f", "dep(x;y)"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_syntax_error_exit_two(self, files, capsys):
        code = run_command(["eval", "-s", files["structure"],
                            "-t", files["functional_team"], "-f", "!dep(x;y)"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file_exit_two(self, files, capsys):
        code = run_command(["eval", "-s", "nowhere.json",
                            "-t", files["functional_team"], "-f", "ne(x)"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_budget_exit_three(self, files, capsys):
        code = run_command(["eval", "-s", files["structure"],
                            "-t", files["branching_team"],
                            "-f", "exists u. forall z. (anon(x;u) | dep(z;u))",
                            "--strategy", "naive", "--budget", "20"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_recursion_depth_exit_four(self, files, capsys):
        # Exit status 1 would read as "false".
        code = run_command(["eval", "-s", files["structure"],
                            "-t", files["functional_team"],
                            "-f", " & ".join(["x=x"] * 3000)])
        assert code == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_json_payload(self, files, capsys):
        code = run_command(["eval", "-s", files["structure"],
                            "-t", files["functional_team"], "-f", "dep(x;y)",
                            "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        js_validate(payload, RESULT_SCHEMA)
        assert payload == {"command": "eval", "result": True,
                           "strategy": "memoized"}


class TestTarskiCommand:
    def test_true(self, files, capsys):
        code = run_command(["tarski", "-s", files["structure"],
                            "-a", files["assignment"], "-f", "E(x,y)"])
        assert code == 0 and capsys.readouterr().out.strip() == "true"

    def test_false(self, files, capsys):
        code = run_command(["tarski", "-s", files["structure"],
                            "-a", files["assignment"], "-f", "E(y,x)"])
        assert code == 1


class TestTranslateCommand:
    def test_golden_output(self, files, capsys):
        code = run_command(["translate", "-f",
                            "exists x. (R(x) & forall y. (R(y) -> y=x))"])
        assert code == 0
        assert capsys.readouterr().out.strip() == \
            "exists x. const(x) & (x=x | ne(x) & x=y) & y=x"

    def test_invalid_shape_exit_two(self, capsys):
        code = run_command(["translate", "-f", "exists x. R(x)"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestValidateCommand:
    def test_ded_ok(self, capsys):
        code = run_command(["validate", "ded", "-f",
                            "forall x,y,z. ((R(x,y) & R(x,z)) -> y=z)"])
        assert code == 0
        assert capsys.readouterr().out.startswith("valid ded:")

    def test_usentence_ok_json(self, capsys):
        code = run_command(["validate", "usentence", "--format", "json", "-f",
                            "exists x. (x=x & forall y. (R(y) -> y=x))"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] and payload["class"] == "usentence"
        assert payload["theta"] == "y=x"

    def test_rejected_exit_two(self, capsys):
        code = run_command(["validate", "ded", "-f",
                            "forall x,y. (R(x,y) -> exists z. !R(z,x))"])
        assert code == 2


class TestEquivCommand:
    def test_equivalent(self, capsys):
        code = run_command(["equiv", "-f", "x=y ->> dep(x;y)",
                            "-g", "x!=y | x=y & dep(x;y)",
                            "--max-domain", "2"])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out

    def test_counterexample(self, capsys):
        code = run_command(["equiv", "-f", "ne(x)", "-g", "const(x)",
                            "--max-domain", "2"])
        assert code == 1
        assert "counterexample" in capsys.readouterr().out


class TestClassifyCommand:
    def test_healthy_dependency(self, files, capsys):
        code = run_command(["classify", "-d", files["antisym"],
                            "--max-domain", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["domain_independent"]["pass"] is True
        assert payload["downwards"]["pass"] is True
        assert payload["upwards"]["pass"] is False
        assert payload["bound"] == "max_domain=2"

    def test_reports_include_bound(self, files, capsys):
        run_command(["classify", "-d", files["ne"], "--max-domain", "2"])
        out = capsys.readouterr().out
        assert "max_domain=2" in out


class TestParityCommand:
    def test_odd_is_false(self, capsys):
        code = run_command(["parity", "--ell", "3", "--mode", "optimized"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_even_is_true_json(self, capsys):
        code = run_command(["parity", "--ell", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"command": "parity", "ell": 2,
                           "mode": "optimized", "result": True}


class TestChainCommand:
    def test_true_case(self, files, capsys):
        code = run_command(["chain", "--spec", files["chain"],
                            "--threshold", "3", "-d", files["ne"]])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_threshold_too_low(self, files, capsys):
        code = run_command(["chain", "--spec", files["chain"],
                            "--threshold", "1", "-d", files["ne"]])
        assert code == 1


class TestOutputStability:
    def test_json_identical_across_runs(self, files, capsys):
        argv = ["classify", "-d", files["antisym"], "--max-domain", "2",
                "--format", "json"]
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_usage_error_exit_two(self, capsys):
        assert run_command(["parity"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_budget_env_var(self, files, capsys, monkeypatch):
        monkeypatch.setenv("TEAMSEM_NODE_BUDGET", "20")
        code = run_command(["eval", "-s", files["structure"],
                            "-t", files["branching_team"],
                            "-f", "exists u. forall z. (anon(x;u) | dep(z;u))",
                            "--strategy", "naive"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")


class TestMalformedInput:
    """Bad input files exit 2 and unexpected faults exit 4, each with an
    error line: status 1 means "false"."""

    TEAMS = [
        {"vars": ["x"], "rows": 5},
        {"vars": ["x"], "rows": [["a"], 5]},
        {"vars": "x", "rows": [["a"]]},
        {"vars": ["x"], "rows": [[1]]},
    ]
    STRUCTURES = [
        {"domain": "ab"},
        {"domain": [1, "a"]},
        {"domain": ["a"], "relations": []},
        {"domain": ["a"], "relations": {"E": {"arity": 1, "tuples": 3}}},
        {"domain": ["a"], "relations": {"E": {"arity": "1", "tuples": []}}},
        {"domain": ["a"], "constants": {"c": ["a"]}},
        {"domain": ["a"], "constants": ["c"]},
    ]

    NE = {"name": "NE", "arity": 1, "kind": "builtin", "builtin": "ne"}
    DEPENDENCIES = [
        dict(NE, arity="two"),
        dict(NE, arity=True),
        dict(NE, name=["NE"]),
        dict(NE, builtin="dep", split=[1]),
        dict(NE, builtin="dep", split="11"),
        {"name": "E", "arity": 1, "kind": "extensional",
         "table": [{"domain": 5, "tuples": 3, "holds": True}]},
        {"name": "E", "arity": 1, "kind": "extensional",
         "table": [{"domain": ["a"], "tuples": [["a"]], "holds": "yes"}]},
        {"name": "E", "arity": 1, "kind": "extensional", "table": {}},
        {"name": "E", "arity": 1, "kind": "extensional", "table": [5]},
        {"name": "A", "arity": 2, "kind": "fo", "sentence": 7},
    ]
    CHAIN_SPECS = [
        {"base": ["a", "b"], "relations": 5},
        {"base": ["a", "b"], "relations": [5]},
        {"base": ["a", "b"], "relations": [[["a"], 5]]},
        {"base": "ab", "relations": [[["a"]]]},
    ]

    @staticmethod
    def _eval(structure, team, tmp_path, *extra):
        s, t = tmp_path / "m.json", tmp_path / "t.json"
        s.write_text(json.dumps(structure))
        t.write_text(json.dumps(team))
        return run_command(["eval", "-s", str(s), "-t", str(t),
                            "-f", "x=x", *extra])

    @pytest.mark.parametrize("dependency", DEPENDENCIES)
    def test_bad_dependency_exit_two(self, dependency, tmp_path, capsys):
        d = tmp_path / "d.json"
        d.write_text(json.dumps(dependency))
        assert self._eval({"domain": ["a"]}, {"vars": ["x"], "rows": [["a"]]},
                          tmp_path, "-d", str(d)) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("spec", CHAIN_SPECS)
    def test_bad_chain_spec_exit_two(self, spec, tmp_path, capsys):
        c, d = tmp_path / "c.json", tmp_path / "d.json"
        c.write_text(json.dumps(spec))
        d.write_text(json.dumps(self.NE))
        assert run_command(["chain", "--spec", str(c), "--threshold", "1",
                            "-d", str(d)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("team", TEAMS)
    def test_bad_team_exit_two(self, team, tmp_path, capsys):
        assert self._eval({"domain": ["a"]}, team, tmp_path) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_bad_structure_exit_two(self, structure, tmp_path, capsys):
        team = {"vars": ["x"], "rows": [["a"]]}
        assert self._eval(structure, team, tmp_path) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_null_fields_still_mean_empty(self, tmp_path, capsys):
        structure = {"domain": ["a"], "constants": None, "relations": None}
        assert self._eval(structure, {"vars": ["x"], "rows": None},
                          tmp_path) == 0

    def test_unexpected_exception_exit_four(self, monkeypatch, capsys):
        from teamsem import cli

        def broken(args):
            raise KeyError("boom")

        monkeypatch.setitem(cli._HANDLERS, "parity", broken)
        assert run_command(["parity", "--ell", "2"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: internal error (KeyError")
