import builtins
import json
import sys
from fractions import Fraction
from math import lcm

import pytest

from ortholab import cli
from ortholab.cli import main
from ortholab.dsl import Var
from ortholab.lattice import MAX_INPUT_DIM, MAX_TRIALS
from ortholab.linalg import MAX_FORM_BITS, Matrix, vec
from ortholab.process import (
    ClassicalPrepare,
    ClassicalStep,
    ConditionalUnitary,
    Measure,
    Observable,
    Outcome,
    OutcomeIs,
    Prepare,
    process_from_json,
    run,
    spin_observable,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


@pytest.fixture
def subspace_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"space_dim": 2, "basis": [["1", "1"]]}))
    b.write_text(json.dumps({"space_dim": 2, "basis": [["1", "0"], ["0", "1"]]}))
    return str(a), str(b)


class TestDemoSpin:
    def test_report_values(self, capsys):
        code, report = run_json(capsys, "demo", "spin")
        assert code == 0
        formulas = report["results"]["formulas"]
        assert formulas["p_i & q_o"]["prob"] == "1/2"
        assert formulas["q_o | r_o"]["surely"] is True
        assert formulas["q_i | r_i"]["prob"] == "0"
        assert formulas["q'_i | r'_i"]["surely"] is False
        assert formulas["p_f | q_f"]["surely"] is True
        identities = report["results"]["identities"]
        assert identities["at_preparation"]["satisfied"] is True
        assert identities["at_measurement"]["satisfied"] is True
        assert identities["mixed_stages"]["satisfied"] is False
        assert identities["mixed_stages"]["stage_mismatch"] is True
        probs = [h["prob"] for h in report["results"]["histories"]]
        assert probs == ["1/2", "1/2"]

    def test_seed_echoed(self, capsys):
        _, report = run_json(capsys, "demo", "spin", "--seed", "9")
        assert report["seed"] == 9
        assert report["version"]

    def test_global_flags_accepted_before_the_subcommand(self, capsys):
        code = main(["--format", "json", "--seed", "5", "demo", "spin"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == 0
        assert report["seed"] == 5


class TestDemoHatch:
    def test_report_values(self, capsys):
        code, report = run_json(capsys, "demo", "hatch")
        assert code == 0
        formulas = report["results"]["formulas"]
        assert formulas["q_o"]["prob"] == "1/2"
        assert formulas["r_o"]["prob"] == "1/2"
        assert formulas["p_i"]["surely"] is True
        assert formulas["q_i"]["prob"] == "0"
        identities = report["results"]["identities"]
        assert identities["at_preparation"]["satisfied"] is True
        assert identities["at_measurement"]["satisfied"] is True
        assert identities["mixed_stages"]["stage_mismatch"] is True


class TestDemoTwoState:
    def test_report_values(self, capsys):
        code, report = run_json(capsys, "demo", "two-state")
        assert code == 0
        results = report["results"]
        assert results["fields_agree"] is True
        for field in ("rational-real", "gaussian-rational"):
            section = results[field]
            assert section["left"]["label"] == "[k,k]"
            assert section["right"]["label"] == "[0,0]"
            assert section["verdict"] == "not distributive"
            assert section["pairwise_meets_zero"] is True

    def test_text_format_carries_the_same_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "two-state")
        assert code == 0
        assert "verdict: not distributive" in out


class TestTextFormat:
    def test_an_empty_list_and_an_empty_object_print_as_themselves(self, capsys, tmp_path):
        x, y = tmp_path / "x.json", tmp_path / "y.json"
        x.write_text(json.dumps({"space_dim": 3, "basis": [["1", "0", "0"]]}))
        y.write_text(json.dumps({"space_dim": 3, "basis": [["0", "1", "0"]]}))
        code, out, _ = run_cli(capsys, "lattice", "meet", str(x), str(y))
        assert code == 0
        assert "    basis: []" in out.splitlines()
        code, out, _ = run_cli(capsys, "demo", "two-state")
        assert code == 0
        assert "inputs: {}" in out.splitlines()


class TestLattice:
    def test_meet(self, capsys, subspace_files):
        a, b = subspace_files
        code, report = run_json(capsys, "lattice", "meet", a, b)
        assert code == 0
        assert report["results"]["result"] == {"space_dim": 2, "basis": [["1", "1"]]}

    def test_join(self, capsys, subspace_files):
        a, b = subspace_files
        _, report = run_json(capsys, "lattice", "join", a, a)
        assert report["results"]["result"]["basis"] == [["1", "1"]]

    def test_ortho(self, capsys, subspace_files):
        a, _ = subspace_files
        _, report = run_json(capsys, "lattice", "ortho", a)
        assert report["results"]["result"]["basis"] == [["1", "-1"]]

    def test_leq(self, capsys, subspace_files):
        a, b = subspace_files
        code, report = run_json(capsys, "lattice", "leq", a, b)
        assert code == 0
        assert report["results"]["leq"] is True

    def test_inputs_digest_present(self, capsys, subspace_files):
        a, b = subspace_files
        _, report = run_json(capsys, "lattice", "meet", a, b)
        assert len(report["inputs"]["fileA"]["sha256"]) == 64

    def test_missing_second_file(self, capsys, subspace_files):
        a, _ = subspace_files
        code, _, err = run_cli(capsys, "lattice", "meet", a)
        assert code == 2
        assert "two subspace files" in err

    def test_nonexistent_file(self, capsys):
        code, _, err = run_cli(capsys, "lattice", "ortho", "/no/such/file.json")
        assert code == 2
        assert err

    @pytest.mark.parametrize("op", ["meet", "join", "leq"])
    def test_dimension_mismatch_names_the_second_file(self, capsys, tmp_path, op):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"space_dim": 2, "basis": []}))
        b.write_text(json.dumps({"space_dim": 3, "basis": []}))
        code, out, err = run_cli(capsys, "lattice", op, str(a), str(b))
        message = "fileB/space_dim: space dimension mismatch: 2 vs 3"
        assert (code, out, err) == (2, "", f"ortholab: error: {message}\n")


class TestCheck:
    def test_boolean_law_holds_exit_zero(self, capsys):
        code, report = run_json(
            capsys,
            "check",
            "x & (y | z) = (x & y) | (x & z)",
            "--structure",
            "boolean",
            "--dim",
            "3",
        )
        assert code == 0
        assert report["results"]["verdict"].startswith("no counterexample")
        assert report["results"]["mode"] == "exhaustive"

    def test_subspace_counterexample_exit_one(self, capsys):
        code, report = run_json(
            capsys,
            "check",
            "x & (y | z) = (x & y) | (x & z)",
            "--structure",
            "subspace",
            "--dim",
            "2",
            "--trials",
            "500",
        )
        assert code == 1
        cx = report["results"]["counterexample"]
        assert set(cx["assignment"]) == {"x", "y", "z"}
        assert cx["lhs"] != cx["rhs"]

    def test_statement_parse_error_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "x & = y", "--structure", "boolean")
        assert code == 2
        assert "position 5" in err

    def test_statements_file(self, capsys, tmp_path):
        stmts = tmp_path / "laws.txt"
        stmts.write_text(
            "# two laws, one failing on subspaces\n"
            "(x & y) | (x & z) <= x & (y | z)\n"
            "x & (y | z) = (x & y) | (x & z)\n"
        )
        code, report = run_json(
            capsys,
            "check",
            "--file",
            str(stmts),
            "--structure",
            "subspace",
            "--dim",
            "2",
            "--trials",
            "300",
        )
        assert code == 1
        checks = report["results"]["checks"]
        assert len(checks) == 2
        assert checks[0]["verdict"].startswith("no counterexample")
        assert checks[1]["verdict"] == "counterexample"

    def test_statement_and_file_are_exclusive(self, capsys, tmp_path):
        stmts = tmp_path / "laws.txt"
        stmts.write_text("x = x\n")
        code, _, err = run_cli(
            capsys, "check", "x = x", "--file", str(stmts), "--structure", "boolean"
        )
        assert code == 2
        assert "exactly one" in err
        code, _, err = run_cli(capsys, "check", "--structure", "boolean")
        assert code == 2


class TestProps:
    def test_eval(self, capsys, tmp_path):
        prop = tmp_path / "prop.json"
        state = tmp_path / "state.json"
        prop.write_text(
            json.dumps(
                {
                    "type": "or",
                    "children": [
                        {
                            "type": "in_subspace",
                            "subspace": {"space_dim": 2, "basis": [["1", "0"]]},
                        },
                        {
                            "type": "in_subspace",
                            "subspace": {"space_dim": 2, "basis": [["0", "1"]]},
                        },
                    ],
                }
            )
        )
        state.write_text(json.dumps({"state": ["1", "1"]}))
        code, report = run_json(capsys, "props", "eval", str(prop), str(state))
        assert code == 0
        assert report["results"]["value"] is False

    def test_expectation_prop_file(self, capsys, tmp_path):
        prop = tmp_path / "prop.json"
        state = tmp_path / "state.json"
        prop.write_text(
            json.dumps(
                {
                    "type": "expectation_in",
                    "observable": {"rows": [["0", "-1/2i"], ["1/2i", "0"]]},
                    "set": [
                        {"lo": "0", "hi": "0", "lo_closed": True, "hi_closed": True}
                    ],
                }
            )
        )
        state.write_text(json.dumps({"state": ["1", "1"]}))
        code, report = run_json(capsys, "props", "eval", str(prop), str(state))
        assert code == 0
        assert report["results"]["value"] is True


    @pytest.mark.parametrize(
        "prop, state, message",
        [
            (
                {
                    "type": "expectation_in",
                    "observable": {"rows": [["1", "0"], ["0", "1"]]},
                    "set": [],
                },
                ["1", "0", "0"],
                "dimension mismatch: 2 vs 3",
            ),
            (
                {"type": "in_subspace", "subspace": {"space_dim": 3, "basis": []}},
                ["1", "0"],
                "vector dim 2 != space_dim 3",
            ),
        ],
        ids=["expectation_in", "in_subspace"],
    )
    def test_state_of_another_dimension_is_named(self, capsys, tmp_path, prop, state, message):
        prop_file, state_file = tmp_path / "prop.json", tmp_path / "state.json"
        prop_file.write_text(json.dumps(prop))
        state_file.write_text(json.dumps({"state": state}))
        code, out, err = run_cli(capsys, "props", "eval", str(prop_file), str(state_file))
        assert (code, out, err) == (2, "", f"ortholab: error: state_file/state: {message}\n")


class TestDeepInput:
    """Input too deep to parse is an input error (exit 2), never a counterexample."""

    def test_deep_statement_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "check", "!" * 3000 + "x = x", "--structure", "subspace")
        assert code == 2
        assert out == ""
        assert err == "ortholab: error: input nested too deeply\n"

    def test_deep_proposition_file_exit_two(self, capsys, tmp_path):
        prop = tmp_path / "prop.json"
        state = tmp_path / "state.json"
        prop.write_text('{"type": "not", "child": ' * 3000 + '{"type": "true"}' + "}" * 3000)
        state.write_text(json.dumps({"state": ["1", "0"]}))
        code, out, err = run_cli(capsys, "props", "eval", str(prop), str(state))
        assert code == 2
        assert out == ""
        assert err == "ortholab: error: input nested too deeply\n"


class TestInputBounds:
    """Sizes that a few bytes name, and faults of ortholab's own, exit 2 with one line."""

    @staticmethod
    def _ortho(capsys, tmp_path, space_dim):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"space_dim": space_dim, "basis": []}))
        return run_cli(capsys, "--format", "json", "lattice", "ortho", str(a))

    @pytest.mark.parametrize("space_dim", [-3, 0])
    def test_space_dim_below_one_exit_two(self, capsys, tmp_path, space_dim):
        code, out, err = self._ortho(capsys, tmp_path, space_dim)
        message = "fileA/space_dim: space_dim must be >= 1"
        assert (code, out, err) == (2, "", f"ortholab: error: {message}\n")

    @pytest.mark.parametrize("space_dim", [MAX_INPUT_DIM + 1, 10**18])
    def test_space_dim_over_the_bound_exit_two(self, capsys, tmp_path, space_dim):
        code, out, err = self._ortho(capsys, tmp_path, space_dim)
        message = f"fileA/space_dim: space_dim {space_dim} is over the limit of {MAX_INPUT_DIM}"
        assert (code, out, err) == (2, "", f"ortholab: error: {message}\n")

    def test_basis_row_of_another_length_names_its_row(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"space_dim": 2, "basis": [["1", "0"], ["1", "0", "0"]]}))
        code, out, err = run_cli(capsys, "lattice", "ortho", str(a))
        message = "fileA/basis/1: vector dim 3 != space_dim 2"
        assert (code, out, err) == (2, "", f"ortholab: error: {message}\n")

    @pytest.mark.parametrize("structure", ["subspace", "boolean"])
    @pytest.mark.parametrize("dim", [MAX_INPUT_DIM + 1, 10**18])
    def test_dim_over_the_bound_exit_two(self, capsys, structure, dim):
        argv = ["check", "x = x", "--structure", structure, "--dim", str(dim)]
        code, out, err = run_cli(capsys, *argv)
        message = f"--dim {dim} is over the limit of {MAX_INPUT_DIM}"
        assert (code, out, err) == (2, "", f"ortholab: error: {message}\n")

    @pytest.mark.parametrize("structure", ["subspace", "boolean"])
    @pytest.mark.parametrize("flag", ["--dim", "--trials"])
    @pytest.mark.parametrize("value", [0, -1, -(10**18)])
    def test_a_flag_below_one_is_named(self, capsys, structure, flag, value):
        # the library's own message (space_dim, universe_size, trials must be >= 1) names no flag
        argv = ["check", "x = x", "--structure", structure, "--dim", "2", flag, str(value)]
        code, out, err = run_cli(capsys, *argv)
        message = f"{flag} {value} is below the minimum of 1"
        assert (code, out, err) == (2, "", f"ortholab: error: {message}\n")

    @pytest.mark.parametrize("statement", ["x = x", "0 <= x", "x & !x = 0"])
    def test_subspace_dim_one_names_the_flag_for_a_statement_with_variables(
        self, capsys, statement
    ):
        # the library's own message (need space_dim >= 2 to sample ...) names no flag
        argv = ["check", statement, "--structure", "subspace", "--dim", "1"]
        code, out, err = run_cli(capsys, *argv)
        message = "--dim 1 is below the minimum of 2 for --structure subspace"
        assert (code, out, err) == (2, "", f"ortholab: error: {message}\n")

    def test_subspace_dim_one_names_the_flag_before_any_statement_of_a_file(
        self, capsys, tmp_path
    ):
        path = tmp_path / "laws.txt"
        path.write_text("0 = 1\nx = x\n")
        argv = ["check", "--file", str(path), "--structure", "subspace", "--dim", "1"]
        code, out, err = run_cli(capsys, *argv)
        message = "--dim 1 is below the minimum of 2 for --structure subspace"
        assert (code, out, err) == (2, "", f"ortholab: error: {message}\n")

    @pytest.mark.parametrize(
        "statement, holds", [("0 = 0", True), ("1 = 0 | 1", True), ("0 = 1", False)]
    )
    def test_subspace_dim_one_still_answers_a_statement_without_variables(
        self, capsys, statement, holds
    ):
        argv = ["check", statement, "--structure", "subspace", "--dim", "1"]
        code, report = run_json(capsys, *argv)
        results = report["results"]
        assert (code, results["mode"], results["trials"]) == (0 if holds else 1, "exhaustive", 1)
        assert results["structure"]["space_dim"] == 1

    def test_the_bound_itself_is_accepted(self, capsys, tmp_path):
        code, out, _ = self._ortho(capsys, tmp_path, MAX_INPUT_DIM)
        assert code == 0 and json.loads(out)["results"]["result"]["space_dim"] == MAX_INPUT_DIM
        code, report = run_json(
            capsys, "check", "x = x", "--structure", "boolean", "--dim", str(MAX_INPUT_DIM)
        )
        assert code == 0 and report["results"]["mode"] == "random"

    @pytest.mark.parametrize("structure", ["subspace", "boolean"])
    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**18])
    def test_trials_over_the_bound_exit_two_before_any_work(self, capsys, structure, trials):
        # at --dim 64 one subspace trial takes most of a second
        argv = ["check", "x = x", "--structure", structure, "--dim", "64", "--trials", str(trials)]
        code, out, err = run_cli(capsys, *argv)
        message = f"--trials {trials} is over the limit of {MAX_TRIALS}"
        assert (code, out, err) == (2, "", f"ortholab: error: {message}\n")

    def test_the_trials_bound_itself_is_accepted(self, capsys):
        argv = ["check", "x = x", "--structure", "boolean", "--dim", "20"]
        code, report = run_json(capsys, *argv, "--trials", str(MAX_TRIALS))
        assert code == 0 and report["results"]["trials"] == MAX_TRIALS

    def test_a_state_of_distinct_denominators_exit_two_before_scaling(self, capsys, tmp_path):
        # 4,000 entries 1/p, each p a different 5-digit prime: a 44 KB file whose integer form
        # would hold each of 4,000 numerators over the product of all the primes
        primes = [p for p in range(10_007, 100_000, 2) if all(p % d for d in range(3, 317, 2))]
        prop, state = tmp_path / "prop.json", tmp_path / "state.json"
        prop.write_text(json.dumps({"type": "true"}))
        state.write_text(json.dumps({"state": [f"1/{p}" for p in primes[:4000]]}))
        code, out, err = run_cli(capsys, "props", "eval", str(prop), str(state))
        bits = lcm(*primes[:4000]).bit_length()
        message = (
            f"state_file/state: 4000 entries over a {bits}-bit common denominator"
            f" take {8000 * bits} bits, over the limit of {MAX_FORM_BITS}"
        )
        assert (code, out, err) == (2, "", f"ortholab: error: {message}\n")

    def test_internal_error_exit_two(self, capsys, monkeypatch):
        def broken(args):
            return 1 // 0

        monkeypatch.setitem(cli._HANDLERS, "demo", broken)
        code, out, err = run_cli(capsys, "demo", "spin")
        message = "internal error: ZeroDivisionError: integer division or modulo by zero"
        assert (code, out, err) == (2, "", f"ortholab: error: {message}\n")


class TestDeterminism:
    def test_identical_argv_gives_byte_identical_json(self, capsys):
        argv = ["demo", "spin", "--format", "json", "--seed", "4"]
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_check_reports_are_reproducible(self, capsys):
        argv = [
            "check",
            "x & (y | z) = (x & y) | (x & z)",
            "--structure",
            "subspace",
            "--dim",
            "3",
            "--trials",
            "50",
            "--seed",
            "21",
            "--format",
            "json",
        ]
        main(list(argv))
        out1 = capsys.readouterr().out
        main(list(argv))
        out2 = capsys.readouterr().out
        assert out1 == out2


S_Z = {"rows": [["1/2", "0"], ["0", "-1/2"]]}


def _window_prop(tmp_path, window, state=("1", "0")):
    prop = tmp_path / "prop.json"
    prop.write_text(json.dumps({"type": "expectation_in", "observable": S_Z, "set": [window]}))
    state_file = tmp_path / "state.json"
    state_file.write_text(json.dumps({"state": list(state)}))
    return str(prop), str(state_file)


class TestWireFields:
    """Rationals use the scalar grammar; flags and integer fields need exact JSON types."""

    @pytest.mark.parametrize(
        "lo", ["1e5000", "0.5", "1_0", "1+i", 0, pytest.param("1" * 5001, id="5001-digits")]
    )
    def test_interval_endpoint_outside_the_grammar_exit_two(self, capsys, tmp_path, lo):
        window = {"lo": lo, "hi": "inf", "lo_closed": True, "hi_closed": True}
        code, out, err = run_cli(capsys, "props", "eval", *_window_prop(tmp_path, window))
        assert code == 2
        assert out == ""
        assert err.startswith("ortholab: error: ") and err.count("\n") == 1
        assert "set_int_max_str_digits" not in err

    def test_open_window_excludes_its_endpoint(self, capsys, tmp_path):
        # <S_z> = 1/2 on [1, 0], which the window (1/2, inf) leaves out
        window = {"lo": "1/2", "hi": "inf", "lo_closed": False, "hi_closed": True}
        code, report = run_json(capsys, "props", "eval", *_window_prop(tmp_path, window))
        assert code == 0
        assert report["results"]["value"] is False

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_interval_flags_must_be_json_booleans(self, capsys, tmp_path, flag):
        window = {"lo": "1/2", "hi": "inf", "lo_closed": flag, "hi_closed": True}
        code, out, err = run_cli(capsys, "props", "eval", *_window_prop(tmp_path, window))
        assert code == 2
        assert out == ""
        message = f"prop_file/set/0/lo_closed must be a JSON boolean, not {flag!r}"
        assert err == f"ortholab: error: {message}\n"

    @pytest.mark.parametrize("space_dim", [2.9, 2.0, "2", True])
    def test_space_dim_must_be_a_json_integer(self, capsys, tmp_path, space_dim):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"space_dim": space_dim, "basis": [["1", "0"]]}))
        code, out, err = run_cli(capsys, "lattice", "ortho", str(a))
        assert code == 2
        assert out == ""
        message = f"fileA/space_dim must be a JSON integer, not {space_dim!r}"
        assert err == f"ortholab: error: {message}\n"

    def test_long_complex_endpoint_is_quoted_bounded(self, capsys, tmp_path):
        # "must be real" quotes the endpoint cut at 80 characters, as every rejection does
        window = {"lo": "1+" + "1" * 4000 + "i", "hi": "inf", "lo_closed": True, "hi_closed": True}
        code, out, err = run_cli(capsys, "props", "eval", *_window_prop(tmp_path, window))
        assert (code, out) == (2, "")
        assert err.startswith("ortholab: error: prop_file/set/0/lo must be real, not '1+111")
        assert err.endswith("…\n") and len(err.encode()) < 200

    def test_overlong_state_entry_is_reported_in_our_words(self, capsys, tmp_path):
        window = {"lo": "0", "hi": "inf", "lo_closed": True, "hi_closed": True}
        files = _window_prop(tmp_path, window, state=("1" * 5001, "0"))
        code, out, err = run_cli(capsys, "props", "eval", *files)
        assert code == 2
        limit = sys.get_int_max_str_digits()
        message = f"state_file/state/0: number too long: 5001 digits, limit {limit}"
        assert err == f"ortholab: error: {message}\n"


class TestInputFiles:
    def test_each_input_file_is_opened_once(self, capsys, tmp_path, monkeypatch):
        window = {"lo": "0", "hi": "inf", "lo_closed": True, "hi_closed": True}
        prop, state = _window_prop(tmp_path, window)
        laws = tmp_path / "laws.txt"
        laws.write_text("x = x\n")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(["props", "eval", prop, state]) == 0
        assert main(["check", "--file", str(laws), "--structure", "boolean"]) == 0
        capsys.readouterr()
        assert opened == [prop, state, str(laws)]

    def test_invalid_utf8_exit_two(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        a.write_bytes(b'{"space_dim": 2, "basis": [["\xff"]]}')
        code, out, err = run_cli(capsys, "lattice", "ortho", str(a))
        assert code == 2
        assert "utf-8" in err

    def test_a_repeated_subspace_member_exit_two(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        a.write_text('{"space_dim": 2, "basis": [["1", "0"]], "basis": [["0", "1"]]}')
        code, out, err = run_cli(capsys, "lattice", "ortho", str(a))
        assert (code, out) == (2, "")
        assert err == "ortholab: error: fileA: duplicate key 'basis'\n"

    def test_a_repeated_member_deep_in_a_proposition_exit_two(self, capsys, tmp_path):
        prop, state = tmp_path / "prop.json", tmp_path / "state.json"
        subspace = '{"space_dim": 2, "space_dim": 2, "basis": [["1", "0"]]}'
        prop.write_text(f'{{"type": "in_subspace", "subspace": {subspace}}}')
        state.write_text(json.dumps({"state": ["1", "0"]}))
        code, out, err = run_cli(capsys, "props", "eval", str(prop), str(state))
        assert (code, out) == (2, "")
        assert err == "ortholab: error: prop_file: duplicate key 'space_dim'\n"


class TestVectorsAreJsonLists:
    """A vector, a basis row and a matrix row must be JSON lists, not strings of characters."""

    @staticmethod
    def _write(tmp_path, name, value):
        path = tmp_path / name
        path.write_text(json.dumps(value))
        return str(path)

    def _assert_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"ortholab: error: {message}\n"

    def test_state_string_is_rejected(self, capsys, tmp_path):
        prop = self._write(tmp_path, "p.json", {"type": "equals", "vector": ["1", "0"]})
        state = self._write(tmp_path, "s.json", {"state": "10"})
        message = "state_file/state must be a JSON list, not '10'"
        self._assert_rejected(capsys, ("props", "eval", prop, state), message)

    def test_basis_row_string_is_rejected(self, capsys, tmp_path):
        a = self._write(tmp_path, "a.json", {"space_dim": 2, "basis": ["10"]})
        message = "fileA/basis/0 must be a JSON list, not '10'"
        self._assert_rejected(capsys, ("lattice", "ortho", a), message)

    def test_matrix_row_string_is_rejected(self, capsys, tmp_path):
        window = {"lo": "-inf", "hi": "inf", "lo_closed": True, "hi_closed": True}
        observable = {"rows": ["10", "01"]}
        prop = {"type": "expectation_in", "observable": observable, "set": [window]}
        prop = self._write(tmp_path, "p.json", prop)
        state = self._write(tmp_path, "s.json", {"state": ["1", "0"]})
        message = "prop_file/observable/rows/0 must be a JSON list, not '10'"
        self._assert_rejected(capsys, ("props", "eval", prop, state), message)

    def test_equals_vector_string_is_rejected(self, capsys, tmp_path):
        prop = self._write(tmp_path, "p.json", {"type": "equals", "vector": "10"})
        state = self._write(tmp_path, "s.json", {"state": ["1", "0"]})
        message = "prop_file/vector must be a JSON list, not '10'"
        self._assert_rejected(capsys, ("props", "eval", prop, state), message)



LONG = "x" * 100_000


def _cli(argv, *files):
    """A CLI case: ``argv`` then each ``(name, text)`` of ``files``, written to a file."""

    def case(capsys, tmp_path):
        for name, text in files:
            (tmp_path / name).write_text(text)
        paths = [str(tmp_path / name) for name, _ in files]
        code, out, err = run_cli(capsys, *argv, *paths)
        assert (code, out) == (2, "")
        return err

    return case


def _raises(exc_type, build):
    """A Python case: ``build()`` raises ``exc_type`` itself, not a subclass."""

    def case(capsys, tmp_path):
        with pytest.raises(exc_type) as info:
            build()
        assert type(info.value) is exc_type
        return f"{info.value}\n"

    return case


def _window_text(lo, hi):
    window = {"lo": lo, "hi": hi, "lo_closed": True, "hi_closed": True}
    return json.dumps({"type": "expectation_in", "observable": {"rows": [["1"]]}, "set": [window]})


STATE_FILE = ("state.json", json.dumps({"state": ["1"]}))
EYE = Matrix.identity(2)
BOUNDED_CASES = {
    "proposition tag": _cli(["props", "eval"], ("p.json", json.dumps({"type": LONG})), STATE_FILE),
    "identity token": _cli(["check", "--structure", "boolean", "--file"], ("f", f"x {LONG} = x")),
    "interval endpoints": _cli(
        ["props", "eval"], ("p.json", _window_text("9" * 4001, "0")), STATE_FILE
    ),
    "zero denominator token": _cli(
        ["props", "eval"],
        ("p.json", _window_text("0", "1")),
        ("state.json", json.dumps({"state": ["1/" + "0" * 4000]})),
    ),
    "denominator digits token": _cli(
        ["props", "eval"],
        ("p.json", _window_text("0", "1")),
        ("state.json", json.dumps({"state": ["1" * 4000 + "/"]})),
    ),
    "kernel row key": _raises(
        ValueError,
        lambda: process_from_json(
            [
                {"kind": "classical_prepare", "point": "a"},
                {"kind": "classical_step", "kernel": {LONG: [["a", "1/2"]]}},
            ]
        ),
    ),
    "kernel row sum": _raises(
        ValueError, lambda: ClassicalStep({"a": (("a", Fraction(10**200 + 1, 10**200)),)})
    ),
    "negative probability": _raises(
        ValueError, lambda: ClassicalStep({LONG: (("a", 2), ("b", -1))})
    ),
    "stage kind": _raises(ValueError, lambda: process_from_json([{"kind": LONG}])),
    "transition row": _raises(
        ValueError, lambda: run((ClassicalPrepare(LONG), ClassicalStep({"a": (("a", 1),)})))
    ),
    "projector label": _raises(
        ValueError, lambda: Observable("o", (Outcome(LONG, 0, Matrix([[1, 1], [0, 1]])),))
    ),
    "observable name": _raises(ValueError, lambda: Observable(LONG, ())),
    "observable sum": _raises(
        ValueError, lambda: Observable(LONG, (Outcome("a", 0, EYE), Outcome("b", 0, EYE)))
    ),
    "condition outcome": _raises(
        ValueError,
        lambda: run(
            (
                Prepare(vec(1, 0)),
                Measure(spin_observable("z")),
                ConditionalUnitary(OutcomeIs(1, LONG), EYE),
            )
        ),
    ),
    "variable name": _raises(ValueError, lambda: Var(f"{LONG}!")),
    "scalar": _raises(TypeError, lambda: vec([LONG])),
    "spin axis": _raises(ValueError, lambda: spin_observable(LONG)),
}


@pytest.mark.parametrize("name", list(BOUNDED_CASES))
def test_a_rejected_value_is_quoted_bounded(capsys, tmp_path, name):
    # each quoted value is cut after 80 characters, so the line stays short however long it is
    err = BOUNDED_CASES[name](capsys, tmp_path)
    assert err.count("\n") == 1 and err.endswith("\n") and "…" in err
    assert len(err.encode()) < 300, err[:400]
