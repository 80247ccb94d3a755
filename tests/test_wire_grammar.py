"""One rational grammar for files and the Python API, with the field named in errors."""

import json
import sys
from fractions import Fraction

import pytest

from ortholab.classical import MultiplicativeObservable, PhaseSpace
from ortholab.cli import main
from ortholab.linalg import Matrix, Scalar, ScalarParseError, parse_scalar
from ortholab.process import Outcome
from ortholab.propositions import Interval

LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Interval("0.5"), "interval endpoints: unexpected '.' at position 2 in '0.5'"),
        (lambda: Interval(" 1e3 "), "interval endpoints: unexpected 'e' at position 3 in ' 1e3 '"),
        (lambda: Scalar("0.5"), "scalar parts: unexpected '.' at position 2 in '0.5'"),
        (
            lambda: MultiplicativeObservable(PhaseSpace(("a",)), ("0.5",)),
            "observable values: unexpected '.' at position 2 in '0.5'",
        ),
        (
            lambda: Outcome("up", "1_0", Matrix.identity(2)),
            "outcome values: unexpected '_' at position 2 in '1_0'",
        ),
        (
            lambda: Interval("1" * 5001),
            f"interval endpoints: number too long: 5001 digits, limit {LIMIT}",
        ),
    ],
    ids=["interval-decimal", "interval-exponent", "scalar", "observable", "outcome", "overlong"],
)
def test_python_api_strings_use_the_scalar_grammar(build, message):
    with pytest.raises(ScalarParseError) as info:
        build()
    assert str(info.value) == message


def test_python_api_strings_in_the_grammar_are_read_exactly():
    assert Interval("-3", " 1/2 ") == Interval(Fraction(-3), Fraction(1, 2))
    assert Scalar("2/4", "-1") == Scalar(Fraction(1, 2), -1)
    assert MultiplicativeObservable(PhaseSpace(("a",)), ("7",)).values == (Fraction(7),)


def test_python_api_strings_must_be_real():
    with pytest.raises(ValueError, match=r"^interval endpoints must be real, not '1\+i'$"):
        Interval("1+i")


def test_scalars_must_be_strings():
    with pytest.raises(TypeError, match="^scalars must be strings in the scalar grammar, not 1$"):
        parse_scalar(1)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_overlong_json_integer_is_reported_in_our_words(capsys, tmp_path):
    a = tmp_path / "a.json"
    a.write_text('{"space_dim": ' + "2" * 5000 + ', "basis": []}')
    code, out, err = _run(capsys, ["lattice", "ortho", str(a)])
    assert (code, out) == (2, "")
    assert err == f"ortholab: error: number too long: 5000 digits, limit {LIMIT}\n"


def test_non_string_scalar_in_a_file_exit_two(capsys, tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"space_dim": 2, "basis": [[1, 0]]}))
    code, out, err = _run(capsys, ["lattice", "ortho", str(a)])
    assert (code, out) == (2, "")
    assert err == "ortholab: error: fileA/basis/0/0 must be a JSON string, not 1\n"


def test_wire_rational_error_names_its_field(capsys, tmp_path):
    window = {"lo": "1e5000", "hi": "inf", "lo_closed": True, "hi_closed": True}
    observable = {"rows": [["1", "0"], ["0", "-1"]]}
    prop = tmp_path / "prop.json"
    prop.write_text(
        json.dumps({"type": "expectation_in", "observable": observable, "set": [window]})
    )
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"state": ["1", "0"]}))
    code, out, err = _run(capsys, ["props", "eval", str(prop), str(state)])
    assert (code, out) == (2, "")
    assert err == "ortholab: error: prop_file/set/0/lo: unexpected 'e' at position 2 in '1e5000'\n"
