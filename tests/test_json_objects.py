"""A JSON non-object where a reader needs an object is named, not a Python error.

Each reader says which field held the wrong value; through the CLI that is
exit 2 with one ``ortholab: error:`` line and no traceback.
"""

import json
import re

import pytest

from ortholab.classical import classical_state_from_json
from ortholab.cli import main
from ortholab.linalg import matrix_from_json
from ortholab.process import process_from_json

NOT_OBJECTS = [[], None, "x"]
WINDOW = {"lo": "-inf", "hi": "inf", "lo_closed": True, "hi_closed": True}
S_X = {"rows": [["0", "1/2"], ["1/2", "0"]]}


def write(tmp_path, name, value):
    path = tmp_path / name
    path.write_text(json.dumps(value))
    return str(path)


def assert_rejected(capsys, argv, field, value):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"ortholab: error: {field} must be a JSON object, not {value!r}\n"


@pytest.mark.parametrize("value", NOT_OBJECTS)
def test_lattice_subspace_file(capsys, tmp_path, value):
    a = write(tmp_path, "a.json", value)
    assert_rejected(capsys, ["lattice", "ortho", a], "subspace", value)


@pytest.mark.parametrize("value", NOT_OBJECTS)
def test_props_proposition_file(capsys, tmp_path, value):
    prop = write(tmp_path, "p.json", value)
    state = write(tmp_path, "s.json", {"state": ["1", "0"]})
    assert_rejected(capsys, ["props", "eval", prop, state], "proposition", value)


def test_props_state_file(capsys, tmp_path):
    prop = write(tmp_path, "p.json", {"type": "true"})
    state = write(tmp_path, "s.json", ["1", "0"])
    assert_rejected(capsys, ["props", "eval", prop, state], "state file", ["1", "0"])


def test_expectation_window(capsys, tmp_path):
    prop = write(tmp_path, "p.json", {"type": "expectation_in", "observable": S_X, "set": [[]]})
    state = write(tmp_path, "s.json", {"state": ["1", "0"]})
    assert_rejected(capsys, ["props", "eval", prop, state], "set entries", [])


def test_expectation_observable(capsys, tmp_path):
    prop = {"type": "expectation_in", "observable": [["0", "1"]], "set": [WINDOW]}
    prop = write(tmp_path, "p.json", prop)
    state = write(tmp_path, "s.json", {"state": ["1", "0"]})
    assert_rejected(capsys, ["props", "eval", prop, state], "matrix", [["0", "1"]])


def test_nested_subspace_and_child(capsys, tmp_path):
    state = write(tmp_path, "s.json", {"state": ["1", "0"]})
    prop = write(tmp_path, "p.json", {"type": "in_subspace", "subspace": None})
    assert_rejected(capsys, ["props", "eval", prop, state], "subspace", None)
    prop = write(tmp_path, "q.json", {"type": "not", "child": "x"})
    assert_rejected(capsys, ["props", "eval", prop, state], "proposition", "x")


@pytest.mark.parametrize("value", NOT_OBJECTS)
def test_matrix(value):
    message = f"matrix must be a JSON object, not {value!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        matrix_from_json(value)


@pytest.mark.parametrize("value", NOT_OBJECTS)
def test_classical_state(value):
    message = f"classical state must be a JSON object, not {value!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        classical_state_from_json(value)


@pytest.mark.parametrize(
    "stage, field",
    [
        ([], "stage"),
        ({"kind": "measure", "observable": []}, "observable"),
        ({"kind": "measure", "observable": {"name": "z", "outcomes": [[]]}}, "outcomes"),
        ({"kind": "conditional_unitary", "condition": [], "matrix": S_X}, "condition"),
    ],
)
def test_process_stage(stage, field):
    with pytest.raises(TypeError, match=rf"^{field} must be a JSON object, not \[\]$"):
        process_from_json([stage])
