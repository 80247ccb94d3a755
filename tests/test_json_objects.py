"""A JSON value of the wrong type, or a missing field, is named by its path, not a Python error.

Each reader names the path of the value it rejects: a root name (the CLI's
``inputs`` key for a file, the kind of document for the Python API), then
each key or index, escaped as in an RFC 6901 JSON Pointer.  Through the CLI
that is exit 2 with one ``ortholab: error:`` line and no traceback.
"""

import json
import re

import pytest

from ortholab.classical import classical_state_from_json
from ortholab.cli import main
from ortholab.linalg import ScalarParseError, matrix_from_json
from ortholab.process import hatch_demo, process_from_json, process_to_json, spin_demo

NOT_OBJECTS = [[], None, "x"]
WINDOW = {"lo": "-inf", "hi": "inf", "lo_closed": True, "hi_closed": True}
S_X = {"rows": [["0", "1/2"], ["1/2", "0"]]}


def write(tmp_path, name, value):
    path = tmp_path / name
    path.write_text(json.dumps(value))
    return str(path)


def assert_error(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"ortholab: error: {message}\n"


def assert_rejected(capsys, argv, path, value):
    assert_error(capsys, argv, f"{path} must be a JSON object, not {value!r}")


@pytest.mark.parametrize("value", NOT_OBJECTS)
def test_lattice_subspace_file(capsys, tmp_path, value):
    a = write(tmp_path, "a.json", value)
    assert_rejected(capsys, ["lattice", "ortho", a], "fileA", value)


def test_lattice_second_file(capsys, tmp_path):
    a = write(tmp_path, "a.json", {"space_dim": 2, "basis": [["1", "0"]]})
    b = write(tmp_path, "b.json", {"space_dim": 2, "basis": [["1", "0"], ["0", "1/0"]]})
    message = "fileB/basis/1/1: zero denominator in token '1/0'"
    assert_error(capsys, ["lattice", "meet", a, b], message)


@pytest.mark.parametrize("value", NOT_OBJECTS)
def test_props_proposition_file(capsys, tmp_path, value):
    prop = write(tmp_path, "p.json", value)
    state = write(tmp_path, "s.json", {"state": ["1", "0"]})
    assert_rejected(capsys, ["props", "eval", prop, state], "prop_file", value)


def test_props_state_file(capsys, tmp_path):
    prop = write(tmp_path, "p.json", {"type": "true"})
    state = write(tmp_path, "s.json", ["1", "0"])
    assert_rejected(capsys, ["props", "eval", prop, state], "state_file", ["1", "0"])


def test_expectation_window(capsys, tmp_path):
    prop = write(tmp_path, "p.json", {"type": "expectation_in", "observable": S_X, "set": [[]]})
    state = write(tmp_path, "s.json", {"state": ["1", "0"]})
    assert_rejected(capsys, ["props", "eval", prop, state], "prop_file/set/0", [])


def test_expectation_observable(capsys, tmp_path):
    prop = {"type": "expectation_in", "observable": [["0", "1"]], "set": [WINDOW]}
    prop = write(tmp_path, "p.json", prop)
    state = write(tmp_path, "s.json", {"state": ["1", "0"]})
    assert_rejected(capsys, ["props", "eval", prop, state], "prop_file/observable", [["0", "1"]])


def test_nested_subspace_and_child(capsys, tmp_path):
    state = write(tmp_path, "s.json", {"state": ["1", "0"]})
    prop = write(tmp_path, "p.json", {"type": "in_subspace", "subspace": None})
    assert_rejected(capsys, ["props", "eval", prop, state], "prop_file/subspace", None)
    prop = write(tmp_path, "q.json", {"type": "not", "child": "x"})
    assert_rejected(capsys, ["props", "eval", prop, state], "prop_file/child", "x")


def test_missing_basis(capsys, tmp_path):
    a = write(tmp_path, "a.json", {"space_dim": 2})
    assert_error(capsys, ["lattice", "ortho", a], "fileA has no field 'basis'")


def test_missing_state(capsys, tmp_path):
    prop = write(tmp_path, "p.json", {"type": "true"})
    state = write(tmp_path, "s.json", {})
    assert_error(capsys, ["props", "eval", prop, state], "state_file has no field 'state'")


def test_missing_nested_field(capsys, tmp_path):
    window = {"lo": "0", "hi": "inf", "lo_closed": True}
    prop = write(tmp_path, "p.json", {"type": "expectation_in", "observable": S_X, "set": [window]})
    state = write(tmp_path, "s.json", {"state": ["1", "0"]})
    message = "prop_file/set/0 has no field 'hi_closed'"
    assert_error(capsys, ["props", "eval", prop, state], message)


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


STAGE_PATHS = {
    "stage": "process/0",
    "observable": "process/0/observable",
    "outcomes": "process/0/observable/outcomes/0",
    "condition": "process/0/condition",
}


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
    path = STAGE_PATHS[field]
    with pytest.raises(TypeError, match=rf"^{path} must be a JSON object, not \[\]$"):
        process_from_json([stage])


# -- strings, numbers and lists where they do not belong -----------------------


def test_classical_points_must_be_a_list_of_strings():
    with pytest.raises(TypeError, match=r"^classical state/points must be a JSON list, not 'ab'$"):
        classical_state_from_json({"points": "ab", "amplitude": ["1", "1"]})
    with pytest.raises(TypeError, match=r"^classical state/points/1 must be a JSON string, not 2$"):
        classical_state_from_json({"points": ["a", 2], "amplitude": ["1", "1"]})


def _edit(demo, path, value):
    # the demo's process as JSON, with the value at ``path`` replaced
    data = process_to_json(demo()[0])
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    return data


@pytest.mark.parametrize(
    "demo, path, value, kind",
    [
        (hatch_demo, (0, "point"), 5, "string"),
        (spin_demo, (1, "observable", "outcomes", 0, "label"), 3, "string"),
        (spin_demo, (1, "observable", "name"), 7, "string"),
        (spin_demo, (2, "condition", "outcome"), 1, "string"),
        (hatch_demo, (1, "kernel"), [["p", [["q", "1"]]]], "object"),
        (hatch_demo, (1, "kernel", "p", 0, 0), 1, "string"),
    ],
    ids=["prepare-point", "outcome-label", "observable-name", "condition-outcome", "kernel",
         "transition-point"],
)  # fmt: skip
def test_process_fields_have_their_json_types(demo, path, value, kind):
    where = "/".join(["process", *map(str, path)])
    with pytest.raises(TypeError) as info:
        process_from_json(_edit(demo, path, value))
    assert str(info.value) == f"{where} must be a JSON {kind}, not {value!r}"


def test_kernel_transitions_are_pairs():
    data = _edit(hatch_demo, (1, "kernel", "p", 0), ["q", "1/2", "r"])
    message = "process/1/kernel/p/0 must be a JSON pair [point, probability], not ['q', '1/2', 'r']"
    with pytest.raises(TypeError) as info:
        process_from_json(data)
    assert str(info.value) == message


def test_paths_escape_keys_as_json_pointers():
    stages = [
        {"kind": "classical_prepare", "point": "a/b~c"},
        {"kind": "classical_step", "kernel": {"a/b~c": [["a/b~c", "1/0"]]}},
    ]
    message = "process/1/kernel/a~1b~0c/0/1: zero denominator in token '1/0'"
    with pytest.raises(ScalarParseError) as info:
        process_from_json(stages)
    assert str(info.value) == message
