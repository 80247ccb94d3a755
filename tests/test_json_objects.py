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
from ortholab.linalg import ScalarParseError, _quote, matrix_from_json
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


# -- a long rejected value is quoted in part -------------------------------------


def assert_one_short_line(capsys, argv, start):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"ortholab: error: {start}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert len(captured.err.encode("utf-8")) < 200


def test_a_long_string_in_a_mistyped_value_is_cut(capsys, tmp_path):
    a = write(tmp_path, "a.json", {"space_dim": 2, "basis": {"x": "a" * 1_000_000}})
    start = "fileA/basis must be a JSON list, not {'x': 'aaa"
    assert_one_short_line(capsys, ["lattice", "ortho", a], start)


def test_a_long_scalar_text_is_cut(capsys, tmp_path):
    a = write(tmp_path, "a.json", {"space_dim": 2, "basis": [["1", "2" + "x" * 1_000_000]]})
    start = "fileA/basis/0/1: unexpected 'x' at position 2 in '2xxx"
    assert_one_short_line(capsys, ["lattice", "ortho", a], start)


def test_a_long_kernel_transition_is_cut():
    data = _edit(hatch_demo, (1, "kernel", "p", 0), ["q", "1/2", "r" * 1_000_000])
    with pytest.raises(TypeError) as info:
        process_from_json(data)
    message = str(info.value)
    assert message.startswith("process/1/kernel/p/0 must be a JSON pair")
    assert message.endswith(", not ['q', '1/2', '" + "r" * 79 + "…]")


def test_quoted_values_keep_what_fits():
    fits = {"lo": ["x" * 78, None, -3.5], "it's": 'say "hi"' * 9}
    assert _quote(fits) == repr(fits)
    long = "it's" + "\\" * 100
    assert _quote(long) == repr(long)[:80] + "…"
    many = ["x"] * 10_000
    assert _quote(many) == repr(many)[:1000] + "…"


# -- a record's own check, after reading, names the path it read -----------------


def test_an_empty_state_names_its_path(capsys, tmp_path):
    prop = write(tmp_path, "p.json", {"type": "true"})
    state = write(tmp_path, "s.json", {"state": []})
    message = "state_file/state: vectors must have positive dimension"
    assert_error(capsys, ["props", "eval", prop, state], message)


def test_a_window_out_of_order_names_its_path(capsys, tmp_path):
    window = dict(WINDOW, lo="1", hi="0")
    prop = {"type": "expectation_in", "observable": S_X, "set": [WINDOW, window]}
    prop = write(tmp_path, "p.json", {"type": "not", "child": prop})
    state = write(tmp_path, "s.json", {"state": ["1", "0"]})
    message = "prop_file/child/set/1: interval endpoints out of order: 1 > 0"
    assert_error(capsys, ["props", "eval", prop, state], message)


def test_a_ragged_matrix_names_its_path():
    with pytest.raises(ValueError) as info:
        matrix_from_json({"rows": [["1", "0"], ["1"]]})
    assert str(info.value) == "matrix: matrix rows must have equal length"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"points": ["a", "a"], "amplitude": ["1", "1"]},
         "classical state/points: phase space points must be distinct"),
        ({"points": ["a", "b"], "amplitude": ["1"]},
         "classical state: amplitude dim 1 != phase space size 2"),
    ],
)  # fmt: skip
def test_a_classical_state_check_names_its_path(data, message):
    with pytest.raises(ValueError) as info:
        classical_state_from_json(data)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "demo, path, value, message",
    [
        (spin_demo, (0, "state"), ["0", "0"], "process/0: cannot prepare the zero vector"),
        (spin_demo, (1, "observable", "outcomes", 0, "projector"), S_X,
         "process/1/observable: projector 'y+' is not idempotent"),
        (spin_demo, (1, "observable", "outcomes", 1, "label"), "y+",
         "process/1/observable: observable 'S_y' has two outcomes labelled 'y+'"),
        (spin_demo, (2, "matrix"), S_X, "process/2: conditional stage needs a unitary matrix"),
        (hatch_demo, (1, "kernel", "p", 0, 1), "1/4",
         "process/1/kernel: kernel row 'p' sums to 3/4, not 1"),
        (hatch_demo, (1, "kernel", "p", 1, 0), "q",
         "process/1/kernel: kernel row 'p' names target 'q' twice"),
    ],
    ids=["prepare", "observable", "observable-label", "conditional-unitary", "kernel",
         "kernel-target"],
)  # fmt: skip
def test_a_stage_check_names_the_stage_path(demo, path, value, message):
    with pytest.raises(ValueError) as info:
        process_from_json(_edit(demo, path, value))
    assert str(info.value) == message
