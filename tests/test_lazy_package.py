"""``import ortholab`` loads names on first use, and each command only what it runs.

The package keeps its public names, each the same object as in its home
module.  The subprocess tests read ``sys.modules`` in a fresh interpreter,
so a module-level import added to ``ortholab`` or ``ortholab.cli`` that
drags in a module a command does not run fails here.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ortholab

SRC = str(Path(ortholab.__file__).resolve().parent.parent)

# Every public name by its home module; each module's own name is public too.
HOMES = {
    "linalg": [
        "Matrix", "Rational", "Scalar", "ScalarParseError", "Vector", "inner", "nullspace",
        "outer", "parse_scalar", "rank", "rref", "vec",
    ],
    "lattice": [
        "GAUSSIAN_RATIONAL", "RATIONAL_REAL", "Subspace", "check_orthomodular", "distributes",
        "find_nondistributive_witness", "join", "leq", "meet", "ortho", "random_subspace",
        "span", "substream",
    ],
    "propositions": [
        "EqualsVector", "ExpectationIn", "InSubspace", "Interval", "evaluate", "expectation",
        "is_subspace_closed", "spin_bound_witness",
    ],
    "process": [
        "Atom", "ClassicalPrepare", "ClassicalStep", "ConditionalUnitary", "Measure",
        "Observable", "Outcome", "OutcomeIs", "PointIs", "Prepare", "check_distributivity",
        "hatch_demo", "holds_surely", "prob_of", "run", "spin_demo", "spin_observable",
    ],
    "classical": [
        "ClassicalState", "MultiplicativeObservable", "PhaseSpace", "classical_expectation",
        "density", "two_state_demo",
    ],
    "dsl": [
        "BooleanSetAlgebra", "IdentityStatement", "SubspaceLattice", "check", "eval_term",
        "parse_statement", "parse_term",
    ],
    "spin": [],
}
NAMES = sorted([*HOMES, *(name for names in HOMES.values() for name in names)])


def test_the_public_names_are_unchanged():
    assert len(NAMES) == 70
    assert ortholab.__all__ == NAMES
    assert [name for name in dir(ortholab) if not name.startswith("_")] == NAMES
    namespace = {}
    exec("from ortholab import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == NAMES


@pytest.mark.parametrize("home", sorted(HOMES))
def test_each_name_is_its_home_modules_object(home):
    module = importlib.import_module(f"ortholab.{home}")
    assert getattr(ortholab, home) is module
    for name in HOMES[home]:
        assert getattr(ortholab, name) is getattr(module, name), name


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(ortholab, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        ortholab.no_such_name


def fresh(script, tmp_path):
    """Run ``script`` in a fresh interpreter; return its stdout, which must be one JSON value."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def loaded_after(argv, tmp_path):
    """The modules of interest in ``sys.modules`` after ``cli.main(argv)`` in a fresh interpreter."""
    script = f"""
import contextlib, io, json, sys
from ortholab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
watched = ("dataclasses", "inspect")
names = [m for m in sys.modules if m.startswith("ortholab.") or m in watched]
print(json.dumps([code, sorted(names)]))
"""
    return fresh(script, tmp_path)


def test_import_ortholab_loads_no_submodule(tmp_path):
    script = """
import json, sys
import ortholab
ortholab.__version__
print(json.dumps(sorted(m for m in sys.modules if m.startswith("ortholab."))))
"""
    assert fresh(script, tmp_path) == []


def test_lattice_loads_only_linalg_and_lattice(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps({"space_dim": 2, "basis": [["1", "1"]]}))
    code, loaded = loaded_after(["lattice", "ortho", "a.json"], tmp_path)
    assert code == 0
    assert loaded == ["ortholab.cli", "ortholab.lattice", "ortholab.linalg"]


def test_check_loads_no_process_classical_or_propositions(tmp_path):
    code, loaded = loaded_after(["check", "x & (x | y) = x", "--structure", "subspace"], tmp_path)
    assert code == 0
    assert "ortholab.dsl" in loaded
    for name in ("ortholab.process", "ortholab.classical", "ortholab.propositions"):
        assert name not in loaded


def test_demo_spin_loads_no_dsl(tmp_path):
    code, loaded = loaded_after(["demo", "spin"], tmp_path)
    assert code == 0
    assert "ortholab.process" in loaded
    assert "ortholab.dsl" not in loaded


# the exact ortholab modules each command loads: classical reads its expectation from linalg,
# spin_demo imports spin and lattice, and propositions imports lattice only for in_subspace
PROCESS = ["cli", "lattice", "linalg", "process", "propositions", "spin"]


@pytest.mark.parametrize(
    "argv, exit_code, modules",
    [
        (["demo", "spin"], 0, PROCESS),
        (["demo", "hatch"], 0, ["cli", "linalg", "process", "propositions"]),
        (["demo", "two-state"], 0, ["classical", "cli", "lattice", "linalg"]),
        (
            ["check", "x & (y | z) = (x & y) | (x & z)", "--structure", "subspace"],
            1,
            ["cli", "dsl", "lattice", "linalg"],
        ),
        (["props", "eval", "prop.json", "state.json"], 0, ["cli", "linalg", "propositions"]),
        (
            ["props", "eval", "in.json", "state.json"],
            0,
            ["cli", "lattice", "linalg", "propositions"],
        ),
        (["lattice", "meet", "a.json", "a.json"], 0, ["cli", "lattice", "linalg"]),
    ],
    ids=[
        "demo-spin", "demo-hatch", "demo-two-state", "check", "props", "props-in-subspace",
        "lattice",
    ],
)
def test_no_command_loads_dataclasses_or_inspect(argv, exit_code, modules, tmp_path):
    # the records derive from linalg.Record; dataclasses would load inspect, ast and dis
    (tmp_path / "a.json").write_text(json.dumps({"space_dim": 2, "basis": [["1", "1"]]}))
    negation = {"type": "not", "child": {"type": "false"}}
    prop = {"type": "or", "children": [{"type": "true"}, negation]}
    (tmp_path / "prop.json").write_text(json.dumps(prop))
    within = {"type": "in_subspace", "subspace": {"space_dim": 2, "basis": [["1", "i"]]}}
    (tmp_path / "in.json").write_text(json.dumps(within))
    (tmp_path / "state.json").write_text(json.dumps({"state": ["1", "i"]}))
    code, loaded = loaded_after(argv, tmp_path)
    assert code == exit_code
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert [m.removeprefix("ortholab.") for m in loaded] == modules


# the exact ortholab modules importing each module loads, itself included
CLOSURES = {
    "linalg": ["linalg"],
    "lattice": ["lattice", "linalg"],
    "propositions": ["linalg", "propositions"],
    "process": ["linalg", "process", "propositions"],
    "classical": ["classical", "lattice", "linalg"],
    "dsl": ["dsl", "lattice", "linalg"],
    "spin": ["linalg", "spin"],
    "cli": ["cli"],
}


@pytest.mark.parametrize("name", sorted(CLOSURES))
def test_each_module_loads_only_its_closure(name, tmp_path):
    script = f"""
import json, sys
import ortholab.{name}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("ortholab."))))
"""
    assert fresh(script, tmp_path) == [f"ortholab.{m}" for m in CLOSURES[name]]


def test_deep_input_on_a_cold_interpreter(tmp_path):
    # the first call imports dsl at handler entry, outside the walk that overflows
    script = """
import contextlib, io, json
from ortholab import cli
err = io.StringIO()
with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
    deep = cli.main(["check", "!" * 3000 + "x = x", "--structure", "subspace"])
    after = cli.main(["check", "x & (x | y) = x", "--structure", "subspace", "--dim", "2"])
print(json.dumps([deep, after, err.getvalue()]))
"""
    deep, after, err = fresh(script, tmp_path)
    assert deep == 2
    assert err == "ortholab: error: input nested too deeply\n"
    assert after == 0
