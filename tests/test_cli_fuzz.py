"""Bounded fuzz of the CLI exit-code contract, run in process.

Exit 0 is success (a law that holds included), exit 1 only a ``check``
that found a counterexample, and exit 2 any usage or input error, with
nothing on stdout and one ``ortholab: error:`` line on stderr.  The inputs
are statements up to 4,000 characters, and subspace, proposition and state
documents that are valid, wrongly typed, malformed, carry 6,000-digit runs
or nest 5,000 deep.  A dimension, ``--dim`` or a subspace's ``space_dim``,
is 1-4 or else just past the input bound or 10**18, and so is ``--trials``
past 3; each must exit 2 before any work scales with it.  Every other
JSON integer stays within -2..6, since the commands allocate in
proportion to a dimension.  Most of those inputs are errors, so a second
fuzz draws only valid subspace, proposition and state documents, which
must exit 0 with a JSON report.  A type or missing-field error names the
path of the value it rejects, as an RFC 6901 JSON Pointer under the file's
``inputs`` key, and that path must resolve in the file's document; a third
fuzz swaps one part of a valid document for any JSON value, so that the
readers reach list entries and nested fields before they reject it.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ortholab.cli import main
from ortholab.lattice import MAX_INPUT_DIM, MAX_TRIALS

DIMS = st.integers(1, 4)
OVERSIZED = [MAX_INPUT_DIM + 1, 10**18]
TRIALS = st.one_of(st.integers(1, 3), st.sampled_from([MAX_TRIALS + 1, 10**18]))
IN_GRAMMAR = ["0", "1", "-1/2", "2/3", "i", "1+i", "3/4-1/3i"]
SCALARS = st.sampled_from([*IN_GRAMMAR, "0.5", "1e3", ""])
SMALL_INTS = st.integers(-2, 6)
KEYS = st.sampled_from(
    ["space_dim", "basis", "state", "type", "child", "children", "subspace", "vector",
     "observable", "rows", "ncols", "set", "lo", "hi", "lo_closed", "hi_closed"]
)  # fmt: skip
TAGS = st.sampled_from(
    ["true", "false", "in_subspace", "expectation_in", "equals", "and", "or", "not", "xor"]
)

# -- statements --------------------------------------------------------------

LEAVES = st.sampled_from(["x", "y", "z", "0", "1"])  # three variables keep Boolean checks small


def _compose(children):
    binary = st.tuples(children, st.sampled_from(["&", "|", "∧", "∨"]), children)
    return st.one_of(
        children.map(lambda t: f"!{t}"),
        children.map(lambda t: f"({t})"),
        binary.map(" ".join),
    )


TERMS = st.recursive(LEAVES, _compose, max_leaves=12)
WELL_FORMED = st.tuples(TERMS, st.sampled_from(["=", "<=", "≤"]), TERMS).map(" ".join)
DEEP_STATEMENTS = st.integers(0, 4000).flatmap(
    lambda n: st.sampled_from(
        ["!" * n + "x = x", "(" * n + "x" + ")" * n + " <= y", "x = " + "(" * n]
    )
)
# no leading '-', which argparse would read as an option
STATEMENTS = st.one_of(
    WELL_FORMED,
    DEEP_STATEMENTS,
    st.text(alphabet="xyz01()&|!=<≤∧∨¬ #_", max_size=4000),
    st.text(max_size=200).filter(lambda s: not s.startswith("-")),
)
STATEMENT_FILES = st.lists(st.one_of(WELL_FORMED, st.text(max_size=60)), max_size=5).map(
    "\n".join
)

# -- JSON documents ------------------------------------------------------------

JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    SMALL_INTS,
    st.floats(-4, 4, allow_nan=False),
    SCALARS,
    TAGS,
)
ANY_JSON = st.recursive(
    JSON_LEAVES,
    lambda c: st.lists(c, max_size=4) | st.dictionaries(KEYS, c, max_size=4),
    max_leaves=16,
)


def _vectors(n):
    return st.lists(st.lists(SCALARS, min_size=n, max_size=n), max_size=n + 1)


def subspaces(n):
    space_dim = st.sampled_from([n, *OVERSIZED])
    return st.fixed_dictionaries({"space_dim": space_dim, "basis": _vectors(n)})


def states(n):
    return st.fixed_dictionaries({"state": st.lists(SCALARS, min_size=n, max_size=n)})


def _diagonal(n, values):
    return {"rows": [[values[i] if i == j else "0" for j in range(n)] for i in range(n)]}


def _prop_leaves(n):
    window = st.fixed_dictionaries(
        {
            "lo": st.sampled_from(["-inf", "0", "-1/2", "1e5000", 0]),
            "hi": st.sampled_from(["inf", "1", "1/2"]),
            "lo_closed": st.booleans(),
            "hi_closed": st.one_of(st.booleans(), st.just("false")),
        }
    )
    diag = st.lists(SCALARS, min_size=n, max_size=n).map(lambda v: _diagonal(n, v))
    return st.one_of(
        st.sampled_from([{"type": "true"}, {"type": "false"}]),
        st.builds(lambda s: {"type": "in_subspace", "subspace": s}, subspaces(n)),
        st.builds(
            lambda v: {"type": "equals", "vector": v},
            st.lists(SCALARS, min_size=n, max_size=n),
        ),
        st.builds(
            lambda o, w: {"type": "expectation_in", "observable": o, "set": w},
            diag,
            st.lists(window, max_size=2),
        ),
    )


def _prop_compose(children):
    return st.one_of(
        children.map(lambda c: {"type": "not", "child": c}),
        st.lists(children, max_size=3).map(lambda cs: {"type": "and", "children": cs}),
        st.lists(children, max_size=3).map(lambda cs: {"type": "or", "children": cs}),
    )


def propositions(n):
    return st.recursive(_prop_leaves(n), _prop_compose, max_leaves=6)


LONG_RUN = "7" * 6000
DEEP = 5000
HOSTILE = st.sampled_from(
    [
        f'{{"space_dim": {LONG_RUN}, "basis": []}}',
        f'{{"space_dim": -{LONG_RUN}, "basis": []}}',
        f'{{"space_dim": 2, "basis": [["{LONG_RUN}", "1"]]}}',
        f'{{"state": ["1/{LONG_RUN}", "0"]}}',
        f'{{"type": "equals", "vector": [{LONG_RUN}]}}',
        "[" * DEEP + "]" * DEEP,
        '{"type": "not", "child": ' * DEEP + '{"type": "true"}' + "}" * DEEP,
        '{"space_dim": 2, "basis": ' + "[" * DEEP + "]" * DEEP + "}",
    ]
)


def _paths(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replace(doc[path[0]], path[1:], value)
    return copy


def _retyped(doc):
    # one part of a valid document, a leaf or a whole subtree, swapped for any JSON value
    paths = st.sampled_from(list(_paths(doc)))
    return st.tuples(paths, ANY_JSON).map(lambda pv: _replace(doc, *pv))


def documents(valid):
    return st.one_of(
        valid.map(json.dumps),
        valid.map(json.dumps),
        valid.flatmap(_retyped).map(json.dumps),
        valid.flatmap(_retyped).map(json.dumps),
        ANY_JSON.map(json.dumps),
        valid.map(json.dumps).flatmap(lambda t: st.integers(0, len(t)).map(lambda i: t[:i])),
        st.text(max_size=80),
        HOSTILE,
    )


# -- running the command -------------------------------------------------------


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _file(workdir, name, text):
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# the root of an error's path is the input file's key in the report's ``inputs``
ROOTS = {"lattice": ("fileA", "fileB"), "props": ("prop_file", "state_file")}
PATH_NAMED = re.compile(r"ortholab: error: (\S+) (?:must be a JSON|has no field '(\w+)'\n)")


def _assert_path_resolves(argv, err):
    if "must be a JSON" not in err and "has no field" not in err:
        return
    match = PATH_NAMED.match(err)
    assert match, err
    root, *steps = match[1].split("/")
    files = dict(zip(ROOTS.get(argv[0], ()), argv[2:]))
    assert root in files, (argv, err)
    with open(files[root], encoding="utf-8") as fh:
        value = json.load(fh)
    for step in steps:
        step = step.replace("~1", "/").replace("~0", "~")
        assert isinstance(value, (dict, list)), (argv, err)
        value = value[int(step)] if isinstance(value, list) else value[step]
    if match[2] is None:
        assert err.endswith(f", not {value!r}\n"), (argv, err)
    else:
        assert isinstance(value, dict) and match[2] not in value, (argv, err)


def _assert_contract(argv, code, out, err):
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == ""
        assert err.startswith("ortholab: error: ") and err.count("\n") == 1, err
        assert err.endswith("\n")
        _assert_path_resolves(argv, err)
        return
    assert err == "" and out
    if code == 1:
        assert argv[0] == "check"
        if argv[-1] == "json":
            results = json.loads(out)["results"]
            verdicts = [r["verdict"] for r in results.get("checks", [results])]
        else:
            verdicts = [line.split(": ", 1)[1] for line in out.splitlines() if "verdict:" in line]
        assert "counterexample" in verdicts


@st.composite
def invocations(draw, workdir):
    fmt = ["--format", draw(st.sampled_from(["json", "text"]))]
    command = draw(st.sampled_from(["check", "check-file", "lattice", "props"]))
    if command.startswith("check"):
        options = [
            "--structure",
            draw(st.sampled_from(["subspace", "boolean"])),
            "--dim",
            str(draw(st.sampled_from([1, 2, 3, 4, *OVERSIZED]))),
            "--trials",
            str(draw(TRIALS)),
            "--seed",
            str(draw(st.integers(0, 5))),
        ]
        if command == "check":
            return ["check", draw(STATEMENTS), *options, *fmt]
        path = _file(workdir, "laws.txt", draw(STATEMENT_FILES))
        return ["check", "--file", path, *options, *fmt]
    n = draw(DIMS)
    if command == "lattice":
        op = draw(st.sampled_from(["meet", "join", "ortho", "leq"]))
        files = [_file(workdir, f"{side}.json", draw(documents(subspaces(n)))) for side in "ab"]
        # mostly the right number of files; the wrong number is a usage error
        arity = draw(st.sampled_from([1, 1, 1, 2] if op == "ortho" else [1, 2, 2, 2]))
        return ["lattice", op, *files[:arity], *fmt]
    prop = _file(workdir, "prop.json", draw(documents(propositions(n))))
    state = _file(workdir, "state.json", draw(documents(states(n))))
    return ["props", "eval", prop, state, *fmt]


def test_every_exit_keeps_the_contract(workdir):
    @settings(
        max_examples=250,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(invocations(workdir))
    def run_one(argv):
        _assert_contract(argv, *_run(argv))

    run_one()


# -- the success paths ---------------------------------------------------------

VALID_SCALARS = st.sampled_from(IN_GRAMMAR)
REAL_SCALARS = st.sampled_from(["0", "1", "-1/2", "2/3"])
VALID_WINDOWS = st.fixed_dictionaries(
    {
        "lo": st.sampled_from(["-inf", "-1/2", "0"]),
        "hi": st.sampled_from(["1/2", "1", "inf"]),
        "lo_closed": st.booleans(),
        "hi_closed": st.booleans(),
    }
)


def valid_subspaces(n):
    rows = st.lists(st.lists(VALID_SCALARS, min_size=n, max_size=n), max_size=n + 1)
    return st.fixed_dictionaries({"space_dim": st.just(n), "basis": rows})


def valid_propositions(n):
    vector = st.lists(VALID_SCALARS, min_size=n, max_size=n)
    leaves = st.one_of(
        st.sampled_from([{"type": "true"}, {"type": "false"}]),
        st.builds(lambda s: {"type": "in_subspace", "subspace": s}, valid_subspaces(n)),
        st.builds(lambda v: {"type": "equals", "vector": v}, vector),
        st.builds(
            lambda v, w: {"type": "expectation_in", "observable": _diagonal(n, v), "set": w},
            st.lists(REAL_SCALARS, min_size=n, max_size=n),
            st.lists(VALID_WINDOWS, max_size=2),
        ),
    )
    return st.recursive(leaves, _prop_compose, max_leaves=6)


def valid_states(n):
    nonzero = st.lists(VALID_SCALARS, min_size=n, max_size=n).filter(lambda v: set(v) != {"0"})
    return st.fixed_dictionaries({"state": nonzero})


@st.composite
def successes(draw, workdir):
    n = draw(DIMS)
    if draw(st.booleans()):
        op = draw(st.sampled_from(["meet", "join", "ortho", "leq"]))
        docs = [draw(valid_subspaces(n)) for _ in range(1 if op == "ortho" else 2)]
        files = [_file(workdir, f"{side}.json", json.dumps(d)) for side, d in zip("ab", docs)]
        return ["lattice", op, *files, "--format", "json"]
    prop = _file(workdir, "prop.json", json.dumps(draw(valid_propositions(n))))
    state = _file(workdir, "state.json", json.dumps(draw(valid_states(n))))
    return ["props", "eval", prop, state, "--format", "json"]


def test_valid_documents_exit_zero(workdir):
    @settings(
        max_examples=150,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(successes(workdir))
    def run_one(argv):
        code, out, err = _run(argv)
        assert (code, err) == (0, ""), (argv, err)
        results = json.loads(out)["results"]
        if argv[0] == "props":
            assert isinstance(results["value"], bool)
        elif argv[1] == "leq":
            assert isinstance(results["leq"], bool)
        else:
            with open(argv[2], encoding="utf-8") as fh:
                assert results["result"]["space_dim"] == json.load(fh)["space_dim"]

    run_one()


def test_retyped_documents_name_the_path_they_reject(workdir):
    # one part of one valid file swapped for any JSON value; the valid rest lets the
    # readers reach it, so list entries and nested fields get rejected too
    @settings(
        max_examples=150,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(successes(workdir), st.data())
    def run_one(argv, data):
        path = data.draw(st.sampled_from([a for a in argv if a.endswith(".json")]))
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data.draw(_retyped(doc)), fh)
        _assert_contract(argv, *_run(argv))

    run_one()
