"""The record classes against frozen dataclass twins built from the fields they must have.

The value classes of process, propositions, dsl and classical derive from
``linalg.Record``.  ``PINNED`` lists each one's fields in order, with their
defaults, as the frozen dataclasses that preceded the base declared them.  A
twin made by ``dataclasses.make_dataclass`` from that list holds the same
field values as a sample record, so ``==``, ``!=``, ``hash`` and ``repr`` of
records must agree with those of their twins.
"""

import dataclasses
import inspect
from fractions import Fraction
from types import MappingProxyType

import pytest

from ortholab import classical, dsl, process, propositions
from ortholab.lattice import GAUSSIAN_RATIONAL
from ortholab.linalg import Matrix, Record, vec

# A field is a name, or (name, default).
PINNED = {
    "process.Outcome": ("label", "value", "projector"),
    "process.Observable": ("name", "outcomes"),
    "process.Prepare": ("state",),
    "process.Measure": ("observable",),
    "process.OutcomeIs": ("stage", "label"),
    "process.ConditionalUnitary": ("condition", "matrix"),
    "process.ClassicalPrepare": ("point",),
    "process.ClassicalStep": ("kernel",),
    "process.TraceEntry": ("stage", "outcome", "state"),
    "process.History": ("probability", "trace"),
    "process.PointIs": ("point",),
    "process.Atom": ("test", "stage"),
    "process.DistributivityVerdict": (
        "left_true_in_all", "left_false_in_all", "right_true_in_all", "right_false_in_all",
        "per_history", "stage_mismatch",
    ),
    "propositions.Interval": (
        ("lo", None), ("hi", None), ("lo_closed", True), ("hi_closed", True),
    ),
    "propositions.InSubspace": ("subspace",),
    "propositions.ExpectationIn": ("observable", "windows"),
    "propositions.EqualsVector": ("vector",),
    "propositions.And": ("children",),
    "propositions.Or": ("children",),
    "propositions.Not": ("child",),
    "propositions.Constant": ("value",),
    "dsl.Var": ("name",),
    "dsl.Top": (),
    "dsl.Bottom": (),
    "dsl.Not": ("child",),
    "dsl.And": ("left", "right"),
    "dsl.Or": ("left", "right"),
    "dsl.IdentityStatement": ("lhs", "rhs", "relation"),
    "dsl.SubspaceLattice": ("space_dim", ("field", GAUSSIAN_RATIONAL)),
    "dsl.BooleanSetAlgebra": ("universe_size",),
    "dsl.Counterexample": ("trial", "assignment", "lhs", "rhs"),
    "dsl.CheckReport": ("statement", "structure", "mode", "trials", "counterexample"),
    "classical.PhaseSpace": ("points",),
    "classical.ClassicalState": ("space", "amplitude"),
    "classical.MultiplicativeObservable": ("space", "values"),
    "classical.TwoStateVerdict": (
        "field", "certainly_first", "certainly_second", "balanced", "whole",
        "pairwise_meets_zero", "left", "right", "is_distributive",
    ),
}
MODULES = {"process": process, "propositions": propositions, "dsl": dsl, "classical": classical}
CLASSES = {getattr(MODULES[key.split(".")[0]], key.split(".")[1]): key for key in PINNED}
NO_DEFAULT = inspect.Parameter.empty


def _fields(key):
    return [(f, NO_DEFAULT) if isinstance(f, str) else f for f in PINNED[key]]


def _twin_class(key):
    fields = [
        (name, object) if d is NO_DEFAULT else (name, object, dataclasses.field(default=d))
        for name, d in _fields(key)
    ]
    return dataclasses.make_dataclass(key.split(".")[1], fields, frozen=True)


TWINS = {cls: _twin_class(key) for cls, key in CLASSES.items()}


def twin(record):
    """The dataclass twin holding ``record``'s own field values."""
    return TWINS[type(record)](*(getattr(record, name) for name in type(record)._fields))


def outcome(thunk):
    """A call's value, or the type of what it raised."""
    try:
        return "value", thunk()
    except Exception as exc:  # the twin must raise the same kind, e.g. hash of a dict field
        return "raised", type(exc)


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_subclasses(sub)]
    return found


def _reachable(roots):
    """Every record reachable from ``roots`` through fields, tuples, lists and mappings."""
    found, stack, seen = [], list(roots), set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Record):
            found.append(obj)
            stack.extend(getattr(obj, name) for name in obj._fields)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, (dict, MappingProxyType)):
            stack.extend(obj.values())
    return found


def _samples():
    """Up to six records per class, from the demos, runs, checks and literals, plus an equal copy
    of the first one, made through the constructor."""
    spin_stages, f = process.spin_demo()
    hatch_stages, h = process.hatch_demo()
    spin, hatch = process.run(spin_stages), process.run(hatch_stages)
    formulas = [
        f["p_i"] & (f["q_o"] | f["r_o"]), (f["p_i"] & f["q_o"]) | (f["p_i"] & f["r_o"]),
        h["p_i"] & (h["q_o"] | h["r_o"]), (h["p_i"] & h["q_o"]) | (h["p_i"] & h["r_o"]),
        ~propositions.TRUE | propositions.FALSE, ~propositions.FALSE & propositions.TRUE,
    ]
    verdicts = [
        process.check_distributivity(*formulas[:2], spin),
        process.check_distributivity(*formulas[2:4], hatch),
        process.check_distributivity(f["q_o"], f["r_o"], spin),
    ]
    statements = [
        dsl.parse_statement(text)
        for text in ("x & (y | z) = (x & y) | (x & z)", "!x | 1 <= 0 & x", "!!(a | b) = 1")
    ]
    space = classical.PhaseSpace(("a", "b"))
    roots = [
        spin_stages, f, hatch_stages, h, spin, hatch, formulas, verdicts, statements,
        process.Prepare(vec(0, 1)), process.Measure(process.spin_observable("x")),
        process.ConditionalUnitary(process.OutcomeIs(0, "z+"), Matrix.diagonal("i", 1)),
        process.ClassicalPrepare("q"), process.ClassicalStep({"a": (("a", 1),)}),
        propositions.EqualsVector(vec(1, 0)), propositions.EqualsVector(vec(0, "i")),
        propositions.And([]), propositions.Interval(), propositions.Interval(None, "1/2", False),
        dsl.check(statements[0], dsl.SubspaceLattice(2), trials=50, seed=1),
        dsl.check(statements[0], dsl.BooleanSetAlgebra(2)),
        dsl.check(dsl.parse_statement("x <= y"), dsl.BooleanSetAlgebra(1)),
        dsl.SubspaceLattice(3, "rational-real"), dsl.BooleanSetAlgebra(3),
        classical.ClassicalState(space, vec(1, 1)), classical.ClassicalState(space, vec(1, 0)),
        classical.MultiplicativeObservable(space, (1, -1)),
        classical.MultiplicativeObservable(space, (2, "1/3")),
        classical.PhaseSpace(("p", "q", "r")),
        classical.two_state_demo(), classical.two_state_demo(GAUSSIAN_RATIONAL),
    ]
    by_class = {}
    for record in _reachable(roots):
        by_class.setdefault(type(record), []).append(record)
    for cls, records in by_class.items():
        del records[6:]
        records.append(cls(*(getattr(records[0], name) for name in cls._fields)))
    return by_class


SAMPLES = _samples()


def test_every_record_class_is_pinned():
    # other test modules may derive their own classes; only the package's are pinned
    ours = {cls for cls in _subclasses(Record) if cls.__module__.startswith("ortholab.")}
    assert ours - {dsl.Term, propositions.Proposition} == set(CLASSES)
    assert len(CLASSES) == 36


@pytest.mark.parametrize("cls", sorted(CLASSES, key=CLASSES.get), ids=CLASSES.get)
def test_fields_order_and_defaults(cls):
    fields = _fields(CLASSES[cls])
    assert cls._fields == tuple(name for name, _ in fields)
    for made in (cls, TWINS[cls]):
        params = inspect.signature(made).parameters.values()
        assert [(p.name, p.default, p.kind) for p in params] == [
            (name, default, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name, default in fields
        ]
    # one generated __init__ per class with fields; a field-less one inherits object's
    assert ("__init__" in vars(cls)) == bool(fields)


@pytest.mark.parametrize("cls", sorted(CLASSES, key=CLASSES.get), ids=CLASSES.get)
def test_eq_hash_and_repr_agree_with_the_dataclass_twin(cls):
    records = SAMPLES.get(cls, [])
    # two different values at least, unless the class has no fields
    assert len({repr(r) for r in records}) >= min(2, len(cls._fields)), CLASSES[cls]
    for a in records:
        assert repr(a) == repr(twin(a))
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(twin(a)))
        for b in records:
            ta, tb = twin(a), twin(b)
            assert outcome(lambda: a == b) == outcome(lambda: ta == tb)
            assert outcome(lambda: a != b) == outcome(lambda: ta != tb)
    assert records[0] == records[-1] and records[0] is not records[-1]


def test_records_of_different_classes_are_never_equal():
    x, y = dsl.Var("x"), dsl.Var("y")
    assert dsl.And(x, y) != dsl.Or(x, y)
    assert not dsl.And(x, y) == dsl.Or(x, y)
    assert dsl.Top() != dsl.Bottom()
    assert dsl.Top() == dsl.Top()
    # the hash leaves the class out, as the dataclasses' did; equality does not
    assert hash(dsl.Top()) == hash(dsl.Bottom()) == hash(())
    assert hash(dsl.And(x, y)) == hash(dsl.Or(x, y))
    kids = (propositions.TRUE, propositions.FALSE)
    assert propositions.And(kids) != propositions.Or(kids)
    firsts = [records[0] for records in SAMPLES.values()]
    for a in firsts:
        for b in firsts:
            if type(a) is not type(b):
                assert a != b and not a == b
                assert twin(a) != twin(b)


def test_assignment_and_deletion_raise_attribute_error():
    for records in SAMPLES.values():
        record = records[0]
        before = repr(record)
        for name in (*record._fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == before


def test_post_init_converts_fields_through_object_setattr():
    a, b = propositions.TRUE, propositions.FALSE
    assert propositions.And([a, b]).children == (a, b)
    interval = propositions.Interval("1/2", 1)
    assert interval.lo == Fraction(1, 2) and type(interval.hi) is Fraction
    assert classical.PhaseSpace([1, 2]).points == ("1", "2")
    with pytest.raises(ValueError, match="invalid variable name"):
        dsl.Var("1x")
