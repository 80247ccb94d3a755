"""Boolean predicates over state vectors.

A proposition is a tree built from three generating predicates (membership
in a subspace, expectation value inside a set of rational intervals, exact
equality with a vector) and the classical connectives.  Trees are evaluated
extensionally on nonzero states; there is deliberately no decision
procedure for equality of propositions themselves, only for their values
on given states.
"""

from __future__ import annotations

import itertools

from .linalg import (
    Matrix,
    Rational,
    Record,
    Scalar,
    Vector,
    _JsonAt,
    _cut,
    _expectation,
    _quote,
    _same_dim,
    _to_rational,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)
from .lattice import Subspace, subspace_from_json, subspace_to_json
from .spin import SPIN_Y

__all__ = [
    "Interval",
    "Proposition",
    "InSubspace",
    "ExpectationIn",
    "EqualsVector",
    "And",
    "Or",
    "Not",
    "Constant",
    "TRUE",
    "FALSE",
    "truth",
    "expectation",
    "evaluate",
    "is_subspace_closed",
    "spin_bound_witness",
    "proposition_to_json",
    "proposition_from_json",
]


def _endpoint(value):
    return None if value is None else _to_rational(value, "interval endpoints")


class Interval(Record):
    """Rational interval, possibly unbounded; None endpoints mean +-infinity."""

    lo: object = None
    hi: object = None
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", _endpoint(self.lo))
        object.__setattr__(self, "hi", _endpoint(self.hi))
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {_cut(self.lo)} > {_cut(self.hi)}")

    @classmethod
    def point(cls, value) -> "Interval":
        return cls(value, value, True, True)

    def contains(self, x) -> bool:
        if self.lo is not None:
            if x < self.lo or (x == self.lo and not self.lo_closed):
                return False
        if self.hi is not None:
            if x > self.hi or (x == self.hi and not self.hi_closed):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "lo": "-inf" if self.lo is None else str(self.lo),
            "hi": "inf" if self.hi is None else str(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }

    @classmethod
    def from_json(cls, data) -> "Interval":
        data = _JsonAt.of(data, "interval")
        lo, hi = data["lo"], data["hi"]
        lo = None if lo.value == "-inf" else lo.rational()
        hi = None if hi.value == "inf" else hi.rational()
        return data.build(cls, lo, hi, *(data[k].expect(bool) for k in ("lo_closed", "hi_closed")))


class Proposition(Record):
    """Base class; combine with ``&``, ``|`` and ``~``."""

    def __and__(self, other):
        return And((self, other))

    def __or__(self, other):
        return Or((self, other))

    def __invert__(self):
        return Not(self)


class InSubspace(Proposition):
    subspace: Subspace


class ExpectationIn(Proposition):
    """The expectation value of ``observable`` lies in the union of ``windows``."""

    observable: Matrix
    windows: tuple

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple(self.windows))
        if not self.observable.is_hermitian():
            raise ValueError("expectation predicates need a hermitian observable")


class EqualsVector(Proposition):
    vector: Vector


class And(Proposition):
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


class Or(Proposition):
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


class Not(Proposition):
    child: Proposition


class Constant(Proposition):
    value: bool


TRUE = Constant(True)
FALSE = Constant(False)


def expectation(observable: Matrix, state: Vector):
    """Exact expectation <state, A state> / <state, state> as a rational.

    The numerator's imaginary part is asserted to vanish (it always does for
    a hermitian observable) rather than silently discarded.
    """
    if state.is_zero():
        raise ValueError("expectation is undefined on the zero vector")
    if not observable.is_hermitian():
        raise ValueError("expectation needs a hermitian observable")
    return _expectation(observable, state)


def truth(node, leaf) -> bool:
    """Truth value of a tree of ``And``, ``Or``, ``Not`` and ``Constant`` nodes.

    ``leaf(node)`` decides every other node.  Children go left to right and
    stop as ``all`` and ``any`` do, so an empty ``And`` is true and an empty
    ``Or`` false.  The stack is explicit: a tree may nest to any depth.
    """
    stack = []  # per open connective: None for a Not, else (children, next index, decisive value)
    while True:
        while isinstance(node, Not):
            stack.append(None)
            node = node.child
        if isinstance(node, (And, Or)):
            value = isinstance(node, And)  # its value if no child decides it
            stack.append((node.children, 0, not value))
        elif isinstance(node, Constant):
            value = node.value
        else:
            value = leaf(node)
        while stack:
            frame = stack.pop()
            if frame is None:
                value = not value
                continue
            children, i, decisive = frame
            if bool(value) is decisive or i == len(children):
                value = bool(value)
            else:
                stack.append((children, i + 1, decisive))
                node = children[i]
                break
        else:
            return value


def evaluate(prop: Proposition, state: Vector) -> bool:
    """Truth value of a proposition at a nonzero state."""
    if state.is_zero():
        raise ValueError("propositions are evaluated on nonzero states only")

    def leaf(node):
        if isinstance(node, InSubspace):
            return node.subspace.contains(state)
        if isinstance(node, ExpectationIn):
            value = _expectation(node.observable, state)
            return any(w.contains(value) for w in node.windows)
        if isinstance(node, EqualsVector):
            _same_dim(node.vector.dim, state.dim)
            return state == node.vector
        raise TypeError(f"not a proposition node: {node!r}")

    return truth(prop, leaf)


# Coefficients used to mix probe states when hunting closure violations.
# Includes 1 so that plain sums of probes are always tried.
_MIX_COEFFICIENTS = (Rational(1), Rational(-1), Rational(2), Rational(1, 2))


def is_subspace_closed(prop: Proposition, probe_states) -> bool:
    """One-sided falsifier for 'the truth set of ``prop`` is a subspace'.

    Looks for two satisfying probes whose rational combination falsifies the
    proposition.  False means a witness against closure was found; True only
    means no violation showed up among these probes.
    """
    probes = tuple(probe_states)
    satisfying = [u for u in probes if evaluate(prop, u)]
    for u, w in itertools.combinations_with_replacement(satisfying, 2):
        for a in _MIX_COEFFICIENTS:
            for b in _MIX_COEFFICIENTS:
                candidate = u.scale(Scalar(a)) + w.scale(Scalar(b))
                if candidate.is_zero():
                    continue
                if not evaluate(prop, candidate):
                    return False
    return True


def spin_bound_witness(state: Vector):
    """Expectation of y-spin for a 2-dim state; bounded by +-1/2 exactly."""
    if state.dim != 2:
        raise ValueError("spin_bound_witness needs a 2-dimensional state")
    return expectation(SPIN_Y, state)


# ---------------------------------------------------------------------------
# Wire format: tagged JSON tree.
# ---------------------------------------------------------------------------


def proposition_to_json(prop: Proposition) -> dict:
    if isinstance(prop, Constant):
        return {"type": "true" if prop.value else "false"}
    if isinstance(prop, InSubspace):
        return {"type": "in_subspace", "subspace": subspace_to_json(prop.subspace)}
    if isinstance(prop, ExpectationIn):
        return {
            "type": "expectation_in",
            "observable": matrix_to_json(prop.observable),
            "set": [w.to_json() for w in prop.windows],
        }
    if isinstance(prop, EqualsVector):
        return {"type": "equals", "vector": vector_to_json(prop.vector)}
    if isinstance(prop, And):
        return {"type": "and", "children": [proposition_to_json(c) for c in prop.children]}
    if isinstance(prop, Or):
        return {"type": "or", "children": [proposition_to_json(c) for c in prop.children]}
    if isinstance(prop, Not):
        return {"type": "not", "child": proposition_to_json(prop.child)}
    raise TypeError(f"not a proposition node: {prop!r}")


def proposition_from_json(data) -> Proposition:
    data = _JsonAt.of(data, "proposition")
    tag = data["type"].expect(str)
    if tag == "true":
        return TRUE
    if tag == "false":
        return FALSE
    if tag == "in_subspace":
        return InSubspace(subspace_from_json(data["subspace"]))
    if tag == "expectation_in":
        return ExpectationIn(
            matrix_from_json(data["observable"]),
            tuple(Interval.from_json(w) for w in data["set"]),
        )
    if tag == "equals":
        return EqualsVector(vector_from_json(data["vector"]))
    if tag == "and":
        return And(tuple(proposition_from_json(c) for c in data["children"]))
    if tag == "or":
        return Or(tuple(proposition_from_json(c) for c in data["children"]))
    if tag == "not":
        return Not(proposition_from_json(data["child"]))
    raise ValueError(f"unknown proposition tag {_quote(tag)}")
