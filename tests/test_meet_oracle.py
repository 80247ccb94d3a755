"""Differential test: meets and joins decided by one forward pass against the complement route.

The forward pass counts a rank, and Grassmann's formula
``dim(s ^ t) = dim s + dim t - dim(s v t)`` turns that count into a
decision.  ``meet`` stacks two subspaces whose dimensions sum to at most n
and runs the pass over them: a meet of the dimension of an operand is that
operand, and one of dimension 0 is zero, with no complement and no join.
Every other pair takes ``(s^perp v t^perp)^perp``, whose join's pass proves
the same of an operand's complement.  ``join`` returns an operand whose
dimension is the rank of both stacked.  On seeded subspaces of dimension 1-8
and 16, in both scalar fields and with each operand kept in either echelon
form, every meet and join must equal ``complement_oracle``'s: independent
pairs, comparable pairs (one inside the other, equal, zero or full operands),
pairs sharing one vector, and pairs whose dimensions sum past n.  A result
equal to an operand must be that operand, any other must follow the
complement route's form rule, and each kind of pair must take the branch it
is meant to, counted by the calls each branch makes.
"""

import pytest

import complement_oracle as oracle
from ortholab import Subspace, join, lattice, meet, ortho, span
from ortholab.lattice import GAUSSIAN_RATIONAL, RATIONAL_REAL, random_subspace, substream
from ortholab.linalg import Scalar, Vector, vec

DIMS = (*range(1, 9), 16)
FIELDS = (GAUSSIAN_RATIONAL, RATIONAL_REAL)
# (forward passes, back passes, complements read) per meet, keyed by (the dimensions sum to at
# most n, what the meet is): a small pair is decided by its one forward pass unless its meet is
# neither zero nor an operand; a large one reads both complements, and their join's forward pass
# proves an operand's complement or is finished by the back pass
BRANCHES = {
    (True, "zero"): (1, 0, 0),
    (True, "s"): (1, 0, 0),
    (True, "t"): (1, 0, 0),
    (True, "other"): (2, 1, 3),
    (False, "s"): (1, 0, 2),
    (False, "t"): (1, 0, 2),
    (False, "other"): (1, 1, 3),
}


def _left(s) -> tuple:
    return oracle.reduced(s._rows, s.space_dim)


def _as_right(s) -> Subspace:
    """``s`` kept in the right form: the complement of its complement taken in the left form."""
    right = ortho(Subspace(s.space_dim, ortho(s).basis))
    assert right._right and right == s
    return right


def _vector(rng, n, gaussian) -> Vector:
    parts = [(rng.randint(-3, 3), rng.randint(-2, 2) if gaussian else 0) for _ in range(n)]
    return Vector([Scalar(re, im) for re, im in parts])


def _independent(rng, n, gaussian) -> list:
    """``n`` drawn vectors that span the space."""
    while True:
        basis = [_vector(rng, n, gaussian) for _ in range(n)]
        if span(basis, n).is_full():
            return basis


def _pairs(n, field) -> list:
    """Left-form pairs: independent, comparable, sharing one vector, zero, full and drawn."""
    rng = substream(f"meet/{n}/{field}", 0)
    gaussian = field == GAUSSIAN_RATIONAL
    zero, full = Subspace.zero(n), Subspace.full(n)
    draws = range(4) if n > 1 else ()
    drawn = [random_subspace(substream(f"meet/drawn/{n}/{field}", k), n, field) for k in draws]
    pairs = [(zero, zero), (zero, full), (full, zero), (full, full)]
    pairs += [pair for s in drawn for x in (zero, full) for pair in ((x, s), (s, x))]
    pairs += [(s, t) for s in drawn for t in drawn]
    for _ in range(4 if n > 1 else 0):
        b = _independent(rng, n, gaussian)
        # independent: t's rows carry multiples of s's, so the two can share pivot columns
        a = rng.randint(1, n - 1)
        mixed = [v + b[rng.randrange(a)].scale(rng.randint(-2, 2)) for v in b[a:]]
        pairs.append((span(b[:a], n), span(mixed[: rng.randint(1, n - a)], n)))
        # one inside the other, on both sides of n
        a = rng.randint(1, n - 1)
        inner, outer = span(b[:a], n), span(b[: rng.randint(a, n)], n)
        pairs += [(inner, outer), (outer, inner), (inner, inner), (outer, outer)]
        # sharing the vector b[0], and nothing else
        a = rng.randint(1, n - 1)
        shared = span([b[0]] + b[a : a + rng.randint(0, n - a - 1)], n)
        pairs += [(span(b[:a], n), shared), (shared, span(b[:a], n))]
        # sharing the span of b[:2] past n, and nothing else
        if n > 2:
            a = rng.randint(2, n - 1)
            wide = span(b[:2] + b[a:], n)
            pairs += [(span(b[:a], n), wide), (wide, span(b[:a], n))]
    return pairs


def _kind(expected, s, t) -> str:
    """What a meet or join with rows ``expected`` is: an operand (``s`` first), zero or other."""
    if expected == _left(s):
        return "s"
    if expected == _left(t):
        return "t"
    return "zero" if expected == () else "other"


def _count(monkeypatch, name) -> list:
    calls, f = [], getattr(lattice, name)

    def counted(*args):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(lattice, name, counted)
    return calls


def _forms(s0, t0):
    """The pair with each operand kept in either form."""
    return [(s, t) for s in (s0, _as_right(s0)) for t in (t0, _as_right(t0))]


def _check_result(r, expected, kind, s, t, right):
    """``r`` has the rows ``expected``, is the operand it equals, else is new in the right form
    exactly when ``right``."""
    assert r.rows == expected
    if kind in ("s", "t"):
        assert r is (s if kind == "s" else t)
    else:
        assert r is not s and r is not t and r._right is right


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", DIMS)
def test_meet_matches_the_complement_route(monkeypatch, n, field):
    taken = set()
    for s0, t0 in _pairs(n, field):
        small = s0.dim + t0.dim <= n
        expected = oracle.meet(_left(s0), _left(t0), n)
        kind = _kind(expected, s0, t0)
        taken.add((small, kind))
        for s, t in _forms(s0, t0):
            kept = [(s._rows, s._right), (t._rows, t._right)]
            passes, backs = _count(monkeypatch, "_echelon"), _count(monkeypatch, "_back_pass")
            reduces = _count(monkeypatch, "_reduce")
            complements = _count(monkeypatch, "_complement_rows")
            m = meet(s, t)
            monkeypatch.undo()
            assert (len(passes), len(backs), len(complements)) == BRANCHES[small, kind]
            assert reduces == []
            # a new meet comes back in the left form only from two left forms
            _check_result(m, expected, kind, s, t, s._right or t._right)
            assert [(s._rows, s._right), (t._rows, t._right)] == kept
    assert taken == set(BRANCHES) if n >= 4 else taken <= set(BRANCHES)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", DIMS)
def test_join_matches_the_reduced_stack(monkeypatch, n, field):
    for s0, t0 in _pairs(n, field):
        expected = oracle.join(_left(s0), _left(t0), n)
        # the join is t when s lies in it, else s when t does
        kind = "t" if expected == _left(t0) else "s" if expected == _left(s0) else "other"
        for s, t in _forms(s0, t0):
            kept = [(s._rows, s._right), (t._rows, t._right)]
            passes, backs = _count(monkeypatch, "_echelon"), _count(monkeypatch, "_back_pass")
            j = join(s, t)
            monkeypatch.undo()
            assert (len(passes), len(backs)) == (1, kind == "other")
            # a new join comes back in the right form only from two right forms
            _check_result(j, expected, kind, s, t, s._right and t._right)
            assert [(s._rows, s._right), (t._rows, t._right)] == kept


def test_an_independent_meet_reduces_nothing_and_reads_no_complement(monkeypatch):
    line, plane = span([vec(1, 0, 0)], 3), span([vec(0, 1, 1), vec(1, 0, 2)], 3)
    over_line = span([vec(1, 0, 0), vec(0, 1, 1)], 3)
    e1, e2, e3 = vec(1, 0, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 1, 0)
    first, second, shared = span([e1, e2], 4), span([e1, e3], 4), span([e1], 4)
    reduces, complements = _count(monkeypatch, "_reduce"), _count(monkeypatch, "_complement_rows")
    backs = _count(monkeypatch, "_back_pass")
    assert meet(line, plane).is_zero()
    assert reduces == complements == backs == []
    # a contained pair is decided by the same pass: the meet is the line itself
    assert meet(line, over_line) is line and meet(over_line, line) is line
    assert reduces == complements == backs == []
    # two planes of a 4-space sharing a line still make their join's one reduction
    assert meet(first, second) == shared
    assert len(backs) == 1 and len(complements) == 3 and reduces == []
