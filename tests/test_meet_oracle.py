"""Differential test: meets that test independence first against the complement route.

``meet`` stacks two subspaces whose dimensions sum to at most n and runs the
forward pass over them: a pivot for every row proves them independent, so
they meet in zero (Grassmann: ``dim(s ^ t) = dim s + dim t - dim(s v t)``),
with no complement and no join.  Every other pair takes
``(s^perp v t^perp)^perp``.  On seeded subspaces of dimension 1-8 and 16, in
both scalar fields and with each operand kept in either echelon form, every
meet must equal ``complement_oracle.meet``: independent pairs, dependent
pairs of small dimensions (one inside the other, or sharing a vector), zero
and full operands, and pairs whose dimensions sum past n.  Each result's form
must follow the complement route's rule, and each kind of pair must take the
branch it is meant to, counted by the calls each branch makes.
"""

import pytest

import complement_oracle as oracle
from ortholab import Subspace, lattice, meet, ortho, span
from ortholab.lattice import GAUSSIAN_RATIONAL, RATIONAL_REAL, random_subspace, substream
from ortholab.linalg import Scalar, Vector, vec

DIMS = (*range(1, 9), 16)
FIELDS = (GAUSSIAN_RATIONAL, RATIONAL_REAL)
# (forward passes, complements read) per meet: the zero found by the forward pass, a dependent
# pair whose forward pass finds fewer pivots than rows, and a pair too large to test
ZERO_BRANCH, DEPENDENT_BRANCH, LARGE_BRANCH = (1, 0), (1, 3), (0, 3)


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


def _pairs(n, field) -> dict:
    """Left-form pairs of each kind, keyed by the branch their meet must take."""
    rng = substream(f"meet/{n}/{field}", 0)
    gaussian = field == GAUSSIAN_RATIONAL
    zero, full = Subspace.zero(n), Subspace.full(n)
    draws = range(4) if n > 1 else ()
    drawn = [random_subspace(substream(f"meet/drawn/{n}/{field}", k), n, field) for k in draws]
    pairs = {ZERO_BRANCH: [], DEPENDENT_BRANCH: [], LARGE_BRANCH: [(full, full)]}
    pairs[ZERO_BRANCH] += [(zero, zero), (zero, full), (full, zero)]
    pairs[ZERO_BRANCH] += [(zero, s) for s in drawn] + [(s, zero) for s in drawn]
    pairs[LARGE_BRANCH] += [(full, s) for s in drawn] + [(s, full) for s in drawn]
    pairs[LARGE_BRANCH] += [(s, t) for s in drawn for t in drawn if s.dim + t.dim > n]
    for _ in range(4 if n > 1 else 0):
        b = _independent(rng, n, gaussian)
        # independent: t's rows carry multiples of s's, so the two can share pivot columns
        a = rng.randint(1, n - 1)
        mixed = [v + b[rng.randrange(a)].scale(rng.randint(-2, 2)) for v in b[a:]]
        pairs[ZERO_BRANCH].append((span(b[:a], n), span(mixed[: rng.randint(1, n - a)], n)))
        # one inside the other
        a = rng.randint(1, n // 2)
        inner, outer = span(b[:a], n), span(b[: rng.randint(a, n - a)], n)
        pairs[DEPENDENT_BRANCH] += [(inner, outer), (outer, inner), (inner, inner)]
        # sharing the vector b[0], and nothing else
        a = rng.randint(1, n - 1)
        shared = span([b[0]] + b[a : a + rng.randint(0, n - a - 1)], n)
        pairs[DEPENDENT_BRANCH] += [(span(b[:a], n), shared), (shared, span(b[:a], n))]
    return pairs


def _count(monkeypatch, name) -> list:
    calls, f = [], getattr(lattice, name)

    def counted(*args):
        calls.append(args)
        return f(*args)

    monkeypatch.setattr(lattice, name, counted)
    return calls


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", DIMS)
def test_meet_matches_the_complement_route(monkeypatch, n, field):
    pairs = _pairs(n, field)
    assert pairs[ZERO_BRANCH] and pairs[LARGE_BRANCH] and (pairs[DEPENDENT_BRANCH] or n == 1)
    for branch, kind in pairs.items():
        for s0, t0 in kind:
            small = s0.dim + t0.dim <= n
            expected = oracle.meet(_left(s0), _left(t0), n)
            assert small is (branch != LARGE_BRANCH)
            if small:
                assert (expected == ()) is (branch == ZERO_BRANCH)
            for s in (s0, _as_right(s0)):
                for t in (t0, _as_right(t0)):
                    kept = [(s._rows, s._right), (t._rows, t._right)]
                    passes = _count(monkeypatch, "_echelon")
                    complements = _count(monkeypatch, "_complement_rows")
                    m = meet(s, t)
                    monkeypatch.undo()
                    assert (len(passes), len(complements)) == branch
                    assert m.rows == expected
                    # the form the complement route gives: left only from two left forms
                    assert m._right is (s._right or t._right)
                    assert m is not s and m is not t
                    assert [(s._rows, s._right), (t._rows, t._right)] == kept


def test_an_independent_meet_reduces_nothing_and_reads_no_complement(monkeypatch):
    line, plane = span([vec(1, 0, 0)], 3), span([vec(0, 1, 1), vec(1, 0, 2)], 3)
    over_line = span([vec(1, 0, 0), vec(0, 1, 1)], 3)
    reduces, complements = _count(monkeypatch, "_reduce"), _count(monkeypatch, "_complement_rows")
    assert meet(line, plane).is_zero()
    assert reduces == complements == []
    # a dependent pair of dimensions summing to at most n still makes its join's one reduction
    assert meet(line, over_line) == line
    assert len(reduces) == 1 and len(complements) == 3
