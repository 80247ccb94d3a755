"""Differential test: the integer-form Matrix against the Scalar-row oracle.

A Matrix holds its entries as Gaussian-integer parts over one denominator
and computes on them; ``fraction_oracle.ScalarMatrix`` is the Matrix that
held Scalar rows.  On seeded matrices of dimension 1-8, with zero, real,
Gaussian and 30-digit entries, every operation and ``outer`` must give the
same exact Scalars, part by part, and ``==``, ``hash``, ``rows``, ``repr``
and ``matrix_to_json`` must read as they did.  The expectation value computed
from the parts must equal the one computed with ``inner``.
"""

from math import gcd

import pytest
from fraction_oracle import ScalarMatrix, oracle_expectation, oracle_matvec

from ortholab.lattice import substream
from ortholab.linalg import Matrix, Rational, Scalar, Vector, matrix_to_json, outer
from ortholab.propositions import _expectation, expectation

DIMS = range(1, 9)
BIG = 10**30
KINDS = ("zero", "real", "gaussian", "big-real", "big-gaussian")


def _rational(rng, big):
    if big:
        return Rational(rng.randint(-BIG, BIG), rng.randint(1, BIG))
    return Rational(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def _scalar(rng, kind):
    if kind == "zero":
        return Scalar(0)
    big = kind.startswith("big")
    return Scalar(_rational(rng, big), _rational(rng, big) if kind.endswith("gaussian") else 0)


def _rows(rng, nrows, ncols):
    """Rows of Scalars: a zero row, or one mixing its kind's entries with zeros and reals."""
    rows = []
    for _ in range(nrows):
        kind = rng.choice(KINDS)
        mix = (kind,) if kind == "zero" else (kind, "zero", "real")
        rows.append([_scalar(rng, rng.choice(mix)) for _ in range(ncols)])
    return rows


def _pair(rows, ncols=None):
    return Matrix(rows, ncols=ncols), ScalarMatrix(rows, ncols=ncols)


def _same_matrix(got: Matrix, expected: ScalarMatrix):
    """``got`` is in normal form, built no Scalars, and reads like the oracle's Scalar rows."""
    assert isinstance(got, Matrix) and got._rows is None
    parts = [x for row in got.parts for x in row]
    assert got.den > 0 and gcd(got.den, *parts) == 1
    assert (got.nrows, got.ncols) == (expected.nrows, expected.ncols)
    for row, expected_row in zip(got.rows, expected.rows):
        for a, b in zip(row, expected_row):
            assert (a.re, a.im) == (b.re, b.im)
            assert (str(a.re), str(a.im)) == (str(b.re), str(b.im))
    assert repr(got) == repr(expected)
    assert matrix_to_json(got) == matrix_to_json(expected)
    rebuilt = Matrix(expected.rows, ncols=expected.ncols)
    assert got == rebuilt and hash(got) == hash(rebuilt)


@pytest.mark.parametrize("dim", DIMS)
def test_products_match_the_oracle(dim):
    for trial in range(8):
        rng = substream(f"matrix-oracle/matmul/{dim}", trial)
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        a, oa = _pair(_rows(rng, nrows, dim), ncols=dim)
        b, ob = _pair(_rows(rng, dim, ncols))
        _same_matrix(a @ b, oa @ ob)
        v = Vector([_scalar(rng, rng.choice(KINDS)) for _ in range(dim)])
        if nrows:  # a matrix with no rows maps to no vector
            assert a @ v == oracle_matvec(a, v)
        w = Vector([_scalar(rng, rng.choice(KINDS)) for _ in range(ncols)])
        rank_one = tuple(tuple(x * y.conjugate() for y in w.entries) for x in v.entries)
        _same_matrix(outer(v, w), ScalarMatrix(rank_one, ncols=ncols))


@pytest.mark.parametrize("dim", DIMS)
def test_sums_and_scaling_match_the_oracle(dim):
    for trial in range(8):
        rng = substream(f"matrix-oracle/linear/{dim}", trial)
        nrows = rng.randint(0, 8)
        a, oa = _pair(_rows(rng, nrows, dim), ncols=dim)
        b, ob = _pair(_rows(rng, nrows, dim), ncols=dim)
        _same_matrix(a + b, oa + ob)
        _same_matrix(a - b, oa - ob)
        _same_matrix(a - a, oa - oa)
        for factor in (_scalar(rng, rng.choice(KINDS)), -1, 0, "i", "1/3-2i"):
            _same_matrix(a.scale(factor), oa.scale(factor))


@pytest.mark.parametrize("dim", DIMS)
def test_square_matrix_operations_match_the_oracle(dim):
    for trial in range(8):
        rng = substream(f"matrix-oracle/square/{dim}", trial)
        a, oa = _pair(_rows(rng, dim, dim))
        _same_matrix(a.conj_transpose(), oa.conj_transpose())
        got, expected = a.trace(), oa.trace()
        assert (got.re, got.im) == (expected.re, expected.im)
        assert str(got) == str(expected)
        h, oh = a + a.conj_transpose(), oa + oa.conj_transpose()
        _same_matrix(h, oh)
        for m, om in ((a, oa), (h, oh)):
            assert m.is_hermitian() == om.is_hermitian()
            assert m.is_unitary() == om.is_unitary()
        assert h.is_hermitian()


def _unitary_rows(rng, dim):
    """A permutation with phases 1, -1, i or -i, times a 3-4-5 rotation of two coordinates."""
    perm = list(range(dim))
    rng.shuffle(perm)
    phases = [rng.choice(("1", "-1", "i", "-i")) for _ in range(dim)]
    p = [["0"] * dim for _ in range(dim)]
    for i, j in enumerate(perm):
        p[i][j] = phases[i]
    r = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    if dim > 1:
        j, k = rng.sample(range(dim), 2)
        r[j][j], r[j][k], r[k][j], r[k][k] = "3/5", "-4/5", "4/5", "3/5"
    return p, r


@pytest.mark.parametrize("dim", DIMS)
def test_unitaries_match_the_oracle(dim):
    for trial in range(8):
        rng = substream(f"matrix-oracle/unitary/{dim}", trial)
        p, r = _unitary_rows(rng, dim)
        (mp, op), (mr, orr) = _pair(p), _pair(r)
        u, ou = mp @ mr, op @ orr
        _same_matrix(u, ou)
        assert u.is_unitary() and ou.is_unitary()
        scaled, oscaled = u.scale("1/2"), ou.scale("1/2")
        assert not scaled.is_unitary() and not oscaled.is_unitary()


@pytest.mark.parametrize("dim", DIMS)
def test_equality_and_hash_follow_the_scalar_rows(dim):
    for trial in range(8):
        rng = substream(f"matrix-oracle/eq/{dim}", trial)
        rows = _rows(rng, rng.randint(0, 8), dim)
        a = Matrix(rows, ncols=dim)
        # the same matrix by other routes, with other common factors on the way
        k = Scalar(rng.randint(2, 10**6), rng.randint(0, 10**6))
        from_text = Matrix([[str(e) for e in row] for row in rows], ncols=dim)
        for b in (a.scale(k).scale(Scalar(1) / k), a + a.scale(0), from_text):
            assert b == a and hash(b) == hash(a) and b.rows == a.rows
        other = Matrix(_rows(rng, a.nrows, dim), ncols=dim)
        assert (other == a) == (other.rows == a.rows)
        if other == a:
            assert hash(other) == hash(a)


def test_wire_and_printed_forms_are_unchanged():
    for rows, ncols in (
        ([["1", "i"], ["0", "1/2-1/3i"]], None),
        ([["1/2", "-1/2i"], ["1/2i", "1/2"]], None),
        ([["0", "0", "0"]], None),
        ([["123456789012345678901234567890/7", "-i"]], None),
        ((), 3),
    ):
        got, expected = _pair(rows, ncols)
        assert repr(got) == repr(expected)
        assert matrix_to_json(got) == matrix_to_json(expected)
        assert got.rows == expected.rows


@pytest.mark.parametrize("dim", DIMS)
def test_expectation_matches_the_inner_product_formula(dim):
    for trial in range(10):
        rng = substream(f"matrix-oracle/expectation/{dim}", trial)
        a = Matrix(_rows(rng, dim, dim))
        h = a + a.conj_transpose()
        for _ in range(3):
            state = Vector([_scalar(rng, rng.choice(KINDS[1:])) for _ in range(dim)])
            if state.is_zero():
                continue
            got, expected = expectation(h, state), oracle_expectation(h, state)
            assert type(got) is type(expected) is Rational
            assert got == expected and str(got) == str(expected)
            assert _expectation(h, state) == expected


@pytest.mark.parametrize("dim", DIMS)
def test_nonzero_imaginary_expectation_still_raises(dim):
    # i times the identity is not hermitian: <x, i x> = i |x|^2
    skew = Matrix.identity(dim).scale("i")
    state = Vector([Scalar(k + 1, k) for k in range(dim)])
    for compute in (_expectation, oracle_expectation):
        with pytest.raises(ArithmeticError, match="nonzero imaginary part"):
            compute(skew, state)
