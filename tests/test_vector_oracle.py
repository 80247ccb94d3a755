"""Differential test: integer-form ``inner`` and ``Matrix @ Vector`` against the Fraction oracle.

Both must give the same exact Scalars as the original ``Fraction``
arithmetic (``fraction_oracle``), part by part, on seeded vectors and
matrices of dimension 1-8: zero vectors, real-only entries, Gaussian
entries and numerators and denominators that run to 30 digits.

A Vector is held as flattened Gaussian-integer ``parts`` over one
denominator ``den``; the tests below check that this form is the one
``_integer_row`` gives, is in lowest terms whichever way the Vector was
made, and that ``==``, ``hash``, ``entries``, ``scale``, ``+`` and ``-``
agree with the Scalar arithmetic of the oracle.
"""

from math import gcd

import pytest
from fraction_oracle import oracle_add, oracle_inner, oracle_matvec, oracle_scale, oracle_sub

from ortholab.lattice import substream
from ortholab.linalg import Matrix, Rational, Scalar, Vector, _integer_row, _vector, inner

DIMS = range(1, 9)
BIG = 10**30
KINDS = ("zero", "real", "gaussian", "big-real", "big-gaussian")


def _rational(rng, big):
    if big:
        return Rational(rng.randint(-BIG, BIG), rng.randint(1, BIG))
    return Rational(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def _entries(rng, n, kind):
    if kind == "zero":
        return [Scalar(0)] * n
    big = kind.startswith("big")
    gaussian = kind.endswith("gaussian")
    return [Scalar(_rational(rng, big), _rational(rng, big) if gaussian else 0) for _ in range(n)]


def _same_parts(got, expected):
    # equal values, and each part a reduced Fraction that prints the same
    assert (got.re, got.im) == (expected.re, expected.im)
    assert (str(got.re), str(got.im)) == (str(expected.re), str(expected.im))


@pytest.mark.parametrize("dim", DIMS)
def test_inner_matches_fraction_oracle(dim):
    for trial in range(20):
        rng = substream(f"vector-oracle/inner/{dim}", trial)
        v = Vector(_entries(rng, dim, rng.choice(KINDS)))
        w = Vector(_entries(rng, dim, rng.choice(KINDS)))
        _same_parts(inner(v, w), oracle_inner(v, w))
        _same_parts(inner(w, v), oracle_inner(w, v))
        _same_parts(inner(v, v), oracle_inner(v, v))


@pytest.mark.parametrize("dim", DIMS)
def test_matvec_matches_fraction_oracle(dim):
    for trial in range(12):
        rng = substream(f"vector-oracle/matvec/{dim}", trial)
        nrows = rng.randint(1, 8)
        m = Matrix([_entries(rng, dim, rng.choice(KINDS)) for _ in range(nrows)], ncols=dim)
        # several vectors through one matrix, so its cached integer form is reused
        for _ in range(3):
            v = Vector(_entries(rng, dim, rng.choice(KINDS)))
            got, expected = m @ v, oracle_matvec(m, v)
            assert got == expected
            for a, b in zip(got, expected):
                _same_parts(a, b)


def test_dimension_mismatch_still_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        inner(Vector([1, 2]), Vector([1, 2, 3]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        Matrix.identity(2) @ Vector([1, 2, 3])


def _assert_same_vector(got: Vector, expected_scalars):
    """``got`` is in normal form and equals, hashes and reads like the Vector of the Scalars."""
    assert got.den > 0 and gcd(got.den, *got.parts) == 1
    expected = Vector(expected_scalars)
    assert (got.parts, got.den) == (expected.parts, expected.den)
    assert got == expected and hash(got) == hash(expected)
    # a fresh copy builds its entries from the parts
    entries = _vector(got.parts, got.den).entries
    assert len(entries) == got.dim == len(expected_scalars)
    for a, b in zip(entries, expected_scalars):
        _same_parts(a, b)


@pytest.mark.parametrize("dim", DIMS)
def test_vector_form_is_the_integer_row(dim):
    for trial in range(20):
        rng = substream(f"vector-oracle/form/{dim}", trial)
        scalars = _entries(rng, dim, rng.choice(KINDS))
        v = Vector(scalars)
        parts, den = _integer_row(scalars)
        assert (list(v.parts), v.den) == (parts, den)
        assert isinstance(v.parts, tuple) and gcd(v.den, *v.parts) == 1
        # the same vector with a common factor in its parts and denominator
        k = rng.randint(2, 10**6)
        w = _vector([k * x for x in parts], k * den)
        assert (w.parts, w.den) == (v.parts, v.den)
        assert w == v and hash(w) == hash(v)
        assert w._entries is None  # hashing and comparing built no Scalars
        for a, b in zip(w.entries, scalars):
            _same_parts(a, b)


@pytest.mark.parametrize("dim", DIMS)
def test_matvec_result_is_in_normal_form(dim):
    for trial in range(12):
        rng = substream(f"vector-oracle/matvec-form/{dim}", trial)
        nrows = rng.randint(1, 8)
        m = Matrix([_entries(rng, dim, rng.choice(KINDS)) for _ in range(nrows)], ncols=dim)
        v = Vector(_entries(rng, dim, rng.choice(KINDS)))
        got = m @ v
        assert got._entries is None
        _assert_same_vector(got, oracle_matvec(m, v).entries)


@pytest.mark.parametrize("dim", DIMS)
def test_scale_add_sub_match_fraction_oracle(dim):
    for trial in range(12):
        rng = substream(f"vector-oracle/arith/{dim}", trial)
        v = Vector(_entries(rng, dim, rng.choice(KINDS)))
        w = Vector(_entries(rng, dim, rng.choice(KINDS)))
        factor = _entries(rng, 1, rng.choice(KINDS))[0]
        _assert_same_vector(v.scale(factor), oracle_scale(v, factor))
        _assert_same_vector(v.scale(-1), oracle_scale(v, -1))
        _assert_same_vector(v + w, oracle_add(v, w))
        _assert_same_vector(v - w, oracle_sub(v, w))
        _assert_same_vector(v - v, oracle_sub(v, v))
        assert (v - v).is_zero() and (v - v).den == 1


def test_vector_arithmetic_dimension_mismatch_still_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        Vector([1, 2]) + Vector([1, 2, 3])
    with pytest.raises(ValueError, match="dimension mismatch"):
        Vector([1, 2]) - Vector([1, 2, 3])
    with pytest.raises(ValueError, match="positive dimension"):
        Matrix([], ncols=2) @ Vector([1, 2])
