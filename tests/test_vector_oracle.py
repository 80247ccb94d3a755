"""Differential test: integer-form ``inner`` and ``Matrix @ Vector`` against the Fraction oracle.

Both must give the same exact Scalars as the original ``Fraction``
arithmetic (``fraction_oracle``), part by part, on seeded vectors and
matrices of dimension 1-8: zero vectors, real-only entries, Gaussian
entries and numerators and denominators that run to 30 digits.
"""

import pytest
from fraction_oracle import oracle_inner, oracle_matvec

from ortholab.lattice import substream
from ortholab.linalg import Matrix, Rational, Scalar, Vector, inner

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
