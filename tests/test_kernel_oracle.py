"""Differential test: the integer kernel against the original Fraction kernel.

Every exact answer of ``rref``/``rank``/``nullspace`` and of the lattice
operations must be the same as the one the original kernel gives
(``fraction_oracle``), on seeded matrices of dimension 1-8 over both scalar
fields, with zero rows, dependent rows, more rows than columns and entries
whose numerators and denominators run to 30 digits.
"""

import pytest
from fraction_oracle import (
    oracle_join,
    oracle_leq,
    oracle_meet,
    oracle_nullspace,
    oracle_ortho,
    oracle_rank,
    oracle_rref,
    oracle_span,
)

from ortholab import Subspace, join, leq, meet, ortho, span
from ortholab.lattice import substream
from ortholab.linalg import (
    Matrix,
    Rational,
    Scalar,
    Vector,
    _integer_row,
    _reduce,
    nullspace,
    rank,
    rref,
)

DIMS = range(1, 9)
BIG = 10**30


def _rational(rng, big):
    if big:
        return Rational(rng.randint(-BIG, BIG), rng.randint(1, BIG))
    return Rational(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def _random_rows(rng, ncols, nrows, gaussian, big):
    """Rows with zero rows and combinations of earlier rows mixed in."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            row = [Scalar(0)] * ncols
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            c = Scalar(_rational(rng, big), _rational(rng, big) if gaussian else 0)
            row = [x + c * y for x, y in zip(a, b)]
        else:
            row = [
                Scalar(_rational(rng, big), _rational(rng, big) if gaussian else 0)
                for _ in range(ncols)
            ]
        rows.append(tuple(row))
    return tuple(rows)


def _cases(label, ncols, count):
    """Seeded matrices: even trials Gaussian, odd real; trials 2, 3 mod 4 big."""
    for trial in range(count):
        rng = substream(f"oracle/{label}/{ncols}", trial)
        gaussian = trial % 2 == 0
        big = trial % 4 >= 2
        nrows = rng.randint(0, ncols + 3)
        yield Matrix(_random_rows(rng, ncols, nrows, gaussian, big), ncols=ncols)


@pytest.mark.parametrize("ncols", DIMS)
def test_matrix_kernel_matches_fraction_oracle(ncols):
    for m in _cases("matrix", ncols, 8):
        expected, expected_pivots = oracle_rref(m)
        assert rref(m) == expected
        assert _reduce([_integer_row(row)[0] for row in m.rows], ncols) == expected_pivots
        assert rank(m) == oracle_rank(m) == len(expected_pivots)
        assert nullspace(m) == oracle_nullspace(m)


@pytest.mark.parametrize("ncols", DIMS)
def test_lattice_operations_match_fraction_oracle(ncols):
    for trial in range(4):
        rng = substream(f"oracle/lattice/{ncols}", trial)
        gaussian = trial % 2 == 0
        big = trial % 4 >= 2
        rows_s = _random_rows(rng, ncols, rng.randint(0, ncols + 1), gaussian, big)
        rows_t = _random_rows(rng, ncols, rng.randint(0, ncols + 1), gaussian, big)
        s = span([Vector(row) for row in rows_s], ncols)
        t = span([Vector(row) for row in rows_t], ncols)
        bs, bt = oracle_span(rows_s, ncols), oracle_span(rows_t, ncols)
        assert s.basis == bs and t.basis == bt
        assert Subspace(ncols, bs) == s
        assert ortho(s).basis == oracle_ortho(bs)
        assert join(s, t).basis == oracle_join(bs, bt)
        assert meet(s, t).basis == oracle_meet(bs, bt)
        assert leq(s, t) == oracle_leq(bs, bt)
        assert leq(meet(s, t), t) and oracle_leq(oracle_meet(bs, bt), bt)
