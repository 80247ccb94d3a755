"""Differential test: subspaces kept in either echelon form against the reduced complement.

A subspace may keep its integer rows in the left form, the integer RREF, or
in the right form, its mirror image, which is what a complement reads off.
On seeded random subspaces of dimension 1-8 in both scalar fields, with the
zero and full subspaces, their complements and joins of those, every
lattice answer must equal the one of ``complement_oracle``, which reduced
every complement to the left form; each kept form must be canonical; and
``==`` and ``hash`` must not depend on the form.  A complement read-off
made wrong must still be caught by the law suite, so the involution law
compares rows that were computed.
"""

from itertools import product

import pytest
from lattice_laws import pair_law_violations, run_law_suite

import complement_oracle as oracle
from ortholab import Subspace, join, leq, linalg, meet, ortho, span, vec
from ortholab.lattice import GAUSSIAN_RATIONAL, RATIONAL_REAL, random_subspace, substream
from ortholab.linalg import Matrix, Scalar, Vector, _matrix, nullspace

DIMS = range(1, 9)
FIELDS = (GAUSSIAN_RATIONAL, RATIONAL_REAL)


def _left(s) -> tuple:
    """The integer RREF of the rows ``s`` keeps, in either form, leaving ``s`` as it is."""
    return oracle.reduced(s._rows, s.space_dim)


def _mirror(row, ncols) -> tuple:
    return tuple(x for c in reversed(range(ncols)) for x in row[2 * c : 2 * c + 2])


def _right(rows, ncols) -> tuple:
    """The right form of integer rows: mirrored, reduced and mirrored back."""
    mirrored = oracle.reduced([_mirror(row, ncols) for row in rows], ncols)
    return tuple(_mirror(row, ncols) for row in mirrored)


def _pool(n, field) -> list:
    """Subspaces of dimension ``n`` in both forms: drawn, zero, full, complements, joins."""
    left = [Subspace.zero(n), Subspace.full(n)]
    if n >= 2:
        left += [random_subspace(substream(f"forms/{n}/{field}", k), n, field) for k in range(3)]
    right = [ortho(s) for s in left]
    right += [join(a, b) for a, b in zip(right[2:], right[3:])]
    return left + right


def _vectors(n, field, pool) -> list:
    """Each subspace's own rows, and a few drawn vectors that lie in few of them."""
    rng = substream(f"forms/vectors/{n}/{field}", 0)
    gaussian = field == GAUSSIAN_RATIONAL
    drawn = []
    for _ in range(3):
        re = [rng.randint(-3, 3) for _ in range(n)]
        im = [rng.randint(-3, 3) if gaussian else 0 for _ in range(n)]
        drawn.append(Vector([Scalar(a, b) for a, b in zip(re, im)]))
    own = [Vector(row) for s in pool for row in _matrix(_left(s), n).rows]
    return drawn + own


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", DIMS)
def test_each_kept_form_is_canonical(n, field):
    pool = _pool(n, field)
    assert {s._right for s in pool} == {False, True}
    for s in pool:
        canonical = _right(s._rows, n) if s._right else oracle.reduced(s._rows, n)
        assert s._rows == canonical
        assert all(type(x) is int for row in s._rows for x in row)
        assert not any(isinstance(getattr(s, slot), Subspace) for slot in Subspace.__slots__)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", DIMS)
def test_ortho_flips_the_form_and_matches_the_oracle(n, field):
    for s in _pool(n, field):
        o = ortho(s)
        kept = o._rows
        assert o._right is not s._right
        expected = oracle.ortho(_left(s), n)
        assert _left(o) == expected and o.rows == expected
        # reading rows leaves the subspace as it was
        assert o._rows == kept and o._right is not s._right
        assert ortho(ortho(s)) is not s


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", DIMS)
def test_pair_operations_match_the_oracle(n, field):
    pool = _pool(n, field)
    kept = [(s._rows, s._right) for s in pool]
    for s, t in product(pool, pool):
        ls, lt = _left(s), _left(t)
        m, j = meet(s, t), join(s, t)
        # a meet comes back in the left form only from two left forms, a join in the right
        # form only from two right forms
        assert m._right is (s._right or t._right)
        assert j._right is (s._right and t._right)
        assert m.rows == oracle.meet(ls, lt, n)
        assert j.rows == oracle.join(ls, lt, n)
        assert leq(s, t) is oracle.leq(ls, lt, n)
    for s, v in product(pool, _vectors(n, field, pool)):
        assert s.contains(v) is oracle.contains(_left(s), v.parts, n)
    # the operands keep the rows and the form they had
    assert [(s._rows, s._right) for s in pool] == kept


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", DIMS)
def test_equality_and_hash_do_not_depend_on_the_form(n, field):
    for s in _pool(n, field):
        assert len({s, ortho(ortho(s))}) == 1
        # a complement against the same subspace built from its basis, in the left form
        assert ortho(s) == Subspace(n, ortho(s).basis) and Subspace(n, ortho(s).basis) == ortho(s)
        assert hash(ortho(s)) == hash(Subspace(n, ortho(s).basis))
        assert ortho(s) == ortho(s) and ortho(s) != s
    full, right_full = Subspace.full(n), ortho(Subspace.zero(n))
    assert right_full._right and (right_full._rows != full._rows) is (n > 1)
    assert right_full == full and hash(right_full) == hash(full)


def _random_matrix(rng, ncols, gaussian) -> Matrix:
    rows = []
    for _ in range(rng.randint(0, ncols + 2)):
        if rng.random() < 0.2:
            rows.append([Scalar(0)] * ncols)
        elif rng.random() < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([x + Scalar(2, 1 if gaussian else 0) * y for x, y in zip(a, b)])
        else:
            re = [f"{rng.randint(-3, 3)}/{rng.choice((1, 2, 3))}" for _ in range(ncols)]
            im = [rng.randint(-2, 2) if gaussian else 0 for _ in range(ncols)]
            rows.append([Scalar(a, b) for a, b in zip(re, im)])
    return Matrix(rows, ncols=ncols)


@pytest.mark.parametrize("ncols", DIMS)
def test_nullspace_is_still_the_reduced_read_off(ncols):
    for trial in range(12):
        m = _random_matrix(substream(f"forms/nullspace/{ncols}", trial), ncols, trial % 2 == 0)
        assert nullspace(m) == oracle.nullspace(m)


def _sign_slip(read_off):
    """The read-off with the first row's free-column entry negated: one entry wrong."""

    def perturbed(rows, pivot_cols, ncols):
        basis = read_off(rows, pivot_cols, ncols)
        if basis:
            free = next(c for c in range(ncols) if c not in pivot_cols)
            basis[0][2 * free] = -basis[0][2 * free]
        return basis

    return perturbed


def test_a_wrong_read_off_breaks_the_involution_and_complement_laws(monkeypatch):
    s, t = span([vec(1, 1)], 2), span([vec(1, 0)], 2)
    assert pair_law_violations(s, t) == []
    monkeypatch.setattr(linalg, "_null_rows", _sign_slip(linalg._null_rows))
    # the slipped complement of the diagonal is the diagonal itself
    bad = pair_law_violations(s, t)
    assert "involution" in bad and "complement" in bad
    # and on every sampled pair the involution law sees the slip
    _, violations = run_law_suite(2, 0, dims=(2, 3, 4), seed="forms")
    assert {(dim, trial) for name, dim, trial in violations if name == "involution"} == {
        (dim, trial) for dim in (2, 3, 4) for trial in range(2)
    }
