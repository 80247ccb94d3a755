"""The complement that reduced its read-off, kept as an oracle.

``_null_rows`` and ``_complement_rows`` are copied verbatim from the kernel
in which every subspace was kept in integer RREF: the complement's basis was
read off the free columns and then reduced by ``linalg._reduce``, to move
its pivots from the right to the left.  ``nullspace`` is the function that
used them.  The lattice operations below work on integer RREF rows only,
with ``meet`` as ``(s^perp v t^perp)^perp`` throughout, so each answer here
takes the one path that held before a subspace could keep the right form.
"""

from math import lcm

from ortholab.linalg import Matrix, _conj, _matrix, _reduce


def _null_rows(rows, pivot_cols, ncols) -> list:
    """Integer RREF basis of ``{x : rows @ x = 0}`` for integer RREF ``rows``."""
    pivots = [row[2 * c] for row, c in zip(rows, pivot_cols)]
    scale = lcm(*pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        # x[free] = 1 and x[c] = -row[free] / pivot, all times the lcm of the pivots
        out = [0] * (2 * ncols)
        out[2 * free] = scale
        for row, c, p in zip(rows, pivot_cols, pivots):
            q = scale // p
            out[2 * c] = -q * row[2 * free]
            out[2 * c + 1] = -q * row[2 * free + 1]
        basis.append(out)
    _reduce(basis, ncols)
    return basis


def _complement_rows(rows, ncols) -> list:
    """Integer RREF basis of the orthogonal complement of the nonzero integer RREF ``rows``.

    It is the nullspace of the conjugated rows.  Conjugation keeps them in
    integer RREF, since their pivots are real, so it is read straight off.
    """
    conj = [_conj(row) for row in rows]
    pivot_cols = [next(j for j, x in enumerate(row) if x) // 2 for row in rows]
    return _null_rows(conj, pivot_cols, ncols)


def nullspace(m: Matrix) -> Matrix:
    """RREF basis (as rows) of ``{x : m @ x = 0}``; has ncols - rank rows."""
    rows = [list(row) for row in m.parts]
    pivot_cols = _reduce(rows, m.ncols)
    return _matrix(_null_rows(rows, pivot_cols, m.ncols), m.ncols)


def reduced(rows, ncols) -> tuple:
    """The integer RREF of any integer rows, zero rows dropped."""
    rows = [list(row) for row in rows]
    rank = len(_reduce(rows, ncols))
    return tuple(tuple(row) for row in rows[:rank])


def ortho(rows, ncols) -> tuple:
    return tuple(tuple(row) for row in _complement_rows(rows, ncols))


def join(rows_s, rows_t, ncols) -> tuple:
    return reduced(rows_s + rows_t, ncols)


def meet(rows_s, rows_t, ncols) -> tuple:
    return ortho(join(ortho(rows_s, ncols), ortho(rows_t, ncols), ncols), ncols)


def leq(rows_s, rows_t, ncols) -> bool:
    return len(reduced(rows_s + rows_t, ncols)) == len(rows_t)


def contains(rows, parts, ncols) -> bool:
    return len(reduced(rows + (tuple(parts),), ncols)) == len(rows)
