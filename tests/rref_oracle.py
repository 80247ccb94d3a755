"""The one-pass Gauss-Jordan kernel and its complement read-off, kept as an oracle.

``_reduce``, ``_null_rows`` and ``_complement_rows`` are copied verbatim
from the kernel that cleared every pivot column above and below the pivot
in one pass, whatever the rank, and read a complement off a conjugated copy
of each row, finding each pivot with ``min``/``max`` over a generator.
``_primitive`` and ``_conj`` are copied with them, so that no change to the
kernel's own helpers can reach the oracle.  ``leq`` and ``contains`` are
the lattice tests of that kernel, made by a full reduction.
"""

from math import gcd, lcm
from operator import neg


def _conj(parts) -> list:
    # the conjugates of flattened Gaussian integers
    out = list(parts)
    out[1::2] = map(neg, parts[1::2])
    return out


def _primitive(row) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduce(rows, ncols) -> list:
    """Reduce flattened integer rows to integer RREF in place; returns the pivot columns."""
    nrows = len(rows)
    width = 2 * ncols
    pivot_cols = []
    r = 0
    for c in range(ncols):
        cc = 2 * c
        for k in range(r, nrows):
            if rows[k][cc] or rows[k][cc + 1]:
                break
        else:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        prow = rows[r]
        a, b = prow[cc], prow[cc + 1]
        if b:  # times conj(a + bi): the pivot becomes a*a + b*b
            for j in range(cc, width, 2):
                x, y = prow[j], prow[j + 1]
                prow[j] = a * x + b * y
                prow[j + 1] = a * y - b * x
        elif a < 0:
            prow = [-x for x in prow]
        prow = rows[r] = _primitive(prow)
        pivot = prow[cc]
        for k in range(nrows):
            row = rows[k]
            fa, fb = row[cc], row[cc + 1]
            if k == r or not (fa or fb):
                continue
            g = gcd(pivot, fa, fb)
            p, fa, fb = pivot // g, fa // g, fb // g
            out = []
            for j in range(0, width, 2):
                x, y = prow[j], prow[j + 1]
                out.append(p * row[j] - fa * x + fb * y)
                out.append(p * row[j + 1] - fa * y - fb * x)
            rows[k] = _primitive(out)
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return pivot_cols


def _null_rows(rows, pivot_cols, ncols) -> list:
    """Basis of ``{x : rows @ x = 0}`` for ``rows`` in either canonical form (``_complement_rows``)
    with pivots in ``pivot_cols``: read off, not reduced, one primitive row per free column."""
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
        basis.append(_primitive(out))
    return basis


def _complement_rows(rows, ncols, right=False) -> list:
    """The orthogonal complement of the nonzero canonical ``rows``, in the other canonical form.

    The left form is the integer RREF.  The right form, with ``right``, is its mirror image
    (``_mirror`` of the integer RREF of the mirrored rows): each pivot is its row's rightmost
    nonzero entry and the pivot columns descend.  The complement is the nullspace of the
    conjugated rows, which stay canonical, since their pivots are real, so it is read straight
    off.  A row read off has its pivot at a free column and its other entries at pivot columns
    of ``rows`` before it (left form) or after it (right form): it is in the other form.
    """
    conj = [_conj(row) for row in rows]
    find = max if right else min
    pivot_cols = [find(j for j, x in enumerate(row) if x) // 2 for row in rows]
    basis = _null_rows(conj, pivot_cols, ncols)
    return basis if right else basis[::-1]


def rank(rows, ncols) -> int:
    return len(_reduce([list(row) for row in rows], ncols))


def leq(rows_s, rows_t, ncols) -> bool:
    return rank(tuple(rows_s) + tuple(rows_t), ncols) == len(rows_t)


def contains(rows, parts, ncols) -> bool:
    return rank(tuple(rows) + (tuple(parts),), ncols) == len(rows)
