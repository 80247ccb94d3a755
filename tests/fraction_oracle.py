"""The original ``fractions.Fraction`` kernel and vector arithmetic, kept as an oracle.

``_rref_in_place`` and its two helpers are copied verbatim from the kernel
that ``ortholab.linalg`` used before it moved to fraction-free elimination
over the Gaussian integers.  The ``oracle_*`` functions rebuild the public
``rref``/``rank``/``nullspace`` and the lattice operations (on RREF basis
matrices) on top of it, exactly as they were, so tests can check that the
integer kernel changes no exact answer.  ``oracle_inner`` and
``oracle_matvec`` are ``inner`` and ``Matrix @ Vector`` as they were before
they too moved to Gaussian integers, with their bodies copied verbatim;
``oracle_scale``, ``oracle_add`` and ``oracle_sub`` are ``Vector.scale``,
``+`` and ``-`` as they were while a Vector held Scalars, returning those
Scalars.  ``ScalarMatrix`` is ``Matrix`` as it was while it held Scalar
rows, its methods copied verbatim (``Matrix @ Vector`` is
``oracle_matvec``), and ``oracle_expectation`` is the expectation value as
it was computed from ``inner`` and ``Matrix @ Vector``.
"""

from fractions import Fraction

from operator import mul

from ortholab.linalg import SC_ONE, SC_ZERO, Matrix, Vector
from ortholab.linalg import _as_scalar, _same_dim, _scalar

RAT_ZERO = Fraction(0)
RAT_ONE = Fraction(1)


def _flatten_rows(rows) -> list:
    flat = []
    for row in rows:
        out = []
        for e in row:
            out.append(e.re)
            out.append(e.im)
        flat.append(out)
    return flat


def _unflatten_row(flat_row, ncols) -> tuple:
    return tuple(_scalar(flat_row[2 * j], flat_row[2 * j + 1]) for j in range(ncols))


def _rref_in_place(flat, ncols) -> list:
    """Reduce flattened rows to RREF; returns the pivot column list."""
    nrows = len(flat)
    pivot_cols = []
    r = 0
    for c in range(ncols):
        cc = 2 * c
        pivot = None
        for k in range(r, nrows):
            row = flat[k]
            if row[cc] or row[cc + 1]:
                pivot = k
                break
        if pivot is None:
            continue
        if pivot != r:
            flat[r], flat[pivot] = flat[pivot], flat[r]
        prow = flat[r]
        a, b = prow[cc], prow[cc + 1]
        if b:
            d = a * a + b * b
            ia, ib = a / d, -b / d
            for j in range(cc, 2 * ncols, 2):
                x, y = prow[j], prow[j + 1]
                prow[j] = x * ia - y * ib
                prow[j + 1] = x * ib + y * ia
        elif a != 1:
            ia = 1 / a
            for j in range(cc, 2 * ncols, 2):
                prow[j] *= ia
                prow[j + 1] *= ia
        for k in range(nrows):
            if k == r:
                continue
            row = flat[k]
            fa, fb = row[cc], row[cc + 1]
            if fa or fb:
                for j in range(cc, 2 * ncols, 2):
                    x, y = prow[j], prow[j + 1]
                    row[j] -= fa * x - fb * y
                    row[j + 1] -= fa * y + fb * x
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return pivot_cols


def oracle_rref(m: Matrix):
    """(RREF matrix, pivot columns) from the Fraction kernel."""
    flat = _flatten_rows(m.rows)
    pivots = _rref_in_place(flat, m.ncols)
    return Matrix(tuple(_unflatten_row(fr, m.ncols) for fr in flat), ncols=m.ncols), pivots


def oracle_rank(m: Matrix) -> int:
    flat = _flatten_rows(m.rows)
    return len(_rref_in_place(flat, m.ncols))


def oracle_nullspace(m: Matrix) -> Matrix:
    ncols = m.ncols
    flat = _flatten_rows(m.rows)
    pivot_cols = _rref_in_place(flat, ncols)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        row = [RAT_ZERO] * (2 * ncols)
        row[2 * free] = RAT_ONE
        for r, pc in enumerate(pivot_cols):
            row[2 * pc] = -flat[r][2 * free]
            row[2 * pc + 1] = -flat[r][2 * free + 1]
        basis.append(row)
    _rref_in_place(basis, ncols)
    return Matrix(tuple(_unflatten_row(b, ncols) for b in basis), ncols=ncols)


# Lattice operations on canonical bases (RREF matrices without zero rows).


def oracle_span(rows, space_dim: int) -> Matrix:
    reduced, _ = oracle_rref(Matrix(rows, ncols=space_dim))
    return Matrix(tuple(row for row in reduced.rows if any(row)), ncols=space_dim)


def oracle_ortho(basis: Matrix) -> Matrix:
    conj_rows = tuple(tuple(e.conjugate() for e in row) for row in basis.rows)
    return oracle_nullspace(Matrix(conj_rows, ncols=basis.ncols))


def oracle_join(s: Matrix, t: Matrix) -> Matrix:
    return oracle_span(s.rows + t.rows, s.ncols)


def oracle_meet(s: Matrix, t: Matrix) -> Matrix:
    return oracle_ortho(oracle_join(oracle_ortho(s), oracle_ortho(t)))


def oracle_leq(s: Matrix, t: Matrix) -> bool:
    return oracle_rank(Matrix(s.rows + t.rows, ncols=s.ncols)) == t.nrows


# Vector arithmetic on Fraction-pair Scalars.


def oracle_inner(v: Vector, w: Vector):
    """Hermitian inner product, conjugate-linear in the FIRST argument."""
    _same_dim(v.dim, w.dim)
    re = RAT_ZERO
    im = RAT_ZERO
    for a, b in zip(v.entries, w.entries):
        # conj(a) * b
        re += a.re * b.re + a.im * b.im
        im += a.re * b.im - a.im * b.re
    return _scalar(re, im)


def oracle_matvec(self: Matrix, other: Vector) -> Vector:
    """``self @ other`` for a Vector ``other``."""
    _same_dim(self._ncols, other.dim)
    return Vector(
        tuple(
            sum((a * b for a, b in zip(row, other.entries)), SC_ZERO)
            for row in self.rows
        )
    )


def oracle_scale(v: Vector, factor) -> tuple:
    z = _as_scalar(factor)
    return tuple(z * e for e in v.entries)


def oracle_add(v: Vector, w: Vector) -> tuple:
    _same_dim(v.dim, w.dim)
    return tuple(a + b for a, b in zip(v.entries, w.entries))


def oracle_sub(v: Vector, w: Vector) -> tuple:
    _same_dim(v.dim, w.dim)
    return tuple(a - b for a, b in zip(v.entries, w.entries))


# Matrix arithmetic on Scalar rows.


class ScalarMatrix:
    """Immutable rectangular matrix of Scalars (zero rows allowed)."""

    __slots__ = ("rows", "_ncols")

    def __init__(self, rows, ncols: int | None = None):
        self.rows = tuple(tuple(_as_scalar(e) for e in row) for row in rows)
        if self.rows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("matrix rows must have equal length")
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} does not match row length {width}")
            self._ncols = width
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit ncols")
            self._ncols = ncols
        if self._ncols < 1:
            raise ValueError("matrices must have positive column count")

    @classmethod
    def identity(cls, n: int) -> "ScalarMatrix":
        return cls.diagonal(*(SC_ONE,) * n)

    @classmethod
    def diagonal(cls, *entries) -> "ScalarMatrix":
        diag = tuple(_as_scalar(e) for e in entries)
        n = len(diag)
        return cls(tuple(tuple(diag[i] if i == j else SC_ZERO for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def conj_transpose(self) -> "ScalarMatrix":
        if not self.rows:
            raise ValueError("cannot transpose a matrix with no rows")
        return ScalarMatrix(
            tuple(tuple(row[j].conjugate() for row in self.rows) for j in range(self._ncols)),
            ncols=self.nrows,
        )

    def scale(self, factor) -> "ScalarMatrix":
        z = _as_scalar(factor)
        return ScalarMatrix(tuple(tuple(z * e for e in row) for row in self.rows), ncols=self._ncols)

    def __add__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        if self.nrows != other.nrows or self._ncols != other._ncols:
            raise ValueError("matrix shapes differ")
        return ScalarMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            ncols=self._ncols,
        )

    def __sub__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return self + other.scale(-1)

    def __matmul__(self, other):
        if isinstance(other, ScalarMatrix):
            _same_dim(self._ncols, other.nrows)
            cols = tuple(zip(*other.rows))
            return ScalarMatrix(
                tuple(tuple(sum(map(mul, row, col), SC_ZERO) for col in cols) for row in self.rows),
                ncols=other._ncols,
            )
        return NotImplemented

    def trace(self):
        if self.nrows != self._ncols:
            raise ValueError("trace needs a square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), SC_ZERO)

    def is_hermitian(self) -> bool:
        if self.nrows != self._ncols:
            raise ValueError("hermitian test needs a square matrix")
        return self == self.conj_transpose()

    def is_unitary(self) -> bool:
        if self.nrows != self._ncols:
            raise ValueError("unitary test needs a square matrix")
        return self @ self.conj_transpose() == ScalarMatrix.identity(self.nrows)

    def __eq__(self, other):
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return self._ncols == other._ncols and self.rows == other.rows

    def __hash__(self):
        return hash((self._ncols, self.rows))

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)
        return f"Matrix([{body}], ncols={self._ncols})"


def oracle_expectation(observable: Matrix, state: Vector):
    """``propositions._expectation``: <state, A state> / <state, state> from Scalars."""
    num = oracle_inner(state, oracle_matvec(observable, state))
    if num.im != 0:
        raise ArithmeticError("hermitian expectation produced a nonzero imaginary part")
    return num.re / oracle_inner(state, state).re
