"""Exact Gaussian-rational scalars and the linear algebra built on them.

Every scalar is a complex number ``a + b*i`` with rational ``a`` and ``b``
kept in canonical reduced form, so subspace equality, Born probabilities
and expectation values downstream are all decidable exactly.  No operation
in this module introduces a tolerance.

The hot paths run fraction-free: row reduction, ``inner`` and
``Matrix @ Vector`` work on rows flattened to Gaussian integers over one
common denominator (``_integer_row``) and build one ``Fraction`` per part
of what they return.

Values (Scalar, Vector, Matrix) are immutable after construction and safe
to share between concurrent tasks.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul

Rational = Fraction

__all__ = [
    "Rational",
    "Scalar",
    "ScalarParseError",
    "Vector",
    "Matrix",
    "parse_scalar",
    "vec",
    "inner",
    "outer",
    "rref",
    "rank",
    "nullspace",
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
]

RAT_ZERO = Rational(0)

_RATIONAL_TYPES = (int, Fraction)


class ScalarParseError(ValueError):
    """A scalar literal does not match the wire grammar."""


def _to_rational(value, what="scalar parts"):
    """``value`` as a Rational: a string must be real in the scalar grammar; floats are refused."""
    if isinstance(value, str):
        try:
            z = parse_scalar(value)
        except ScalarParseError as exc:
            raise ScalarParseError(f"{what}: {exc}") from None
        if z.im:
            raise ValueError(f"{what} must be real, not {value!r}")
        return z.re
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: {what} must be exact rationals")
    return Rational(value)


class Scalar:
    """A Gaussian rational ``re + im*i``; the field all state spaces use."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _to_rational(re)
        self.im = _to_rational(im)

    def conjugate(self) -> "Scalar":
        return _scalar(self.re, -self.im)

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return _scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return _scalar(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return _scalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        c, d = other.re, other.im
        denom = c * c + d * d
        if not denom:
            raise ZeroDivisionError("division by zero scalar")
        a, b = self.re, self.im
        return _scalar((a * c + b * d) / denom, (b * c - a * d) / denom)

    def __neg__(self):
        return _scalar(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RATIONAL_TYPES):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # real scalars hash like their rational value, matching __eq__
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"


def _scalar(re, im) -> Scalar:
    # internal fast constructor: re, im must already be Rational
    z = Scalar.__new__(Scalar)
    z.re = re
    z.im = im
    return z


def _scalar_over(re: int, im: int, den: int) -> Scalar:
    # (re + im*i) / den for ints, den > 0: one Fraction per nonzero part
    return _scalar(Fraction(re, den) if re else RAT_ZERO, Fraction(im, den) if im else RAT_ZERO)


SC_ZERO = Scalar(0)
SC_ONE = Scalar(1)
SC_I = Scalar(0, 1)


def format_scalar(z: Scalar) -> str:
    """Canonical printout: reduced parts, no ``+0i``, unit ``1i`` printed ``i``."""
    re, im = z.re, z.im
    if not im:
        return str(re)
    if im == 1:
        imag = "i"
    elif im == -1:
        imag = "-i"
    else:
        imag = f"{im}i"
    if not re:
        return imag
    return f"{re}+{imag}" if im > 0 else f"{re}{imag}"


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar wire grammar; exact inverse of the canonical printer.

    Accepted forms: ``3``, ``-1/2``, ``i``, ``-i``, ``2i``, ``1+i``,
    ``3/4-1/3i``.  A real part, when present, precedes the imaginary part.
    """
    if not isinstance(text, str):
        raise TypeError(f"scalars must be strings in the scalar grammar, not {text!r}")
    s = text.strip()
    if not s:
        raise ScalarParseError("empty scalar text")
    n = len(s)
    pos = 0

    def signed_term():
        # one signed term; returns (is_imaginary, rational value)
        nonlocal pos
        start = pos
        sign = 1
        if pos < n and s[pos] in "+-":
            if s[pos] == "-":
                sign = -1
            pos += 1
        if pos < n and s[pos] == "i":
            pos += 1
            return True, Rational(sign)
        digits_start = pos
        while pos < n and s[pos] in "0123456789":
            pos += 1
        if pos == digits_start:
            found = s[pos] if pos < n else "end of text"
            raise ScalarParseError(
                f"expected digits at position {pos + 1} in {text!r}, found {found!r}"
            )
        num = _digit_run(s[digits_start:pos])
        den = 1
        if pos < n and s[pos] == "/":
            pos += 1
            den_start = pos
            while pos < n and s[pos] in "0123456789":
                pos += 1
            if pos == den_start:
                raise ScalarParseError(f"expected denominator digits in token {s[start:pos]!r}")
            den = _digit_run(s[den_start:pos])
            if den == 0:
                raise ScalarParseError(f"zero denominator in token {s[start:pos]!r}")
        value = Rational(sign * num, den)
        if pos < n and s[pos] == "i":
            pos += 1
            return True, value
        return False, value

    first_imag, first = signed_term()
    if pos == n:
        return Scalar(0, first) if first_imag else Scalar(first, 0)
    if first_imag:
        raise ScalarParseError(
            f"unexpected {s[pos]!r} at position {pos + 1} in {text!r}:"
            " the imaginary term must come last"
        )
    if s[pos] not in "+-":
        raise ScalarParseError(f"unexpected {s[pos]!r} at position {pos + 1} in {text!r}")
    second_imag, second = signed_term()
    if not second_imag:
        raise ScalarParseError(f"expected an imaginary term at position {pos + 1} in {text!r}")
    if pos != n:
        raise ScalarParseError(f"trailing {s[pos:]!r} at position {pos + 1} in {text!r}")
    return Scalar(first, second)


def _digit_run(digits: str) -> int:
    # int() of ASCII digits fails only past the interpreter's int-string limit
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ScalarParseError(f"number too long: {len(digits)} digits, limit {limit}") from None


def _as_scalar(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, _RATIONAL_TYPES):
        return Scalar(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


class Vector:
    """Immutable state vector; entries are Scalars, not required normalized."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(_as_scalar(e) for e in entries)
        if not self.entries:
            raise ValueError("vectors must have positive dimension")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def scale(self, factor) -> "Vector":
        z = _as_scalar(factor)
        return Vector(tuple(z * e for e in self.entries))

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        _same_dim(self.dim, other.dim)
        return Vector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        _same_dim(self.dim, other.dim)
        return Vector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k):
        return self.entries[k]

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"vec({', '.join(repr(str(e)) for e in self.entries)})"


def vec(*entries) -> Vector:
    """Build a Vector from scalar literals, ints, or Scalars: ``vec(1, 'i')``."""
    return Vector(entries)


def _same_dim(a: int, b: int):
    if a != b:
        raise ValueError(f"dimension mismatch: {a} vs {b}")


def inner(v: Vector, w: Vector) -> Scalar:
    """Hermitian inner product, conjugate-linear in the FIRST argument."""
    _same_dim(v.dim, w.dim)
    x, dx = _integer_row(v.entries)
    y, dy = (x, dx) if w is v else _integer_row(w.entries)
    # conj(a) * b, summed: the real part pairs like parts, the imaginary part crosses them
    re = sum(map(mul, x, y))
    im = sum(map(mul, x[::2], y[1::2])) - sum(map(mul, x[1::2], y[::2]))
    return _scalar_over(re, im, dx * dy)


def outer(v: Vector, w: Vector) -> "Matrix":
    """Rank-one operator |v><w|: entry (j, k) is v_j * conj(w_k)."""
    return Matrix(
        tuple(tuple(a * b.conjugate() for b in w.entries) for a in v.entries),
        ncols=w.dim,
    )


class Matrix:
    """Immutable rectangular matrix of Scalars (zero rows allowed)."""

    __slots__ = ("rows", "_ncols", "_int")

    def __init__(self, rows, ncols: int | None = None):
        self.rows = tuple(tuple(_as_scalar(e) for e in row) for row in rows)
        self._int = None  # (re parts, im parts, scale) per row, filled on first matvec
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
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal(*(SC_ONE,) * n)

    @classmethod
    def diagonal(cls, *entries) -> "Matrix":
        diag = tuple(_as_scalar(e) for e in entries)
        n = len(diag)
        return cls(
            tuple(
                tuple(diag[i] if i == j else SC_ZERO for j in range(n))
                for i in range(n)
            )
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def row(self, i: int) -> Vector:
        return Vector(self.rows[i])

    def column(self, j: int) -> Vector:
        return Vector(tuple(r[j] for r in self.rows))

    def conj_transpose(self) -> "Matrix":
        if not self.rows:
            raise ValueError("cannot transpose a matrix with no rows")
        return Matrix(
            tuple(
                tuple(self.rows[i][j].conjugate() for i in range(self.nrows))
                for j in range(self._ncols)
            ),
            ncols=self.nrows,
        )

    def scale(self, factor) -> "Matrix":
        z = _as_scalar(factor)
        return Matrix(tuple(tuple(z * e for e in row) for row in self.rows), ncols=self._ncols)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self._ncols != other._ncols:
            raise ValueError("matrix shapes differ")
        return Matrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            ncols=self._ncols,
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + other.scale(-1)

    def __matmul__(self, other):
        if isinstance(other, Vector):
            _same_dim(self._ncols, other.dim)
            if self._int is None:
                self._int = tuple(
                    (ints[::2], ints[1::2], scale) for ints, scale in map(_integer_row, self.rows)
                )
            x, dx = _integer_row(other.entries)
            xre, xim = x[::2], x[1::2]
            out = []
            for are, aim, scale in self._int:
                # (a + bi)(c + di) = (ac - bd) + (ad + bc)i, summed along the row
                re = sum(map(mul, are, xre)) - sum(map(mul, aim, xim))
                im = sum(map(mul, are, xim)) + sum(map(mul, aim, xre))
                out.append(_scalar_over(re, im, scale * dx))
            return Vector(out)
        if isinstance(other, Matrix):
            _same_dim(self._ncols, other.nrows)
            cols = other._ncols
            return Matrix(
                tuple(
                    tuple(
                        sum((row[k] * other.rows[k][j] for k in range(self._ncols)), SC_ZERO)
                        for j in range(cols)
                    )
                    for row in self.rows
                ),
                ncols=cols,
            )
        return NotImplemented

    def trace(self) -> Scalar:
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
        return self @ self.conj_transpose() == Matrix.identity(self.nrows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._ncols == other._ncols and self.rows == other.rows

    def __hash__(self):
        return hash((self._ncols, self.rows))

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)
        return f"Matrix([{body}], ncols={self._ncols})"


# ---------------------------------------------------------------------------
# Row reduction kernel.
#
# Elimination is fraction-free over the Gaussian integers, in the manner of
# Bareiss 1968 but with gcd content reduction in place of exact division.
# Rows are flattened to [re0, im0, re1, im1, ...] lists of Python ints:
# _integer_row scales each input row by the lcm of its denominators.  A
# pivot row is multiplied by the conjugate of its pivot, so every pivot is
# a positive integer p, and a step is ``row <- p*row - f*prow``; each row it
# changes is divided by the gcd of its parts.  What _reduce leaves is the
# integer RREF: each nonzero row is its RREF row times the least positive
# integer that makes every entry a Gaussian integer, and that integer is
# its pivot entry.  That form is unique, so the lattice layer keeps
# subspaces in it.  Rationals and Scalars are built only when a Matrix is
# returned (_matrix), which divides each row by its pivot once.
# ---------------------------------------------------------------------------


def _integer_row(row) -> tuple:
    """``(ints, scale)``: a row of Scalars as flattened Gaussian integers over one denominator.

    ``scale`` is the lcm of the denominators of all parts, so the row equals
    ``ints / scale`` part by part.
    """
    parts = [x for e in row for x in (e.re, e.im)]
    scale = lcm(*[x.denominator for x in parts])
    return [x.numerator * (scale // x.denominator) for x in parts], scale


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
    conj = [[-x if j % 2 else x for j, x in enumerate(row)] for row in rows]
    pivot_cols = [next(j for j, x in enumerate(row) if x) // 2 for row in rows]
    return _null_rows(conj, pivot_cols, ncols)


def _rational_row(row) -> tuple:
    """Scalars of an integer RREF row: the row divided by its pivot, its first nonzero part."""
    pivot = next((x for x in row if x), 1)
    parts = [Fraction(x, pivot) if x else RAT_ZERO for x in row]
    return tuple(_scalar(parts[j], parts[j + 1]) for j in range(0, len(parts), 2))


def _matrix(rows, ncols) -> Matrix:
    return Matrix(tuple(_rational_row(row) for row in rows), ncols=ncols)


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form: unit pivots, cleared pivot columns, zero rows last."""
    rows = [_integer_row(row)[0] for row in m.rows]
    _reduce(rows, m.ncols)
    return _matrix(rows, m.ncols)


def rank(m: Matrix) -> int:
    return len(_reduce([_integer_row(row)[0] for row in m.rows], m.ncols))


def nullspace(m: Matrix) -> Matrix:
    """RREF basis (as rows) of ``{x : m @ x = 0}``; has ncols - rank rows."""
    rows = [_integer_row(row)[0] for row in m.rows]
    pivot_cols = _reduce(rows, m.ncols)
    return _matrix(_null_rows(rows, pivot_cols, m.ncols), m.ncols)


# ---------------------------------------------------------------------------
# Wire formats.
# ---------------------------------------------------------------------------


def _json_rational(text, what: str) -> Rational:
    """A real rational wire field: a string in the scalar grammar."""
    if not isinstance(text, str):
        raise TypeError(f"{what} must be strings in the scalar grammar, not {text!r}")
    return _to_rational(text, what)


def _json_field(data, key: str, kind: type):
    """``data[key]``, which must be a JSON boolean (``kind`` bool) or integer (int)."""
    value = data[key]
    if type(value) is not kind:
        name = "boolean" if kind is bool else "integer"
        raise TypeError(f"{key!r} must be a JSON {name}, not {value!r}")
    return value


def vector_to_json(v: Vector) -> list:
    return [str(e) for e in v.entries]


def vector_from_json(data) -> Vector:
    return Vector(tuple(parse_scalar(e) for e in data))


def matrix_to_json(m: Matrix) -> dict:
    out = {"rows": [[str(e) for e in row] for row in m.rows]}
    if not m.rows:
        out["ncols"] = m.ncols
    return out


def matrix_from_json(data) -> Matrix:
    rows = [[parse_scalar(e) for e in row] for row in data["rows"]]
    return Matrix(rows, ncols=_json_field(data, "ncols", int) if "ncols" in data else None)
