"""Exact Gaussian-rational scalars and the linear algebra built on them.

Every scalar is a complex number ``a + b*i`` with rational ``a`` and ``b``
kept in canonical reduced form, so subspace equality, Born probabilities
and expectation values downstream are all decidable exactly.  No operation
in this module introduces a tolerance.

The hot paths are fraction-free: a Vector, and each row of a Matrix, is
its entries flattened to Gaussian integers over one denominator, and row
reduction, ``inner`` and the Matrix arithmetic work on those integers.
Scalars exist only at the boundary: values passed in, indexing, printing,
wire formats and what ``inner`` and ``trace`` return.

Values (Scalar, Vector, Matrix) are immutable after construction and safe
to share between concurrent tasks.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul, neg

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


# a str's repr: single-quoted with \' and \\ escaped, or double-quoted when it holds ' but no ";
# compiled on the first error, not at import, which every command pays for
_STR_REPR = r"'(?:[^'\\]|\\.)*'|\"[^\"]*\""


def _cut(value, limit: int = 80) -> str:
    text = str(value)
    return text if len(text) <= limit else f"{text[:limit]}…"


def _quote(value) -> str:
    """``repr(value)`` for an error message, bounded: each string in it past 80 characters,
    and the whole past 1,000, is cut there and marked ``…``."""
    return _cut(re.sub(_STR_REPR, lambda m: _cut(m[0]), repr(value)), 1000)


def _to_rational(value, what="scalar parts"):
    """``value`` as a Rational: a string must be real in the scalar grammar; floats are refused."""
    if isinstance(value, str):
        return _JsonAt(value, what).rational()
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}: {what} must be exact rationals")
    return Rational(value)


class Record:
    """An immutable value whose fields are its class's own annotations, as in a frozen dataclass;
    an annotated value is a default, and ``__init__`` ends by calling any ``__post_init__``."""

    _fields = ()

    def __init_subclass__(cls):
        names = tuple(cls.__annotations__)
        if names:  # one exec per class, where PEP 557 runs several and imports inspect and ast
            params = ", ".join(f"{n}=_cls.{n}" if n in vars(cls) else n for n in names)
            body = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
            post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
            namespace = {"_cls": cls, "_set": object.__setattr__}
            exec(f"def __init__(self, {params}):\n{body}{post}", namespace)
            cls._fields, cls.__init__ = names, namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


def _scalars(parts, den: int) -> tuple:
    # the Scalars of flattened Gaussian integers (re0, im0, re1, im1, ...) over den
    return tuple(_scalar_over(re, im, den) for re, im in zip(parts[::2], parts[1::2]))


# the most an integer form built from values may cost: its parts count times the bit length of
# their common denominator, about the bits that scaling adds to its numerators (here 8 MiB).  The
# cost grows with the square of the input when the denominators differ, as in 2,000 entries 1/p
MAX_FORM_BITS = 1 << 26


def _integer_row(row) -> tuple:
    """``(ints, scale)``: Scalars as flattened Gaussian integers ``ints / scale``, ``scale`` the
    lcm of the parts' denominators (so ``gcd(scale, *ints) == 1``).  The one place Scalars
    become parts: a Vector or Matrix built from values, and a ``scale`` factor.  A form past
    ``MAX_FORM_BITS`` is refused before any numerator is scaled."""
    parts = [x for e in row for x in (e.re, e.im)]
    scale = lcm(*[x.denominator for x in parts])
    bits = scale.bit_length()
    if len(parts) * bits > MAX_FORM_BITS:
        raise ValueError(
            f"{len(parts) // 2} entries over a {bits}-bit common denominator"
            f" take {len(parts) * bits} bits, over the limit of {MAX_FORM_BITS}"
        )
    return [x.numerator * (scale // x.denominator) for x in parts], scale


SC_ZERO = Scalar(0)
SC_ONE = Scalar(1)


def format_scalar(z: Scalar) -> str:
    """Canonical printout: reduced parts, no ``+0i``, unit ``1i`` printed ``i``."""
    re, im = z.re, z.im
    if not im:
        return str(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if not re:
        return imag
    return f"{re}+{imag}" if im > 0 else f"{re}{imag}"


# a term: a sign, then the unit i or digits with an optional /digits and an optional i.  A run
# may match empty, to be named where it is missing; [0-9], as \d takes any Unicode digit
_TERM = re.compile(r"([+-]?)(?:i|([0-9]*)(?:/([0-9]*))?(i?))")


def _at(pos: int, text: str) -> str:
    return f"at position {pos + 1} in {_quote(text)}"


def _term(s: str, pos: int, text: str) -> tuple:
    # the term at s[pos:], s being parse_scalar's text stripped: (end, is imaginary, value)
    m = _TERM.match(s, pos)
    sign, num, den, imag = m.groups()
    if num is None:  # the unit i
        return m.end(), True, Rational(-1 if sign == "-" else 1)
    if not num:
        found = s[m.end(1) : m.end(1) + 1] or "end of text"
        raise ScalarParseError(f"expected digits {_at(m.end(1), text)}, found {found!r}")
    num = _digit_run(num)
    if den is not None:
        if not den:
            raise ScalarParseError(
                f"expected denominator digits in token {_quote(s[pos : m.end(3)])}"
            )
        den = _digit_run(den)
        if not den:
            raise ScalarParseError(f"zero denominator in token {_quote(s[pos : m.end(3)])}")
    return m.end(), imag == "i", Rational(-num if sign == "-" else num, den)


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar wire grammar; exact inverse of the canonical printer.

    Accepted forms: ``3``, ``-1/2``, ``i``, ``-i``, ``2i``, ``1+i``, ``3/4-1/3i``: a term of the
    pattern ``_TERM``, ``[+-]?(i|[0-9]+(/[0-9]+)?i?)``, or a real term then a signed imaginary one.
    """
    if not isinstance(text, str):
        raise TypeError(f"scalars must be strings in the scalar grammar, not {_quote(text)}")
    # surrounding whitespace is ignored; positions count in the text as given
    s = text.rstrip()
    pos = len(s) - len(s.lstrip())
    if pos == len(s):
        raise ScalarParseError("empty scalar text")
    pos, first_imag, first = _term(s, pos, text)
    if pos == len(s):
        return _scalar(RAT_ZERO, first) if first_imag else _scalar(first, RAT_ZERO)
    if first_imag or s[pos] not in "+-":
        last = ": the imaginary term must come last" if first_imag else ""
        raise ScalarParseError(f"unexpected {s[pos]!r} {_at(pos, text)}{last}")
    end, second_imag, second = _term(s, pos, text)
    if not second_imag:
        raise ScalarParseError(f"expected an imaginary term {_at(pos, text)}")
    if end != len(s):
        raise ScalarParseError(f"trailing {_quote(s[end:])} {_at(end, text)}")
    return _scalar(first, second)


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
    raise TypeError(f"cannot interpret {_quote(value)} as a scalar")


class Vector:
    """Immutable state vector, not required normalized.

    A Vector is its entries flattened to Gaussian integers ``parts``
    (``re0, im0, re1, im1, ...``) over one positive denominator ``den``, with
    ``gcd(den, *parts) == 1``.  That form is unique, so ``==`` and ``hash``
    read it directly.  ``entries``, the Scalars, is built on first use.
    """

    __slots__ = ("parts", "den", "_entries")

    def __init__(self, entries):
        self._entries = tuple(_as_scalar(e) for e in entries)
        if not self._entries:
            raise ValueError("vectors must have positive dimension")
        parts, self.den = _integer_row(self._entries)
        self.parts = tuple(parts)

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            self._entries = _scalars(self.parts, self.den)
        return self._entries

    @property
    def dim(self) -> int:
        return len(self.parts) // 2

    def is_zero(self) -> bool:
        return not any(self.parts)

    def scale(self, factor) -> "Vector":
        (a, b), d = _integer_row((_as_scalar(factor),))
        return _vector(_times(self.parts, a, b), d * self.den)

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        _same_dim(self.dim, other.dim)
        den = lcm(self.den, other.den)
        p, q = den // self.den, den // other.den
        return _vector([p * x + q * y for x, y in zip(self.parts, other.parts)], den)

    def __sub__(self, other):
        return self + other.scale(-1) if isinstance(other, Vector) else NotImplemented

    def __len__(self):
        return self.dim

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k):
        return self.entries[k]

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.den == other.den and self.parts == other.parts

    def __hash__(self):
        return hash((self.den, self.parts))

    def __repr__(self):
        return f"vec({', '.join(repr(str(e)) for e in self.entries)})"


def _vector(parts, den: int) -> Vector:
    """The Vector ``parts / den`` for ints, ``den > 0``: the gcd is divided out."""
    if not parts:
        raise ValueError("vectors must have positive dimension")
    g = gcd(den, *parts)
    v = Vector.__new__(Vector)
    v.parts = tuple(x // g for x in parts) if g > 1 else tuple(parts)
    v.den = den // g
    v._entries = None
    return v


def vec(*entries) -> Vector:
    """Build a Vector from scalar literals, ints, or Scalars: ``vec(1, 'i')``."""
    return Vector(entries)


def _same_dim(a: int, b: int):
    if a != b:
        raise ValueError(f"dimension mismatch: {a} vs {b}")


def _dot(x, y) -> tuple:
    """``(re, im)`` of ``sum(conj(a) * b)`` over flattened Gaussian integers ``x`` and ``y``:
    the real part pairs like parts, the imaginary part crosses them."""
    return sum(map(mul, x, y)), sum(map(mul, x[::2], y[1::2])) - sum(map(mul, x[1::2], y[::2]))


def inner(v: Vector, w: Vector) -> Scalar:
    """Hermitian inner product, conjugate-linear in the FIRST argument."""
    _same_dim(v.dim, w.dim)
    return _scalar_over(*_dot(v.parts, w.parts), v.den * w.den)


def _norm_ratio(v: Vector, w: Vector) -> Rational:
    """``|v|^2 / |w|^2`` for a nonzero ``w``: for ``v = x / dx``, ``|v|^2 = x.x / dx^2``."""
    x, y = v.parts, w.parts
    return Rational(sum(map(mul, x, x)) * w.den**2, v.den**2 * sum(map(mul, y, y)))


def _expectation(observable: "Matrix", state: Vector) -> Rational:
    """``<psi, A psi> / <psi, psi>`` for callers that checked ``A`` and ``psi`` already."""
    # psi = x / dx and A psi = y / dy, so <psi, A psi> / <psi, psi> = (x.y) dx / (dy (x.x))
    x, post = state.parts, observable @ state
    re, im = _dot(x, post.parts)
    if im:
        raise ArithmeticError("hermitian expectation produced a nonzero imaginary part")
    return Rational(re * state.den, post.den * sum(map(mul, x, x)))


def outer(v: Vector, w: Vector) -> "Matrix":
    """Rank-one operator |v><w|: entry (j, k) is v_j * conj(w_k)."""
    rows = [_times(_conj(w.parts), a, b) for a, b in zip(v.parts[::2], v.parts[1::2])]
    return _matrix_over(rows, v.den * w.den, w.dim)


class Matrix:
    """Immutable rectangular matrix (zero rows allowed).

    A Matrix is held as a Vector is: ``parts`` has each row's entries
    flattened to Gaussian integers ``(re0, im0, re1, im1, ...)``, over one
    positive denominator ``den`` for the whole matrix, with
    ``gcd(den, *every part) == 1``.  That form is unique, so ``==`` and
    ``hash`` read it directly, and the arithmetic works on it.  ``rows``,
    the Scalars, is built on first use.
    """

    __slots__ = ("parts", "den", "_ncols", "_rows")

    def __init__(self, rows, ncols: int | None = None):
        self._rows = tuple(tuple(_as_scalar(e) for e in row) for row in rows)
        width = len(self._rows[0]) if self._rows else ncols
        if any(len(r) != width for r in self._rows):
            raise ValueError("matrix rows must have equal length")
        if ncols is not None and ncols != width:
            raise ValueError(f"ncols={ncols} does not match row length {width}")
        if width is None:
            raise ValueError("empty matrix needs an explicit ncols")
        if width < 1:
            raise ValueError("matrices must have positive column count")
        self._ncols = width
        # one scale for every entry, so the matrix has one denominator
        flat, self.den = _integer_row([e for row in self._rows for e in row])
        w = 2 * self._ncols
        self.parts = tuple(tuple(flat[k : k + w]) for k in range(0, len(flat), w))

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            self._rows = tuple(_scalars(row, self.den) for row in self.parts)
        return self._rows

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal(*(SC_ONE,) * n)

    @classmethod
    def diagonal(cls, *entries) -> "Matrix":
        diag = tuple(_as_scalar(e) for e in entries)
        n = len(diag)
        return cls(tuple(tuple(diag[i] if i == j else SC_ZERO for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.parts)

    @property
    def ncols(self) -> int:
        return self._ncols

    def row(self, i: int) -> Vector:
        return _vector(self.parts[i], self.den)

    def column(self, j: int) -> Vector:
        return _vector(self._columns()[j], self.den)

    def _columns(self) -> list:
        # each column, flattened as a row is
        pairs = range(0, 2 * self._ncols, 2)
        return [[x for row in self.parts for x in row[k : k + 2]] for k in pairs]

    def conj_transpose(self) -> "Matrix":
        if not self.parts:
            raise ValueError("cannot transpose a matrix with no rows")
        return _matrix_over([_conj(col) for col in self._columns()], self.den, self.nrows)

    def scale(self, factor) -> "Matrix":
        (a, b), d = _integer_row((_as_scalar(factor),))
        return _matrix_over([_times(row, a, b) for row in self.parts], d * self.den, self._ncols)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self._ncols != other._ncols:
            raise ValueError("matrix shapes differ")
        den = lcm(self.den, other.den)
        p, q = den // self.den, den // other.den
        rows = [[p * x + q * y for x, y in zip(ra, rb)] for ra, rb in zip(self.parts, other.parts)]
        return _matrix_over(rows, den, self._ncols)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + other.scale(-1)

    def __matmul__(self, other):
        if isinstance(other, Vector):
            _same_dim(self._ncols, other.dim)
            return _vector(_apply(self.parts, other.parts), self.den * other.den)
        if isinstance(other, Matrix):
            _same_dim(self._ncols, other.nrows)
            # row j of the product is other's transpose (not conjugated) applied to row j
            cols = other._columns()
            rows = [_apply(cols, row) for row in self.parts]
            return _matrix_over(rows, self.den * other.den, other._ncols)
        return NotImplemented

    def trace(self) -> Scalar:
        if self.nrows != self._ncols:
            raise ValueError("trace needs a square matrix")
        diag = [row[2 * j : 2 * j + 2] for j, row in enumerate(self.parts)]
        return _scalar_over(sum(re for re, _ in diag), sum(im for _, im in diag), self.den)

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
        return self._ncols == other._ncols and self.den == other.den and self.parts == other.parts

    def __hash__(self):
        return hash((self._ncols, self.den, self.parts))

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)
        return f"Matrix([{body}], ncols={self._ncols})"


def _matrix_over(rows, den: int, ncols: int) -> Matrix:
    """The Matrix ``rows / den`` for flattened rows of ints, ``den > 0``: the gcd is divided out."""
    g = gcd(den, *(x for row in rows for x in row))
    m = Matrix.__new__(Matrix)
    m.parts = tuple(tuple(x // g for x in row) if g > 1 else tuple(row) for row in rows)
    m.den = den // g
    m._ncols = ncols
    m._rows = None
    return m


def _conj(parts) -> list:
    # the conjugates of flattened Gaussian integers
    out = list(parts)
    out[1::2] = map(neg, parts[1::2])
    return out


def _times(parts, a: int, b: int) -> list:
    # flattened Gaussian integers, each times a + bi
    return [z for x, y in zip(parts[::2], parts[1::2]) for z in (a * x - b * y, a * y + b * x)]


def _apply(rows, x) -> list:
    """``rows @ x`` for flattened Gaussian-integer rows and vector parts ``x``, flattened.

    (a + bi)(c + di) is (ac - bd) + (ad + bc)i, so a row's dot product
    with ``conj(x)`` is the real part of its entry, and with ``x``'s parts
    swapped pairwise, ``(d0, c0, d1, c1, ...)``, the imaginary part.
    """
    xc, xs = _conj(x), list(x)
    xs[::2], xs[1::2] = x[1::2], x[::2]
    out = []
    for row in rows:
        out.append(sum(map(mul, row, xc)))
        out.append(sum(map(mul, row, xs)))
    return out


# ---------------------------------------------------------------------------
# Row reduction kernel.
#
# Elimination is fraction-free over the Gaussian integers, in the manner of
# Bareiss 1968 but with gcd content reduction in place of exact division.
# Rows are flattened to [re0, im0, re1, im1, ...] lists of Python ints, as
# a Vector or each row of a Matrix holds them; their common denominator
# does not change the row space, so it is dropped.  A pivot row is
# multiplied by the conjugate of its pivot, so every pivot is a positive
# integer p, and a step (_clear) is ``row <- p*row - f*prow``.  While p fits
# in two CPython digits, whose products cost about what one-digit ones do,
# the row keeps its content (the gcd of its parts); a wider p divides it out,
# so integers stay near their primitive size.  A row is made primitive when
# it becomes a pivot row (_echelon), and once after the back pass (_back_pass).
#
# _reduce runs two passes.  The forward pass (_echelon) finds the pivots
# and clears only the rows below each one; rank, inclusion, and a meet or
# join whose rank pins it to an operand need no more.  When it finds a
# pivot in every column, the integer RREF is the identity with zero rows
# after it, so the pass stops at that last pivot and the back pass
# (_back_pass) writes the identity.  Otherwise the back pass clears the
# rows above each pivot in Gauss-Jordan's order, pivot 1 first, each with
# the row the forward pass left, which is the row Gauss-Jordan clears
# with, so every integer is the one a single Gauss-Jordan pass computes.
#
# What _reduce leaves is the integer RREF: each nonzero row is its RREF
# row times the least positive integer that makes every entry a Gaussian
# integer, and that integer is its pivot entry.  That form is unique, so
# the lattice layer keeps subspaces in it or in its mirror image
# (_complement_rows), which is unique as well, and reads a complement off
# either one with the conjugation folded into the read-off (_null_rows).
# A Matrix returned (_matrix) divides each row by its pivot, over the lcm
# of the pivots; no Scalar is built until its ``rows`` are read.
# ---------------------------------------------------------------------------


def _primitive(row) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


_WIDE = 2 * sys.int_info.bits_per_digit  # bits in two CPython digits


def _clear(row, prow, cc, width) -> list:
    """``row`` with its entry at part ``cc`` cleared by the pivot row ``prow``; made primitive
    only when its multiplier is wider than ``_WIDE`` bits, else left with its content."""
    pivot, fa, fb = prow[cc], row[cc], row[cc + 1]
    g = gcd(pivot, fa, fb)
    p, fa, fb = pivot // g, fa // g, fb // g
    out = []
    for j in range(0, width, 2):
        x, y = prow[j], prow[j + 1]
        out.append(p * row[j] - fa * x + fb * y)
        out.append(p * row[j + 1] - fa * y - fb * x)
    return _primitive(out) if p >> _WIDE else out


def _echelon(rows, ncols) -> list:
    """The forward pass of ``_reduce``: the pivot columns of flattened integer rows, found in
    place by normalising each pivot row and clearing the rows below it.  At a pivot in every
    column it stops there, before that last pivot row is moved up or normalised."""
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
        pivot_cols.append(c)
        if r == ncols - 1:  # full rank: the caller needs the count, or the identity
            break
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
        r += 1
        if r == nrows:
            break
        for k in range(r, nrows):
            row = rows[k]
            if row[cc] or row[cc + 1]:
                rows[k] = _clear(row, prow, cc, width)
    return pivot_cols


def _back_pass(rows, pivot_cols, ncols):
    """Finish in place, as integer RREF, the rows ``_echelon`` left with pivots in ``pivot_cols``.
    It leaves rows above the last pivot with their content, divided out at the end."""
    width = 2 * ncols
    if len(pivot_cols) == ncols:  # the identity, then zero rows
        for k in range(len(rows)):
            rows[k] = [0] * width
        for k in range(ncols):
            rows[k][2 * k] = 1
        return
    for i in range(1, len(pivot_cols)):  # pivot i clears the rows above it
        prow, cc = rows[i], 2 * pivot_cols[i]
        for k in range(i):
            row = rows[k]
            if row[cc] or row[cc + 1]:
                rows[k] = _clear(row, prow, cc, width)
    for k in range(len(pivot_cols) - 1):
        rows[k] = _primitive(rows[k])


def _reduce(rows, ncols) -> list:
    """Reduce flattened integer rows to integer RREF in place; returns the pivot columns."""
    pivot_cols = _echelon(rows, ncols)
    _back_pass(rows, pivot_cols, ncols)
    return pivot_cols


def _null_rows(rows, pivot_cols, ncols) -> list:
    """Basis of the orthogonal complement of ``rows``, ``{x : <row, x> = 0 for each row}``, for
    ``rows`` in either canonical form (``_complement_rows``) with pivots in ``pivot_cols``: read
    off, not reduced, one primitive row per free column.  It is the nullspace of the conjugated
    rows; their pivots are real, so the conjugation is only the sign of each imaginary part read."""
    pivots = [row[2 * c] for row, c in zip(rows, pivot_cols)]
    scale = lcm(*pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        # x[free] = 1 and x[c] = -conj(row[free]) / pivot, all times the lcm of the pivots
        out = [0] * (2 * ncols)
        out[2 * free] = scale
        for row, c, p in zip(rows, pivot_cols, pivots):
            q = scale // p
            out[2 * c] = -q * row[2 * free]
            out[2 * c + 1] = q * row[2 * free + 1]
        basis.append(_primitive(out))
    return basis


def _mirror(row) -> list:
    # the columns of a flattened row in reverse order, each entry's (re, im) kept
    out = list(row[::-1])
    out[::2], out[1::2] = out[1::2], out[::2]
    return out


def _complement_rows(rows, ncols, right=False) -> list:
    """The orthogonal complement of the nonzero canonical ``rows``, in the other canonical form.

    The left form is the integer RREF.  The right form, with ``right``, is its mirror image
    (``_mirror`` of the integer RREF of the mirrored rows): each pivot is its row's rightmost
    nonzero entry and the pivot columns descend.  A pivot is real, so it is the first nonzero
    part of its row (left form) or the last (right form), and the complement is read straight
    off the rows (``_null_rows``).  A row read off has its pivot at a free column and its other
    entries at pivot columns of ``rows`` before it (left form) or after it (right form): it is
    in the other form.
    """
    if right:  # each pivot is the first nonzero part of its row reversed
        ends = [row[::-1] for row in rows]
        pivot_cols = [ncols - 1 - end.index(next(filter(None, end))) // 2 for end in ends]
    else:
        pivot_cols = [row.index(next(filter(None, row))) // 2 for row in rows]
    basis = _null_rows(rows, pivot_cols, ncols)
    return basis if right else basis[::-1]


def _matrix(rows, ncols) -> Matrix:
    # each integer RREF row divided by its pivot, its first nonzero part: over the lcm of the pivots
    pivots = [next((x for x in row if x), 1) for row in rows]
    den = lcm(*pivots)
    return _matrix_over([[x * (den // p) for x in row] for row, p in zip(rows, pivots)], den, ncols)


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form: unit pivots, cleared pivot columns, zero rows last."""
    rows = [list(row) for row in m.parts]
    _reduce(rows, m.ncols)
    return _matrix(rows, m.ncols)


def rank(m: Matrix) -> int:
    return len(_echelon([list(row) for row in m.parts], m.ncols))


def nullspace(m: Matrix) -> Matrix:
    """RREF basis (as rows) of ``{x : m @ x = 0}``; has ncols - rank rows."""
    rows = [list(row) for row in m.parts]
    pivot_cols = _reduce(rows, m.ncols)
    # {x : m @ x = 0} is the orthogonal complement of m's conjugated rows
    basis = _null_rows([_conj(row) for row in rows[: len(pivot_cols)]], pivot_cols, m.ncols)
    _reduce(basis, m.ncols)
    return _matrix(basis, m.ncols)


# ---------------------------------------------------------------------------
# Wire formats.
# ---------------------------------------------------------------------------


class _JsonAt:
    """A decoded JSON value and its path, which errors name: a root name, then each key or
    index, escaped as in an RFC 6901 JSON Pointer (``~`` as ``~0``, ``/`` as ``~1``).  A member
    ``node[key]``, a list's entries (iteration) and an object's ``items()`` are readers too."""

    __slots__ = ("value", "path")
    _TYPES = {dict: "object", list: "list", str: "string", int: "integer", bool: "boolean"}

    def __init__(self, value, path: str):
        self.value, self.path = value, path

    @staticmethod
    def of(data, root: str) -> "_JsonAt":
        """``data`` if it is a reader already, else raw JSON read from a root named ``root``."""
        return data if isinstance(data, _JsonAt) else _JsonAt(data, root)

    def expect(self, kind: type):
        """The value, which must be a JSON ``kind``: dict, list, str, int (not bool) or bool."""
        if type(self.value) is not kind:
            found = _quote(self.value)
            raise TypeError(f"{self.path} must be a JSON {self._TYPES[kind]}, not {found}")
        return self.value

    def build(self, make, *args):
        """``make(*args)``, a record read from this value: a rejection by the record's own
        check names this path."""
        try:
            return make(*args)
        except ValueError as exc:
            raise ValueError(f"{self.path}: {exc}") from None

    def _at(self, key, value) -> "_JsonAt":
        return _JsonAt(value, f"{self.path}/{str(key).replace('~', '~0').replace('/', '~1')}")

    def __getitem__(self, key: str) -> "_JsonAt":
        if key not in self.expect(dict):
            raise ValueError(f"{self.path} has no field {key!r}")
        return self._at(key, self.value[key])

    def __iter__(self):
        return (self._at(i, v) for i, v in enumerate(self.expect(list)))

    def items(self) -> list:
        return [(k, self._at(k, v)) for k, v in self.expect(dict).items()]

    def scalar(self) -> Scalar:
        try:
            return parse_scalar(self.expect(str))
        except ScalarParseError as exc:
            raise ScalarParseError(f"{self.path}: {exc}") from None

    def rational(self) -> Rational:
        z = self.scalar()
        if z.im:
            raise ValueError(f"{self.path} must be real, not {_quote(self.value)}")
        return z.re


def vector_to_json(v: Vector) -> list:
    return [str(e) for e in v.entries]


def vector_from_json(data) -> Vector:
    data = _JsonAt.of(data, "vector")
    return data.build(Vector, tuple(e.scalar() for e in data))


def matrix_to_json(m: Matrix) -> dict:
    out = {"rows": [[str(e) for e in row] for row in m.rows]}
    if not m.rows:
        out["ncols"] = m.ncols
    return out


def matrix_from_json(data) -> Matrix:
    data = _JsonAt.of(data, "matrix")
    rows = [[e.scalar() for e in row] for row in data["rows"]]
    ncols = data["ncols"].expect(int) if "ncols" in data.expect(dict) else None
    return data.build(Matrix, rows, ncols)
