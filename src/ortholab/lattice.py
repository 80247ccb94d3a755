"""The lattice of subspaces of a finite-dimensional space.

Meet is intersection, join is span, negation is the orthogonal complement,
and the order is inclusion.  Subspaces carry a canonical basis in integer
form, so lattice equality is a syntactic comparison and every law check
below is an exact decision, not an approximation.
"""

from __future__ import annotations

import random
from math import lcm

from .linalg import (
    Matrix,
    Vector,
    _JsonAt,
    _back_pass,
    _complement_rows,
    _echelon,
    _matrix,
    _mirror,
    _reduce,
    vector_from_json,
)

__all__ = [
    "GAUSSIAN_RATIONAL",
    "RATIONAL_REAL",
    "Subspace",
    "span",
    "ortho",
    "join",
    "meet",
    "leq",
    "check_orthomodular",
    "distributes",
    "random_subspace",
    "substream",
    "find_nondistributive_witness",
    "subspace_to_json",
    "subspace_from_json",
]

GAUSSIAN_RATIONAL = "gaussian-rational"
RATIONAL_REAL = "rational-real"

# The largest dimension an input may ask for: a subspace file's space_dim and
# `check --dim`.  A few bytes name the dimension, but the work grows with its
# square or faster (README, "Input bounds").
MAX_INPUT_DIM = 64
# The most random assignments `check --trials` may ask for: ten times the
# default.  One subspace trial takes from 0.05 ms at dimension 2 to 0.45 s at
# 64, so the bound keeps a check at the smallest dimensions about a second.
MAX_TRIALS = 10_000


class Subspace:
    """A subspace of a ``space_dim``-dimensional space, held in integer form.

    ``rows`` is the RREF basis without zero rows, each row scaled by the
    least positive integer that makes all its entries Gaussian integers and
    flattened to ``(re0, im0, re1, im1, ...)`` (the integer RREF of
    ``linalg._reduce``).  That form is unique, so two Subspace values are
    equal exactly when they denote the same subspace.  ``basis`` builds the
    RREF Matrix from them on each access.

    The rows kept may instead be in the right form, the mirror image of that
    one: each row's pivot is its rightmost nonzero entry, and the pivot
    columns descend.  It is unique too, and it is what the complement of an
    integer RREF reads off, so ``ortho`` flips the form without elimination.
    One forward pass decides a meet or join that its rank pins to an
    operand, which is returned itself, and a meet it pins to zero; any other
    costs the one reduction of a join.  ``rows`` reduces a right form on each
    read, so that a Subspace never changes; ``hash`` reads ``rows`` on first
    use and keeps the value.

    ``Subspace(space_dim, basis)`` is the row space of ``basis``: any
    spanning rows, reduced to the canonical form on construction.
    """

    __slots__ = ("space_dim", "_rows", "_right", "_hash")

    def __init__(self, space_dim: int, basis: Matrix):
        _check_space_dim(space_dim)
        if basis.ncols != space_dim:
            raise ValueError(f"basis width {basis.ncols} != space_dim {space_dim}")
        s = _canonical([list(row) for row in basis.parts], space_dim)
        self.space_dim, self._rows, self._right, self._hash = space_dim, s._rows, False, None

    @classmethod
    def _from_rows(cls, space_dim: int, rows, right=False) -> "Subspace":
        # rows: the subspace's canonical integer rows, in the right form if right
        s = cls.__new__(cls)
        s.space_dim, s._rows, s._right = space_dim, tuple(tuple(row) for row in rows), right
        s._hash = None
        return s

    @classmethod
    def zero(cls, space_dim: int) -> "Subspace":
        _check_space_dim(space_dim)
        return cls._from_rows(space_dim, ())

    @classmethod
    def full(cls, space_dim: int) -> "Subspace":
        _check_space_dim(space_dim)
        return cls._from_rows(
            space_dim,
            ([1 if j == 2 * i else 0 for j in range(2 * space_dim)] for i in range(space_dim)),
        )

    @property
    def rows(self) -> tuple:
        """The integer RREF rows (no zero rows)."""
        if self._right:
            return _canonical([list(row) for row in self._rows], self.space_dim)._rows
        return self._rows

    @property
    def basis(self) -> Matrix:
        """The canonical RREF basis as a Matrix (no zero rows)."""
        return _matrix(self.rows, self.space_dim)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return not self._rows

    def is_full(self) -> bool:
        return len(self._rows) == self.space_dim

    def contains(self, v: Vector) -> bool:
        """Exact membership test (the zero vector belongs to every subspace)."""
        stacked = [list(row) for row in self._rows] + [list(_in_space(v, self.space_dim).parts)]
        return len(_echelon(stacked, self.space_dim)) == self.dim

    def __and__(self, other):
        return meet(self, other) if isinstance(other, Subspace) else NotImplemented

    def __or__(self, other):
        return join(self, other) if isinstance(other, Subspace) else NotImplemented

    def __invert__(self):
        return ortho(self)

    def __le__(self, other):
        return leq(self, other) if isinstance(other, Subspace) else NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self._right != other._right:
            return self.space_dim == other.space_dim and self.rows == other.rows
        return self.space_dim == other.space_dim and self._rows == other._rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.space_dim, self.rows))
        return self._hash

    def __repr__(self):
        rows = "; ".join(", ".join(str(e) for e in row) for row in self.basis.rows)
        return f"Subspace(dim {self.dim} of {self.space_dim}: [{rows}])"


def _check_space_dim(space_dim: int):
    if space_dim < 1:
        raise ValueError("space_dim must be >= 1")


def _in_space(v: Vector, space_dim: int) -> Vector:
    """``v``, which must have ``space_dim`` entries."""
    if v.dim != space_dim:
        raise ValueError(f"vector dim {v.dim} != space_dim {space_dim}")
    return v


def _same_space(s: Subspace, t: Subspace):
    if s.space_dim != t.space_dim:
        raise ValueError(f"space dimension mismatch: {s.space_dim} vs {t.space_dim}")


def _canonical(rows, space_dim: int) -> Subspace:
    # rows: flattened integer rows, reduced in place
    rank = len(_reduce(rows, space_dim))
    return Subspace._from_rows(space_dim, rows[:rank])


def span(vectors, space_dim: int) -> Subspace:
    """Smallest subspace containing the given vectors; empty input spans zero."""
    _check_space_dim(space_dim)
    return _canonical([list(_in_space(v, space_dim).parts) for v in vectors], space_dim)


def ortho(s: Subspace) -> Subspace:
    """Orthogonal complement: all vectors orthogonal to every vector of ``s``."""
    rows = _complement_rows(s._rows, s.space_dim, s._right)
    return Subspace._from_rows(s.space_dim, rows, not s._right)


def join(s: Subspace, t: Subspace) -> Subspace:
    """Least upper bound: the span of both subspaces together.  The forward pass over both
    stacked counts its rank: a rank equal to one operand's dimension proves the other lies in
    it, and that operand is the join (``t`` first).  Any other join finishes the pass with the
    back pass; two right forms join in the right form, reducing their mirrored rows.  The
    larger operand is stacked first, so that its rows, already reduced, lead the pass."""
    _same_space(s, t)
    n, right = s.space_dim, s._right and t._right
    stacked = s._rows + t._rows if s.dim >= t.dim else t._rows + s._rows
    rows = [_mirror(row) if right else list(row) for row in stacked]
    pivot_cols = _echelon(rows, n)
    rank = len(pivot_cols)
    if rank == t.dim:
        return t
    if rank == s.dim:
        return s
    _back_pass(rows, pivot_cols, n)
    rows = rows[:rank]
    return Subspace._from_rows(n, [_mirror(row) for row in rows] if right else rows, right)


def meet(s: Subspace, t: Subspace) -> Subspace:
    """Greatest lower bound: the intersection, of dimension ``k = dim s + dim t - rank[s;t]``
    (Grassmann).  When the dimensions sum to at most n, the forward pass over both stacked,
    the larger first as in ``join``, counts that rank: ``k`` equal to an operand's dimension
    proves that operand is the meet (``s`` first), and ``k == 0`` a zero meet, in the form the
    complement route would give it.  Any other pair takes ``(s^perp v t^perp)^perp``, whose
    join's pass proves the same of an operand's complement, or else ends in the one reduction
    of the join."""
    _same_space(s, t)
    n, d, e = s.space_dim, s.dim, t.dim
    if d + e <= n:
        stacked = s._rows + t._rows if d >= e else t._rows + s._rows
        k = d + e - len(_echelon([list(row) for row in stacked], n))
        if k == d:
            return s
        if k == e:
            return t
        if k == 0:
            return Subspace._from_rows(n, (), s._right or t._right)
    so, to = ortho(s), ortho(t)
    j = join(to, so)
    return s if j is so else t if j is to else ortho(j)


def leq(s: Subspace, t: Subspace) -> bool:
    """Inclusion order: true iff every basis row of ``s`` lies in ``t``."""
    _same_space(s, t)
    stacked = [list(row) for row in s._rows + t._rows]
    return len(_echelon(stacked, s.space_dim)) == t.dim


def check_orthomodular(s: Subspace, t: Subspace) -> bool:
    """Orthomodular law: s <= t implies t = s v (t ^ s^perp)."""
    if not leq(s, t):
        return True
    return t == join(s, meet(t, ortho(s)))


def distributes(p: Subspace, q: Subspace, r: Subspace) -> bool:
    """Does p ^ (q v r) equal (p ^ q) v (p ^ r) for this triple?"""
    _same_space(p, q)
    _same_space(p, r)
    return meet(p, join(q, r)) == join(meet(p, q), meet(p, r))


# ---------------------------------------------------------------------------
# Seeded random sampling.
# ---------------------------------------------------------------------------

_NUMERATOR_BOUND = 3
_DENOMINATORS = (1, 2, 3)
_SCALE = lcm(*_DENOMINATORS)  # n / d is n * (_SCALE // d) / _SCALE


def substream(seed, index: int) -> random.Random:
    """Independent deterministic RNG for one trial; stable across platforms."""
    return random.Random(f"{seed}:{index}")


def random_subspace(rng: random.Random, space_dim: int, field: str = GAUSSIAN_RATIONAL) -> Subspace:
    """Draw a proper subspace: dimension uniform in 1..space_dim-1, small
    rational entries, resampled until the requested rank is hit.

    A seed must keep reproducing its subspace, so the draws are fixed: k
    is ``randint(1, space_dim - 1)``, then come k rows of space_dim entries
    in order.  An entry's real part n / d is ``randint(-3, 3)`` then
    ``choice((1, 2, 3))`` (``_NUMERATOR_BOUND`` and ``_DENOMINATORS``); in
    the Gaussian field its imaginary part is one more such pair.  A draw of
    rank below k is drawn again whole.
    """
    if space_dim < 2:
        raise ValueError("need space_dim >= 2 to sample a proper subspace")
    if field not in (GAUSSIAN_RATIONAL, RATIONAL_REAL):
        raise ValueError(f"unknown scalar field {field!r}")
    gaussian = field == GAUSSIAN_RATIONAL
    randint, choice = rng.randint, rng.choice
    bound, dens = _NUMERATOR_BOUND, _DENOMINATORS
    n_parts = 2 * space_dim if gaussian else space_dim  # drawn per row
    k = randint(1, space_dim - 1)
    while True:
        rows = []
        for _ in range(k):
            # a row's parts in order, each times _SCALE: integers, which _reduce makes canonical
            row = [randint(-bound, bound) * (_SCALE // choice(dens)) for _ in range(n_parts)]
            rows.append(row if gaussian else [x for re in row for x in (re, 0)])
        candidate = _canonical(rows, space_dim)
        if candidate.dim == k:
            return candidate


def find_nondistributive_witness(
    space_dim: int,
    trials: int = 1000,
    seed=0,
    field: str = GAUSSIAN_RATIONAL,
):
    """Search seeded random triples for a distributivity failure.

    Returns the first failing triple (lowest trial index) or None.  Each
    trial draws from its own substream, so the result does not depend on
    evaluation order.
    """
    if space_dim < 2:
        raise ValueError("the subspace lattice of a space of dimension <= 1 is distributive")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for trial in range(trials):
        rng = substream(seed, trial)
        p = random_subspace(rng, space_dim, field)
        q = random_subspace(rng, space_dim, field)
        r = random_subspace(rng, space_dim, field)
        if not distributes(p, q, r):
            return p, q, r
    return None


# ---------------------------------------------------------------------------
# Wire format.
# ---------------------------------------------------------------------------


def subspace_to_json(s: Subspace) -> dict:
    return {
        "space_dim": s.space_dim,
        "basis": [[str(e) for e in row] for row in s.basis.rows],
    }


def subspace_from_json(data) -> Subspace:
    data = _JsonAt.of(data, "subspace")
    at = data["space_dim"]
    space_dim = at.expect(int)
    if space_dim > MAX_INPUT_DIM:
        raise ValueError(f"{at.path}: space_dim {space_dim} is over the limit of {MAX_INPUT_DIM}")
    rows = [(row, vector_from_json(row)) for row in data["basis"]]
    # span's own checks, in its order, each naming the field it rejects
    at.build(_check_space_dim, space_dim)
    return span([row.build(_in_space, v, space_dim) for row, v in rows], space_dim)
