"""Differential test: the two-pass kernel against the one-pass Gauss-Jordan kernel.

``linalg._reduce`` runs a forward pass, then either writes the identity (a
pivot in every column) or clears above each pivot in Gauss-Jordan's order;
``rank``, ``leq`` and ``contains`` run the forward pass alone; and
``_complement_rows`` reads the complement off the rows with the conjugation
folded into the read-off.  ``rref_oracle`` keeps the kernel that did all of
it in one pass over conjugated copies.  On seeded integer rows of dimension
1-8 and 16, in both scalar fields, with small and 30-digit entries, zero
rows and repeated rows, wide, square, tall full-rank and tall rank-deficient
stacks, the rows left in place, the pivot columns, both complement forms
and every rank answer must be the oracle's.  The saved work is pinned by
counting the row updates (``linalg._clear``).  A row update keeps its
row's content after a narrow multiplier, so stacks whose rows share a wide
content, reductions with narrow and wide multipliers, and tall stacks
cleared many times must reduce like the oracle too, and the largest part a
row update returns must stay near the eager kernel's.
"""

from math import gcd

import pytest

import rref_oracle as oracle
from ortholab import Subspace, dsl, leq, linalg
from ortholab.lattice import substream
from ortholab.linalg import (
    _complement_rows,
    _echelon,
    _matrix_over,
    _mirror,
    _reduce,
    _vector,
    rank,
)

DIMS = (*range(1, 9), 16)
BIG = 10**30
# (label, rank, nrows) for ncols n: the rank drawn, then the rows stacked on it
SHAPES = {
    "wide": lambda rng, n: (rng.randint(0, n - 1), rng.randint(0, n - 1)),
    "square": lambda rng, n: (rng.randint(0, n), n),
    "tall full-rank": lambda rng, n: (n, rng.randint(n + 1, n + 4)),
    "tall rank-deficient": lambda rng, n: (rng.randint(0, n - 1), rng.randint(n + 1, n + 4)),
}


def _part(rng, big) -> int:
    return rng.randint(-BIG, BIG) if big else rng.randint(-3, 3)


def _rows(rng, ncols, rank, nrows, gaussian, big) -> list:
    """``nrows`` flattened integer rows spanning at most ``rank`` dimensions: drawn rows, small
    combinations of them, zero rows and repeats, in a shuffled order."""
    basis = [
        [x for _ in range(ncols) for x in (_part(rng, big), _part(rng, big) if gaussian else 0)]
        for _ in range(rank)
    ]
    rows = list(basis[:nrows])
    while len(rows) < nrows:
        kind = rng.random()
        if kind < 0.2 or not basis:
            rows.append([0] * (2 * ncols))
        elif kind < 0.4:
            rows.append(list(rng.choice(rows or basis)))
        else:
            # a + (f + gi) b, entry by entry
            a, b = rng.choice(basis), rng.choice(basis)
            f, g = rng.randint(-2, 2), rng.randint(-2, 2) if gaussian else 0
            pairs = zip(a[::2], a[1::2], b[::2], b[1::2])
            rows.append([x for p, q, u, v in pairs for x in (p + f * u - g * v, q + f * v + g * u)])
    rng.shuffle(rows)
    return rows


def _cases(ncols, count=8):
    """Seeded stacks of every shape: even trials Gaussian, odd real; trials 2, 3 mod 4 big."""
    for label, shape in SHAPES.items():
        if ncols == 1 and label == "wide":
            continue
        for trial in range(count):
            rng = substream(f"rref/{label}/{ncols}", trial)
            r, nrows = shape(rng, ncols)
            yield label, _rows(rng, ncols, r, nrows, trial % 2 == 0, trial % 4 >= 2)


def _both(rows, ncols):
    """The rows and pivot columns the kernel and the oracle leave, each on its own copy."""
    ours, theirs = [list(row) for row in rows], [list(row) for row in rows]
    return (ours, _reduce(ours, ncols)), (theirs, oracle._reduce(theirs, ncols))


def _right_form(rows, ncols) -> tuple:
    mirrored = [_mirror(row) for row in rows]
    r = len(oracle._reduce(mirrored, ncols))
    return tuple(tuple(_mirror(row)) for row in mirrored[:r])


@pytest.mark.parametrize("ncols", DIMS)
def test_reduction_leaves_the_oracles_rows_and_pivots(ncols):
    seen = set()
    for label, rows in _cases(ncols):
        (ours, pivots), (theirs, expected) = _both(rows, ncols)
        assert ours == theirs, label
        assert pivots == expected, label
        assert all(type(x) is int for row in ours for x in row)
        seen.add((label, len(expected) == ncols, len(rows) > ncols))
    # every shape ran, and the tall stacks ran on both sides of full rank
    assert ("tall full-rank", True, True) in seen and ("tall rank-deficient", False, True) in seen


@pytest.mark.parametrize("ncols", DIMS)
def test_both_complement_forms_match_the_oracle(ncols):
    for label, rows in _cases(ncols):
        reduced = [list(row) for row in rows]
        r = len(oracle._reduce(reduced, ncols))
        left = tuple(tuple(row) for row in reduced[:r])
        right = _right_form(rows, ncols)
        assert _complement_rows(left, ncols) == oracle._complement_rows(left, ncols), label
        assert _complement_rows(right, ncols, True) == oracle._complement_rows(
            right, ncols, True
        ), label


@pytest.mark.parametrize("ncols", DIMS)
def test_rank_leq_and_contains_match_the_full_reduction(ncols):
    subspaces = []
    for label, rows in _cases(ncols):
        expected = oracle.rank(rows, ncols)
        assert len(_echelon([list(row) for row in rows], ncols)) == expected, label
        if rows:
            assert rank(_matrix_over(rows, 1, ncols)) == expected, label
        reduced = [list(row) for row in rows]
        left = tuple(tuple(row) for row in reduced[: len(oracle._reduce(reduced, ncols))])
        subspaces += [
            Subspace._from_rows(ncols, left),
            Subspace._from_rows(ncols, _right_form(rows, ncols), True),
        ]
        for row in rows:
            if any(row):
                v = _vector(row, 1)
                for s in subspaces[-4:]:
                    assert s.contains(v) is oracle.contains(s._rows, row, ncols), label
    for s in subspaces[::5]:
        for t in subspaces[::3]:
            assert leq(s, t) is oracle.leq(s._rows, t._rows, ncols)


def _count_updates(monkeypatch) -> list:
    """Each later row update, as (the part it clears, whether the row has a pivot before it):
    the forward pass clears rows that are zero before the pivot, the back pass rows that are not."""
    calls, clear = [], linalg._clear

    def counted(row, prow, cc, width):
        calls.append((cc, any(row[:cc])))
        return clear(row, prow, cc, width)

    monkeypatch.setattr(linalg, "_clear", counted)
    return calls


# a full-rank stack of 3 columns in 4 rows, every entry nonzero: Gauss-Jordan makes 3 updates
# at each of its 3 pivots, 9 in all; the forward pass makes 3 below the first and 2 below the
# second, and none at the last
FULL = [[1, 1, 2, 0, 3, -1], [2, 1, 1, 1, 1, 2], [1, -2, 3, 1, 2, 2], [3, 3, 1, -1, 2, 1]]
# a rank-2 stack: the back pass clears the first pivot row at the second pivot
SHORT = [[1, 0, 1, 0, 1, 0], [1, 0, 2, 1, 3, 0], [2, 0, 3, 1, 4, 0]]


def _reduced(rows) -> tuple:
    """The integer RREF of 3-column rows, zero rows dropped."""
    rows = [list(row) for row in rows]
    r = len(oracle._reduce(rows, 3))
    return tuple(tuple(row) for row in rows[:r])


def test_a_full_rank_reduction_stops_at_its_last_pivot(monkeypatch):
    calls = _count_updates(monkeypatch)
    ours, theirs = [list(row) for row in FULL], [list(row) for row in FULL]
    assert _reduce(ours, 3) == oracle._reduce(theirs, 3) == [0, 1, 2]
    assert ours == theirs == [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0] * 6]
    assert calls == [(0, False)] * 3 + [(2, False)] * 2


@pytest.mark.parametrize(
    "ask",
    [
        lambda: rank(_matrix_over(SHORT, 1, 3)),
        lambda: leq(Subspace._from_rows(3, SHORT[:1]), Subspace._from_rows(3, _reduced(SHORT))),
        lambda: Subspace._from_rows(3, _reduced(SHORT)).contains(_vector(SHORT[2], 1)),
    ],
    ids=["rank", "leq", "contains"],
)
def test_rank_queries_run_no_back_pass(monkeypatch, ask):
    calls = _count_updates(monkeypatch)
    _reduce([list(row) for row in SHORT], 3)
    assert any(back for _, back in calls)  # the full reduction does run one
    calls.clear()
    assert ask()
    assert calls and not any(back for _, back in calls)



# Row updates keep a row's content while its multiplier fits in two CPython digits
# (``linalg._WIDE`` bits), and ``_reduce`` divides it out once after its back pass


def _reduced_like_the_oracle(rows, ncols) -> list:
    """Reduce a copy of ``rows``; its rows and pivot columns must be the oracle's, and each row
    it returns primitive with a positive real pivot, nothing before it, or zero after the rank."""
    (ours, pivots), (theirs, expected) = _both(rows, ncols)
    assert ours == theirs
    assert pivots == expected
    for row, c in zip(ours, pivots):
        assert gcd(*row) == 1 and row[2 * c] > 0 and row[2 * c + 1] == 0 and not any(row[: 2 * c])
    assert not any(x for row in ours[len(pivots) :] for x in row)
    return pivots


def _multiplier_widths(monkeypatch) -> list:
    """Each row update's multiplier, as whether it is wider than ``_WIDE`` bits."""
    wide, clear = [], linalg._clear

    def recorded(row, prow, cc, width):
        pivot = prow[cc]
        wide.append(bool(pivot // gcd(pivot, row[cc], row[cc + 1]) >> linalg._WIDE))
        return clear(row, prow, cc, width)

    monkeypatch.setattr(linalg, "_clear", recorded)
    return wide


@pytest.mark.parametrize("content", [3 * 2**61, 7**40, 2**90 - 1])
@pytest.mark.parametrize("ncols", (2, 3, 5, 8, 16))
def test_rows_sharing_a_content_past_two_digits_reduce_like_the_oracle(ncols, content):
    for _, rows in _cases(ncols, 4):
        scaled = [[content * x for x in row] for row in rows]
        assert _reduced_like_the_oracle(scaled, ncols) == _reduced_like_the_oracle(rows, ncols)
        # each row its own content as well: the row's index times the shared one
        scaled = [[(k + 1) * content * x for x in row] for k, row in enumerate(rows)]
        _reduced_like_the_oracle(scaled, ncols)


@pytest.mark.parametrize("ncols", range(3, 9))
def test_narrow_and_wide_multipliers_in_one_reduction(monkeypatch, ncols):
    wide = _multiplier_widths(monkeypatch)
    for trial in range(6):
        rng = substream(f"rref/widths/{ncols}", trial)
        # small entries in the first column, so its pivot clears with narrow multipliers; the
        # rows the later pivots clear hold 30-digit entries, which make theirs wide
        gaussian = trial % 2 == 0
        basis = [
            [x for c in range(ncols) for x in (_part(rng, c > 0), _part(rng, c > 0) * gaussian)]
            for _ in range(ncols - 1)
        ]
        rows = basis + [[2 * x - y for x, y in zip(basis[0], basis[-1])]]
        rng.shuffle(rows)
        wide.clear()
        _reduced_like_the_oracle(rows, ncols)
        assert True in wide and False in wide, trial


@pytest.mark.parametrize("ncols", (16, 32))
def test_tall_stacks_whose_rows_are_cleared_many_times(monkeypatch, ncols):
    calls = _count_updates(monkeypatch)
    # (Gaussian, 30-digit entries); big Gaussian entries at 32 take seconds on either kernel
    kinds = [(True, False), (False, False), (False, True)] + [(True, True)] * (ncols < 32)
    for trial, (gaussian, big) in enumerate(kinds):
        rng = substream(f"rref/tall/{ncols}", trial)
        rows = _rows(rng, ncols, ncols - 1, 3 * ncols, gaussian, big)
        calls.clear()
        assert len(_reduced_like_the_oracle(rows, ncols)) == ncols - 1
        # every row below a pivot is cleared by it; the first rows, by most of the later pivots
        back = sum(above for _, above in calls)
        assert len(calls) - back > ncols * ncols and back > ncols * (ncols - 2) // 4


ABSORPTION = dsl.parse_statement("x & (x | y) = x")


def _largest_part(monkeypatch, dim, seed, eager=False) -> int:
    """The largest part, in bits, that a row update returns in a one-trial check of absorption
    at ``dim``; with ``eager``, the eager kernel's, which makes every updated row primitive."""
    largest, clear = [0], linalg._clear

    def recorded(*args):
        out = clear(*args)
        if eager:
            out = linalg._primitive(out)
        largest[0] = max(largest[0], max(map(abs, out)).bit_length())
        return out

    monkeypatch.setattr(linalg, "_clear", recorded)
    report = dsl.check(ABSORPTION, dsl.SubspaceLattice(dim), trials=1, seed=seed)
    monkeypatch.setattr(linalg, "_clear", clear)
    assert report.counterexample is None
    return largest[0]



@pytest.mark.parametrize(("dim", "seed"), [(32, 0), (32, 1), (32, 2), (64, 0)])
def test_rows_grow_no_more_than_the_eager_kernels(monkeypatch, dim, seed):
    eager = _largest_part(monkeypatch, dim, seed, eager=True)
    assert _largest_part(monkeypatch, dim, seed) <= 1.1 * eager
