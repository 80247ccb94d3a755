"""The one-pass input checks against the checks they replaced.

``Matrix.__init__``, ``Observable.__post_init__``, ``process._validate_process``
and ``ortholab lattice`` each check their rules in one pass.  The old
``Matrix`` checks live on verbatim in ``fraction_oracle.ScalarMatrix``, and
the old four-condition ``Observable`` check in ``old_observable_check``
below; over generated inputs the new checks must accept and reject exactly
what those did, with the same message.  One difference is pinned: a set of
projectors that overlap fails with "do not sum to the identity" where the
old pairwise loop said "are not orthogonal", since hermitian idempotents
that sum to the identity are pairwise orthogonal.  The process and lattice
messages are pinned by table, with the one two-fault input whose message
changed.
"""

import itertools

import pytest
from fraction_oracle import ScalarMatrix

from ortholab.cli import main
from ortholab.lattice import substream
from ortholab.linalg import Matrix, Rational, Scalar, Vector, inner, outer, vec
from ortholab.process import (
    ClassicalPrepare,
    ClassicalStep,
    ConditionalUnitary,
    Measure,
    Observable,
    Outcome,
    OutcomeIs,
    Prepare,
    run,
    spin_observable,
)


def _message(build, *args):
    """The ValueError text ``build(*args)`` raises, or None when it accepts."""
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return None


# -- Matrix --------------------------------------------------------------------


def _shapes():
    # every row-width tuple of up to three rows of width 0-3: ragged, empty and zero-width
    for nrows in range(4):
        yield from itertools.product(range(4), repeat=nrows)


def test_matrix_checks_match_the_old_checks():
    seen = set()
    for widths, ncols in itertools.product(_shapes(), (None, -1, 0, 1, 2, 3)):
        rows = [[Rational(k + 1, 2)] * w for k, w in enumerate(widths)]
        old = _message(ScalarMatrix, rows, ncols)
        new = _message(Matrix, rows, ncols)
        assert new == old, (widths, ncols)
        if old is None:
            m, o = Matrix(rows, ncols), ScalarMatrix(rows, ncols)
            assert (m.nrows, m.ncols) == (o.nrows, o.ncols)
        seen.add(old if old is None else old.split("=")[0].split(" ")[0])
    # acceptance and each of the four messages ("ncols=..." reads as "ncols")
    assert seen == {None, "matrix", "ncols", "empty", "matrices"}


# -- Observable ----------------------------------------------------------------


def old_observable_check(name, outcomes):
    """``Observable.__post_init__`` before the one-pass check, pairwise loop included."""
    outcomes = tuple(outcomes)
    if not outcomes:
        raise ValueError(f"observable {name!r} has no outcomes")
    dim = outcomes[0].projector.ncols
    total = None
    for out in outcomes:
        p = out.projector
        if p.nrows != dim or p.ncols != dim:
            raise ValueError(f"projector {out.label!r} is not {dim}x{dim}")
        if not p.is_hermitian():
            raise ValueError(f"projector {out.label!r} is not hermitian")
        if p @ p != p:
            raise ValueError(f"projector {out.label!r} is not idempotent")
        total = p if total is None else total + p
    zero = Matrix.identity(dim).scale(0)
    for i, a in enumerate(outcomes):
        for b in outcomes[i + 1 :]:
            if a.projector @ b.projector != zero:
                raise ValueError(f"projectors {a.label!r} and {b.label!r} are not orthogonal")
    if total != Matrix.identity(dim):
        raise ValueError(f"projectors of {name!r} do not sum to the identity")


def _random_vector(rng, dim):
    while True:
        parts = [Rational(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(2 * dim)]
        v = Vector([Scalar(re, im) for re, im in zip(parts[::2], parts[1::2])])
        if not v.is_zero():
            return v


def _ray(v):
    """The projector onto the line through ``v``: outer(v, v) / <v, v>."""
    return outer(v, v).scale(Scalar(1) / inner(v, v))


def _orthogonal_basis(rng, dim):
    """Gram-Schmidt on random Gaussian-rational vectors, resampled until independent."""
    basis = []
    while len(basis) < dim:
        v = _random_vector(rng, dim)
        for u in basis:
            v = v - u.scale(inner(u, v) / inner(u, u))
        if not v.is_zero():
            basis.append(v)
    return basis


def _projector_sets(rng, dim):
    """Projector lists that do and do not make an observable, each named by its shape."""
    rays = [_ray(u) for u in _orthogonal_basis(rng, dim)]
    stray = _ray(_random_vector(rng, dim))
    oblique = outer(_random_vector(rng, dim), _random_vector(rng, dim))
    sets = {
        "basis": rays,
        "grouped": [rays[0] + rays[1], *rays[2:]],
        "ray and complement": [stray, Matrix.identity(dim) - stray],
        "missing one": rays[1:],
        "overlapping": rays + [stray],
        "repeated": rays + [rays[0]],
        "stray in place of one": [stray, *rays[1:]],
        "doubled": [rays[0].scale(2), *rays[1:]],
        "oblique": [oblique, *rays],
        "wrong size": [*rays, Matrix.identity(dim + 1)],
        "none": [],
    }
    return {
        shape: [Outcome(f"o{k}", k, p) for k, p in enumerate(projectors)]
        for shape, projectors in sets.items()
    }


def test_observable_checks_match_the_old_checks():
    seen = {}
    for dim, trial in itertools.product((2, 3), range(12)):
        rng = substream("input-checks/observable", f"{dim}/{trial}")
        for shape, outcomes in _projector_sets(rng, dim).items():
            old = _message(old_observable_check, "A", outcomes)
            new = _message(Observable, "A", outcomes)
            if old is not None and old.endswith("are not orthogonal"):
                # the pinned exception: overlapping projectors cannot sum to the identity
                assert new == "projectors of 'A' do not sum to the identity", (shape, old)
            else:
                assert new == old, (shape, old, new)
            seen.setdefault(shape, set()).add(old if old is None else old.split()[-1])
    assert seen["basis"] == seen["grouped"] == seen["ray and complement"] == {None}
    assert seen["missing one"] == {"identity"}
    assert seen["overlapping"] == seen["repeated"] == {"orthogonal"}
    assert seen["doubled"] == {"idempotent"}
    assert seen["oblique"] == {"hermitian"}
    assert seen["wrong size"] == {"2x2", "3x3"}
    assert seen["none"] == {"outcomes"}


# -- process validation ----------------------------------------------------------

UP = vec(1, 0)
Z = spin_observable("z")
GATE = Matrix.diagonal(1, "i")
STEP = ClassicalStep({"p": (("p", Rational(1)),)})


@pytest.mark.parametrize(
    "stages, message",
    [
        ((), "a process needs at least one stage"),
        ((Measure(Z),), "a process must start with a preparation"),
        ((Prepare(UP), STEP), "cannot mix classical stages into a quantum process"),
        ((ClassicalPrepare("p"), Measure(Z)), "cannot mix quantum stages into a classical process"),
        ((Prepare(UP), Prepare(UP)), "stage 1: preparation is only allowed first"),
        (
            (ClassicalPrepare("p"), STEP, ClassicalPrepare("q")),
            "stage 2: preparation is only allowed first",
        ),
        (
            (Prepare(UP), ConditionalUnitary(OutcomeIs(1, "z+"), GATE)),
            "stage 1 conditions on stage 1, which is not earlier",
        ),
        (
            (Prepare(UP), Measure(Z), ConditionalUnitary(OutcomeIs(-1, "z+"), GATE)),
            "stage 2 conditions on stage -1, which is not earlier",
        ),
        (
            (Prepare(UP), ConditionalUnitary(OutcomeIs(0, "z+"), GATE)),
            "stage 1 conditions on stage 0, not a measurement",
        ),
        (
            (Prepare(UP), Measure(Z), ConditionalUnitary(OutcomeIs(1, "sideways"), GATE)),
            "stage 2 conditions on unknown outcome 'sideways'",
        ),
        # two faults: no preparation first, and a classical stage in a quantum start;
        # the first-stage rule is checked first (it used to say "cannot mix ...")
        ((Measure(Z), STEP), "a process must start with a preparation"),
    ],
)
def test_every_process_message(stages, message):
    with pytest.raises(ValueError) as info:
        run(stages)
    assert str(info.value) == message


# -- ortholab lattice usage --------------------------------------------------------


@pytest.mark.parametrize(
    "op, files, message",
    [
        ("meet", ["a.json"], "lattice meet needs two subspace files"),
        ("join", ["a.json"], "lattice join needs two subspace files"),
        ("leq", ["a.json"], "lattice leq needs two subspace files"),
        ("ortho", ["a.json", "b.json"], "lattice ortho takes a single subspace file"),
    ],
)
def test_every_lattice_usage_message(capsys, tmp_path, op, files, message):
    # the files do not exist: a usage error is reported before any file is read
    code = main(["lattice", op, *(str(tmp_path / f) for f in files)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"ortholab: error: {message}\n")
