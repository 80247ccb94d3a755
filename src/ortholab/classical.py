"""Classical probability distributions embedded in a real inner-product space.

A distribution over a finite phase space is represented by a real vector
whose squared, normalized entries recover the probabilities.  Observables
are multiplicative (diagonal), and the subspace lattice over this real
space shows exactly the same non-distributivity as the complex case.
"""

from __future__ import annotations

from .linalg import (
    Matrix,
    Rational,
    Record,
    Vector,
    _JsonAt,
    _to_rational,
    inner,
    vec,
    vector_from_json,
    vector_to_json,
)
from .lattice import (
    GAUSSIAN_RATIONAL,
    RATIONAL_REAL,
    Subspace,
    join,
    meet,
    span,
)
from .propositions import expectation

__all__ = [
    "PhaseSpace",
    "ClassicalState",
    "MultiplicativeObservable",
    "density",
    "classical_expectation",
    "TwoStateVerdict",
    "two_state_demo",
    "classical_state_to_json",
    "classical_state_from_json",
]


class PhaseSpace(Record):
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(str(p) for p in self.points))
        if not self.points:
            raise ValueError("phase space needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("phase space points must be distinct")

    @property
    def size(self) -> int:
        return len(self.points)


class ClassicalState(Record):
    """Square-root-of-density vector: real entries, not necessarily normalized."""

    space: PhaseSpace
    amplitude: Vector

    def __post_init__(self):
        if self.amplitude.dim != self.space.size:
            raise ValueError(
                f"amplitude dim {self.amplitude.dim} != phase space size {self.space.size}"
            )
        if any(e.im != 0 for e in self.amplitude):
            raise ValueError("classical amplitudes must be real")
        if self.amplitude.is_zero():
            raise ValueError("classical state must be nonzero")


class MultiplicativeObservable(Record):
    """A diagonal observable: one rational value per phase-space point."""

    space: PhaseSpace
    values: tuple

    def __post_init__(self):
        values = tuple(_to_rational(v, "observable values") for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.space.size:
            raise ValueError("one value per phase-space point is required")

    def as_matrix(self) -> Matrix:
        return Matrix.diagonal(*self.values)


def density(state: ClassicalState) -> tuple:
    """Probabilities rho_k = amplitude_k^2 / <amplitude, amplitude>."""
    norm = inner(state.amplitude, state.amplitude).re
    return tuple(e.re * e.re / norm for e in state.amplitude)


def classical_expectation(obs: MultiplicativeObservable, state: ClassicalState):
    """Expectation of a multiplicative observable, computed two ways.

    The direct sum over the density must coincide exactly with the
    inner-product expectation of the diagonal operator; both are computed
    and compared to keep the embedding honest.
    """
    if obs.space != state.space:
        raise ValueError("observable and state live on different phase spaces")
    rho = density(state)
    direct = sum((f * p for f, p in zip(obs.values, rho)), Rational(0))
    via_operator = expectation(obs.as_matrix(), state.amplitude)
    if direct != via_operator:  # pragma: no cover - equality is a theorem
        raise ArithmeticError("density-sum and operator expectation disagree")
    return direct


class TwoStateVerdict(Record):
    """Outcome of the two-point distributivity demonstration."""

    field: str
    certainly_first: Subspace  # distributions certainly at point 1
    certainly_second: Subspace  # distributions certainly at point 2
    balanced: Subspace  # equal weight on both points
    whole: Subspace  # join of the two certainties: every mixture
    pairwise_meets_zero: bool
    left: Subspace  # balanced ^ (first v second)
    right: Subspace  # (balanced ^ first) v (balanced ^ second)
    is_distributive: bool


def two_state_demo(field: str = RATIONAL_REAL) -> TwoStateVerdict:
    """Distributivity fails already for two classical states.

    Over either scalar field the three lines [k,0], [0,k], [k,k] are
    pairwise disjoint, yet [k,k] sits inside the join of the first two, so
    the two sides of the distributive law land on [k,k] and [0,0].
    """
    if field == RATIONAL_REAL:
        k = 1
    elif field == GAUSSIAN_RATIONAL:
        k = "i"  # any nonzero scalar spans the same lines
    else:
        raise ValueError(f"unknown scalar field {field!r}")
    zero = Subspace.zero(2)
    first = span([vec(k, 0)], 2)
    second = span([vec(0, k)], 2)
    balanced = span([vec(k, k)], 2)
    whole = join(first, second)

    pairwise = (
        meet(first, second) == zero
        and meet(second, balanced) == zero
        and meet(balanced, first) == zero
    )
    left = meet(balanced, whole)
    right = join(meet(balanced, first), meet(balanced, second))
    verdict = TwoStateVerdict(
        field=field,
        certainly_first=first,
        certainly_second=second,
        balanced=balanced,
        whole=whole,
        pairwise_meets_zero=pairwise,
        left=left,
        right=right,
        is_distributive=left == right,
    )
    # internal consistency: these equalities are forced by the construction
    if not (pairwise and left == balanced and right == zero and not verdict.is_distributive):
        raise ArithmeticError("two-state demonstration produced inconsistent lattice values")
    return verdict


def classical_state_to_json(state: ClassicalState) -> dict:
    return {
        "points": list(state.space.points),
        "amplitude": vector_to_json(state.amplitude),
    }


def classical_state_from_json(data) -> ClassicalState:
    data = _JsonAt.of(data, "classical state")
    points = data["points"].build(PhaseSpace, tuple(p.expect(str) for p in data["points"]))
    return data.build(ClassicalState, points, vector_from_json(data["amplitude"]))
