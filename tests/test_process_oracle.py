"""Differential test: ``process.run`` against the original walk.

The oracle (``tests/process_oracle.py``) applies every projector and unitary
on every branch; ``run`` now works out each distinct (stage, state) once and
shares equal entries between histories.  On random quantum processes and
random classical chains both must give the same ``histories_to_json`` text,
the same history order and probabilities of the same type, numerator and
denominator, or raise the same error; and ``prob_of``, ``holds_surely`` and
``check_distributivity`` must answer the same on both sets of histories.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import process_oracle
from ortholab.lattice import span
from ortholab.linalg import Matrix, Scalar, vec
from ortholab.process import (
    Atom,
    ClassicalPrepare,
    ClassicalStep,
    ConditionalUnitary,
    Measure,
    Observable,
    Outcome,
    OutcomeIs,
    PointIs,
    Prepare,
    check_distributivity,
    hatch_demo,
    histories_to_json,
    holds_surely,
    prob_of,
    run,
    spin_demo,
    spin_observable,
)
from ortholab.propositions import EqualsVector, ExpectationIn, InSubspace, Interval
from ortholab.spin import SPIN_X, SPIN_Z, X_UP, Y_DOWN, Z_UP

SETTINGS = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

OBSERVABLES = {axis: spin_observable(axis) for axis in "xyz"}
# rational unitaries: a phase, a swap, and a rotation that takes every eigenray off the axes
UNITARIES = (
    Matrix.diagonal(1, "i"),
    Matrix([[0, 1], [1, 0]]),
    Matrix([["3/5", "-4/5"], ["4/5", "3/5"]]),
)
QUANTUM_TESTS = (
    InSubspace(span([X_UP], 2)),
    InSubspace(span([Y_DOWN], 2)),
    InSubspace(span([Z_UP], 2)),
    EqualsVector(Z_UP),
    ExpectationIn(SPIN_Z, (Interval.point(Fraction(1, 2)),)),
    ExpectationIn(SPIN_X, (Interval(Fraction(-1, 4), Fraction(1, 3)),)),
)
POINTS = "abc"

PARTS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
STATES = st.builds(
    vec, st.builds(Scalar, PARTS, PARTS), st.builds(Scalar, PARTS, PARTS)
).filter(lambda v: not v.is_zero())


def _copied(obs):
    # the same observable over new matrix objects, equal to the shared ones
    outcomes = tuple(Outcome(o.label, o.value, Matrix(o.projector.rows)) for o in obs.outcomes)
    return Observable(obs.name, outcomes)


@st.composite
def quantum_processes(draw):
    stages = [Prepare(draw(STATES))]
    measured = []  # stage indices of the measurements so far
    for _ in range(draw(st.integers(0, 4))):
        if measured and draw(st.booleans()):
            k = draw(st.sampled_from(measured))
            label = draw(st.sampled_from(stages[k].observable.labels()))
            stage = ConditionalUnitary(OutcomeIs(k, label), draw(st.sampled_from(UNITARIES)))
        else:
            obs = OBSERVABLES[draw(st.sampled_from("xyz"))]
            stage = Measure(_copied(obs) if draw(st.booleans()) else obs)
        for _ in range(draw(st.integers(1, 2))):  # a stage repeated as one object
            stages.append(stage)
            if isinstance(stage, Measure):
                measured.append(len(stages) - 1)
    return tuple(stages)


@st.composite
def kernels(draw):
    kernel = {}
    for source in POINTS:
        if draw(st.integers(0, 9)) == 0:
            continue  # a missing row: the run raises if a branch reaches it
        targets = draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(0, 3), min_size=len(targets), max_size=len(targets)))
        if not any(weights):
            weights[0] = 1
        kernel[source] = tuple((t, Fraction(w, sum(weights))) for t, w in zip(targets, weights))
    return ClassicalStep(kernel)


@st.composite
def classical_processes(draw):
    stages = [ClassicalPrepare(draw(st.sampled_from(POINTS)))]
    for _ in range(draw(st.integers(0, 4))):
        step = draw(kernels())
        stages.extend([step] * draw(st.integers(1, 2)))
    return tuple(stages)


def formulas(atoms):
    return st.recursive(
        st.sampled_from(atoms),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda pair: pair[0] & pair[1]),
            st.tuples(sub, sub).map(lambda pair: pair[0] | pair[1]),
            sub.map(lambda f: ~f),
        ),
        max_leaves=5,
    )


@st.composite
def cases(draw, processes, tests):
    stages = draw(processes)
    atoms = [Atom(test, k) for test in tests for k in range(len(stages))]
    return stages, draw(formulas(atoms)), draw(formulas(atoms))


def _probabilities(histories):
    return [
        (type(h.probability), h.probability.numerator, h.probability.denominator)
        for h in histories
    ]


def _assert_same_as_oracle(stages, left, right):
    try:
        old = process_oracle.run(stages)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            run(stages)
        assert str(info.value) == str(exc)
        return
    new = run(stages)
    assert json.dumps(histories_to_json(new)) == json.dumps(histories_to_json(old))
    outcomes = [[[t.outcome for t in h.trace] for h in side] for side in (new, old)]
    assert outcomes[0] == outcomes[1]
    assert _probabilities(new) == _probabilities(old)
    for formula in (left, right):
        got, want = prob_of(formula, new), prob_of(formula, old)
        assert (type(got), got) == (type(want), want)
        assert holds_surely(formula, new) == holds_surely(formula, old)
    assert check_distributivity(left, right, new) == check_distributivity(left, right, old)


@SETTINGS
@given(cases(quantum_processes(), QUANTUM_TESTS))
def test_quantum_runs_match_the_oracle(case):
    _assert_same_as_oracle(*case)


@SETTINGS
@given(cases(classical_processes(), tuple(PointIs(p) for p in POINTS)))
def test_classical_runs_match_the_oracle(case):
    _assert_same_as_oracle(*case)


@pytest.mark.parametrize("demo", [spin_demo, hatch_demo])
def test_demos_match_the_oracle(demo):
    stages, named = demo()
    atoms = list(named.values())
    for left in atoms:
        for right in atoms:
            _assert_same_as_oracle(stages, left, right | ~left)


@pytest.mark.parametrize("stage", [Prepare(vec(2, "1+i")), ClassicalPrepare("p")])
def test_a_preparation_alone_is_one_sure_history(stage):
    (history,) = run((stage,))
    assert (type(history.probability), history.probability) == (Fraction, Fraction(1))
    assert [(t.stage, t.outcome) for t in history.trace] == [(0, "-")]
    assert history.state_at(0) == (stage.state if isinstance(stage, Prepare) else stage.point)
