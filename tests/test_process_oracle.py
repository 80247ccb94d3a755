"""Differential test: ``process.run`` against the original walk.

The oracle (``tests/process_oracle.py``) applies every projector and unitary
on every branch; ``run`` now works out each distinct (stage, state) once and
shares equal entries between histories.  On random quantum processes and
random classical chains both must give the same ``histories_to_json`` text,
the same history order and probabilities of the same type, numerator and
denominator, or raise the same error.  Each process is run once by each
walk and queried with one to three formula pairs: on both sets of histories
``prob_of`` and ``holds_surely`` must answer as the oracle's plain queries
do, ``prob_of`` with the same type, numerator and denominator (classical
chains give mixed denominators), and ``check_distributivity`` must answer
the same, whether the histories come as a tuple or as a one-pass iterator.  Processes that
reuse one stage object at many stages get the same comparison: eigenstate
chains of up to 1,500 stages, a repeated conditional unitary, and classical
chains of single-target steps, whose lone children ``run`` walks in place.
The oracle's validator checks every stage; ``_validate_process`` checks each
``Measure`` object once, and on malformed processes with repeated stage
objects both must raise the same error.
"""

import json
import random
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
    _validate_process,
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
from ortholab.spin import SPIN_X, SPIN_Z, X_DOWN, X_UP, Y_DOWN, Y_UP, Z_DOWN, Z_UP

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


def _formula(rng, atoms, leaves):
    """A formula over ``atoms`` with at most ``leaves`` atoms: an atom, a negation, a meet or a
    join, each chosen by ``rng``."""
    kind = rng.randrange(4) if leaves > 1 else 0
    if kind == 0:
        return rng.choice(atoms)
    if kind == 1:
        return ~_formula(rng, atoms, leaves - 1)
    split = rng.randint(1, leaves - 1)
    left, right = _formula(rng, atoms, split), _formula(rng, atoms, leaves - split)
    return left & right if kind == 2 else left | right


def formula_pairs(atoms):
    # one to three pairs per process, built from one drawn seed: hypothesis then spends its
    # examples and mutations on processes, not on the formulas
    def pairs(seed):
        rng = random.Random(seed)
        return [tuple(_formula(rng, atoms, 5) for _ in "lr") for _ in range(rng.randint(1, 3))]

    return st.integers(0, 2**32 - 1).map(pairs)


@st.composite
def cases(draw, processes, tests):
    stages = draw(processes)
    atoms = [Atom(test, k) for test in tests for k in range(len(stages))]
    return stages, draw(formula_pairs(atoms))


def _exact(p):
    return type(p), p.numerator, p.denominator


def _probabilities(histories):
    return [_exact(h.probability) for h in histories]


def _assert_same_as_oracle(stages, pairs):
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
    for left, right in pairs:
        for formula in (left, right):
            want = process_oracle.prob_of(formula, old)
            surely = process_oracle.holds_surely(formula, old)
            for histories in (new, old):
                got = prob_of(formula, histories)
                assert _exact(got) == _exact(want)
                assert _exact(prob_of(formula, iter(histories))) == _exact(want)
                assert holds_surely(formula, histories) == surely
                assert holds_surely(formula, iter(histories)) == surely
        verdict = check_distributivity(left, right, old)
        assert check_distributivity(left, right, new) == verdict
        for histories in (new, old):
            assert check_distributivity(left, right, iter(histories)) == verdict


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
    _assert_same_as_oracle(stages, [(left, right | ~left) for left in atoms for right in atoms])


@pytest.mark.parametrize("stage", [Prepare(vec(2, "1+i")), ClassicalPrepare("p")])
def test_a_preparation_alone_is_one_sure_history(stage):
    (history,) = run((stage,))
    assert (type(history.probability), history.probability) == (Fraction, Fraction(1))
    assert [(t.stage, t.outcome) for t in history.trace] == [(0, "-")]
    assert history.state_at(0) == (stage.state if isinstance(stage, Prepare) else stage.point)


# -- stage objects reused at many stages --------------------------------------------------

EIGENSTATES = {"x": (X_UP, X_DOWN), "y": (Y_UP, Y_DOWN), "z": (Z_UP, Z_DOWN)}
LONG_SETTINGS = settings(SETTINGS, max_examples=30)  # a chain has up to 1,501 stages


@st.composite
def stage_sample(draw, n_stages):
    # the first and last stages and a few drawn ones, so a case needs few atoms however long
    drawn = draw(st.lists(st.integers(0, n_stages - 1), min_size=1, max_size=3))
    return sorted({0, n_stages - 1, *drawn})


@st.composite
def eigenstate_chains(draw):
    # one Measure object at every stage but one, which measures another axis fairly; after it
    # the chain runs on with that Measure object (two histories) or the first (four)
    axis = draw(st.sampled_from("xyz"))
    chain = Measure(OBSERVABLES[axis])
    fair = Measure(OBSERVABLES[draw(st.sampled_from([a for a in "xyz" if a != axis]))])
    n = draw(st.integers(200, 1500))
    k = draw(st.integers(1, n))  # the fair measurement's stage
    after = draw(st.sampled_from((chain, fair)))
    head = (Prepare(draw(st.sampled_from(EIGENSTATES[axis]))),) + (chain,) * (k - 1)
    return head + (fair,) + (after,) * (n - k)


@st.composite
def repeated_unitaries(draw):
    # one ConditionalUnitary object at many stages, conditioned on the first measurement, with
    # up to two later measurements by one other Measure object
    measure = Measure(OBSERVABLES[draw(st.sampled_from("xyz"))])
    label = draw(st.sampled_from(measure.observable.labels()))
    gate = ConditionalUnitary(OutcomeIs(1, label), draw(st.sampled_from(UNITARIES)))
    later = Measure(OBSERVABLES[draw(st.sampled_from("xyz"))])
    stages = [Prepare(draw(STATES)), measure]
    n = draw(st.integers(2, 40))
    at = draw(st.lists(st.integers(0, n - 1), max_size=2))
    for j in range(n):
        stages.extend([later] * at.count(j))
        stages.append(gate)
    return tuple(stages)


@st.composite
def single_target_chains(draw):
    # step objects whose every row has one target of weight 1 (some rows with zero-weight
    # others), each repeated up to 30 times, between up to three splitting steps: the lone
    # children after a split carry probabilities below 1
    stages = [ClassicalPrepare(draw(st.sampled_from(POINTS)))]
    splits = 0
    for _ in range(draw(st.integers(1, 6))):
        if splits < 3 and draw(st.integers(0, 2)) == 0:
            splits += 1
            stages.append(draw(kernels()))
            continue
        kernel = {}
        for source in POINTS:
            target, zero = draw(st.sampled_from(POINTS)), draw(st.sampled_from(POINTS))
            row = [(target, 1)] + ([(zero, 0)] if zero != target and draw(st.booleans()) else [])
            kernel[source] = tuple(draw(st.permutations(row)))
        stages.extend([ClassicalStep(kernel)] * draw(st.integers(1, 30)))
    return tuple(stages)


@st.composite
def chain_cases(draw, processes, tests):
    stages = draw(processes)
    atoms = [Atom(test, k) for test in tests for k in draw(stage_sample(len(stages)))]
    return stages, draw(formula_pairs(atoms))


@LONG_SETTINGS
@given(chain_cases(eigenstate_chains(), QUANTUM_TESTS))
def test_eigenstate_chains_with_one_fair_measurement_match_the_oracle(case):
    _assert_same_as_oracle(*case)
    assert len(run(case[0])) > 1  # the fair measurement splits the chain


@SETTINGS
@given(chain_cases(repeated_unitaries(), QUANTUM_TESTS))
def test_a_repeated_conditional_unitary_matches_the_oracle(case):
    _assert_same_as_oracle(*case)


@SETTINGS
@given(chain_cases(single_target_chains(), tuple(PointIs(p) for p in POINTS)))
def test_single_target_classical_chains_match_the_oracle(case):
    _assert_same_as_oracle(*case)


# -- both validators on processes with repeated stage objects ------------------------------

# a measurement on 3-space, one stage object however often a process repeats it
WRONG_DIM = Measure(
    Observable(
        "Q", (Outcome("a", 0, Matrix.diagonal(1, 0, 0)), Outcome("b", 1, Matrix.diagonal(0, 1, 1)))
    )
)
GATE = Matrix.diagonal(1, "i")
PREP_Z, PREP_A = Prepare(Z_UP), ClassicalPrepare("a")
MEASURE_Z, MEASURE_X = Measure(OBSERVABLES["z"]), Measure(OBSERVABLES["x"])
LATE_GATE = ConditionalUnitary(OutcomeIs(2, "x-"), GATE)  # not earlier when it sits at stage 2
ODD_GATE = ConditionalUnitary(OutcomeIs(1, "sideways"), GATE)
FLIP = ClassicalStep({"a": (("b", 1),), "b": (("a", 1),)})
STAGE_POOL = (
    PREP_Z,
    Prepare(vec(1, 0, 0)),
    MEASURE_Z,
    MEASURE_X,
    WRONG_DIM,
    ConditionalUnitary(OutcomeIs(1, "z+"), GATE),
    LATE_GATE,
    ODD_GATE,
    ConditionalUnitary(OutcomeIs(0, "z+"), Matrix.identity(3)),
    PREP_A,
    FLIP,
)


def _validation(validate, stages):
    try:
        return "valid", validate(stages)
    except Exception as exc:  # its type is compared too
        return type(exc), str(exc)


def _assert_validated_alike(stages):
    got = _validation(_validate_process, stages)
    assert got == _validation(process_oracle._validate_process, stages)
    return got


@pytest.mark.parametrize(
    "stages, message",
    [
        (
            (PREP_Z, MEASURE_Z)
            + tuple(WRONG_DIM if k in (2, 5, 9) else MEASURE_X for k in range(2, 10)),
            "stage 2 acts on dimension 3, the prepared state has 2",
        ),
        (
            (PREP_A, FLIP, MEASURE_Z, FLIP, MEASURE_Z),
            "cannot mix quantum stages into a classical process",
        ),
        (
            (PREP_Z, MEASURE_Z, LATE_GATE, MEASURE_X, LATE_GATE),
            "stage 2 conditions on stage 2, which is not earlier",
        ),
        (
            (PREP_Z, MEASURE_Z, ODD_GATE, ODD_GATE),
            "stage 2 conditions on unknown outcome 'sideways'",
        ),
        (
            (PREP_Z, MEASURE_Z, PREP_Z, MEASURE_Z),
            "stage 2: preparation is only allowed first",
        ),
        (
            (PREP_A, FLIP, PREP_A, FLIP),
            "stage 2: preparation is only allowed first",
        ),
    ],
    ids=[
        "wrong-dimension",
        "quantum-in-classical",
        "late-condition",
        "unknown-outcome",
        "repeated-preparation",
        "repeated-classical-preparation",
    ],
)
def test_repeated_stage_objects_are_rejected_as_the_oracle_rejects_them(stages, message):
    assert _assert_validated_alike(stages) == (ValueError, message)


@SETTINGS
@given(st.lists(st.sampled_from(STAGE_POOL), min_size=0, max_size=12))
def test_both_validators_agree_on_processes_drawn_from_a_few_stage_objects(stages):
    _assert_validated_alike(tuple(stages))
