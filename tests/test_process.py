from fractions import Fraction

import pytest

import process_oracle
from ortholab import process, span, vec
from ortholab.lattice import substream
from ortholab.linalg import Matrix, Rational, Vector, inner
from ortholab.process import (
    Atom,
    ClassicalPrepare,
    ClassicalStep,
    ConditionalUnitary,
    History,
    Measure,
    Observable,
    Outcome,
    OutcomeIs,
    PointIs,
    Prepare,
    TraceEntry,
    check_distributivity,
    evaluate_in,
    hatch_demo,
    histories_to_json,
    holds_surely,
    prob_of,
    process_from_json,
    process_to_json,
    run,
    spin_demo,
    spin_observable,
    stage_to_json,
)
from ortholab.propositions import (
    And,
    Constant,
    EqualsVector,
    ExpectationIn,
    InSubspace,
    Interval,
    Not,
    Or,
    evaluate,
)
from ortholab.propositions import FALSE as NEVER, TRUE as ALWAYS
from ortholab.spin import (
    PROJ_Z_DOWN,
    PROJ_Z_UP,
    SPIN_X,
    SPIN_Y,
    SPIN_Z,
    X_DOWN,
    X_UP,
    Y_DOWN,
    Y_UP,
    Z_DOWN,
    Z_UP,
)

HALF = Fraction(1, 2)

# y splits x-up evenly; the y- branch is then rotated onto x-up, so x has a
# single outcome there and two on the y+ branch; z splits every branch
THREE_MEASUREMENTS = (
    Prepare(X_UP),
    Measure(spin_observable("y")),
    ConditionalUnitary(OutcomeIs(1, "y-"), Matrix.diagonal(1, "i")),
    Measure(spin_observable("x")),
    Measure(spin_observable("z")),
)


@pytest.fixture(scope="module")
def spin():
    stages, formulas = spin_demo()
    return stages, formulas, run(stages)


@pytest.fixture(scope="module")
def hatch():
    stages, formulas = hatch_demo()
    return stages, formulas, run(stages)


class TestObservableValidation:
    def test_spin_observables_pass(self):
        for axis in "xyz":
            obs = spin_observable(axis)
            assert obs.labels() == (f"{axis}+", f"{axis}-")

    def test_non_idempotent_rejected(self):
        bad = Matrix([["1/2", 0], [0, 0]])
        with pytest.raises(ValueError, match="idempotent"):
            Observable("bad", (Outcome("a", 1, bad), Outcome("b", -1, Matrix.identity(2) - bad)))

    def test_not_summing_to_identity_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            Observable("partial", (Outcome("a", 1, PROJ_Z_UP),))

    def test_two_outcomes_of_one_label_rejected(self):
        with pytest.raises(ValueError) as info:
            Observable("twice", (Outcome("a", 1, PROJ_Z_UP), Outcome("a", -1, PROJ_Z_DOWN)))
        assert str(info.value) == "observable 'twice' has two outcomes labelled 'a'"

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            Observable(
                "overlap",
                (Outcome("a", 1, Matrix.identity(2)), Outcome("b", -1, PROJ_Z_UP)),
            )


class TestRun:
    def test_superposition_splits_half_half(self):
        histories = run((Prepare(vec(1, 1)), Measure(spin_observable("y"))))
        assert [h.probability for h in histories] == [HALF, HALF]
        assert [h.trace[1].outcome for h in histories] == ["y+", "y-"]

    def test_eigenstate_gives_one_branch(self):
        histories = run((Prepare(Y_UP), Measure(spin_observable("y"))))
        assert len(histories) == 1
        assert histories[0].probability == 1
        assert histories[0].trace[1].outcome == "y+"

    def test_classical_hatch_splits_half_half(self, hatch):
        _, _, histories = hatch
        assert [(h.trace[1].state, h.probability) for h in histories] == [
            ("q", HALF),
            ("r", HALF),
        ]

    def test_probabilities_sum_to_one_on_random_processes(self):
        axes = "xyz"
        gate = Matrix.diagonal(1, "i")
        for trial in range(40):
            rng = substream("born", trial)
            state = vec(
                Rational(rng.randint(-3, 3)) + Rational(rng.randint(-3, 3), 2),
                rng.randint(-3, 3),
            )
            if state.is_zero():
                continue
            stages = [Prepare(state)]
            for _ in range(rng.randint(1, 3)):
                stages.append(Measure(spin_observable(axes[rng.randrange(3)])))
                if rng.random() < 0.5:
                    obs = stages[-1].observable
                    stages.append(
                        ConditionalUnitary(OutcomeIs(len(stages) - 1, obs.labels()[0]), gate)
                    )
            histories = run(stages)
            assert sum(h.probability for h in histories) == 1

    def test_unitary_stage_preserves_norm(self, spin):
        stages, _, histories = spin
        for h in histories:
            before = h.trace[1].state
            after = h.trace[2].state
            assert inner(before, before) == inner(after, after)

    def test_post_measurement_state_is_projection(self):
        psi = vec(1, 1)
        histories = run((Prepare(psi), Measure(spin_observable("z"))))
        up_branch = histories[0]
        assert up_branch.trace[1].state == PROJ_Z_UP @ psi

    def test_zero_probability_branches_pruned(self):
        histories = run((Prepare(Y_UP), Measure(spin_observable("y"))))
        assert len(histories) == 1

    def test_long_process_runs_without_recursion(self):
        # more stages than the interpreter's default recursion limit
        stages = (Prepare(X_UP),) + (Measure(spin_observable("z")),) * 1499
        histories = run(stages)
        assert [h.probability for h in histories] == [HALF, HALF]
        assert [len(h.trace) for h in histories] == [1500, 1500]
        assert [h.trace[-1].outcome for h in histories] == ["z+", "z-"]
        z_up = Atom(InSubspace(span([vec(1, 0)], 2)), 1499)
        assert prob_of(z_up, histories) == HALF

    def test_history_order_with_conditional_unitary(self):
        histories = run(THREE_MEASUREMENTS)
        got = [(tuple(t.outcome for t in h.trace), h.probability) for h in histories]
        eighth, quarter = Fraction(1, 8), Fraction(1, 4)
        assert got == [
            (("-", "y+", "-", "x+", "z+"), eighth),
            (("-", "y+", "-", "x+", "z-"), eighth),
            (("-", "y+", "-", "x-", "z+"), eighth),
            (("-", "y+", "-", "x-", "z-"), eighth),
            (("-", "y-", "-", "x+", "z+"), quarter),
            (("-", "y-", "-", "x+", "z-"), quarter),
        ]

    def test_histories_share_the_entries_of_a_common_prefix(self):
        histories = run(THREE_MEASUREMENTS)
        first, second, fifth = histories[0], histories[1], histories[4]
        for k in range(4):
            assert first.trace[k] is second.trace[k]
        assert first.trace[4] is not second.trace[4]
        assert first.trace[0] is fifth.trace[0]
        assert first.trace[1] is not fifth.trace[1]


def _alternating(m):
    # z-up, then m fair measurements x, z, y, z, ...; the x+ branch is turned onto a y ray
    axes = ("x", "z", "y", "z")
    stages = [Prepare(Z_UP)]
    for j in range(m):
        stages.append(Measure(spin_observable(axes[j % 4])))
        if j == 0:
            stages.append(ConditionalUnitary(OutcomeIs(1, "x+"), Matrix.diagonal(1, "i")))
    return tuple(stages)


def _count_matmul(monkeypatch):
    calls = []  # (id(matrix), operand) per Matrix @ call
    original = Matrix.__matmul__

    def counting(matrix, other):
        calls.append((id(matrix), other))
        return original(matrix, other)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    return calls


class TestSharedWork:
    def test_a_repeated_measurement_of_an_eigenstate_applies_two_projectors(self, monkeypatch):
        stages = (Prepare(Z_UP),) + (Measure(spin_observable("z")),) * 1000
        calls = _count_matmul(monkeypatch)
        histories = run(stages)
        assert [h.probability for h in histories] == [1]
        assert len(calls) == 2

    def test_the_born_weight_is_formed_once_per_last_stage_branch(self, monkeypatch):
        stages = (Prepare(Z_UP),) + (Measure(spin_observable("z")),) * 1000
        calls, original = [], process._norm_ratio
        monkeypatch.setattr(process, "_norm_ratio", lambda *vw: calls.append(vw) or original(*vw))
        assert [h.probability for h in run(stages)] == [1]
        assert calls == [(Z_UP, Z_UP)]

    def test_each_matrix_is_applied_once_per_state(self, monkeypatch):
        stages = _alternating(10)
        calls = _count_matmul(monkeypatch)
        histories = run(stages)
        assert len(histories) == 2**10
        assert {h.probability for h in histories} == {Fraction(1, 2**10)}
        assert len(calls) == len(set(calls))
        assert len(calls) < 200  # applying them on every branch takes 2,047 calls

    def test_each_conditional_unitary_acts_once_per_entry(self, monkeypatch):
        z, x, y = (Measure(spin_observable(axis)) for axis in "zxy")
        phase = ConditionalUnitary(OutcomeIs(1, "z+"), Matrix.diagonal(1, "i"))
        rotation = Matrix([["3/5", "-4/5"], ["4/5", "3/5"]])
        turn = ConditionalUnitary(OutcomeIs(1, "x+"), rotation)
        turn_on_z = ConditionalUnitary(OutcomeIs(2, "z+"), rotation)
        cases = (
            (Prepare(Z_UP), z) + (phase, z) * 50,  # the phase keeps z-up: one state, 50 entries
            (Prepare(Z_UP), x, turn, z, turn, y, turn, x, turn),
            # x+ z+ and x- z+ reach one entry, so each turn acts once for two branches
            (Prepare(Z_UP), x, z, turn_on_z, y, turn_on_z),
            _alternating(8),
        )
        calls = _count_matmul(monkeypatch)
        applied = []
        for stages in cases:
            calls.clear()
            histories = run(stages)
            unitaries = {k: st for k, st in enumerate(stages) if isinstance(st, ConditionalUnitary)}
            matrices = {id(st.matrix) for st in unitaries.values()}
            # the distinct entries before a unitary's stage on branches where its condition holds
            holds = {
                id(h.trace[k - 1])
                for h in histories
                for k, st in unitaries.items()
                if h.trace[st.condition.stage].outcome == st.condition.label
            }
            applied.append(sum(matrix in matrices for matrix, _ in calls))
            assert applied[-1] == len(holds)
            expected = process_oracle.run(stages)
            assert histories_to_json(histories) == histories_to_json(expected)
            assert [h.probability for h in histories] == [h.probability for h in expected]
        assert applied[0] == 50

    def test_the_walk_hashes_no_state_per_frame(self, monkeypatch):
        calls, original = [], Vector.__hash__
        monkeypatch.setattr(Vector, "__hash__", lambda v: calls.append(v) or original(v))
        histories = run(_alternating(10))
        assert len(histories) == 2**10
        # a frame is looked up by its entry's identity: only new states are hashed
        assert len(calls) < len(histories)

    def test_equal_entries_are_one_object(self):
        x, z = spin_observable("x"), spin_observable("z")
        histories = run((Prepare(Z_UP), Measure(x), Measure(z), Measure(x)))
        # x+ z+ x+ and x- z+ x+: both branches reach z+ in the state (1, 0)/2
        first, fifth = histories[0], histories[4]
        assert first.trace[1] != fifth.trace[1]
        assert first.trace[2] is fifth.trace[2]
        assert first.trace[3] is fifth.trace[3]
        for stages in (THREE_MEASUREMENTS, _alternating(6), spin_demo()[0], hatch_demo()[0]):
            histories = run(stages)
            for k in range(len(stages)):
                seen = {}
                for h in histories:
                    assert seen.setdefault(h.trace[k], h.trace[k]) is h.trace[k]

    def test_each_entry_is_built_once(self, monkeypatch):
        calls, original = [], TraceEntry.__init__
        monkeypatch.setattr(TraceEntry, "__init__", lambda *a: calls.append(a) or original(*a))
        x, z = spin_observable("x"), spin_observable("z")
        repeated = (Prepare(Z_UP), Measure(x), Measure(z), Measure(x))
        for stages in (repeated, THREE_MEASUREMENTS, _alternating(6), hatch_demo()[0]):
            calls.clear()
            histories = run(stages)
            # equal entries are one object, so the distinct objects are the distinct entries
            assert len(calls) == len({id(entry) for h in histories for entry in h.trace})

    def test_a_deeper_chain_of_repeated_measurements_hashes_no_more_states(self, monkeypatch):
        calls, original = [], Vector.__hash__
        monkeypatch.setattr(Vector, "__hash__", lambda v: calls.append(v) or original(v))
        counts = []
        for n in (1000, 2000):
            calls.clear()
            (history,) = run((Prepare(Z_UP),) + (Measure(spin_observable("z")),) * n)
            assert (history.probability, len(history.trace)) == (1, n + 1)
            counts.append(len(calls))
        # the prepared state, interned, and the first z+ product, found equal to it: a state is
        # hashed only when a product is computed, and the chain computes one pair of them
        assert counts[0] == counts[1] <= 2

    def test_a_chain_of_repeated_measurements_keeps_one_state_object(self):
        z, x = Measure(spin_observable("z")), Measure(spin_observable("x"))
        # each z+ product equals the prepared state, so it is the prepared object itself
        (history,) = run((Prepare(Z_UP),) + (z,) * 1000)
        assert all(t.state is Z_UP for t in history.trace)
        for history in run((Prepare(Z_DOWN),) + (x,) * 500):
            after = history.trace[1].state
            assert all(t.state is after for t in history.trace[1:])

    def test_each_measure_object_is_checked_once(self, monkeypatch):
        reads, original = [], Observable.dim
        counting = property(lambda obs: reads.append(obs) or original.fget(obs))
        monkeypatch.setattr(Observable, "dim", counting)
        z, other_z = Measure(spin_observable("z")), Measure(spin_observable("z"))
        also_z = Measure(z.observable)  # another Measure object over the same observable
        (history,) = run((Prepare(Z_UP),) + (z, also_z, z, other_z) * 250)
        assert len(history.trace) == 1001
        assert len(reads) == 3


class TestLastStageHistories:
    def test_siblings_come_in_outcome_order_and_share_their_prefix(self):
        stages = _alternating(10)
        last = len(stages) - 1
        labels = list(stages[last].observable.labels())
        histories = run(stages)
        assert len(histories) == 2**10
        for first, second in zip(histories[::2], histories[1::2]):
            assert [first.trace[last].outcome, second.trace[last].outcome] == labels
            assert len(first.trace) == len(second.trace) == len(stages)
            assert all(a is b for a, b in zip(first.trace[:last], second.trace[:last]))


class TestExactSums:
    # hand-built classical histories, one per (probability, point reached at stage 1)
    HISTORIES = tuple(
        History(p, (TraceEntry(0, "-", "p"), TraceEntry(1, point, point)))
        for p, point in (
            (HALF, "a"),
            (Fraction(1, 3), "a"),
            (Fraction(1, 6), "b"),
            (1, "b"),
            (Fraction(1, 3), "c"),
            (Fraction(5, 6), "c"),
            (Fraction(1, 2**40), "a"),
        )
    )

    def test_mixed_denominators_and_an_int_add_up_as_fractions(self):
        a, b, c = (Atom(PointIs(point), 1) for point in "abc")
        for formula in (a, b, c, a | b, b | c, a | c, a | b | c, ~b):
            want = sum(
                (Fraction(h.probability) for h in self.HISTORIES if evaluate_in(formula, h)),
                Fraction(0),
            )
            got = prob_of(formula, self.HISTORIES)
            assert (type(got), got.numerator, got.denominator) == (
                Fraction,
                want.numerator,
                want.denominator,
            )
        assert prob_of(b | c, self.HISTORIES) == Fraction(7, 3)

    def test_no_true_history_gives_a_fraction_zero(self):
        a = Atom(PointIs("a"), 1)
        for histories in (self.HISTORIES, ()):
            got = prob_of(a & ~a, histories)
            assert (type(got), got) == (Fraction, Fraction(0))


class TestProcessValidation:
    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            run((Prepare(vec(1, 0)), ClassicalStep({"p": (("p", Rational(1)),)})))

    def test_must_start_with_preparation(self):
        with pytest.raises(ValueError, match="preparation"):
            run((Measure(spin_observable("z")),))

    def test_late_preparation_rejected(self):
        with pytest.raises(ValueError, match="first"):
            run((Prepare(vec(1, 0)), Prepare(vec(0, 1))))

    def test_condition_must_point_at_earlier_measurement(self):
        gate = Matrix.diagonal(1, "i")
        with pytest.raises(ValueError, match="earlier"):
            run((Prepare(vec(1, 1)), ConditionalUnitary(OutcomeIs(1, "y+"), gate)))
        with pytest.raises(ValueError, match="not a measurement"):
            run(
                (
                    Prepare(vec(1, 1)),
                    ConditionalUnitary(OutcomeIs(0, "y+"), gate),
                )
            )
        with pytest.raises(ValueError, match="unknown outcome"):
            run(
                (
                    Prepare(vec(1, 1)),
                    Measure(spin_observable("y")),
                    ConditionalUnitary(OutcomeIs(1, "sideways"), gate),
                )
            )

    @pytest.mark.parametrize(
        "stages, message",
        [
            # the 3x3 unitary sits on the z- branch, which has probability 0
            (
                lambda: (
                    Prepare(vec(1, 0)),
                    Measure(spin_observable("z")),
                    ConditionalUnitary(OutcomeIs(1, "z-"), Matrix.identity(3)),
                ),
                "stage 2 acts on dimension 3, the prepared state has 2",
            ),
            (
                lambda: (Prepare(vec(1, 0, 0)), Measure(spin_observable("z"))),
                "stage 1 acts on dimension 2, the prepared state has 3",
            ),
        ],
        ids=["unreached-unitary", "measurement"],
    )
    def test_every_stage_acts_on_the_prepared_dimension(self, monkeypatch, stages, message):
        stages = stages()
        calls = _count_matmul(monkeypatch)
        with pytest.raises(ValueError) as info:
            run(stages)
        assert str(info.value) == message
        assert calls == []  # rejected before the walk applies any matrix

    def test_non_unitary_conditional_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            ConditionalUnitary(OutcomeIs(0, "y+"), Matrix([[1, 1], [0, 1]]))

    def test_kernel_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sums to"):
            ClassicalStep({"p": (("q", HALF), ("r", Fraction(1, 3)))})
        with pytest.raises(ValueError, match="negative"):
            ClassicalStep({"p": (("q", Fraction(3, 2)), ("r", Fraction(-1, 2)))})

    def test_a_kernel_row_naming_one_target_twice_is_rejected(self):
        kernel = {"p": (("q", HALF), ("q", HALF)), "q": (("q", Rational(1)),)}
        with pytest.raises(ValueError) as info:
            ClassicalStep(kernel)
        assert str(info.value) == "kernel row 'p' names target 'q' twice"
        with pytest.raises(ValueError) as info:  # checked before the row's sum
            ClassicalStep({"p": (("q", HALF), ("q", HALF), ("r", HALF))})
        assert str(info.value) == "kernel row 'p' names target 'q' twice"

    def test_missing_kernel_row(self):
        step = ClassicalStep({"q": (("q", Rational(1)),)})
        with pytest.raises(ValueError, match="no transition row"):
            run((ClassicalPrepare("p"), step))

    def test_two_sources_that_print_alike_are_rejected(self):
        with pytest.raises(ValueError) as info:
            ClassicalStep({1: (("a", Rational(1)),), "1": (("b", Rational(1)),)})
        assert str(info.value) == "kernel names source '1' twice"

    def test_points_are_named_by_their_str(self):
        assert ClassicalPrepare(1) == ClassicalPrepare("1")
        assert PointIs(2) == PointIs("2")
        step = ClassicalStep({1: (("2", Rational(1)),), "2": (("2", Rational(1)),)})
        histories = run((ClassicalPrepare(1), step))
        assert [h.trace[0].state for h in histories] == ["1"]
        for point in (2, "2"):
            assert prob_of(Atom(PointIs(point), 1), histories) == 1
        assert holds_surely(Atom(PointIs(1), 0), histories)


class TestFormulas:
    def test_outcome_disjunction_is_sure_after_measurement(self, spin):
        _, f, histories = spin
        assert holds_surely(f["q_o"] | f["r_o"], histories)

    def test_value_disjunction_fails_before_measurement(self, spin):
        _, f, histories = spin
        assert not holds_surely(f["q_i"] | f["r_i"], histories)
        assert prob_of(f["q_i"] | f["r_i"], histories) == 0
        # same verdict through the expectation-value reading
        assert not holds_surely(f["q'_i"] | f["r'_i"], histories)

    def test_final_disjunction_after_rotation(self, spin):
        _, f, histories = spin
        assert holds_surely(f["p_f"] | f["q_f"], histories)

    def test_born_probability_of_conjunction(self, spin):
        _, f, histories = spin
        assert prob_of(f["p_i"] & f["q_o"], histories) == HALF
        assert prob_of(f["p_i"] & f["r_o"], histories) == HALF

    def test_trivial_probabilities(self, spin):
        _, f, histories = spin
        assert prob_of(ALWAYS, histories) == 1
        assert prob_of(f["q_o"] & f["r_o"], histories) == 0

    def test_exclusive_outcomes_at_any_measurement(self):
        # two different outcomes of one measurement can never hold together
        for axis in "xyz":
            histories = run((Prepare(vec(2, "1+i")), Measure(spin_observable(axis))))
            assert len(histories) == 2
            rays = [span([h.trace[1].state], 2) for h in histories]
            a = Atom(InSubspace(rays[0]), 1)
            b = Atom(InSubspace(rays[1]), 1)
            assert prob_of(a & b, histories) == 0
            assert prob_of(a | b, histories) == 1

    def test_rotation_aligns_final_with_measured(self, spin):
        _, f, histories = spin
        for h in histories:
            assert evaluate_in(f["q_f"], h) == evaluate_in(f["q_o"], h)
            assert evaluate_in(f["p_f"], h) == evaluate_in(f["r_o"], h)

    def test_stage_out_of_range(self, spin):
        _, f, histories = spin
        bad = Atom(InSubspace(span([X_UP], 2)), 9)
        with pytest.raises(ValueError, match="out of range"):
            holds_surely(bad, histories)

    def test_point_atoms_and_vector_states_do_not_mix(self, spin, hatch):
        _, _, q_histories = spin
        _, g, c_histories = hatch
        with pytest.raises(TypeError):
            holds_surely(Atom(PointIs("p"), 0), q_histories)
        _, f = spin_demo()
        with pytest.raises(TypeError):
            holds_surely(f["p_i"], c_histories)

    def test_queries_read_a_one_pass_iterator(self, spin, hatch):
        for (_, f, histories), names in ((spin, ("p_i", "q_o", "r_f")), (hatch, ("p_i", "q_o"))):
            for formula in [f[n] for n in names] + [f[names[0]] | f[names[1]], ~f[names[1]]]:
                assert prob_of(formula, iter(histories)) == prob_of(formula, histories)
                assert holds_surely(formula, iter(histories)) == holds_surely(formula, histories)


class TestDistributivityVerdicts:
    def test_common_stage_before_measurement(self, spin):
        _, f, histories = spin
        left = f["p_i"] & (f["q_i"] | f["r_i"])
        right = (f["p_i"] & f["q_i"]) | (f["p_i"] & f["r_i"])
        v = check_distributivity(left, right, histories)
        assert v.left_false_in_all and v.right_false_in_all
        assert v.satisfied and not v.stage_mismatch

    def test_common_stage_after_measurement(self, spin):
        _, f, histories = spin
        left = f["p_i"] & (f["q_o"] | f["r_o"])
        right = (f["p_i"] & f["q_o"]) | (f["p_i"] & f["r_o"])
        v = check_distributivity(left, right, histories)
        assert v.left_true_in_all and v.right_true_in_all
        assert v.satisfied and v.per_history_agree and not v.stage_mismatch

    def test_mixed_stages_flagged(self, spin):
        _, f, histories = spin
        left = f["p_i"] & (f["q_o"] | f["r_o"])
        right = (f["p_i"] & f["q_i"]) | (f["p_i"] & f["r_i"])
        v = check_distributivity(left, right, histories)
        assert v.left_true_in_all and v.right_false_in_all
        assert not v.satisfied
        assert v.stage_mismatch

    def test_random_common_stage_formulas_always_distribute(self, spin):
        _, f, histories = spin
        atom_names = ("p", "q", "r")
        for trial in range(80):
            rng = substream("temporal", trial)
            tag = ("i", "o", "f")[rng.randrange(3)]
            a, b, c = (f[f"{atom_names[rng.randrange(3)]}_{tag}"] for _ in range(3))
            left = a & (b | c)
            right = (a & b) | (a & c)
            v = check_distributivity(left, right, histories)
            assert v.per_history_agree and v.satisfied

    def test_histories_given_as_an_iterator(self, spin):
        # both sides read the histories, so a one-pass iterator must give the tuple's verdict
        _, f, histories = spin
        pairs = (
            (f["p_i"] & (f["q_o"] | f["r_o"]), (f["p_i"] & f["q_o"]) | (f["p_i"] & f["r_o"])),
            (f["p_i"] & (f["q_o"] | f["r_o"]), (f["p_i"] & f["q_i"]) | (f["p_i"] & f["r_i"])),
        )
        for left, right in pairs:
            expected = check_distributivity(left, right, histories)
            got = check_distributivity(left, right, iter(histories))
            assert got == expected
            assert len(got.per_history) == len(histories) > 0



class TestClassicalQuantumParallel:
    def test_hatch_matches_spin_verdicts(self, spin, hatch):
        _, f, q_hist = spin
        _, g, c_hist = hatch

        def verdicts(formulas, histories):
            p, qi, ri = formulas["p_i"], formulas["q_i"], formulas["r_i"]
            qo, ro = formulas["q_o"], formulas["r_o"]
            before = check_distributivity(
                p & (qi | ri), (p & qi) | (p & ri), histories
            )
            after = check_distributivity(
                p & (qo | ro), (p & qo) | (p & ro), histories
            )
            mixed = check_distributivity(
                p & (qo | ro), (p & qi) | (p & ri), histories
            )
            return (
                before.satisfied,
                before.left_false_in_all,
                after.satisfied,
                after.left_true_in_all,
                mixed.satisfied,
                mixed.stage_mismatch,
            )

        assert verdicts(f, q_hist) == verdicts(g, c_hist)

    def test_hatch_initial_statements_are_exclusive(self, hatch):
        _, g, histories = hatch
        assert holds_surely(g["p_i"], histories)
        assert holds_surely(~g["q_i"], histories)
        assert holds_surely(~g["r_i"], histories)
        assert prob_of(g["q_o"], histories) == HALF
        assert prob_of(g["r_o"], histories) == HALF


class TestSpinDemoStates:
    def test_branch_states_lie_on_the_advertised_rays(self, spin):
        _, _, histories = spin
        up_branch, down_branch = histories
        assert span([up_branch.trace[2].state], 2) == span([Y_UP], 2)
        assert span([down_branch.trace[2].state], 2) == span([X_UP], 2)

    def test_rotation_maps_y_down_ray_to_x_up_ray(self):
        gate = Matrix.diagonal(1, "i")
        assert span([gate @ Y_DOWN], 2) == span([X_UP], 2)


class TestJson:
    def test_process_roundtrip(self, spin, hatch):
        for stages in (spin[0], hatch[0]):
            data = process_to_json(stages)
            assert process_from_json(data) == tuple(stages)

    def test_histories_shape(self, spin):
        _, _, histories = spin
        data = histories_to_json(histories)
        assert data[0]["prob"] == "1/2"
        assert data[0]["trace"][0] == {"stage": 0, "outcome": "-", "state": ["1", "1"]}

    def test_classical_histories_use_labels(self, hatch):
        _, _, histories = hatch
        data = histories_to_json(histories)
        assert data[0]["trace"][1]["state"] == "q"

    def test_a_non_stage_is_a_type_error(self):
        with pytest.raises(TypeError, match="unknown stage 'x'"):
            stage_to_json("x")

    @pytest.mark.parametrize(
        "value, error, message",
        [
            ("0.5", ValueError, "{}: unexpected '.' at position 2 in '0.5'"),
            ("1e2", ValueError, "{}: unexpected 'e' at position 2 in '1e2'"),
            ("1_0", ValueError, "{}: unexpected '_' at position 2 in '1_0'"),
            ("1+i", ValueError, "{} must be real, not '1+i'"),
            (1, TypeError, "{} must be a JSON string, not 1"),
            (0.5, TypeError, "{} must be a JSON string, not 0.5"),
        ],
    )
    def test_outcome_values_and_probabilities_use_the_scalar_grammar(
        self, spin, hatch, value, error, message
    ):
        quantum = process_to_json(spin[0])
        quantum[1]["observable"]["outcomes"][0]["value"] = value
        classical = process_to_json(hatch[0])
        classical[1]["kernel"]["p"][0][1] = value
        paths = ("process/1/observable/outcomes/0/value", "process/1/kernel/p/0/1")
        for data, path in zip((quantum, classical), paths):
            with pytest.raises(error) as info:
                process_from_json(data)
            assert str(info.value) == message.format(path)

    @pytest.mark.parametrize("stage", [1.0, 1.9, "1", True])
    def test_condition_stage_must_be_an_integer(self, spin, stage):
        data = process_to_json(spin[0])
        data[2]["condition"]["stage"] = stage
        with pytest.raises(TypeError) as info:
            process_from_json(data)
        assert str(info.value) == f"process/2/condition/stage must be a JSON integer, not {stage!r}"


# ---------------------------------------------------------------------------
# The queries against evaluate_in.  Every answer of prob_of, holds_surely
# and check_distributivity must equal the one evaluate_in gives, applied
# history by history.
# ---------------------------------------------------------------------------


def _quantum_tests():
    rays = [InSubspace(span([v], 2)) for v in (X_UP, X_DOWN, Y_UP, Y_DOWN, Z_UP, Z_DOWN)]
    windows = (Interval.point(HALF), Interval(None, 0, True, False))
    values = [ExpectationIn(op, (w,)) for op in (SPIN_X, SPIN_Y, SPIN_Z) for w in windows]
    return rays + values + [EqualsVector(X_UP), EqualsVector(vec("1/2", "1/2"))]


def _random_formula(rng, atoms, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(atoms) if rng.random() < 0.95 else rng.choice((ALWAYS, NEVER))
    if roll < 0.55:
        return _random_formula(rng, atoms, depth - 1) & _random_formula(rng, atoms, depth - 1)
    if roll < 0.8:
        return _random_formula(rng, atoms, depth - 1) | _random_formula(rng, atoms, depth - 1)
    return ~_random_formula(rng, atoms, depth - 1)


def _assert_queries_match_oracle(left, right, histories):
    lvals = tuple(evaluate_in(left, h) for h in histories)
    rvals = tuple(evaluate_in(right, h) for h in histories)
    mass = sum((h.probability for h, x in zip(histories, lvals) if x), Fraction(0))
    assert prob_of(left, histories) == mass
    assert holds_surely(left, histories) == all(lvals)
    verdict = check_distributivity(left, right, histories)
    assert verdict.per_history == tuple(zip(lvals, rvals))
    assert (
        verdict.left_true_in_all,
        verdict.left_false_in_all,
        verdict.right_true_in_all,
        verdict.right_false_in_all,
    ) == (all(lvals), not any(lvals), all(rvals), not any(rvals))
    return verdict


def _random_quantum_process(rng):
    state = vec(rng.randint(-3, 3) + Fraction(rng.randint(-3, 3), 2), rng.randint(-3, 3))
    if state.is_zero():
        state = X_UP
    stages = [Prepare(state)]
    for _ in range(rng.randint(1, 4)):
        stages.append(Measure(spin_observable("xyz"[rng.randrange(3)])))
        if rng.random() < 0.5:
            label = stages[-1].observable.labels()[rng.randrange(2)]
            condition = OutcomeIs(len(stages) - 1, label)
            stages.append(ConditionalUnitary(condition, Matrix.diagonal(1, "i")))
    return tuple(stages)


class TestQueriesMatchEvaluateInOnRunOutput:
    def test_random_formulas_on_random_processes(self):
        tests = _quantum_tests()
        for trial in range(30):
            rng = substream("memo/quantum", trial)
            stages = THREE_MEASUREMENTS if trial % 3 == 0 else _random_quantum_process(rng)
            histories = run(stages)
            atoms = [Atom(t, k) for t in tests for k in range(len(stages))]
            for _ in range(6):
                left = _random_formula(rng, atoms, 3)
                right = _random_formula(rng, atoms, 3)
                _assert_queries_match_oracle(left, right, histories)

    def test_demo_formulas(self):
        for demo, trials in ((spin_demo, 40), (hatch_demo, 40)):
            stages, named = demo()
            histories = run(stages)
            atoms = list(named.values())
            for trial in range(trials):
                rng = substream(f"memo/{demo.__name__}", trial)
                left = _random_formula(rng, atoms, 3)
                right = _random_formula(rng, atoms, 3)
                _assert_queries_match_oracle(left, right, histories)

    def test_a_one_stage_formula_is_walked_once_per_distinct_entry(self, monkeypatch):
        histories = run(THREE_MEASUREMENTS)
        calls = []

        def counting(prop, state):
            calls.append(state)
            return original(prop, state)

        original = process.evaluate
        monkeypatch.setattr(process, "evaluate", counting)
        x_up = InSubspace(span([X_UP], 2))
        # six histories, but three distinct entries at stage 3 and one at stage 0
        assert prob_of(Atom(x_up, 3), histories) == Fraction(3, 4)
        assert len(calls) == 3
        calls.clear()
        assert holds_surely(Atom(x_up, 0), histories)
        assert len(calls) == 1


class TestQueriesMatchEvaluateInOnHandBuiltHistories:
    def test_equal_entries_that_are_distinct_objects(self):
        def prefix():
            return (TraceEntry(0, "-", vec(1, 1)),)

        histories = (
            History(HALF, prefix() + (TraceEntry(1, "y+", vec(1, "i")),)),
            History(Fraction(1, 4), prefix() + (TraceEntry(1, "y+", vec(1, "i")),)),
            History(Fraction(1, 4), prefix() + (TraceEntry(1, "y-", vec(1, "-i")),)),
        )
        assert histories[0].trace[1] == histories[1].trace[1]
        assert histories[0].trace[1] is not histories[1].trace[1]
        tests = _quantum_tests()
        atoms = [Atom(t, k) for t in tests for k in (0, 1)]
        for trial in range(40):
            rng = substream("memo/hand-built", trial)
            left = _random_formula(rng, atoms, 3)
            right = _random_formula(rng, atoms, 3)
            _assert_queries_match_oracle(left, right, histories)
        y_up = Atom(InSubspace(span([Y_UP], 2)), 1)
        assert prob_of(y_up, histories) == Fraction(3, 4)

    def test_classical_entries(self):
        histories = (
            History(HALF, (TraceEntry(0, "-", "p"), TraceEntry(1, "q", "q"))),
            History(HALF, (TraceEntry(0, "-", "p"), TraceEntry(1, "r", "r"))),
        )
        at_q = Atom(PointIs("q"), 1)
        at_p = Atom(PointIs("p"), 0)
        _assert_queries_match_oracle(at_p & at_q, at_p & ~at_q, histories)
        assert prob_of(at_q, histories) == HALF


class TestQueriesMatchEvaluateInWithSharedAtoms:
    def test_one_atom_on_both_sides_of_differing_sides(self, spin):
        _, f, histories = spin
        a, b = f["q_o"], f["p_f"]
        # the same two atom objects on both sides; in the y+ history the
        # left side is false and the right side true
        verdict = _assert_queries_match_oracle(a & b, a & ~b, histories)
        assert verdict.per_history == ((False, True), (False, False))
        assert not verdict.satisfied

    def test_one_atom_against_its_negation(self, spin):
        _, f, histories = spin
        a = f["p_i"]
        verdict = _assert_queries_match_oracle(a, ~a, histories)
        assert verdict.left_true_in_all and verdict.right_false_in_all
        assert not verdict.satisfied

    def test_out_of_range_stage_still_raises(self):
        histories = run(THREE_MEASUREMENTS)
        with pytest.raises(ValueError, match="out of range"):
            prob_of(Atom(InSubspace(span([X_UP], 2)), 5), histories)


# ---------------------------------------------------------------------------
# One formula walk per distinct tuple of trace entries.  The queries walk a
# formula once for all the histories that hold the same entry objects at
# every stage the formula reads; every answer must equal a plain evaluation
# of each history on its own, kept here apart from the library's evaluator.
# ---------------------------------------------------------------------------


def _plain_truth(formula, history) -> bool:
    """The formula's value in one history, by direct recursion over its nodes."""
    if isinstance(formula, Constant):
        return formula.value
    if isinstance(formula, Not):
        return not _plain_truth(formula.child, history)
    if isinstance(formula, And):
        return all(_plain_truth(c, history) for c in formula.children)
    if isinstance(formula, Or):
        return any(_plain_truth(c, history) for c in formula.children)
    state = history.state_at(formula.stage)
    if isinstance(formula.test, PointIs):
        return state == formula.test.point
    return evaluate(formula.test, state)


def _assert_queries_match_plain_loop(left, right, histories):
    lvals = tuple(_plain_truth(left, h) for h in histories)
    rvals = tuple(_plain_truth(right, h) for h in histories)
    mass = sum((h.probability for h, x in zip(histories, lvals) if x), Fraction(0))
    assert prob_of(left, histories) == mass
    assert holds_surely(left, histories) == all(lvals)
    assert holds_surely(right, histories) == all(rvals)
    verdict = check_distributivity(left, right, histories)
    assert verdict.per_history == tuple(zip(lvals, rvals))
    assert (verdict.left_true_in_all, verdict.right_false_in_all) == (all(lvals), not any(rvals))


def _crossed_histories():
    """Four histories: one entry shared by all at stage 0, and at stages 1
    and 2 two entries each, every entry object shared by two histories, so
    no single stage tells the four histories apart."""
    e0 = TraceEntry(0, "-", X_UP)
    up, down = TraceEntry(1, "y+", Y_UP), TraceEntry(1, "y-", Y_DOWN)
    plus, minus = TraceEntry(2, "x+", X_UP), TraceEntry(2, "x-", X_DOWN)
    quarter = Fraction(1, 4)
    return tuple(
        History(quarter, (e0, a, b)) for a, b in ((up, plus), (down, plus), (up, minus), (down, minus))
    )


class TestOneWalkPerEntryTuple:
    def test_seeded_run_output_matches_plain_loop(self):
        tests = _quantum_tests()
        for trial in range(30):
            rng = substream("walks/quantum", trial)
            stages = THREE_MEASUREMENTS if trial % 3 == 0 else _random_quantum_process(rng)
            histories = run(stages)
            atoms = [Atom(t, k) for t in tests for k in range(len(stages))]
            for _ in range(6):
                left = _random_formula(rng, atoms, 3)
                right = _random_formula(rng, atoms, 3)
                _assert_queries_match_plain_loop(left, right, histories)

    def test_demo_run_output_matches_plain_loop(self, spin, hatch):
        for name, (_, named, histories) in (("spin", spin), ("hatch", hatch)):
            atoms = list(named.values())
            for trial in range(30):
                rng = substream(f"walks/{name}", trial)
                left = _random_formula(rng, atoms, 3)
                right = _random_formula(rng, atoms, 3)
                _assert_queries_match_plain_loop(left, right, histories)

    def test_shared_entry_at_one_stage_differing_at_another(self):
        histories = _crossed_histories()
        y_up = Atom(InSubspace(span([Y_UP], 2)), 1)
        x_up = Atom(InSubspace(span([X_UP], 2)), 2)
        # true only in the first history, which shares an entry with two others
        assert prob_of(y_up & x_up, histories) == Fraction(1, 4)
        assert prob_of(y_up | x_up, histories) == Fraction(3, 4)
        # false only in the third history: it shares each of its entries with another
        assert holds_surely(~y_up | x_up, histories[:2])
        assert not holds_surely(~y_up | x_up, histories)
        verdict = check_distributivity(y_up & x_up, x_up & y_up, histories)
        assert verdict.per_history == ((True, True),) + ((False, False),) * 3
        tests = _quantum_tests()
        atoms = [Atom(t, k) for t in tests for k in range(3)]
        for trial in range(40):
            rng = substream("walks/crossed", trial)
            left = _random_formula(rng, atoms, 3)
            right = _random_formula(rng, atoms, 3)
            _assert_queries_match_plain_loop(left, right, histories)

    def test_formula_is_walked_once_per_distinct_entry_tuple(self, monkeypatch):
        walks = []

        def counting(node, leaf):
            walks.append(node)
            return original(node, leaf)

        original = process.truth
        monkeypatch.setattr(process, "truth", counting)
        x_up = InSubspace(span([X_UP], 2))
        y_up = InSubspace(span([Y_UP], 2))
        run_output = run(THREE_MEASUREMENTS)
        for histories in (run_output, _crossed_histories()):
            for stages in ((0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)):
                formula = Atom(x_up, stages[0])
                for k in stages[1:]:
                    formula = formula | ~Atom(y_up, k)
                distinct = {tuple(id(h.trace[k]) for k in stages) for h in histories}
                walks.clear()
                prob_of(formula, histories)
                assert len(walks) == len(distinct)
                walks.clear()
                check_distributivity(formula, ~formula, histories)
                assert len(walks) == 2 * len(distinct)
        # six histories of the run share one entry at stage 0
        walks.clear()
        assert holds_surely(Atom(x_up, 0), run_output)
        assert len(walks) == 1
        # a formula with no atoms is walked once
        walks.clear()
        assert prob_of(ALWAYS, run_output) == 1
        assert len(walks) == 1

    def test_holds_surely_stops_at_the_first_false_history(self):
        first, second, *rest = _crossed_histories()
        y_up = Atom(InSubspace(span([Y_UP], 2)), 1)
        taken = []
        # too short for stage 1: walking it would raise
        broken = History(HALF, (first.trace[0],))

        def feed():
            for h in (first, second, broken, *rest):
                taken.append(h)
                yield h

        assert not holds_surely(y_up, feed())
        assert taken == [first, second]

    def test_out_of_range_stage_raises_from_every_query(self):
        histories = _crossed_histories()
        x_up = InSubspace(span([X_UP], 2))
        for stage in (3, 7, -1):
            formula = Atom(x_up, 0) & Atom(x_up, stage)
            for query in (prob_of, holds_surely):
                with pytest.raises(ValueError, match="out of range"):
                    query(formula, histories)
            with pytest.raises(ValueError, match="out of range"):
                check_distributivity(formula, Atom(x_up, 0), histories)

    def test_short_history_is_walked_on_its_own(self):
        histories = _crossed_histories()
        # the y- entry at stage 1 and no stage 2
        short = History(HALF, histories[1].trace[:2])
        y_up = Atom(InSubspace(span([Y_UP], 2)), 1)
        x_up = Atom(InSubspace(span([X_UP], 2)), 2)
        # the stage-2 atom is never reached in the short history, so it answers
        formula = ~y_up | x_up
        assert prob_of(formula, (short, histories[1])) == Fraction(3, 4)
        assert prob_of(formula, (histories[2], short)) == HALF
        with pytest.raises(ValueError, match="out of range"):
            prob_of(~y_up & x_up, (histories[1], short))


# ---------------------------------------------------------------------------
# One-pass inputs.  The queries read an iterator once: the keys' columns and
# the walk share it, a history too short for a stage is walked on its own and
# the columns restart after it, and holds_surely reads nothing after the first
# false history.  Every answer, or error, must be the one the same histories
# give as a tuple and the one a plain evaluation of each history gives.
# ---------------------------------------------------------------------------


def _answer(query, *args):
    """A query's answer, or the type and message of the error it raises."""
    try:
        return query(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _assert_one_pass_answers(left, right, histories):
    """Each query answers, or fails, on an iterator as on the tuple and as plain evaluation
    of each history in order does, left side first."""

    def mass():
        return sum((h.probability for h in histories if _plain_truth(left, h)), Fraction(0))

    def pairs():
        lvals = tuple(_plain_truth(left, h) for h in histories)
        return tuple(zip(lvals, (_plain_truth(right, h) for h in histories)))

    want = _answer(mass)
    surely = _answer(lambda: all(_plain_truth(left, h) for h in histories))
    verdicts = []
    for read in (tuple, iter):
        got = _answer(prob_of, left, read(histories))
        assert got == want and type(got) is type(want)
        assert _answer(holds_surely, left, read(histories)) == surely
        verdicts.append(_answer(check_distributivity, left, right, read(histories)))
    assert verdicts[0] == verdicts[1]
    assert getattr(verdicts[0], "per_history", verdicts[0]) == _answer(pairs)


def _with_short_history(histories, at, *cuts):
    """``histories`` with one more per cut, the second history's first ``cut`` entries, put
    in order at index ``at``."""
    short = tuple(History(HALF, histories[1].trace[:cut]) for cut in cuts)
    return histories[:at] + short + histories[at:]


def _one_pass_cases():
    """Run output and the crossed histories, each with a history too short for stage 1, one
    too short for stage 2, and both in a row, at the start, in the middle and at the end."""
    for full in (run(THREE_MEASUREMENTS), _crossed_histories()):
        for at in (0, len(full) // 2, len(full)):
            for cuts in ((1,), (2,), (1, 2)):
                yield full, _with_short_history(full, at, *cuts)


def _formulas_over_0_1_and_3_stages():
    """The first four never read a stage a short history lacks; the rest may."""
    x_up = InSubspace(span([X_UP], 2))
    y_up = InSubspace(span([Y_UP], 2))
    return (
        ALWAYS,
        Atom(x_up, 0),
        NEVER & Atom(x_up, 2),
        Atom(x_up, 0) | ~Atom(y_up, 1) | Atom(x_up, 2),
        Atom(y_up, 1),
        Atom(x_up, 2),
        ~Atom(y_up, 1) | (Atom(x_up, 2) & Atom(x_up, 0)),
    )


def _expected_walks(histories, stages):
    """One walk per distinct entry tuple among the histories long enough, one per other."""
    whole = [h for h in histories if all(k < len(h.trace) for k in stages)]
    keys = {tuple(id(h.trace[k]) for k in stages) for h in whole}
    return len(keys) + len(histories) - len(whole)


class TestOnePassInputs:
    def test_formulas_over_0_1_and_3_stages_answer_as_on_a_tuple(self):
        formulas = _formulas_over_0_1_and_3_stages()
        for _, histories in _one_pass_cases():
            for left in formulas:
                for right in formulas:
                    _assert_one_pass_answers(left, right, histories)

    def test_random_formulas_answer_as_on_a_tuple(self):
        tests = _quantum_tests()
        for n, (full, histories) in enumerate(_one_pass_cases()):
            atoms = [Atom(t, k) for t in tests for k in range(len(full[0].trace))]
            for trial in range(12):
                rng = substream(f"one-pass/{n}", trial)
                left = _random_formula(rng, atoms, 3)
                right = _random_formula(rng, atoms, 3)
                _assert_one_pass_answers(left, right, histories)

    def test_walks_per_distinct_entry_tuple_on_both_sides_of_a_short_history(
        self, monkeypatch
    ):
        walks = []

        def counting(node, leaf):
            walks.append(node)
            return original(node, leaf)

        original = process.truth
        monkeypatch.setattr(process, "truth", counting)
        for _, histories in _one_pass_cases():
            for formula in _formulas_over_0_1_and_3_stages()[:4]:
                expected = _expected_walks(histories, process.formula_stages(formula))
                for given in (histories, iter(histories)):
                    walks.clear()
                    prob_of(formula, given)
                    assert len(walks) == expected
                walks.clear()
                check_distributivity(formula, ~formula, iter(histories))
                assert len(walks) == 2 * expected
        # a short history with all of a formula's stages shares their keys, not a walk; it
        # copies the y+ history's first two entries, so y+ holds in it and its 1/2 is counted
        full = run(THREE_MEASUREMENTS)
        walks.clear()
        assert prob_of(Atom(InSubspace(span([Y_UP], 2)), 1), _with_short_history(full, 3, 2)) == 1
        assert len(walks) == _expected_walks(full, {1})

    def test_an_index_error_of_the_input_itself_passes_through(self):
        histories = run(THREE_MEASUREMENTS)

        def feed():
            yield from histories[:2]
            raise IndexError("the input's own")

        formula = Atom(InSubspace(span([X_UP], 2)), 0)
        for query in (prob_of, holds_surely):
            with pytest.raises(IndexError, match="the input's own"):
                query(formula, feed())
        with pytest.raises(IndexError, match="the input's own"):
            check_distributivity(formula, formula, feed())

    @pytest.mark.parametrize("index", range(7))
    def test_a_generator_of_run_output_is_read_up_to_the_first_false_history(self, index):
        formula = _formulas_over_0_1_and_3_stages()[index]
        histories = run(THREE_MEASUREMENTS)
        values = [_plain_truth(formula, h) for h in histories]
        taken = []

        def feed():
            for h in histories:
                taken.append(h)
                yield h

        assert holds_surely(formula, feed()) == all(values)
        read = values.index(False) + 1 if False in values else len(histories)
        assert taken == list(histories[:read])
