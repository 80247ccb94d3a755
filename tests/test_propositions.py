from fractions import Fraction

import pytest

from ortholab import Matrix, Scalar, inner, join, outer, span, vec
from ortholab.lattice import random_subspace, substream
from ortholab.linalg import Rational
from ortholab.propositions import (
    FALSE,
    TRUE,
    And,
    EqualsVector,
    ExpectationIn,
    InSubspace,
    Interval,
    Not,
    Or,
    evaluate,
    expectation,
    is_subspace_closed,
    proposition_from_json,
    proposition_to_json,
    spin_bound_witness,
)
from ortholab.spin import SPIN_X, SPIN_Y, SPIN_Z, Y_DOWN, Y_UP

HALF = Fraction(1, 2)

X_AXIS = span([vec(1, 0)], 2)
Y_AXIS = span([vec(0, 1)], 2)
Y_UP_RAY = span([Y_UP], 2)
Y_DOWN_RAY = span([Y_DOWN], 2)

# the y-spin value propositions, as expectation-value statements
Y_SPIN_IS_UP = ExpectationIn(SPIN_Y, (Interval.point(HALF),))
Y_SPIN_IS_DOWN = ExpectationIn(SPIN_Y, (Interval.point(-HALF),))


class TestExpectation:
    def test_prepared_state_has_zero_y_expectation(self):
        assert expectation(SPIN_Y, vec(1, 1)) == 0

    def test_y_eigenstates_saturate_the_bound(self):
        assert expectation(SPIN_Y, Y_UP) == HALF
        assert expectation(SPIN_Y, Y_DOWN) == -HALF

    def test_z_eigenstate(self):
        assert expectation(SPIN_Z, vec(1, 0)) == HALF

    def test_scale_invariance(self):
        assert expectation(SPIN_Y, vec(3, "3i")) == HALF
        assert expectation(SPIN_Y, vec("i", "-1")) == HALF  # same ray, global phase i

    def test_linear_in_the_observable(self):
        for trial in range(40):
            rng = substream("explin", trial)
            psi = vec(rng.randint(-3, 3), rng.randint(-3, 3))
            if psi.is_zero():
                continue
            total = expectation(SPIN_Y + SPIN_Z, psi)
            assert total == expectation(SPIN_Y, psi) + expectation(SPIN_Z, psi)

    def test_errors(self):
        with pytest.raises(ValueError):
            expectation(SPIN_Y, vec(0, 0))
        with pytest.raises(ValueError):
            expectation(Matrix([[0, 1], [0, 0]]), vec(1, 0))
        with pytest.raises(ValueError):
            expectation(SPIN_Y, vec(1, 0, 0))

    def test_non_hermitian_rejected_even_with_a_real_value(self):
        # <e0, A e0> = 1 is real here, so only the hermitian check can refuse it
        with pytest.raises(ValueError, match="hermitian"):
            expectation(Matrix([[1, 1], [0, 1]]), vec(1, 0))

    def test_density_matrix_trace_form(self):
        # trace(rho S_y) with rho the normalized projector onto (1, 1)
        psi = vec(1, 1)
        rho = outer(psi, psi).scale(Scalar(1) / inner(psi, psi))
        assert (rho @ SPIN_Y).trace() == Scalar(0)
        # pure y-up projector gives 1/2; an equal mixture of up and down gives 0
        up = outer(Y_UP, Y_UP).scale(Scalar(1) / inner(Y_UP, Y_UP))
        down = outer(Y_DOWN, Y_DOWN).scale(Scalar(1) / inner(Y_DOWN, Y_DOWN))
        assert (up @ SPIN_Y).trace() == Scalar(Fraction(1, 2))
        mixture = up.scale("1/2") + down.scale("1/2")
        assert (mixture @ SPIN_Y).trace() == Scalar(0)


class TestInterval:
    def test_membership(self):
        window = Interval(0, HALF, lo_closed=True, hi_closed=False)
        assert window.contains(Fraction(0))
        assert window.contains(Fraction(1, 4))
        assert not window.contains(HALF)

    def test_unbounded(self):
        at_most_zero = Interval(None, 0)
        assert at_most_zero.contains(Fraction(-100))
        assert not at_most_zero.contains(Fraction(1, 10))

    def test_point_interval(self):
        assert Interval.point(HALF).contains(HALF)

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            Interval(1, 0)

    def test_json_roundtrip(self):
        for window in (Interval(0, HALF, True, False), Interval(None, 3), Interval.point(-1)):
            assert Interval.from_json(window.to_json()) == window


class TestEvaluate:
    def test_membership_is_ray_membership(self):
        assert evaluate(InSubspace(span([vec(1, "i")], 2)), vec(2, "2i"))

    def test_expectation_predicate(self):
        assert evaluate(ExpectationIn(SPIN_Z, (Interval.point(0),)), vec(1, 1))

    def test_y_value_disjunction_fails_on_prepared_state(self):
        assert not evaluate(Y_SPIN_IS_UP | Y_SPIN_IS_DOWN, vec(1, 1))
        # and the disjunction is equivalent to ray membership, state by state
        for trial in range(60):
            rng = substream("primed", trial)
            psi = vec(
                Scalar(rng.randint(-2, 2), rng.randint(-2, 2)),
                Scalar(rng.randint(-2, 2), rng.randint(-2, 2)),
            )
            if psi.is_zero():
                continue
            primed = evaluate(Y_SPIN_IS_UP | Y_SPIN_IS_DOWN, psi)
            unprimed = evaluate(InSubspace(Y_UP_RAY) | InSubspace(Y_DOWN_RAY), psi)
            assert primed == unprimed

    def test_equals_vector_is_exact(self):
        prop = EqualsVector(vec(1, 1))
        assert evaluate(prop, vec(1, 1))
        assert not evaluate(prop, vec(2, 2))  # same ray, different vector
        assert not evaluate(prop, vec("i", "i"))  # phase matters for equality

    def test_constants_and_connectives(self):
        psi = vec(1, 0)
        assert evaluate(TRUE, psi)
        assert not evaluate(FALSE, psi)
        assert evaluate(~FALSE & TRUE, psi)
        assert evaluate(Not(InSubspace(Y_AXIS)), psi)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            evaluate(TRUE, vec(0, 0))

    def test_boolean_laws_hold_extensionally(self):
        atoms = (
            InSubspace(X_AXIS),
            InSubspace(Y_UP_RAY),
            ExpectationIn(SPIN_Z, (Interval(0, None),)),
            ExpectationIn(SPIN_X, (Interval(None, 0, hi_closed=False),)),
        )
        for trial in range(120):
            rng = substream("boolean", trial)
            a, b, c = (atoms[rng.randrange(len(atoms))] for _ in range(3))
            psi = vec(
                Scalar(rng.randint(-2, 2), rng.randint(-2, 2)),
                Scalar(rng.randint(-2, 2), rng.randint(-2, 2)),
            )
            if psi.is_zero():
                continue
            val = lambda p: evaluate(p, psi)
            assert val(Not(a | b)) == val(Not(a) & Not(b))
            assert val(Not(a & b)) == val(Not(a) | Not(b))
            assert val(a & (b | c)) == val((a & b) | (a & c))
            assert val(Not(Not(a))) == val(a)


class TestSubspaceMembershipVsUnion:
    def test_every_subspace_is_a_proposition(self):
        for trial in range(30):
            rng = substream("prop1", trial)
            s = random_subspace(rng, 3)
            psi = vec(rng.randint(-2, 2), rng.randint(-2, 2), 1)
            assert evaluate(InSubspace(s), psi) in (True, False)

    def test_disjunction_is_not_the_join(self):
        union = InSubspace(X_AXIS) | InSubspace(Y_AXIS)
        joined = InSubspace(join(X_AXIS, Y_AXIS))
        probe = vec(1, 1)
        assert not evaluate(union, probe)
        assert evaluate(joined, probe)


class TestClosureFalsifier:
    def test_zero_z_expectation_set_is_not_closed(self):
        prop = ExpectationIn(SPIN_Z, (Interval.point(0),))
        x_up, x_down = vec(1, 1), vec(1, -1)
        # both probes satisfy the predicate, their sum is the z-up ray
        assert evaluate(prop, x_up) and evaluate(prop, x_down)
        assert expectation(SPIN_Z, x_up + x_down) == HALF
        assert is_subspace_closed(prop, [x_up, x_down]) is False

    def test_subspace_membership_is_closed(self):
        prop = InSubspace(span([vec(1, "i")], 2))
        assert is_subspace_closed(prop, [vec(1, "i"), vec(2, "2i")]) is True

    def test_union_of_axes_is_not_closed(self):
        prop = InSubspace(X_AXIS) | InSubspace(Y_AXIS)
        assert is_subspace_closed(prop, [vec(1, 0), vec(0, 1)]) is False

    def test_metric_ball_membership_is_expressible(self):
        # distance-squared predicate |psi - phi|^2 < eps^2, computed exactly
        phi = vec(1, 0)
        close, far = vec(1, "1/3"), vec(0, 1)
        def dist2(a, b):
            d = a - b
            return inner(d, d).re
        eps2 = Rational(1, 4)
        assert dist2(close, phi) < eps2
        assert not dist2(far, phi) < eps2


class TestSpinBound:
    def test_saturating_states(self):
        assert spin_bound_witness(Y_UP) == HALF
        assert spin_bound_witness(Y_DOWN) == -HALF
        assert spin_bound_witness(vec(1, 0)) == 0

    def test_bound_with_equality_only_on_eigenrays(self):
        for trial in range(400):
            rng = substream("bound", trial)
            psi = vec(
                Scalar(rng.randint(-3, 3), rng.randint(-3, 3)),
                Scalar(rng.randint(-3, 3), rng.randint(-3, 3)),
            )
            if psi.is_zero():
                continue
            value = spin_bound_witness(psi)
            assert -HALF <= value <= HALF
            if value == HALF:
                assert span([psi], 2) == Y_UP_RAY
            if value == -HALF:
                assert span([psi], 2) == Y_DOWN_RAY

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            spin_bound_witness(vec(1, 0, 0))


class TestValidation:
    def test_expectation_predicate_requires_hermitian(self):
        with pytest.raises(ValueError):
            ExpectationIn(Matrix([[0, 1], [0, 0]]), (Interval.point(0),))


class TestJson:
    def test_roundtrip(self):
        prop = Or(
            (
                And((InSubspace(X_AXIS), Not(EqualsVector(vec(1, 0))))),
                ExpectationIn(SPIN_Y, (Interval(0, HALF, True, False), Interval(None, -1))),
                TRUE,
            )
        )
        assert proposition_from_json(proposition_to_json(prop)) == prop

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            proposition_from_json({"type": "xor"})

    def test_a_non_node_is_a_type_error(self):
        with pytest.raises(TypeError, match="not a proposition node: 'x'"):
            proposition_to_json("x")
