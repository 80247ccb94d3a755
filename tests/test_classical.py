from fractions import Fraction

import pytest

from ortholab import Subspace, span, vec
from ortholab.classical import (
    ClassicalState,
    MultiplicativeObservable,
    PhaseSpace,
    classical_expectation,
    classical_state_from_json,
    classical_state_to_json,
    density,
    two_state_demo,
)
from ortholab.lattice import GAUSSIAN_RATIONAL, RATIONAL_REAL, substream
from ortholab.linalg import Rational

TWO_POINTS = PhaseSpace(("1", "2"))


def state(*amps):
    return ClassicalState(TWO_POINTS, vec(*amps))


class TestDensity:
    def test_balanced(self):
        assert density(state(1, 1)) == (Fraction(1, 2), Fraction(1, 2))

    def test_certain(self):
        assert density(state(1, 0)) == (1, 0)

    def test_weighted(self):
        assert density(state(1, 2)) == (Fraction(1, 5), Fraction(4, 5))

    def test_signs_do_not_matter(self):
        assert density(state(1, -1)) == density(state(1, 1))

    def test_nonnegative_and_normalized_on_random_states(self):
        for trial in range(80):
            rng = substream("density", trial)
            amps = [Rational(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(3)]
            if not any(amps):
                continue
            rho = density(ClassicalState(PhaseSpace(("a", "b", "c")), vec(*amps)))
            assert all(p >= 0 for p in rho)
            assert sum(rho) == 1

    def test_complex_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="real"):
            state(1, "i")

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            state(0, 0)


class TestClassicalExpectation:
    def test_balanced_antisymmetric_observable(self):
        f = MultiplicativeObservable(TWO_POINTS, (1, -1))
        assert classical_expectation(f, state(1, 1)) == 0

    def test_weighted(self):
        f = MultiplicativeObservable(TWO_POINTS, (3, -2))
        assert classical_expectation(f, state(1, 2)) == -1

    def test_constant_observable(self):
        f = MultiplicativeObservable(TWO_POINTS, (7, 7))
        for amps in ((1, 1), (1, 2), (3, -1)):
            assert classical_expectation(f, state(*amps)) == 7

    def test_two_routes_agree_on_random_inputs(self):
        # classical_expectation itself cross-checks the density sum against
        # the operator expectation; here we just drive it over random data
        for trial in range(60):
            rng = substream("cexp", trial)
            amps = [Rational(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(4)]
            if not any(amps):
                continue
            space = PhaseSpace(("a", "b", "c", "d"))
            f = MultiplicativeObservable(
                space, tuple(Rational(rng.randint(-5, 5), rng.choice((1, 3))) for _ in range(4))
            )
            value = classical_expectation(f, ClassicalState(space, vec(*amps)))
            assert min(f.values) <= value <= max(f.values)

    def test_convexity_bound(self):
        f = MultiplicativeObservable(TWO_POINTS, (-2, 5))
        for amps in ((1, 1), (2, 1), (1, 3), (-1, 2)):
            value = classical_expectation(f, state(*amps))
            assert -2 <= value <= 5

    def test_phase_space_mismatch(self):
        f = MultiplicativeObservable(PhaseSpace(("a", "b", "c")), (1, 2, 3))
        with pytest.raises(ValueError):
            classical_expectation(f, state(1, 1))


class TestTwoStateDemo:
    def test_left_side_is_the_balanced_line(self):
        v = two_state_demo()
        assert v.left == v.balanced == span([vec(1, 1)], 2)

    def test_right_side_is_zero(self):
        v = two_state_demo()
        assert v.right == Subspace.zero(2)

    def test_not_distributive(self):
        v = two_state_demo()
        assert not v.is_distributive
        assert v.pairwise_meets_zero
        assert v.whole == Subspace.full(2)

    def test_verdict_is_field_insensitive(self):
        real = two_state_demo(RATIONAL_REAL)
        complex_ = two_state_demo(GAUSSIAN_RATIONAL)
        assert (real.left, real.right, real.is_distributive) == (
            complex_.left,
            complex_.right,
            complex_.is_distributive,
        )
        # complex amplitudes span the same canonical lines
        assert complex_.balanced == real.balanced

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            two_state_demo("octonion")


class TestValidation:
    def test_phase_space_needs_distinct_points(self):
        with pytest.raises(ValueError):
            PhaseSpace(("a", "a"))

    def test_phase_space_needs_a_point(self):
        with pytest.raises(ValueError, match="phase space needs at least one point"):
            PhaseSpace(())

    def test_observable_needs_one_value_per_point(self):
        with pytest.raises(ValueError):
            MultiplicativeObservable(TWO_POINTS, (1,))

    def test_observable_refuses_float_values(self):
        with pytest.raises(TypeError, match="observable values must be exact rationals"):
            MultiplicativeObservable(TWO_POINTS, (0.1, 1))


class TestJson:
    def test_roundtrip(self):
        s = state(1, "3/2")
        data = classical_state_to_json(s)
        assert data == {"points": ["1", "2"], "amplitude": ["1", "3/2"]}
        assert classical_state_from_json(data) == s
