import operator

import pytest

from ortholab import (
    Matrix,
    Subspace,
    check_orthomodular,
    distributes,
    find_nondistributive_witness,
    join,
    leq,
    meet,
    ortho,
    span,
    vec,
)
from ortholab.lattice import (
    GAUSSIAN_RATIONAL,
    RATIONAL_REAL,
    random_subspace,
    subspace_from_json,
    subspace_to_json,
    substream,
)

from lattice_laws import run_law_suite


X_AXIS = span([vec(1, 0)], 2)
Y_AXIS = span([vec(0, 1)], 2)
DIAGONAL = span([vec(1, 1)], 2)
FULL2 = Subspace.full(2)
ZERO2 = Subspace.zero(2)


class TestConstructor:
    def test_basis_is_canonicalised(self):
        s = Subspace(2, Matrix([[2, 2]]))
        assert s == DIAGONAL and hash(s) == hash(DIAGONAL)
        assert s.basis == DIAGONAL.basis
        assert Subspace(2, Matrix([["1/2", "i"]])) == span([vec(1, "2i")], 2)

    def test_any_spanning_rows(self):
        assert Subspace(2, Matrix([[1, 1], [2, 2]])) == DIAGONAL
        assert Subspace(2, Matrix([[1, 0], [0, 1], [1, 1]])) == FULL2
        assert Subspace(3, Matrix([[0, 0, 0]])) == Subspace.zero(3)
        assert Subspace(2, Matrix((), ncols=2)) == ZERO2

    def test_zero_and_full(self):
        for n in range(1, 5):
            rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            assert Subspace.full(n) == span([vec(*row) for row in rows], n)
            assert Subspace.full(n).is_full() and Subspace.full(n).dim == n
            assert Subspace.zero(n) == span([], n) and Subspace.zero(n).is_zero()

    def test_width_must_match(self):
        with pytest.raises(ValueError, match="basis width"):
            Subspace(3, Matrix([[1, 0]]))

    def test_a_right_form_hashes_as_its_left_form_twin(self):
        right = ortho(span([vec(1, 1, 0)], 3))
        assert right._right
        first = hash(right)
        assert hash(right) == first
        assert first == hash(Subspace(3, right.basis))

    @pytest.mark.parametrize("space_dim", [0, -1, -3])
    def test_space_dim_below_one_rejected(self, space_dim):
        builds = (
            lambda n: span([], n),
            lambda n: Subspace(n, Matrix((), ncols=1)),
            Subspace.zero,
            Subspace.full,
        )
        for build in builds:
            with pytest.raises(ValueError, match=r"^space_dim must be >= 1$"):
                build(space_dim)


class TestSpan:
    def test_scaling_invariance(self):
        assert span([vec(2, 2)], 2) == DIAGONAL

    def test_two_independent_vectors_span_everything(self):
        assert span([vec(1, 0), vec(0, 1)], 2) == FULL2

    def test_empty_input_spans_zero(self):
        assert span([], 2) == ZERO2

    def test_representation_independence(self):
        a = span([vec(1, 0), vec(1, 1)], 2)
        b = span([vec(3, 1), vec(0, 2), vec(1, 1)], 2)
        assert a == b == FULL2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            span([vec(1, 0, 0)], 2)


class TestMeetJoinOrtho:
    def test_meet_of_axes_is_zero(self):
        assert meet(X_AXIS, Y_AXIS) == ZERO2

    def test_meet_with_full_space_is_identity(self):
        assert meet(DIAGONAL, FULL2) == DIAGONAL
        assert meet(X_AXIS, FULL2) == X_AXIS

    def test_join_of_axes_is_full(self):
        assert join(X_AXIS, Y_AXIS) == FULL2

    def test_join_with_zero_is_identity(self):
        assert join(DIAGONAL, ZERO2) == DIAGONAL

    def test_join_of_conjugate_rays_is_full(self):
        assert join(span([vec(1, "i")], 2), span([vec(1, "-i")], 2)) == FULL2

    def test_ortho_of_complex_ray(self):
        assert ortho(span([vec(1, "i")], 2)) == span([vec(1, "-i")], 2)

    def test_ortho_of_zero_is_full(self):
        assert ortho(ZERO2) == FULL2
        assert ortho(FULL2) == ZERO2

    def test_ortho_is_an_involution(self):
        assert ortho(ortho(DIAGONAL)) == DIAGONAL

    def test_results_independent_of_spanning_set(self):
        s1 = span([vec(1, 1, 0), vec(0, 0, 1)], 3)
        s2 = span([vec(2, 2, 2), vec(0, 0, 5), vec(1, 1, 3)], 3)
        assert s1 == s2
        other = span([vec(1, 0, 0)], 3)
        assert meet(s1, other) == meet(s2, other)
        assert join(s1, other) == join(s2, other)
        assert ortho(s1) == ortho(s2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            meet(X_AXIS, Subspace.zero(3))

    @pytest.mark.parametrize("op", [operator.and_, operator.or_, operator.le], ids=["&", "|", "<="])
    @pytest.mark.parametrize("other", [3, None, vec(1, 0)], ids=["int", "None", "Vector"])
    def test_an_operator_with_a_non_subspace_raises_type_error(self, op, other):
        with pytest.raises(TypeError):
            op(X_AXIS, other)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: meet(X_AXIS, Subspace.zero(3)),
            lambda: check_orthomodular(X_AXIS, Subspace.zero(3)),
        ],
        ids=["meet", "check_orthomodular"],
    )
    def test_a_mismatch_names_both_dimensions_in_operand_order(self, call):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "space dimension mismatch: 2 vs 3"

    def test_distributes_names_the_first_operand_against_the_mismatched_one(self):
        # p and r share dimension 2 and q has 3, so the join q v r alone would read "3 vs 2"
        with pytest.raises(ValueError) as info:
            distributes(X_AXIS, Subspace.zero(3), Y_AXIS)
        assert str(info.value) == "space dimension mismatch: 2 vs 3"
        with pytest.raises(ValueError) as info:
            distributes(X_AXIS, Y_AXIS, Subspace.full(3))
        assert str(info.value) == "space dimension mismatch: 2 vs 3"


class TestLeq:
    def test_zero_is_bottom(self):
        assert leq(ZERO2, X_AXIS)
        assert leq(ZERO2, ZERO2)

    def test_full_is_top(self):
        assert leq(DIAGONAL, FULL2)

    def test_disjoint_lines_incomparable(self):
        assert not leq(X_AXIS, Y_AXIS)
        assert not leq(Y_AXIS, X_AXIS)

    def test_operator_sugar(self):
        assert X_AXIS <= FULL2
        assert (X_AXIS | Y_AXIS) == FULL2
        assert (X_AXIS & Y_AXIS) == ZERO2
        assert ~ZERO2 == FULL2


class TestOrthomodular:
    def test_line_inside_full_space(self):
        assert check_orthomodular(X_AXIS, FULL2)

    def test_reflexive_case(self):
        assert check_orthomodular(DIAGONAL, DIAGONAL)

    def test_random_pairs_never_violate(self):
        for trial in range(200):
            rng = substream("om", trial)
            dim = 2 + trial % 3
            s = random_subspace(rng, dim)
            t = random_subspace(rng, dim)
            assert check_orthomodular(s, t)
            # force comparability so the law's premise actually fires
            below = meet(s, t)
            assert check_orthomodular(below, t)


class TestDistributivity:
    def test_the_two_state_triple_fails(self):
        assert not distributes(DIAGONAL, X_AXIS, Y_AXIS)

    def test_chains_distribute(self):
        assert distributes(ZERO2, X_AXIS, FULL2)
        assert distributes(X_AXIS, FULL2, X_AXIS)

    def test_equal_arguments_distribute(self):
        assert distributes(DIAGONAL, DIAGONAL, DIAGONAL)


class TestWitnessSearch:
    def test_dim2_finds_a_verified_witness(self):
        witness = find_nondistributive_witness(2, trials=1000, seed=42)
        assert witness is not None
        assert not distributes(*witness)

    def test_dim3_finds_a_verified_witness(self):
        witness = find_nondistributive_witness(3, trials=1000, seed=7)
        assert witness is not None
        assert not distributes(*witness)

    def test_deterministic_given_seed(self):
        a = find_nondistributive_witness(2, trials=50, seed=123)
        b = find_nondistributive_witness(2, trials=50, seed=123)
        assert a == b

    def test_dim1_is_an_error(self):
        with pytest.raises(ValueError, match="distributive"):
            find_nondistributive_witness(1)

    def test_zero_trials_is_an_error(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            find_nondistributive_witness(2, trials=0)

    def test_no_witness_found_is_none(self):
        # the one triple this seed draws in dimension 3 distributes
        assert find_nondistributive_witness(3, trials=1, seed=13) is None

    def test_rational_real_field_also_fails_distributivity(self):
        witness = find_nondistributive_witness(2, trials=1000, seed=5, field=RATIONAL_REAL)
        assert witness is not None
        basis_entries = [e for s in witness for row in s.basis.rows for e in row]
        assert all(e.im == 0 for e in basis_entries)
        assert not distributes(*witness)


class TestLawSuite:
    def test_sampled_ortholattice_laws_hold(self):
        # small pass for day-to-day runs; the acceptance suite samples >= 10^4
        samples, violations = run_law_suite(pairs_per_dim=60, triples_per_dim=40, seed=0)
        assert samples == 300
        assert violations == []


class TestRandomSubspace:
    def test_proper_dimension_and_field(self):
        for trial in range(40):
            rng = substream("sample", trial)
            s = random_subspace(rng, 4, GAUSSIAN_RATIONAL)
            assert 1 <= s.dim <= 3
            r = random_subspace(rng, 3, RATIONAL_REAL)
            assert all(e.im == 0 for row in r.basis.rows for e in row)

    def test_dim1_rejected(self):
        with pytest.raises(ValueError):
            random_subspace(substream(0, 0), 1)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scalar field 'octonion'"):
            random_subspace(substream(0, 0), 2, "octonion")


class TestJson:
    def test_roundtrip(self):
        s = span([vec(1, "i", 0), vec(0, 0, "1/2")], 3)
        assert subspace_from_json(subspace_to_json(s)) == s

    def test_noncanonical_input_is_canonicalized(self):
        data = {"space_dim": 2, "basis": [["2", "2"], ["1", "1"]]}
        assert subspace_from_json(data) == DIAGONAL

    def test_zero_subspace_roundtrip(self):
        assert subspace_from_json(subspace_to_json(ZERO2)) == ZERO2
