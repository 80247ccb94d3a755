import copy
import pickle
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from ortholab import linalg
from ortholab.linalg import (
    Matrix,
    Rational,
    Scalar,
    ScalarParseError,
    Vector,
    format_scalar,
    inner,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    outer,
    parse_scalar,
    rank,
    rref,
    vec,
    vector_from_json,
    vector_to_json,
)
from ortholab.lattice import substream
from ortholab.spin import SPIN_Y


rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
scalars = st.builds(Scalar, rationals, rationals)


class TestScalarParsing:
    @pytest.mark.parametrize(
        "text,re_,im",
        [
            ("1/2", Fraction(1, 2), 0),
            ("-i", 0, -1),
            ("3/4-1/3i", Fraction(3, 4), Fraction(-1, 3)),
            ("0", 0, 0),
            ("-7", -7, 0),
            ("i", 0, 1),
            ("+i", 0, 1),
            ("2i", 0, 2),
            ("1+i", 1, 1),
            ("-1/2-i", Fraction(-1, 2), -1),
            (" 5/3 ", Fraction(5, 3), 0),
        ],
    )
    def test_grammar_cases(self, text, re_, im):
        assert parse_scalar(text) == Scalar(Fraction(re_), Fraction(im))

    @pytest.mark.parametrize("text", ["", "x", "1/", "/2", "1+", "1+2", "i+1", "1 2", "1//2", "--1"])
    def test_malformed(self, text):
        with pytest.raises(ScalarParseError):
            parse_scalar(text)

    @pytest.mark.parametrize("text", ["1e5000", "0.5", "1_0", "\u0663", "1/\u0663"])
    def test_exponents_decimals_underscores_and_non_ascii_digits_rejected(self, text):
        with pytest.raises(ScalarParseError):
            parse_scalar(text)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1" * 5001, id="numerator"),
            pytest.param("1/" + "7" * 5001, id="denominator"),
            pytest.param("1+" + "2" * 5001 + "i", id="imaginary"),
        ],
    )
    def test_overlong_digit_run_is_a_parse_error_in_our_words(self, text):
        with pytest.raises(ScalarParseError, match="5001 digits") as err:
            parse_scalar(text)
        assert "set_int_max_str_digits" not in str(err.value)

    def test_zero_denominator_names_token(self):
        with pytest.raises(ScalarParseError, match="1/0"):
            parse_scalar("1/0")
        with pytest.raises(ScalarParseError, match="2/0"):
            parse_scalar("1+2/0i")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("  1.5", "unexpected '.' at position 4 in '  1.5'"),
            (
                " i+1",
                "unexpected '+' at position 3 in ' i+1': the imaginary term must come last",
            ),
            ("  x", "expected digits at position 3 in '  x', found 'x'"),
            (" 1+ ", "expected digits at position 4 in ' 1+ ', found 'end of text'"),
            ("\t1+2 ", "expected an imaginary term at position 3 in '\\t1+2 '"),
            ("1-2/3", "expected an imaginary term at position 2 in '1-2/3'"),
            ("  1+i2 ", "trailing '2' at position 6 in '  1+i2 '"),
        ],
        ids=[
            "unexpected", "imaginary-first", "digits", "digits-at-end", "imaginary",
            "imaginary-unpadded", "trailing",
        ],
    )
    def test_error_positions_count_in_the_padded_text(self, text, message):
        with pytest.raises(ScalarParseError) as err:
            parse_scalar(text)
        assert str(err.value) == message

    @given(scalars)
    def test_print_parse_roundtrip(self, z):
        assert parse_scalar(format_scalar(z)) == z

    def test_canonical_printing(self):
        assert format_scalar(Scalar(0, 1)) == "i"
        assert format_scalar(Scalar(1, 0)) == "1"
        assert format_scalar(Scalar(Fraction(2, 4), 0)) == "1/2"
        assert format_scalar(Scalar(1, -1)) == "1-i"

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Scalar(0.5)


class TestScalarField:
    @given(scalars, scalars)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(scalars, scalars, scalars)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(scalars)
    def test_inverses(self, a):
        assert a + (-a) == Scalar(0)
        if a:
            assert a / a == Scalar(1)

    @given(scalars, scalars)
    def test_conjugation_is_a_field_automorphism(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert a.conjugate().conjugate() == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Scalar(1) / Scalar(0)

    def test_a_real_scalar_equals_and_hashes_like_its_rational(self):
        for x in (0, 3, -2, Fraction(-1, 2), Fraction(7, 3)):
            z = Scalar(x)
            assert z == x and x == z and hash(z) == hash(x)
        assert {Scalar(3): "three"}[3] == "three"
        assert Scalar(1, 1) != 1 and Scalar(0, 1) != 0 and Scalar(2) != Fraction(1, 2)

    def test_repr(self):
        assert repr(Scalar("1/2", -1)) == "Scalar('1/2-i')"
        assert repr(Scalar(3)) == "Scalar('3')"


class TestVectorSequence:
    def test_length_and_entries(self):
        v = vec(1, "i", "-1/2")
        assert len(v) == 3 and len(vec(0)) == 1
        assert (v[0], v[1], v[-1]) == (Scalar(1), Scalar(0, 1), Scalar("-1/2"))


class TestInner:
    def test_worked_values(self):
        assert inner(vec(1, "i"), vec(1, "-i")) == Scalar(0)
        assert inner(vec(1, 1), vec(1, 1)) == Scalar(2)
        assert inner(vec("i"), vec(1)) == Scalar(0, -1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner(vec(1), vec(1, 0))

    @given(st.lists(scalars, min_size=1, max_size=4), st.data())
    def test_conjugate_symmetry_and_positivity(self, entries, data):
        w_entries = data.draw(st.lists(scalars, min_size=len(entries), max_size=len(entries)))
        v, w = Vector(entries), Vector(w_entries)
        assert inner(v, w) == inner(w, v).conjugate()
        norm = inner(v, v)
        assert norm.im == 0
        assert norm.re >= 0
        assert (norm.re == 0) == v.is_zero()


class TestHash:
    @given(st.lists(scalars, min_size=1, max_size=3), st.data())
    def test_the_hash_is_the_integer_form_hash_on_every_path(self, entries, data):
        n = len(entries)
        v, zero = Vector(entries), Vector([0] * n)
        w = Vector(data.draw(st.lists(scalars, min_size=n, max_size=n)))
        m = Matrix([data.draw(st.lists(scalars, min_size=n, max_size=n)) for _ in range(n)])
        same = [  # v again, by every path that builds a Vector
            vec(*entries),
            v.scale(1),
            v + zero,
            v - zero,
            Matrix.identity(n) @ v,
            Matrix([entries]).row(0),
            Matrix([[e] for e in entries]).column(0),
            vector_from_json(vector_to_json(v)),
        ]
        other = [v.scale(data.draw(scalars)), v + w, v - w, m @ v, m.row(0), m.column(n - 1)]
        assert all(u == v and hash(u) == hash(v) for u in same)
        for u in [v, *same, *other]:
            h = hash(u)  # the arithmetic paths have not built entries yet
            assert h == hash((u.den, u.parts))
            assert u.entries and hash(u) == h
            assert Vector(u.entries) == u and hash(Vector(u.entries)) == h
            for twin in (copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
                assert twin == u and hash(twin) == h == hash((twin.den, twin.parts))


def _random_matrix(rng, nrows, ncols):
    return Matrix(
        [
            [
                Scalar(
                    Rational(rng.randint(-3, 3), rng.choice((1, 2, 3))),
                    Rational(rng.randint(-3, 3), rng.choice((1, 2, 3))),
                )
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
    )


def _random_invertible(rng, n):
    while True:
        p = _random_matrix(rng, n, n)
        if rank(p) == n:
            return p


class TestRref:
    def test_worked_values(self):
        assert rref(Matrix([[2, 2], [1, 1]])) == Matrix([[1, 1], [0, 0]])
        assert rref(Matrix.identity(3)) == Matrix.identity(3)
        assert rref(Matrix([[0, 1], [1, 0]])) == Matrix.identity(2)

    def test_idempotent_and_row_space_invariant(self):
        for trial in range(60):
            rng = substream("rref", trial)
            m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            r = rref(m)
            assert rref(r) == r
            p = _random_invertible(rng, m.nrows)
            assert rref(p @ m) == r


class TestNullspace:
    def test_worked_values(self):
        assert nullspace(Matrix([[1, 1]])) == Matrix([[1, -1]])
        assert nullspace(Matrix.identity(2)).nrows == 0
        assert nullspace(Matrix([[0, 0]])) == Matrix.identity(2)

    def test_rank_nullity_and_kernel_membership(self):
        for trial in range(60):
            rng = substream("nullspace", trial)
            m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            ns = nullspace(m)
            assert rank(m) + ns.nrows == m.ncols
            for i in range(ns.nrows):
                assert (m @ ns.row(i)).is_zero()


class TestHermitianUnitary:
    def test_spin_y_is_hermitian(self):
        assert SPIN_Y.is_hermitian()
        assert not SPIN_Y.is_unitary()

    def test_phase_gate(self):
        gate = Matrix.diagonal(1, "i")
        assert gate.is_unitary()
        assert not gate.is_hermitian()

    def test_nilpotent_is_neither(self):
        m = Matrix([[0, 1], [0, 0]])
        assert not m.is_hermitian()
        assert not m.is_unitary()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 0]]).is_hermitian()
        with pytest.raises(ValueError):
            Matrix([[1, 0]]).is_unitary()


class TestMatrixOps:
    def test_matvec_and_matmul(self):
        rotate = Matrix.diagonal(1, "i")
        assert rotate @ vec(1, "-i") == vec(1, 1)
        assert rotate @ rotate == Matrix.diagonal(1, -1)

    def test_outer_and_trace(self):
        psi = vec(1, 1)
        rho = outer(psi, psi)
        assert rho == Matrix([[1, 1], [1, 1]])
        assert rho.trace() == Scalar(2)

    def test_json_roundtrip(self):
        m = Matrix([["1", "i"], ["0", "1/2-1/3i"]])
        assert matrix_from_json(matrix_to_json(m)) == m
        empty = Matrix((), ncols=3)
        assert matrix_from_json(matrix_to_json(empty)) == empty

    @pytest.mark.parametrize("ncols", [3.0, "3", True])
    def test_json_ncols_must_be_an_integer(self, ncols):
        with pytest.raises(TypeError) as info:
            matrix_from_json({"rows": [], "ncols": ncols})
        assert str(info.value) == f"matrix/ncols must be a JSON integer, not {ncols!r}"

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 0], [1]])

    def test_sum_needs_equal_shapes(self):
        row = Matrix([[1, 0]])
        for other in (Matrix([[1], [0]]), Matrix([[1]]), Matrix([[1, 0], [0, 1]])):
            with pytest.raises(ValueError, match="matrix shapes differ"):
                row + other

    def test_trace_needs_a_square_matrix(self):
        with pytest.raises(ValueError, match="trace needs a square matrix"):
            Matrix([[1, 0]]).trace()

    def test_no_rows_cannot_be_transposed(self):
        with pytest.raises(ValueError, match="cannot transpose a matrix with no rows"):
            Matrix((), ncols=2).conj_transpose()


class TestIntegerFormBound:
    """A form's parts count times its common denominator's bit length is bounded."""

    PRIMES = [p for p in range(10_007, 30_000, 2) if all(p % d for d in range(3, 174, 2))][:2000]

    @staticmethod
    def _message(entries):
        bits = lcm(*(Fraction(e).denominator for e in entries)).bit_length()
        cost = 2 * len(entries) * bits
        limit = linalg.MAX_FORM_BITS
        return (
            f"{len(entries)} entries over a {bits}-bit common denominator"
            f" take {cost} bits, over the limit of {limit}"
        )

    def test_many_distinct_denominators_are_refused_in_every_form(self):
        entries = [Fraction(1, p) for p in self.PRIMES]
        message = self._message(entries)
        for build in (
            lambda: Vector(entries),
            lambda: Matrix([entries]),
            lambda: Matrix([entries[:1000], entries[1000:]]),
        ):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_a_json_form_is_refused_at_its_path(self):
        rows = [[f"1/{p}" for p in self.PRIMES]]
        with pytest.raises(ValueError, match=r"^matrix: 2000 entries over a "):
            matrix_from_json({"rows": rows})
        with pytest.raises(ValueError, match=r"^vector: 2000 entries over a "):
            vector_from_json(rows[0])

    def test_the_bound_itself_is_accepted(self, monkeypatch):
        entries = [Fraction(1, p) for p in self.PRIMES[:10]]
        cost = 2 * 10 * lcm(*self.PRIMES[:10]).bit_length()
        monkeypatch.setattr(linalg, "MAX_FORM_BITS", cost)
        assert Vector(entries).entries == tuple(Scalar(e) for e in entries)
        monkeypatch.setattr(linalg, "MAX_FORM_BITS", cost - 1)
        with pytest.raises(ValueError, match="over the limit of"):
            Vector(entries)

    def test_a_thousand_distinct_denominators_and_the_longest_entries_read(self):
        entries = [Fraction(1, p) for p in self.PRIMES[:1000]]
        assert Vector(entries).entries == tuple(Scalar(e) for e in entries)
        # every entry of a 64-entry state over one denominator at the int-string limit
        den = "9" * sys.get_int_max_str_digits()
        v = vector_from_json([f"1/{den}"] * 64)
        assert v.entries == (Scalar(Fraction(1, int(den))),) * 64
