import itertools

import pytest
from hypothesis import given, strategies as st

from ortholab import Subspace, check_orthomodular, distributes, span, vec
from ortholab import dsl
from ortholab.dsl import (
    And,
    BooleanSetAlgebra,
    Bottom,
    IdentityStatement,
    IdentitySyntaxError,
    Not,
    Or,
    Relation,
    SubspaceLattice,
    Top,
    UnboundVariableError,
    Var,
    check,
    collect_variables,
    eval_term,
    format_statement,
    format_term,
    parse_statement,
    parse_statement_lines,
    parse_term,
)
from ortholab.lattice import RATIONAL_REAL, join, leq, meet, substream

DISTRIBUTIVE = "x & (y | z) = (x & y) | (x & z)"
WEAKER = "(x & y) | (x & z) <= x & (y | z)"


class TestParser:
    def test_distributive_law_ast(self):
        stmt = parse_statement(DISTRIBUTIVE)
        x, y, z = Var("x"), Var("y"), Var("z")
        assert stmt == IdentityStatement(
            And(x, Or(y, z)), Or(And(x, y), And(x, z)), Relation.EQUAL
        )

    def test_de_morgan_ast(self):
        stmt = parse_statement("!(x | y) = !x & !y")
        x, y = Var("x"), Var("y")
        assert stmt == IdentityStatement(
            Not(Or(x, y)), And(Not(x), Not(y)), Relation.EQUAL
        )

    def test_parse_error_position(self):
        with pytest.raises(IdentitySyntaxError) as err:
            parse_statement("x & = y")
        assert err.value.position == 5

    def test_lexer_error_names_character(self):
        with pytest.raises(IdentitySyntaxError, match="'@'"):
            parse_statement("x @ y = z")

    def test_precedence(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        assert parse_term("a | b & c") == Or(a, And(b, c))
        assert parse_term("!a & b") == And(Not(a), b)
        assert parse_term("!(a & b)") == Not(And(a, b))

    def test_left_associativity(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        assert parse_term("a & b & c") == And(And(a, b), c)
        assert parse_term("a | b | c") == Or(Or(a, b), c)

    def test_constants_and_leq(self):
        stmt = parse_statement("0 <= !1")
        assert stmt == IdentityStatement(Bottom(), Not(Top()), Relation.LEQ)

    def test_unicode_aliases(self):
        assert parse_statement("x ∧ y ≤ ¬(x ∨ y)") == parse_statement("x & y <= !(x | y)")

    def test_missing_relation(self):
        with pytest.raises(IdentitySyntaxError, match="'='"):
            parse_statement("x & y")

    def test_trailing_garbage(self):
        with pytest.raises(IdentitySyntaxError):
            parse_statement("x = y z")

    def test_unclosed_paren(self):
        with pytest.raises(IdentitySyntaxError, match=r"\)"):
            parse_statement("(x | y = z")


class TestStatementFiles:
    def test_lines_comments_and_blanks(self):
        text = "\n".join(
            (
                "# leading comment",
                "x & y = y & x",
                "",
                "0 <= x   # trailing comment",
            )
        )
        statements = parse_statement_lines(text)
        assert [format_statement(s) for s in statements] == ["x & y = y & x", "0 <= x"]

    def test_errors_carry_the_line_number(self):
        with pytest.raises(IdentitySyntaxError, match="line 3") as err:
            parse_statement_lines("x = x\n\nx & = y\n")
        assert err.value.line == 3
        assert err.value.position == 5


terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("z"), Top(), Bottom()]),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
    ),
    max_leaves=12,
)


class TestPrinter:
    @given(terms, terms, st.sampled_from(list(Relation)))
    def test_parse_inverts_format_on_asts(self, lhs, rhs, relation):
        stmt = IdentityStatement(lhs, rhs, relation)
        assert parse_statement(format_statement(stmt)) == stmt

    def test_minimal_parentheses(self):
        assert format_term(parse_term("x & (y | z)")) == "x & (y | z)"
        assert format_term(parse_term("(x & y) | z")) == "x & y | z"

    def test_a_non_node_is_a_type_error(self):
        with pytest.raises(TypeError, match="not a term node: 'x'"):
            format_term("x")


BOOL3 = BooleanSetAlgebra(3)
LAT2 = SubspaceLattice(2)


class TestEvalTerm:
    def test_join_means_span_on_subspaces(self):
        assignment = {"x": span([vec(1, 0)], 2), "y": span([vec(0, 1)], 2)}
        assert eval_term(parse_term("x | y"), assignment, LAT2) == Subspace.full(2)

    def test_join_means_union_on_sets(self):
        assignment = {"x": frozenset({1}), "y": frozenset({2})}
        assert eval_term(parse_term("x | y"), assignment, BOOL3) == frozenset({1, 2})

    def test_complement_of_top_is_bottom_in_both_structures(self):
        assert eval_term(parse_term("!1"), {}, LAT2) == Subspace.zero(2)
        assert eval_term(parse_term("!1"), {}, BOOL3) == frozenset()

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError, match="'y'"):
            eval_term(parse_term("x & y"), {"x": frozenset()}, BOOL3)

    def test_a_non_node_is_a_type_error(self):
        with pytest.raises(TypeError, match="not a term node: 'x'"):
            eval_term("x", {"x": frozenset()}, BOOL3)

    def test_collect_variables(self):
        assert collect_variables(parse_term("x & (y | !x) | 0")) == {"x", "y"}


class TestBooleanChecks:
    def test_an_empty_universe_is_rejected(self):
        with pytest.raises(ValueError, match="universe_size must be >= 1"):
            BooleanSetAlgebra(0)

    @pytest.mark.parametrize("universe", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "statement",
        [
            DISTRIBUTIVE,
            "!(x | y) = !x & !y",
            "!(x & y) = !x | !y",
            "x & (x | y) = x",
            "x | (x & y) = x",
            "!!x = x",
        ],
    )
    def test_classical_laws_exhaustively(self, universe, statement):
        stmt = parse_statement(statement)
        report = check(stmt, BooleanSetAlgebra(universe))
        assert report.mode == "exhaustive"
        assert report.holds
        names = collect_variables(stmt.lhs) | collect_variables(stmt.rhs)
        assert report.trials == (2**universe) ** len(names)

    def test_large_boolean_space_falls_back_to_random(self):
        stmt = parse_statement("a & (b | c) & (d | e) = a & (b | c) & (d | e)")
        report = check(stmt, BooleanSetAlgebra(4), trials=25, seed=1)
        assert report.mode == "random"
        assert report.holds and report.trials == 25

    @pytest.mark.parametrize("universe, variables", [(4, 4), (4, 5), (1, 17), (17, 1)])
    def test_exhaustive_exactly_up_to_the_limit(self, universe, variables):
        # the mode is decided from universe * variables; (2**u)**n is the old test
        names = [f"v{k}" for k in range(variables)]
        stmt = parse_statement(" & ".join(names) + " <= v0")
        report = check(stmt, BooleanSetAlgebra(universe), trials=3)
        exhaustive = (2**universe) ** variables <= dsl._EXHAUSTIVE_LIMIT
        assert report.mode == ("exhaustive" if exhaustive else "random")
        assert report.trials == ((2**universe) ** variables if exhaustive else 3)

    def test_boolean_counterexample_is_concrete(self):
        report = check(parse_statement("x = y"), BooleanSetAlgebra(2))
        assert not report.holds
        cx = report.counterexample
        assert cx.lhs != cx.rhs
        assert report.to_json()["counterexample"]["trial"] == cx.trial


class TestSubspaceChecks:
    def test_distributive_law_has_a_counterexample(self):
        report = check(parse_statement(DISTRIBUTIVE), LAT2, trials=1000, seed=0)
        assert not report.holds
        cx = report.counterexample
        assert not distributes(cx.assignment["x"], cx.assignment["y"], cx.assignment["z"])

    def test_counterexamples_self_verify(self):
        stmt = parse_statement(DISTRIBUTIVE)
        report = check(stmt, LAT2, trials=1000, seed=3)
        cx = report.counterexample
        assert eval_term(stmt.lhs, cx.assignment, LAT2) == cx.lhs
        assert eval_term(stmt.rhs, cx.assignment, LAT2) == cx.rhs
        assert cx.lhs != cx.rhs

    def test_deterministic_and_lowest_index(self):
        stmt = parse_statement(DISTRIBUTIVE)
        first = check(stmt, LAT2, trials=400, seed=11)
        second = check(stmt, LAT2, trials=400, seed=11)
        assert first.counterexample == second.counterexample
        # re-running any earlier trial by hand finds no earlier counterexample
        for trial in range(first.counterexample.trial):
            rng = substream(11, trial)
            assignment = {
                name: LAT2.random_element(rng) for name in sorted(("x", "y", "z"))
            }
            assert distributes(assignment["x"], assignment["y"], assignment["z"])

    def test_fixed_two_state_triple_as_regression_input(self):
        stmt = parse_statement(DISTRIBUTIVE)
        assignment = {
            "x": span([vec(1, 1)], 2),
            "y": span([vec(1, 0)], 2),
            "z": span([vec(0, 1)], 2),
        }
        lhs = eval_term(stmt.lhs, assignment, LAT2)
        rhs = eval_term(stmt.rhs, assignment, LAT2)
        assert lhs == span([vec(1, 1)], 2)
        assert rhs == Subspace.zero(2)

    def test_weaker_law_survives_sampling(self):
        report = check(parse_statement(WEAKER), SubspaceLattice(3), trials=300, seed=0)
        assert report.holds

    def test_weaker_law_exhaustive_grid_oracle(self):
        # independent oracle: every subspace spanned by 0/1 vectors of dim 3
        vectors = [
            vec(*bits)
            for bits in itertools.product((0, 1), repeat=3)
            if any(bits)
        ]
        grid = {Subspace.zero(3), Subspace.full(3)}
        for v in vectors:
            grid.add(span([v], 3))
        for v, w in itertools.combinations(vectors, 2):
            grid.add(span([v, w], 3))
        grid = sorted(grid, key=repr)
        for x, y, z in itertools.product(grid, repeat=3):
            lhs = join(meet(x, y), meet(x, z))
            rhs = meet(x, join(y, z))
            assert leq(lhs, rhs)

    def test_rational_real_structure(self):
        report = check(
            parse_statement(DISTRIBUTIVE),
            SubspaceLattice(2, RATIONAL_REAL),
            trials=1000,
            seed=0,
        )
        assert not report.holds

    def test_orthomodularity_separated_from_distributivity(self):
        # the lattice falsifies distributivity yet never the orthomodular law
        lattice = SubspaceLattice(3)
        saw_counterexample = not check(
            parse_statement(DISTRIBUTIVE), lattice, trials=200, seed=2
        ).holds
        assert saw_counterexample
        for trial in range(200):
            rng = substream("om-dsl", trial)
            s = lattice.random_element(rng)
            t = lattice.random_element(rng)
            assert check_orthomodular(s, t)
            assert check_orthomodular(meet(s, t), t)


class TestReports:
    def test_no_counterexample_report_shape(self):
        report = check(parse_statement("x = x"), BOOL3)
        data = report.to_json()
        assert data["verdict"].startswith("no counterexample")
        assert "counterexample" not in data

    def test_statement_echo_roundtrips(self):
        report = check(parse_statement(DISTRIBUTIVE), BOOL3)
        assert parse_statement(report.statement) == parse_statement(DISTRIBUTIVE)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            check(parse_statement("x = x"), LAT2, trials=0)


class TestEvaluationCount:
    """``check`` evaluates each side once per assignment, counterexample included."""

    @pytest.mark.parametrize(
        "structure, text, trials, holds",
        [
            (LAT2, DISTRIBUTIVE, 1000, False),
            (SubspaceLattice(3), WEAKER, 30, True),
            (BooleanSetAlgebra(2), "x | y <= x", 1000, False),
            (BOOL3, DISTRIBUTIVE, 1000, True),
            (BOOL3, "1 = 0", 1000, False),
        ],
    )
    def test_each_side_once_per_assignment(self, monkeypatch, structure, text, trials, holds):
        stmt = parse_statement(text)
        calls = {"lhs": 0, "rhs": 0}
        evaluate = dsl.eval_term

        def counting(term, assignment, structure):
            # the parser builds fresh nodes, so only the sides themselves match
            if term is stmt.lhs:
                calls["lhs"] += 1
            elif term is stmt.rhs:
                calls["rhs"] += 1
            return evaluate(term, assignment, structure)

        monkeypatch.setattr(dsl, "eval_term", counting)
        report = check(stmt, structure, trials=trials, seed=5)
        assert report.holds is holds
        assert calls == {"lhs": report.trials, "rhs": report.trials}

    def test_structures_describe_themselves(self):
        assert SubspaceLattice(3, RATIONAL_REAL).to_json() == {
            "kind": "subspace",
            "space_dim": 3,
            "field": RATIONAL_REAL,
        }
        assert BOOL3.to_json() == {"kind": "boolean", "universe_size": 3}
