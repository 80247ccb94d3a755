"""Differential test: ``dsl.check`` against the original two-loop checker.

The oracle (``tests/check_oracle.py``) re-evaluated both sides to build a
counterexample and described the structure by its type; the checker now
evaluates each side once per assignment and lets the structure describe
itself.  Both must report the same JSON on every input below.
"""

import pytest

from check_oracle import check as oracle_check, report_json as oracle_json
from ortholab.dsl import BooleanSetAlgebra, SubspaceLattice, check, parse_statement
from ortholab.lattice import GAUSSIAN_RATIONAL, RATIONAL_REAL

# the five identity-check statements, plus statements without variables, a
# failing inclusion, and an equation whose left side is always below its right
SUBSPACE_STATEMENTS = (
    "x | (!x & (x | y)) = x | y",
    "!(x | y) = !x & !y",
    "x & (x | y) = x",
    "(x & y) | (x & z) <= x & (y | z)",
    "x & (y | z) = (x & y) | (x & z)",
    "1 & 0 = 0",
    "!0 <= 0",
    "x | y <= x",
    "x & y = x",
)
BOOLEAN_LAWS = (
    "x & (y | z) = (x & y) | (x & z)",
    "!(x & y) = !x | !y",
    "x & !x <= y",
    "x | y <= x",
    "x & !y = 0",
    "!x = x",
    "x = x | y",
    "1 = !0",
    "1 <= 0",
)
# 18 variables: 2**(18 n) assignments, so every universe size samples them
MANY = [f"v{i}" for i in range(18)]
BOOLEAN_RANDOM = (
    " & ".join(MANY) + " <= v0",
    " | ".join(MANY) + " <= v0 & v1",
    "(" + " | ".join(MANY) + ") & v3 = v3",
)


def _same(stmt_text, structure, trials, seed):
    stmt = parse_statement(stmt_text)
    new = check(stmt, structure, trials=trials, seed=seed)
    old = oracle_check(stmt, structure, trials=trials, seed=seed)
    assert new.to_json() == oracle_json(old)
    assert new.counterexample == old.counterexample
    return new


@pytest.mark.parametrize("field", (RATIONAL_REAL, GAUSSIAN_RATIONAL))
@pytest.mark.parametrize("dim", (2, 3, 4, 5, 6))
def test_subspace_reports_match_the_oracle(dim, field):
    structure = SubspaceLattice(dim, field)
    trials = 8 if dim <= 3 else 4
    verdicts = set()
    for text in SUBSPACE_STATEMENTS:
        for seed in (f"oracle/{dim}/{field}", 17):
            verdicts.add(_same(text, structure, trials, seed).holds)
    assert verdicts == {True, False}


@pytest.mark.parametrize("size", (1, 2, 3, 4, 5))
def test_boolean_reports_match_the_oracle_in_both_modes(size):
    structure = BooleanSetAlgebra(size)
    modes = set()
    for text in BOOLEAN_LAWS:
        modes.add(_same(text, structure, 1000, 0).mode)
    for text in BOOLEAN_RANDOM:
        for seed in (size, "oracle"):
            modes.add(_same(text, structure, 40, seed).mode)
    assert modes == {"exhaustive", "random"}
