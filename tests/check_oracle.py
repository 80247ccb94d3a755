"""The original two-loop ``dsl.check``, kept as an oracle.

``check``, ``_relation_holds`` and ``_make_counterexample`` are copied
verbatim from ``ortholab.dsl`` as it was before the checker became one
assignment loop, with one substitution: ``structure.equal(lhs, rhs)``, a
method that only ever returned ``lhs == rhs``, is written out as
``lhs == rhs``.  ``report_json`` is the old ``CheckReport.to_json``, which
described the structure by testing its type.  ``tests/test_check_oracle.py``
checks that the current checker reports the same JSON.
"""

import itertools

from ortholab.dsl import (
    _EXHAUSTIVE_LIMIT,
    BooleanSetAlgebra,
    CheckReport,
    Counterexample,
    IdentityStatement,
    Relation,
    SubspaceLattice,
    collect_variables,
    eval_term,
    format_statement,
)
from ortholab.lattice import substream


def _relation_holds(stmt: IdentityStatement, structure, assignment) -> bool:
    lhs = eval_term(stmt.lhs, assignment, structure)
    rhs = eval_term(stmt.rhs, assignment, structure)
    if stmt.relation is Relation.EQUAL:
        return lhs == rhs
    return structure.leq(lhs, rhs)


def check(stmt: IdentityStatement, structure, trials: int = 1000, seed=0) -> CheckReport:
    """Look for an assignment falsifying the statement.

    Small Boolean structures are checked exhaustively (the assignment space
    is enumerated in a fixed order); everything else draws seeded random
    assignments, one substream per trial, and reports the lowest-index
    counterexample.  Reports are self-verifying: the recorded assignment
    re-evaluates to the recorded sides.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    names = sorted(collect_variables(stmt.lhs) | collect_variables(stmt.rhs))
    text = format_statement(stmt)

    exhaustive = False
    if isinstance(structure, BooleanSetAlgebra):
        total = (1 << structure.universe_size) ** len(names)
        exhaustive = total <= _EXHAUSTIVE_LIMIT
    if not names:
        exhaustive = True

    if exhaustive:
        if isinstance(structure, BooleanSetAlgebra):
            pools = [structure.elements() for _ in names]
        else:
            pools = []
        count = 0
        for trial, values in enumerate(itertools.product(*pools)):
            assignment = dict(zip(names, values))
            count += 1
            if not _relation_holds(stmt, structure, assignment):
                return CheckReport(
                    text,
                    structure,
                    "exhaustive",
                    count,
                    _make_counterexample(stmt, structure, trial, assignment),
                )
        return CheckReport(text, structure, "exhaustive", count, None)

    for trial in range(trials):
        rng = substream(seed, trial)
        assignment = {name: structure.random_element(rng) for name in names}
        if not _relation_holds(stmt, structure, assignment):
            return CheckReport(
                text,
                structure,
                "random",
                trial + 1,
                _make_counterexample(stmt, structure, trial, assignment),
            )
    return CheckReport(text, structure, "random", trials, None)


def _make_counterexample(stmt, structure, trial, assignment) -> Counterexample:
    return Counterexample(
        trial=trial,
        assignment=dict(assignment),
        lhs=eval_term(stmt.lhs, assignment, structure),
        rhs=eval_term(stmt.rhs, assignment, structure),
    )


def report_json(report) -> dict:
    if isinstance(report.structure, SubspaceLattice):
        structure = {
            "kind": "subspace",
            "space_dim": report.structure.space_dim,
            "field": report.structure.field,
        }
    else:
        structure = {"kind": "boolean", "universe_size": report.structure.universe_size}
    out = {
        "statement": report.statement,
        "structure": structure,
        "mode": report.mode,
        "trials": report.trials,
        "verdict": (
            f"no counterexample ({report.mode}, {report.trials} assignments)"
            if report.holds
            else "counterexample"
        ),
    }
    if report.counterexample is not None:
        cx = report.counterexample
        out["counterexample"] = {
            "trial": cx.trial,
            "assignment": {
                name: report.structure.describe(value)
                for name, value in sorted(cx.assignment.items())
            },
            "lhs": report.structure.describe(cx.lhs),
            "rhs": report.structure.describe(cx.rhs),
        }
    return out
