"""Hand mutants of every layer: the kernel, the lattice operations, the predicates, the
identity checker, the process layer and the command line.

Each mutant replaces one exact text in one source file, and the test files
named beside it must then fail.  For each mutant the script copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, applies the
mutant there, and runs ``pytest -x`` on the named files only, so the checkout
is never edited.  pytest does not collect this file.

Run from anywhere, with pytest installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py walked     # only the mutants whose name contains "walked"

Exit status: 0 when every mutant run is killed; 1 when one survives, when an
old text does not occur exactly once in its file, or when a mutant breaks
the collection instead of failing a test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LINALG = "src/ortholab/linalg.py"
LATTICE = "src/ortholab/lattice.py"
PROCESS = "src/ortholab/process.py"
PROPOSITIONS = "src/ortholab/propositions.py"
DSL = "src/ortholab/dsl.py"
CLI = "src/ortholab/cli.py"

KERNEL_TESTS = ("tests/test_rref_oracle.py",)
LATTICE_TESTS = (
    "tests/test_lattice.py",
    "tests/test_meet_oracle.py",
    "tests/test_complement_oracle.py",
)
PROCESS_TESTS = (
    "tests/test_process.py",
    "tests/test_process_oracle.py",
    "tests/test_connectives.py",
)

# (name, file, exact old text, new text, test files that must kill it)
MUTANTS = (
    # The stage-indexed queries.
    (
        "query keys on the first stage only",
        PROCESS,
        "for s, t in zip(stages, traces)]",
        "for s, t in zip(stages[:1], traces)]",
        PROCESS_TESTS,
    ),
    (
        "prob_of overwrites a denominator's sum",
        PROCESS,
        "numerators[p.denominator] = numerators.get(p.denominator, 0) + p.numerator",
        "numerators[p.denominator] = p.numerator",
        PROCESS_TESTS,
    ),
    (
        "no reuse of walked",
        PROCESS,
        "hit = walked.get(key)",
        "hit = None",
        PROCESS_TESTS,
    ),
    (
        "evaluate_in accepts any leaf",
        PROCESS,
        """        if not isinstance(atom, Atom):
            raise TypeError(f"not a formula node: {atom!r}")
        return _atom_holds""",
        "        return _atom_holds",
        PROCESS_TESTS,
    ),
    # process.run and its validation.
    (
        "moves keyed by the state alone",
        PROCESS,
        """move = moves.get((id(st.observable), id(state)))
                    if move is None:  # in outcome order
                        move = moves[id(st.observable), id(state)] = []""",
        """move = moves.get(id(state))
                    if move is None:  # in outcome order
                        move = moves[id(state)] = []""",
        PROCESS_TESTS,
    ),
    (
        "conditional unitary applied on every branch",
        PROCESS,
        "elif key[1]:  # a ConditionalUnitary whose condition holds",
        "elif key:",
        PROCESS_TESTS,
    ),
    (
        "conditional unitary skips known",
        PROCESS,
        "        children = known.get(key)\n",
        "        children = None if isinstance(st, ConditionalUnitary) else known.get(key)\n",
        PROCESS_TESTS,
    ),
    (
        "in-place walk drops trace.append",
        PROCESS,
        "            trace.append(entry)\n",
        "",
        PROCESS_TESTS,
    ),
    (
        "entries not shared",
        PROCESS,
        "entry = entries.get(key)",
        "entry = None",
        PROCESS_TESTS,
    ),
    (
        "prepared state not interned",
        PROCESS,
        "interned = {prepared: prepared}",
        "interned = {}",
        PROCESS_TESTS,
    ),
    (
        "products not interned",
        PROCESS,
        "move.append((out.label, interned.setdefault(post, post)))",
        "move.append((out.label, post))",
        PROCESS_TESTS,
    ),
    (
        "prob_of keeps only its first denominator group",
        PROCESS,
        "for d, n in numerators.items()), Rational(0))",
        "for d, n in list(numerators.items())[:1]), Rational(0))",
        PROCESS_TESTS,
    ),
    (
        "validation marks every stage as checked",
        PROCESS,
        """        if isinstance(st, Measure):
            checked.add(id(st))""",
        """        if True:
            checked.add(id(st))""",
        PROCESS_TESTS,
    ),
    # The row-reduction kernel.
    (
        "no final content pass after the back pass",
        LINALG,
        """    for k in range(len(pivot_cols) - 1):
        rows[k] = _primitive(rows[k])
""",
        "",
        KERNEL_TESTS,
    ),
    (
        "back pass from pivot 2",
        LINALG,
        "for i in range(1, len(pivot_cols)):",
        "for i in range(2, len(pivot_cols)):",
        KERNEL_TESTS,
    ),
    (
        "pivot row keeps its content",
        LINALG,
        "prow = rows[r] = _primitive(prow)",
        "rows[r] = prow",
        KERNEL_TESTS,
    ),
    (
        "content threshold inverted",
        LINALG,
        "return _primitive(out) if p >> _WIDE else out",
        "return out if p >> _WIDE else _primitive(out)",
        KERNEL_TESTS,
    ),
    (
        "every row update keeps its content",
        LINALG,
        "return _primitive(out) if p >> _WIDE else out",
        "return out",
        KERNEL_TESTS,
    ),
    (
        "forward pass stops one pivot early",
        LINALG,
        "if r == ncols - 1:  # full rank",
        "if r == ncols - 2:  # full rank",
        KERNEL_TESTS,
    ),
    (
        "back pass writes the identity at ncols - 1 pivots",
        LINALG,
        "if len(pivot_cols) == ncols:  # the identity",
        "if len(pivot_cols) >= ncols - 1:  # the identity",
        KERNEL_TESTS,
    ),
    (
        "reduce without the back pass",
        LINALG,
        "    _back_pass(rows, pivot_cols, ncols)\n    return pivot_cols\n",
        "    return pivot_cols\n",
        KERNEL_TESTS,
    ),
    # Complements read off without elimination.
    (
        "read-off's imaginary sign flipped",
        LINALG,
        "out[2 * c + 1] = q * row[2 * free + 1]",
        "out[2 * c + 1] = -q * row[2 * free + 1]",
        KERNEL_TESTS,
    ),
    (
        "read-off rows not made primitive",
        LINALG,
        "basis.append(_primitive(out))",
        "basis.append(out)",
        KERNEL_TESTS,
    ),
    (
        "left-form complement not reversed",
        LINALG,
        "return basis if right else basis[::-1]",
        "return basis",
        LATTICE_TESTS,
    ),
    (
        "rows returns the kept right form",
        LATTICE,
        """        if self._right:
            return _canonical([list(row) for row in self._rows], self.space_dim)._rows
        return self._rows""",
        "        return self._rows",
        LATTICE_TESTS,
    ),
    (
        "hash of the kept rows",
        LATTICE,
        "return hash((self.space_dim, self.rows))",
        "return hash((self.space_dim, self._rows))",
        LATTICE_TESTS,
    ),
    (
        "right forms joined without mirroring",
        LATTICE,
        "rows = [_mirror(row) if right else list(row) for row in stacked]",
        "rows = [list(row) for row in stacked]",
        LATTICE_TESTS,
    ),
    # Meets and joins decided by one forward pass's rank.
    (
        "meet's operand tests swapped",
        LATTICE,
        """        if k == d:
            return s
        if k == e:
            return t""",
        """        if k == e:
            return s
        if k == d:
            return t""",
        LATTICE_TESTS,
    ),
    (
        "join returns s on rank == t.dim",
        LATTICE,
        """    if rank == t.dim:
        return t""",
        """    if rank == t.dim:
        return s""",
        LATTICE_TESTS,
    ),
    (
        "meet's dimension off by one",
        LATTICE,
        "k = d + e - len(_echelon(",
        "k = d + e - 1 - len(_echelon(",
        LATTICE_TESTS,
    ),
    (
        "right join not mirrored back",
        LATTICE,
        "[_mirror(row) for row in rows] if right else rows, right)",
        "rows, right)",
        LATTICE_TESTS,
    ),
    # Inclusion, membership and equality.
    (
        "leq by >=",
        LATTICE,
        "return len(_echelon(stacked, s.space_dim)) == t.dim",
        "return len(_echelon(stacked, s.space_dim)) >= t.dim",
        LATTICE_TESTS,
    ),
    (
        "contains drops the vector",
        LATTICE,
        "stacked = [list(row) for row in self._rows] + [list(_in_space(v, self.space_dim).parts)]",
        "stacked = [list(row) for row in self._rows]",
        LATTICE_TESTS,
    ),
    (
        "cross-form == by dimension",
        LATTICE,
        "return self.space_dim == other.space_dim and self.rows == other.rows",
        "return self.space_dim == other.space_dim and self.dim == other.dim",
        LATTICE_TESTS,
    ),
    # Wire input: JSON types, the scalar grammar and the dimension bound.
    (
        "a bool read as a JSON integer",
        LINALG,
        "if type(self.value) is not kind:",
        "if not isinstance(self.value, kind):",
        ("tests/test_cli.py",),
    ),
    (
        "any Unicode digit accepted",
        LINALG,
        '_TERM = re.compile(r"([+-]?)(?:i|([0-9]*)(?:/([0-9]*))?(i?))")',
        '_TERM = re.compile(r"([+-]?)(?:i|(\\d*)(?:/(\\d*))?(i?))")',
        ("tests/test_scalar_oracle.py", "tests/test_linalg.py"),
    ),
    (
        "space_dim bound off by one",
        LATTICE,
        "if space_dim > MAX_INPUT_DIM:",
        "if space_dim >= MAX_INPUT_DIM:",
        ("tests/test_cli.py",),
    ),
    (
        "non-real Scalar hashed by identity",
        LINALG,
        "return hash((self.re, self.im))",
        "return id(self)",
        ("tests/test_linalg.py",),
    ),
    # The predicates.
    (
        "truth without the short circuit",
        PROPOSITIONS,
        "if bool(value) is decisive or i == len(children):",
        "if i == len(children):",
        ("tests/test_propositions.py", "tests/test_connectives.py", "tests/test_process.py"),
    ),
    (
        "an open lower endpoint read as closed",
        PROPOSITIONS,
        "(x == self.lo and not self.lo_closed)",
        "(x == self.lo and self.lo_closed)",
        ("tests/test_propositions.py",),
    ),
    (
        "evaluate accepts the zero state",
        PROPOSITIONS,
        """    if state.is_zero():
        raise ValueError("propositions are evaluated on nonzero states only")
""",
        "",
        ("tests/test_propositions.py",),
    ),
    (
        "interval order not checked",
        PROPOSITIONS,
        """        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {_cut(self.lo)} > {_cut(self.hi)}")
""",
        "",
        ("tests/test_propositions.py",),
    ),
    # The identity checker.
    (
        "= decided by <=",
        DSL,
        "holds = operator.le if stmt.relation is Relation.LEQ else operator.eq",
        "holds = operator.le",
        ("tests/test_check_oracle.py", "tests/test_cli.py"),
    ),
    (
        "exhaustive bound made strict",
        DSL,
        "<= _EXHAUSTIVE_BITS",
        "< _EXHAUSTIVE_BITS",
        ("tests/test_dsl.py",),
    ),
    (
        "a holding check reports one trial too few",
        DSL,
        "return CheckReport(text, structure, mode, trial + 1, None)",
        "return CheckReport(text, structure, mode, trial, None)",
        ("tests/test_dsl.py", "tests/test_check_golden.py"),
    ),
    # Input checks of the process layer.
    (
        "a duplicate outcome label accepted",
        PROCESS,
        "if out.label in labels:",
        "if False:",
        PROCESS_TESTS[:1],
    ),
    (
        "a duplicate kernel target accepted",
        PROCESS,
        "if target in targets:",
        "if False:",
        PROCESS_TESTS[:1],
    ),
    (
        "a duplicate kernel source accepted",
        PROCESS,
        "if str(source) in normalized:",
        "if False:",
        PROCESS_TESTS[:1],
    ),
    (
        "stage_mismatch inverted",
        PROCESS,
        "stage_mismatch=formula_stages(left) != formula_stages(right),",
        "stage_mismatch=formula_stages(left) == formula_stages(right),",
        PROCESS_TESTS[:1],
    ),
    (
        "process imports spin at load",
        PROCESS,
        "    truth,\n)\n",
        "    truth,\n)\nfrom . import spin\n",
        ("tests/test_lazy_package.py",),
    ),
    # The command line.
    (
        "a statements file exits by any",
        CLI,
        "code = 0 if all(r.holds for r in reports) else 1",
        "code = 0 if any(r.holds for r in reports) else 1",
        ("tests/test_cli.py",),
    ),
    (
        "an internal error exits 1",
        CLI,
        """internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2""",
        """internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1""",
        ("tests/test_cli.py",),
    ),
    (
        "a duplicate JSON member kept",
        CLI,
        "if name in obj:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    (
        "--dim and --trials bound off by one",
        CLI,
        "if value > limit:",
        "if value >= limit:",
        ("tests/test_cli.py",),
    ),
    (
        "text renders an empty container as a heading",
        CLI,
        "if isinstance(item, (dict, list)) and item:",
        "if isinstance(item, (dict, list)):",
        ("tests/test_cli.py",),
    ),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run(path, old, new, tests) -> tuple:
    """Apply one mutant in a fresh copy and run its tests: ("killed", the first failed test),
    ("SURVIVED", "") or ("ERROR", "")."""
    with tempfile.TemporaryDirectory(prefix="ortholab-mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        target = tmp / path
        target.write_text(target.read_text().replace(old, new, 1))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        done = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed; 0 is a survivor, anything else a broken mutant
    if done.returncode == 1:
        failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED ")]
        return "killed", failed[0].split()[1] if failed else ""
    if done.returncode == 0:
        return "SURVIVED", ""
    print(done.stdout[-2000:] + done.stderr[-2000:], file=sys.stderr)
    return "ERROR", ""


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m[0] for a in argv)]
    bad = 0
    for name, path, old, new, _ in chosen:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"{name}: the old text occurs {count} times in {path}, not once")
            bad += 1
    if bad:
        return 1
    start = time.perf_counter()
    for name, path, old, new, tests in chosen:
        began = time.perf_counter()
        verdict, by = _run(path, old, new, tests)
        print(f"{verdict:8} {time.perf_counter() - began:5.1f} s  {name}  {by}", flush=True)
        bad += verdict != "killed"
    took = time.perf_counter() - start
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed in {took:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
