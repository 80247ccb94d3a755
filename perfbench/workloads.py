"""The benchmark's four seeded workloads.

Each workload is built from the run's seed and offers:

* ``setup()``: input generation and construction-time validation, done once
  before the first timed op;
* ``cycle(c)``: the op specs of cycle ``c``, every op class in its fixed
  proportion, in a seeded order;
* ``run(spec)``: the timed call into ortholab;
* ``speed``: the probe of speed.py whose scale multiplies its op times;
* ``check(spec, output)``: the untimed answer check; returns ``(status,
  canonical, detail)`` where status is ``"ok"``, ``"failed"`` (a wrong exit
  code) or ``"wrong"`` (an answer that contradicts its check), ``canonical``
  is the text that goes into the result digest and ``detail`` says what
  went wrong.

A cycle depends only on the seed and its index, so every worker process of
a run repeats the same ops, and the digests of equal cycles must agree.
Op classes have fixed proportions per cycle, chosen so that the median and
the tail percentile fall inside one class rather than on a gap between two.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import speed


def _shuffled(specs, seed, c):
    random.Random(f"{seed}/order/{c}").shuffle(specs)
    return specs


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# lattice-laws: the criterion-8 law suite, one sampled pair or triple per op.
# ---------------------------------------------------------------------------


class LatticeLaws:
    name = "lattice-laws"
    size = (
        "per cycle and dim 2-4: 4 pairs + 3 triples (even trials Gaussian, odd real),"
        " plus 1 dim-2 distributivity witness search"
    )
    trace_cycles = 8
    speed = staticmethod(speed.arithmetic_scale)

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        from ortholab import lattice
        from lattice_laws import pair_law_violations, triple_law_violations

        self.lattice = lattice
        self.pair_laws = pair_law_violations
        self.triple_laws = triple_law_violations

    def cycle(self, c):
        specs = []
        for dim in (2, 3, 4):
            specs += [("pair", dim, 4 * c + j) for j in range(4)]
            specs += [("triple", dim, 3 * c + j) for j in range(3)]
        specs.append(("witness", 2, c))
        return _shuffled(specs, self.seed, c)

    def label(self, spec):
        return f"{spec[0]}-{spec[1]}"

    def run(self, spec):
        kind, dim, trial = spec
        lat = self.lattice
        field = lat.GAUSSIAN_RATIONAL if trial % 2 == 0 else lat.RATIONAL_REAL
        if kind == "witness":
            return lat.find_nondistributive_witness(
                dim, trials=1000, seed=f"{self.seed}/witness/{trial}", field=field
            )
        # the same substreams as run_law_suite in tests/lattice_laws.py
        rng = lat.substream(f"{self.seed}/{kind}/{dim}", trial)
        if kind == "pair":
            s, t = (lat.random_subspace(rng, dim, field) for _ in range(2))
            return (s, t), self.pair_laws(s, t)
        p, q, r = (lat.random_subspace(rng, dim, field) for _ in range(3))
        return (p, q, r), self.triple_laws(p, q, r)

    def check(self, spec, out):
        to_json = self.lattice.subspace_to_json
        if spec[0] == "witness":
            if out is None:
                return "wrong", "null", "no witness found"
            canonical = _dumps([to_json(s) for s in out])
            if self.lattice.distributes(*out):
                return "wrong", canonical, "the witness distributes"
            return "ok", canonical, ""
        subspaces, violations = out
        canonical = _dumps([[to_json(s) for s in subspaces], violations])
        if violations:
            return "wrong", canonical, f"laws violated: {', '.join(violations)}"
        return "ok", canonical, ""


# ---------------------------------------------------------------------------
# identity-check: dsl.check on the subspace lattice, one assignment per op.
# ---------------------------------------------------------------------------

# (label, statement, verdict); a None verdict is decided per assignment by
# lattice.distributes, since distributivity fails on most triples, not all.
STATEMENTS = (
    ("orthomodular", "x | (!x & (x | y)) = x | y", True),
    ("de-morgan", "!(x | y) = !x & !y", True),
    ("absorption", "x & (x | y) = x", True),
    ("weak-distributive", "(x & y) | (x & z) <= x & (y | z)", True),
    ("distributive", "x & (y | z) = (x & y) | (x & z)", None),
)
# dim -> assignments per statement and cycle.  Dim 4 counts twice, so that
# the median op falls inside the dim-4 group instead of on the gap between
# the dim-4 and dim-6 costs.
IDENTITY_DIMS = {2: 1, 4: 2, 6: 1, 8: 1}


class IdentityCheck:
    name = "identity-check"
    size = "per cycle: 5 statements x dims 2, 4, 4, 6, 8, one random Gaussian assignment each"
    trace_cycles = 3
    speed = staticmethod(speed.arithmetic_scale)

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        from ortholab import dsl, lattice

        self.dsl = dsl
        self.lattice = lattice
        self.statements = [
            (label, dsl.parse_statement(text), verdict) for label, text, verdict in STATEMENTS
        ]
        self.structures = {dim: dsl.SubspaceLattice(dim) for dim in IDENTITY_DIMS}

    def _trial_seed(self, spec):
        i, dim, c, k = spec
        return f"{self.seed}/{self.statements[i][0]}/{dim}/{c}/{k}"

    def cycle(self, c):
        specs = [
            (i, dim, c, k)
            for i in range(len(STATEMENTS))
            for dim, count in IDENTITY_DIMS.items()
            for k in range(count)
        ]
        return _shuffled(specs, self.seed, c)

    def label(self, spec):
        return f"{STATEMENTS[spec[0]][0]}-{spec[1]}"

    def run(self, spec):
        i, dim, *_ = spec
        stmt = self.statements[i][1]
        return self.dsl.check(stmt, self.structures[dim], trials=1, seed=self._trial_seed(spec))

    def check(self, spec, report):
        i, dim, *_ = spec
        _, stmt, expected = self.statements[i]
        structure = self.structures[dim]
        canonical = _dumps(report.to_json())
        if expected is None:
            rng = self.lattice.substream(self._trial_seed(spec), 0)
            x, y, z = (structure.random_element(rng) for _ in range(3))
            expected = self.lattice.distributes(x, y, z)
        if report.holds != expected or report.trials != 1:
            return "wrong", canonical, f"holds={report.holds} after {report.trials} trials, expected {expected}"
        cx = report.counterexample
        if cx is not None:
            lhs = self.dsl.eval_term(stmt.lhs, cx.assignment, structure)
            rhs = self.dsl.eval_term(stmt.rhs, cx.assignment, structure)
            if lhs != cx.lhs or rhs != cx.rhs or lhs == rhs:
                return "wrong", canonical, "the counterexample does not re-evaluate to its sides"
        return "ok", canonical, ""


# ---------------------------------------------------------------------------
# branching: process.run plus stage-indexed queries with closed-form answers.
# ---------------------------------------------------------------------------

# Per cycle: class, count, size (measurements, steps or least stages) and,
# for wide processes, how many of the queries it runs.  Every measurement in a wide process is
# fair (1/2 each way), so m measurements give exactly 2**m histories of
# probability 2**-m.  With one or two cycles per worker, the tail op lands
# inside the wide-10 runs and the median inside the wide-8 runs.  The
# 4,096-branch run makes only the two cheapest queries, which keeps a cycle
# near five seconds.
BRANCHING_MIX = (
    ("wide-12", 1, 12, 2),
    ("wide-10", 3, 10, 4),
    ("wide-8", 5, 8, 4),
    ("wide-6", 1, 6, 4),
    ("classical", 2, 6, None),
    ("deep", 2, 1000, None),
)

# diag(1, i) maps each x or y eigenray onto a y or x eigenray and fixes z.
_PHASE_MAP = {("x", 1): ("y", 1), ("x", -1): ("y", -1), ("y", 1): ("x", -1), ("y", -1): ("x", 1)}
_POINTS = ("a", "b", "c")


def _propagate(dist, kernel):
    """One step of a classical chain's distribution, in exact rationals."""
    out = {}
    for src, p in dist.items():
        for target, q in kernel[src]:
            out[target] = out.get(target, 0) + p * q
    return out


class Branching:
    name = "branching"
    size = (
        "per cycle: wide quantum processes 1x12, 3x10, 5x8, 1x6 measurements"
        " (up to 4,096 branches), 2 classical 6-step chains, 2 deep 1000-1199-stage runs"
    )
    trace_cycles = 1
    speed = staticmethod(speed.arithmetic_scale)

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        from ortholab import linalg, process, propositions, spin
        from ortholab.lattice import span

        self.process = process
        self.props = propositions
        self.obs = {axis: process.spin_observable(axis) for axis in "xyz"}
        self.spin_op = {"x": spin.SPIN_X, "y": spin.SPIN_Y, "z": spin.SPIN_Z}
        self.eigen = {
            ("x", 1): spin.X_UP,
            ("x", -1): spin.X_DOWN,
            ("y", 1): spin.Y_UP,
            ("y", -1): spin.Y_DOWN,
            ("z", 1): spin.Z_UP,
            ("z", -1): spin.Z_DOWN,
        }
        self.ray = {key: propositions.InSubspace(span([v], 2)) for key, v in self.eigen.items()}
        self.phase = linalg.Matrix.diagonal(1, "i")
        self.half = Fraction(1, 2)

    def cycle(self, c):
        specs = []
        for kind, count, size, n_queries in BRANCHING_MIX:
            for j in range(count):
                rng = random.Random(f"{self.seed}/{kind}/{c}/{j}")
                if kind == "classical":
                    specs.append(self._classical(rng, size))
                elif kind == "deep":
                    specs.append(self._deep(rng, size))
                else:
                    specs.append(self._wide(rng, kind, size, n_queries))
        return _shuffled(specs, self.seed, c)

    # -- generators: each returns (class, stages, queries) where a query is
    #    (function name, formula or formula pair, expected answer) -----------

    def _wide(self, rng, kind, m, n_queries):
        P, props = self.process, self.props
        at = P.Atom
        # z alternates with x and y, and x alternates with y, so consecutive
        # measurements use different axes (each is fair), every process has
        # the same mix of axes, and z follows each x or y measurement, as it
        # must after the conditional phase, which follows one of them
        offset, xy = rng.randrange(2), rng.choice(("xy", "yx"))
        axes = ["z" if (j + offset) % 2 else xy[(j + offset) // 2 % 2] for j in range(m)]
        j_phase = rng.choice([j for j, a in enumerate(axes[:-1]) if a != "z"])
        a0 = rng.choice([a for a in "xyz" if a != axes[0]])
        s0 = rng.choice((1, -1))
        stages = [P.Prepare(self.eigen[a0, s0])]
        measured = []  # (stage index, axis)
        unitaries = []  # (stage index, axis, conditioning sign)
        for j, axis in enumerate(axes):
            stages.append(P.Measure(self.obs[axis]))
            measured.append((len(stages) - 1, axis))
            if j == j_phase:
                sign = rng.choice((1, -1))
                cond = P.OutcomeIs(len(stages) - 1, f"{axis}{'+' if sign > 0 else '-'}")
                stages.append(P.ConditionalUnitary(cond, self.phase))
                unitaries.append((len(stages) - 1, axis, sign))
        k, ak = rng.choice(measured)
        s = rng.choice((1, -1))
        if unitaries and rng.random() < 0.5:
            u, axis, sign = rng.choice(unitaries)
            ray_query = at(self.ray[_PHASE_MAP[axis, sign]], u)
        else:
            ray_query = at(self.ray[ak, s], k)
        prepared = at(props.EqualsVector(self.eigen[a0, s0]), 0)
        # the right side reads the rays at stage k, or at another measurement
        # stage, which check_distributivity must flag as a stage mismatch
        kr, ar = rng.choice(measured)
        q, r = at(self.ray[ak, 1], k), at(self.ray[ak, -1], k)
        qr, rr = at(self.ray[ar, 1], kr), at(self.ray[ar, -1], kr)
        window = (props.Interval.point(Fraction(s, 2)),)
        queries = (
            ("holds_surely", (prepared,), True),
            ("prob_of", (ray_query,), self.half),
            ("prob_of", (at(props.ExpectationIn(self.spin_op[ak], window), k),), self.half),
            (
                "check_distributivity",
                (prepared & (q | r), (prepared & qr) | (prepared & rr)),
                (True, True, kr != k),
            ),
        )
        return kind, tuple(stages), queries[:n_queries], 2**m

    def _classical(self, rng, steps):
        P = self.process
        start = rng.choice(_POINTS)
        stages = [P.ClassicalPrepare(start)]
        dists = [{start: Fraction(1)}]
        kernels = []
        for _ in range(steps):
            kernel = {}
            for src in _POINTS:
                targets = rng.sample(_POINTS, rng.choice((2, 3)))
                weights = [rng.randint(1, 4) for _ in targets]
                total = sum(weights)
                kernel[src] = tuple((t, Fraction(w, total)) for t, w in zip(targets, weights))
            stages.append(P.ClassicalStep(kernel))
            kernels.append(kernel)
            dists.append(_propagate(dists[-1], kernel))
        k1, k2 = sorted(rng.sample(range(1, steps + 1), 2))
        p1, p2 = rng.choice(_POINTS), rng.choice(_POINTS)
        # P(at p1 after k1 and at p2 after k2), by propagating from p1 alone
        reach = {p1: Fraction(1)}
        for kernel in kernels[k1:k2]:
            reach = _propagate(reach, kernel)
        at, pt = P.Atom, P.PointIs
        both = dists[k1].get(p1, 0) * reach.get(p2, 0)
        q, r = rng.sample(_POINTS, 2)
        left = at(pt(start), 0) & (at(pt(q), k2) | at(pt(r), k2))
        right = (at(pt(start), 0) & at(pt(q), k2)) | (at(pt(start), 0) & at(pt(r), k2))
        p_left = dists[k2].get(q, 0) + dists[k2].get(r, 0)
        queries = (
            ("prob_of", (at(pt(p1), k1),), dists[k1].get(p1, 0)),
            ("prob_of", (at(pt(p1), k1) & at(pt(p2), k2),), both),
            ("holds_surely", (at(pt(start), 0),), True),
            ("holds_surely", (at(pt(p2), k2),), dists[k2].get(p2, 0) == 1),
            ("check_distributivity", (left, right), (True, p_left == 1, False)),
        )
        branches = None  # not closed-form; the sum-to-one check still applies
        return "classical", tuple(stages), queries, branches

    def _deep(self, rng, n):
        P = self.process
        n += rng.randrange(200)
        stages = (P.Prepare(self.eigen["z", 1]),) + (P.Measure(self.obs["z"]),) * n
        queries = (
            ("prob_of", (P.Atom(self.ray["z", 1], n),), 1),
            ("holds_surely", (P.Atom(self.ray["z", -1], n // 2),), False),
        )
        return "deep", stages, queries, 1

    # -- the op -------------------------------------------------------------

    def label(self, spec):
        return spec[0]

    def run(self, spec):
        _, stages, queries, _ = spec
        histories = self.process.run(stages)
        answers = [getattr(self.process, fn)(*formulas, histories) for fn, formulas, _ in queries]
        return histories, answers

    def check(self, spec, out):
        _, _, queries, branches = spec
        histories, answers = out
        total = sum((h.probability for h in histories), Fraction(0))
        shown = []
        problems = []
        if total != 1:
            problems.append(f"history probabilities sum to {total}")
        if branches is not None and len(histories) != branches:
            problems.append(f"{len(histories)} histories, expected {branches}")
        for (fn, _, expected), got in zip(queries, answers):
            if fn == "check_distributivity":
                got = (got.satisfied, got.left_true_in_all, got.stage_mismatch)
            if got != expected:
                problems.append(f"{fn} gave {got}, expected {expected}")
            shown.append(str(got))
        first = [[str(h.probability), str(h.trace[-1].state)] for h in histories[:16]]
        canonical = _dumps([len(histories), first, shown])
        return ("wrong" if problems else "ok"), canonical, "; ".join(problems)


# ---------------------------------------------------------------------------
# cli: one `python -m ortholab.cli ...` subprocess per op.
# ---------------------------------------------------------------------------

# Two-variable laws, so an exhaustive check at --dim 5 is 1,024 assignments
# each; three variables would be 32,768 and a traced run would hold a
# million eval_term spans.
_BOOLEAN_LAWS = (
    "x | (!x & (x | y)) = x | y",
    "!(x & y) = !x | !y",
    "!(x | y) = !x & !y",
    "x & (x | y) = x",
    "x | (x & y) = x",
    "x & !x <= y",
)


def _random_entry(rng) -> str:
    re = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
    im = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
    if not im:
        return str(re)
    imag = f"{im}i"
    if not re:
        return imag
    return f"{re}+{imag}" if im > 0 else f"{re}{imag}"


class Cli:
    name = "cli"
    size = "per cycle: 17 invocations covering demo, lattice, check, props and error paths"
    trace_cycles = 1
    speed = staticmethod(speed.startup_scale)  # an invocation is mostly interpreter start

    def __init__(self, seed, workdir, root, traced=None):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.traced = traced  # traced runs: (script that wraps cli.main, spans directory)
        self.first_output = {}
        self.calls = 0

    def _write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return os.path.relpath(path, self.root)

    def setup(self):
        rng = random.Random(f"{self.seed}/cli")
        os.makedirs(self.workdir, exist_ok=True)
        dim = rng.choice((3, 4))

        def subspace(rows):
            basis = [[_random_entry(rng) for _ in range(dim)] for _ in range(rows)]
            return json.dumps({"space_dim": dim, "basis": basis})

        a = self._write("a.json", subspace(rng.randint(1, dim - 1)))
        b = self._write("b.json", subspace(rng.randint(1, dim - 1)))
        laws = self._write("laws.txt", "# boolean laws\n" + "\n".join(rng.sample(_BOOLEAN_LAWS, 3)) + "\n")
        ray = [_random_entry(rng) for _ in range(2)]
        while all(e == "0" for e in ray):
            ray = [_random_entry(rng) for _ in range(2)]
        prop = {
            "type": "or",
            "children": [
                {"type": "in_subspace", "subspace": {"space_dim": 2, "basis": [ray]}},
                {
                    "type": "expectation_in",
                    "observable": {"rows": [["0", "1/2"], ["1/2", "0"]]},
                    "set": [{"lo": "-1/2", "hi": "0", "lo_closed": True, "hi_closed": False}],
                },
            ],
        }
        props = self._write("prop.json", json.dumps(prop))
        state = self._write("state.json", json.dumps({"state": ray}))
        bad = self._write("malformed.json", '{"space_dim": 2, "basis": [["1", "0"]')
        seed = str(rng.randrange(10**6))
        dist = "x & (y | z) = (x & y) | (x & z)"
        J, T = ["--format", "json"], ["--format", "text"]
        sub = ["--structure", "subspace"]
        # (name, argv, expected exit code, output format)
        self.ops = (
            ("demo-spin", J + ["demo", "spin"], 0, "json"),
            ("demo-hatch", J + ["demo", "hatch"], 0, "json"),
            ("demo-two-state", J + ["demo", "two-state"], 0, "json"),
            ("demo-spin-text", T + ["demo", "spin"], 0, "text"),
            ("lattice-meet", J + ["lattice", "meet", a, b], 0, "json"),
            ("lattice-join", J + ["lattice", "join", a, b], 0, "json"),
            ("lattice-ortho", J + ["lattice", "ortho", a], 0, "json"),
            ("lattice-leq", J + ["lattice", "leq", a, b], 0, "json"),
            ("lattice-join-text", T + ["lattice", "join", a, b], 0, "text"),
            ("check-subspace", J + ["--seed", seed, "check", dist] + sub + ["--dim", "2"], 1, "json"),
            ("check-boolean-file", J + ["check", "--file", laws, "--structure", "boolean", "--dim", "5"], 0, "json"),
            ("check-subspace-text", T + ["check", "x & (x | y) = x"] + sub + ["--dim", "3", "--trials", "20"], 0, "text"),
            ("props-eval", J + ["props", "eval", props, state], 0, "json"),
            ("props-eval-text", T + ["props", "eval", props, state], 0, "text"),
            ("malformed-json", J + ["lattice", "ortho", bad], 2, None),
            ("unparseable", J + ["check", "x & = y"] + sub, 2, None),
            ("deep-negation", J + ["check", "!" * 3000 + "x = x"] + sub, 2, None),
        )
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))

    def cycle(self, c):
        return _shuffled(list(range(len(self.ops))), self.seed, c)

    def label(self, spec):
        return self.ops[spec][0]

    def run(self, spec):
        name, argv, _, _ = self.ops[spec]
        if self.traced is None:
            cmd = [sys.executable, "-m", "ortholab.cli"] + argv
        else:
            script, spans_dir = self.traced
            spans = os.path.join(spans_dir, f"{self.calls}.json")
            cmd = [sys.executable, script, spans, str(self.calls)] + argv
        self.calls += 1
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, spec, out):
        name, _, expected_code, fmt = self.ops[spec]
        code, stdout, stderr = out
        digest = hashlib.sha256(stdout).hexdigest()
        canonical = _dumps([name, code, digest])
        if self.first_output.setdefault(name, digest) != digest:
            return "wrong", canonical, "output differs from an earlier run of the same argv"
        if code != expected_code:
            last = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return "failed", canonical, f"exit {code}, expected {expected_code}: {''.join(last)[:120]}"
        if fmt == "json":
            try:
                json.loads(stdout)
            except ValueError:
                return "wrong", canonical, "output is not JSON"
        elif fmt == "text" and not stdout.strip():
            return "wrong", canonical, "empty output"
        return "ok", canonical, ""


WORKLOADS = {w.name: w for w in (LatticeLaws, IdentityCheck, Branching, Cli)}
