"""Spans around the calls into ortholab's public functions, from outside.

A :class:`Tracer` replaces each traced function with a wrapper everywhere a
module binds it (``ortholab.lattice.rref`` as well as ``ortholab.rref``), so
calls are seen the way each consumer makes them.  ``eval_term`` and
``evaluate_in`` recurse through their module globals, so every node of a
term or formula gets its own span.

Each span records name, start, end, parent span and op id; the spans stay in
flat arrays in memory and are written out once, by :meth:`Tracer.write`.
Self time is a span's duration minus the time its child spans cover.  Work
done after a call only to count things (bit-lengths, distinct inputs) is
timed separately as the span's ``hook`` and charged to neither the span nor
its parent.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from time import perf_counter

SETUP_OP = -1

# (module, attribute, span name); a None module means a method of linalg.Matrix.
TARGETS = (
    ("ortholab.linalg", "rref", "linalg.rref"),
    ("ortholab.linalg", "rank", "linalg.rank"),
    ("ortholab.linalg", "nullspace", "linalg.nullspace"),
    ("ortholab.linalg", "inner", "linalg.inner"),
    (None, "__matmul__", "linalg.matmul"),
    ("ortholab.lattice", "span", "lattice.span"),
    ("ortholab.lattice", "join", "lattice.join"),
    ("ortholab.lattice", "meet", "lattice.meet"),
    ("ortholab.lattice", "ortho", "lattice.ortho"),
    ("ortholab.lattice", "leq", "lattice.leq"),
    ("ortholab.lattice", "random_subspace", "lattice.random_subspace"),
    ("ortholab.dsl", "parse_statement", "dsl.parse_statement"),
    ("ortholab.dsl", "check", "dsl.check"),
    ("ortholab.dsl", "eval_term", "dsl.eval_term"),
    ("ortholab.propositions", "evaluate", "propositions.evaluate"),
    ("ortholab.propositions", "expectation", "propositions.expectation"),
    ("ortholab.process", "run", "process.run"),
    ("ortholab.process", "evaluate_in", "process.evaluate_in"),
    ("ortholab.process", "prob_of", "process.prob_of"),
    ("ortholab.process", "holds_surely", "process.holds_surely"),
    ("ortholab.process", "check_distributivity", "process.check_distributivity"),
    ("ortholab.cli", "main", "cli.main"),
)

KERNEL = ("linalg.rref", "linalg.rank", "linalg.nullspace")
QUERIES = ("process.prob_of", "process.holds_surely", "process.check_distributivity")


def _max_bits(matrix) -> int:
    best = 0
    for row in matrix.rows:
        for z in row:
            for part in (z.re, z.im):
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


class Tracer:
    """Span recorder; create one per process, install it, write it at exit."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.hook = array("d")
        self.stack = []
        self.current_op = SETUP_OP
        self.active = True
        self.counters = {
            "kernel_rows_in": 0,
            "kernel_max_bits": 0,
            "run_branches": 0,
            "run_trace_entries": 0,
        }
        self.ortho_inputs = set()
        self.eval_pairs = set()
        self._assignments = []  # keeps assignment dicts alive, so their ids stay unique
        self.wall_start = perf_counter()
        self.paused_s = 0.0

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside the block and leave its time out of ``wall_s``."""
        self.active = False
        t0 = perf_counter()
        try:
            yield
        finally:
            self.paused_s += perf_counter() - t0
            self.active = True

    # -- hooks: counting done after a call returns -------------------------

    def _kernel_in(self, args, result):
        self.counters["kernel_rows_in"] += args[0].nrows

    def _kernel_out(self, args, result):
        self.counters["kernel_rows_in"] += args[0].nrows
        bits = _max_bits(result)
        if bits > self.counters["kernel_max_bits"]:
            self.counters["kernel_max_bits"] = bits

    def _ortho(self, args, result):
        self.ortho_inputs.add(args[0])

    def _eval_term(self, args, result):
        assignment = args[1]
        if not self._assignments or self._assignments[-1] is not assignment:
            self._assignments.append(assignment)
        self.eval_pairs.add((args[0], id(assignment)))

    def _run(self, args, result):
        self.counters["run_branches"] += len(result)
        self.counters["run_trace_entries"] += sum(len(h.trace) for h in result)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, label: str, fn, after=None):
        nid = len(self.names)
        self.names.append(label)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.hook.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.end[idx] = t1
                stack.pop()
            if after is not None:
                after(args, result)
                self.hook[idx] = perf_counter() - t1
            return result

        return traced

    def install(self, extra_modules=()):
        """Wrap every target wherever an imported module binds it."""
        import ortholab.linalg

        hooks = {
            "linalg.rref": self._kernel_out,
            "linalg.rank": self._kernel_in,
            "linalg.nullspace": self._kernel_out,
            "lattice.ortho": self._ortho,
            "dsl.eval_term": self._eval_term,
            "process.run": self._run,
        }
        consumers = [
            m for n, m in sys.modules.items() if n == "ortholab" or n.startswith("ortholab.")
        ]
        consumers.extend(extra_modules)
        for module_name, attr, label in TARGETS:
            if module_name is None:
                cls = ortholab.linalg.Matrix
                setattr(cls, attr, self.wrap(label, getattr(cls, attr), hooks.get(label)))
                continue
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(label, original, hooks.get(label))
            for consumer in consumers:
                for key, value in list(vars(consumer).items()):
                    if value is original:
                        setattr(consumer, key, wrapper)

    def write(self, path: str):
        data = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "hook": self.hook.tolist(),
            "counters": dict(
                self.counters,
                ortho_distinct=len(self.ortho_inputs),
                eval_term_distinct=len(self.eval_pairs),
            ),
            "wall_s": perf_counter() - self.wall_start - self.paused_s,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def layer_metrics(span_files, scales) -> dict:
    """Per-layer numbers summed over the span files of one traced run.

    ``scales`` maps op id to the machine-speed scale of that op (speed.py);
    self times are scaled by it, so they compare across runs.
    """
    calls, self_s = {}, {}
    counters = {}
    wall = kernel_raw = 0.0
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        names, name, op = data["names"], data["name"], data["op"]
        start, end, parent, hook = data["start"], data["end"], data["parent"], data["hook"]
        covered = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += end[i] - start[i] + hook[i]
        for i, nid in enumerate(name):
            label = names[nid]
            calls[label] = calls.get(label, 0) + 1
            own = end[i] - start[i] - covered[i]
            self_s[label] = self_s.get(label, 0.0) + own * scales[op[i]]
            if label in KERNEL:
                kernel_raw += own
        for key, value in data["counters"].items():
            if key == "kernel_max_bits":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        wall += data["wall_s"]

    def c(label):
        return calls.get(label, 0)

    def s(label):
        return self_s.get(label, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    kernel_self = sum(s(k) for k in KERNEL)
    out = {
        "linalg.rref.calls": c("linalg.rref"),
        "linalg.rank.calls": c("linalg.rank"),
        "linalg.nullspace.calls": c("linalg.nullspace"),
        "linalg.kernel.self_s": kernel_self,
        "linalg.kernel.share": ratio(kernel_raw, wall),
        "linalg.kernel.rows_in": counters.get("kernel_rows_in", 0),
        "linalg.kernel.max_bits": counters.get("kernel_max_bits", 0),
    }
    for op in ("span", "join", "meet", "ortho", "leq", "random_subspace"):
        out[f"lattice.{op}.calls"] = c(f"lattice.{op}")
        out[f"lattice.{op}.self_s"] = s(f"lattice.{op}")
    out["lattice.ortho.distinct_ratio"] = ratio(
        counters.get("ortho_distinct", 0), c("lattice.ortho")
    )
    out["dsl.parse_statement.self_s"] = s("dsl.parse_statement")
    for fn in ("check", "eval_term"):
        out[f"dsl.{fn}.calls"] = c(f"dsl.{fn}")
        out[f"dsl.{fn}.self_s"] = s(f"dsl.{fn}")
    out["dsl.eval_term.distinct_ratio"] = ratio(
        counters.get("eval_term_distinct", 0), c("dsl.eval_term")
    )
    for label in (
        "propositions.evaluate",
        "propositions.expectation",
        "linalg.inner",
        "linalg.matmul",
    ):
        out[f"{label}.calls"] = c(label)
        out[f"{label}.self_s"] = s(label)
    out["process.run.calls"] = c("process.run")
    out["process.run.self_s"] = s("process.run")
    out["process.run.branches"] = counters.get("run_branches", 0)
    out["process.run.trace_entries"] = counters.get("run_trace_entries", 0)
    out["process.evaluate_in.calls"] = c("process.evaluate_in")
    out["process.evaluate_in.self_s"] = s("process.evaluate_in")
    out["process.query.self_s"] = sum(s(q) for q in QUERIES)
    out["cli.main.self_s"] = s("cli.main")
    return out
