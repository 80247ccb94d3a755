"""Branching preparation/measurement experiments with exact probabilities.

A process is a list of stages.  Running it enumerates every branch: each
projective measurement splits the current branch, weighting outcome ``b``
by <psi, P_b psi> / <psi, psi> and continuing with the unnormalized state
``P_b psi``.  Classical processes use sample-point labels and stochastic
kernels instead.  Histories come back with exact rational probabilities
that sum to 1.

Formulas over a run are propositions whose ``Atom`` leaves bind a predicate
to a stage index, which is what lets statements "before" and "after" a
measurement coexist in one Boolean expression without ambiguity.
"""

from __future__ import annotations

from types import MappingProxyType

from .linalg import (
    Matrix,
    Rational,
    Record,
    Vector,
    _JsonAt,
    _cut,
    _norm_ratio,
    _quote,
    _to_rational,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)
from .lattice import span
from .propositions import (
    And,
    ExpectationIn,
    InSubspace,
    Interval,
    Not,
    Or,
    Proposition,
    evaluate,
    truth,
)
from . import spin

__all__ = [
    "Outcome",
    "Observable",
    "Prepare",
    "Measure",
    "OutcomeIs",
    "ConditionalUnitary",
    "ClassicalPrepare",
    "ClassicalStep",
    "TraceEntry",
    "History",
    "Atom",
    "PointIs",
    "run",
    "evaluate_in",
    "holds_surely",
    "prob_of",
    "formula_stages",
    "DistributivityVerdict",
    "check_distributivity",
    "spin_observable",
    "spin_demo",
    "hatch_demo",
    "process_to_json",
    "process_from_json",
    "histories_to_json",
]


class Outcome(Record):
    label: str
    value: object
    projector: Matrix

    def __post_init__(self):
        object.__setattr__(self, "value", _to_rational(self.value, "outcome values"))


class Observable(Record):
    """A measurement given by its spectral projectors.

    Projectors must be hermitian, idempotent and sum to the identity; the
    three conditions are checked exactly on construction, so ``run`` can
    trust them.  They imply pairwise orthogonality: for ``v = P_k v``,
    ``|v|^2 = sum_i <v, P_i v> = |v|^2 + sum_{i != k} |P_i v|^2``, as
    ``<v, P_i v> = |P_i v|^2`` for a hermitian idempotent, so ``P_i v = 0``
    for every ``i != k``, that is ``P_i P_k = 0``.
    """

    name: str
    outcomes: tuple

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if not self.outcomes:
            raise ValueError(f"observable {_quote(self.name)} has no outcomes")
        dim = self.outcomes[0].projector.ncols
        total = None
        for out in self.outcomes:
            p = out.projector
            if p.nrows != dim or p.ncols != dim:
                raise ValueError(f"projector {_quote(out.label)} is not {dim}x{dim}")
            if not p.is_hermitian():
                raise ValueError(f"projector {_quote(out.label)} is not hermitian")
            if p @ p != p:
                raise ValueError(f"projector {_quote(out.label)} is not idempotent")
            total = p if total is None else total + p
        if total != Matrix.identity(dim):
            raise ValueError(f"projectors of {_quote(self.name)} do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.outcomes[0].projector.ncols

    def labels(self) -> tuple:
        return tuple(out.label for out in self.outcomes)


class Prepare(Record):
    state: Vector

    def __post_init__(self):
        if self.state.is_zero():
            raise ValueError("cannot prepare the zero vector")


class Measure(Record):
    observable: Observable


class OutcomeIs(Record):
    """Branch condition: the outcome recorded at ``stage`` equals ``label``."""

    stage: int
    label: str


class ConditionalUnitary(Record):
    condition: OutcomeIs
    matrix: Matrix

    def __post_init__(self):
        if not self.matrix.is_unitary():
            raise ValueError("conditional stage needs a unitary matrix")


class ClassicalPrepare(Record):
    point: str


class ClassicalStep(Record):
    """Stochastic transition: maps a sample point to weighted successors."""

    kernel: MappingProxyType

    def __post_init__(self):
        normalized = {}
        for source, transitions in self.kernel.items():
            row = tuple(
                (str(target), _to_rational(p, "probabilities")) for target, p in transitions
            )
            if any(p < 0 for _, p in row):
                raise ValueError(f"negative probability in kernel row {_quote(source)}")
            total = sum((p for _, p in row), Rational(0))
            if total != 1:
                raise ValueError(f"kernel row {_quote(source)} sums to {_cut(total)}, not 1")
            normalized[str(source)] = row
        object.__setattr__(self, "kernel", MappingProxyType(normalized))


_QUANTUM_STAGES = (Prepare, Measure, ConditionalUnitary)
_CLASSICAL_STAGES = (ClassicalPrepare, ClassicalStep)


class TraceEntry(Record):
    stage: int
    outcome: str  # "-" when the stage has no measurement outcome
    state: object  # Vector for quantum branches, sample label for classical


class History(Record):
    """One branch of a run: its exact probability and per-stage trace."""

    probability: object
    trace: tuple

    def state_at(self, stage: int):
        if not 0 <= stage < len(self.trace):
            raise ValueError(f"stage index {stage} out of range 0..{len(self.trace) - 1}")
        return self.trace[stage].state


def _validate_process(stages):
    if not stages:
        raise ValueError("a process needs at least one stage")
    if not isinstance(stages[0], (Prepare, ClassicalPrepare)):
        raise ValueError("a process must start with a preparation")
    quantum = isinstance(stages[0], Prepare)
    for idx, st in enumerate(stages):
        if quantum and not isinstance(st, _QUANTUM_STAGES):
            raise ValueError("cannot mix classical stages into a quantum process")
        if not quantum and not isinstance(st, _CLASSICAL_STAGES):
            raise ValueError("cannot mix quantum stages into a classical process")
        if idx and isinstance(st, (Prepare, ClassicalPrepare)):
            raise ValueError(f"stage {idx}: preparation is only allowed first")
        if isinstance(st, ConditionalUnitary):
            cond = st.condition
            if not 0 <= cond.stage < idx:
                raise ValueError(
                    f"stage {idx} conditions on stage {cond.stage}, which is not earlier"
                )
            target = stages[cond.stage]
            if not isinstance(target, Measure):
                raise ValueError(f"stage {idx} conditions on stage {cond.stage}, not a measurement")
            if cond.label not in target.observable.labels():
                raise ValueError(f"stage {idx} conditions on unknown outcome {_quote(cond.label)}")


def run(stages) -> tuple:
    """Enumerate all branches; histories in depth-first outcome order.

    The walk keeps an explicit stack, so a process may have any number of
    stages, and starts below stage 0, the preparation's one branch.  Each
    distinct (stage, state) is worked out once, and within a run equal
    TraceEntry objects are one object, shared by every history.  A quantum
    history's Born weight, |C psi|^2 / |psi|^2 for the chain C of projectors
    and unitaries that made its leaf (Lüders' rule in sequence), is formed
    once per last-stage branch; a classical one is its kernel weights' product.
    """
    stages = tuple(stages)
    _validate_process(stages)
    prepared = stages[0].state if isinstance(stages[0], Prepare) else stages[0].point
    last = len(stages) - 1
    histories = []
    trace = []  # the entries of the branch being walked, one per stage so far
    known = {}  # (stage, state[, condition applies]) -> [(entry, weight)]
    entries = {}  # (stage, outcome, state) -> its one TraceEntry
    products = {}  # (id(matrix), state) -> matrix @ state; the stages pin each matrix

    def entry_of(*fields):  # equal entries are one object
        return entries.setdefault(fields, TraceEntry(*fields))

    def apply(matrix, state):  # each Matrix @ Vector runs once per matrix and state
        key = (id(matrix), state)
        return products[key] if key in products else products.setdefault(key, matrix @ state)

    def quantum_child(idx, outcome, state):  # its weight is None, or its history's Born weight
        return entry_of(idx, outcome, state), _norm_ratio(state, prepared) if idx == last else None

    # each frame: (stage to run next, probability, entry for the stage before it); a quantum
    # frame's probability is None until the last stage, whose children carry their Born weights
    quantum = isinstance(prepared, Vector)
    stack = [(1, None if quantum and last else Rational(1), entry_of(0, "-", prepared))]
    while stack:
        idx, probability, entry = stack.pop()
        del trace[idx - 1 :]
        trace.append(entry)
        if idx > last:
            histories.append(History(probability, tuple(trace)))
            continue
        st, state = stages[idx], entry.state
        key = (idx, state)
        if isinstance(st, ConditionalUnitary):
            key += (trace[st.condition.stage].outcome == st.condition.label,)
        children = known.get(key)
        if children is None:
            children = known[key] = []  # in outcome order
            if isinstance(st, Measure):
                for out in st.observable.outcomes:
                    post = apply(out.projector, state)
                    # P is a hermitian projector, so <psi, P psi> = |P psi|^2: zero iff P psi is
                    if not post.is_zero():
                        children.append(quantum_child(idx, out.label, post))
            elif isinstance(st, ConditionalUnitary):
                after = apply(st.matrix, state) if key[2] else state
                children.append(quantum_child(idx, "-", after))
            else:  # a ClassicalStep, the only classical stage after the preparation
                row = st.kernel.get(state)
                if row is None:
                    raise ValueError(f"kernel has no transition row for point {_quote(state)}")
                children.extend((entry_of(idx, target, target), p) for target, p in row if p != 0)
        # pushed last-first, so the first outcome is walked first
        for child, weight in reversed(children):
            stack.append((idx + 1, weight if probability is None else probability * weight, child))
    return tuple(histories)


# ---------------------------------------------------------------------------
# Stage-indexed formulas.
# ---------------------------------------------------------------------------


class PointIs(Record):
    """Classical test: the branch sits at this sample point."""

    point: str


class Atom(Proposition):
    """A predicate evaluated on the state after ``stage`` in each history."""

    test: object  # Proposition for quantum runs, PointIs for classical runs
    stage: int


def evaluate_in(formula: Proposition, history: History) -> bool:
    """Truth value of a stage-indexed formula in one history."""
    return _evaluate(formula, history, {})


def _evaluate(formula, history, memo):
    """``evaluate_in`` with a ``memo`` dict: each atom is evaluated once per trace entry.

    ``memo`` is keyed on ``(id(atom), id(entry))``: ``run`` makes equal
    TraceEntries one object, so an atom is evaluated once per distinct
    entry.  Each value pins its entry, so an id cannot be reused while the
    memo lives.  The queries walk a formula once per distinct tuple of
    entries at its stages (``_truth_values``).
    """

    def leaf(atom):
        if not isinstance(atom, Atom):
            raise TypeError(f"not a formula node: {atom!r}")
        state = history.state_at(atom.stage)
        entry = history.trace[atom.stage]
        key = (id(atom), id(entry))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (entry, _atom_holds(atom, state))
        return hit[1]

    return truth(formula, leaf)


def _atom_holds(atom: Atom, state) -> bool:
    if isinstance(state, str):
        if not isinstance(atom.test, PointIs):
            raise TypeError("classical history states need PointIs atoms")
        return state == atom.test.point
    if isinstance(atom.test, PointIs):
        raise TypeError("PointIs atoms only apply to classical histories")
    return evaluate(atom.test, state)


def _truth_values(formula, histories, memo):
    """Yield ``(history, truth value)`` lazily, one walk per distinct tuple of trace entries.

    The value depends only on the entries at ``formula_stages(formula)``.  It
    is kept beside its history, which pins the ids in its key.  A history too
    short for a stage is walked on its own, so ``state_at`` raises if it must.
    """
    stages = tuple(formula_stages(formula))
    walked = {}  # tuple of id(entry) at the formula's stages, or id(history) -> (history, value)
    for h in histories:
        try:
            key = tuple([id(h.trace[s]) for s in stages])
        except IndexError:
            key = id(h)
        hit = walked.get(key)
        if hit is None:
            hit = walked[key] = (h, _evaluate(formula, h, memo))
        yield h, hit[1]


def holds_surely(formula: Proposition, histories) -> bool:
    """True iff the formula holds in every positive-probability history."""
    return all(value for _, value in _truth_values(formula, histories, {}))


def prob_of(formula: Proposition, histories):
    """Exact probability mass of the histories where the formula is true."""
    values = _truth_values(formula, histories, {})
    return sum((h.probability for h, value in values if value), Rational(0))


def formula_stages(formula: Proposition) -> frozenset:
    stages = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            stages.add(node.stage)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif isinstance(node, Not):
            stack.append(node.child)
    return frozenset(stages)


class DistributivityVerdict(Record):
    """Side-by-side comparison of two formulas over one set of histories.

    ``stage_mismatch`` flags comparisons whose two sides do not even refer
    to the same stages; their disagreement says nothing about logic.
    """

    left_true_in_all: bool
    left_false_in_all: bool
    right_true_in_all: bool
    right_false_in_all: bool
    per_history: tuple  # (left, right) truth pairs, one per history
    stage_mismatch: bool

    @property
    def sides_agree(self) -> bool:
        return self.left_true_in_all == self.right_true_in_all

    @property
    def per_history_agree(self) -> bool:
        return all(l == r for l, r in self.per_history)

    @property
    def satisfied(self) -> bool:
        return self.sides_agree and self.per_history_agree

    def to_json(self) -> dict:
        return {
            "left_true_in_all": self.left_true_in_all,
            "left_false_in_all": self.left_false_in_all,
            "right_true_in_all": self.right_true_in_all,
            "right_false_in_all": self.right_false_in_all,
            "sides_agree": self.sides_agree,
            "per_history_agree": self.per_history_agree,
            "stage_mismatch": self.stage_mismatch,
            "satisfied": self.satisfied,
        }


def check_distributivity(
    left: Proposition, right: Proposition, histories
) -> DistributivityVerdict:
    memo = {}
    histories = tuple(histories)  # both sides walk it, so an iterator is read once
    lvals, rvals = (tuple(v for _, v in _truth_values(f, histories, memo)) for f in (left, right))
    return DistributivityVerdict(
        left_true_in_all=all(lvals),
        left_false_in_all=not any(lvals),
        right_true_in_all=all(rvals),
        right_false_in_all=not any(rvals),
        per_history=tuple(zip(lvals, rvals)),
        stage_mismatch=formula_stages(left) != formula_stages(right),
    )


# ---------------------------------------------------------------------------
# The two worked demos.
# ---------------------------------------------------------------------------


def spin_observable(axis: str) -> Observable:
    projs = {
        "x": (spin.PROJ_X_UP, spin.PROJ_X_DOWN),
        "y": (spin.PROJ_Y_UP, spin.PROJ_Y_DOWN),
        "z": (spin.PROJ_Z_UP, spin.PROJ_Z_DOWN),
    }
    if axis not in projs:
        raise ValueError(f"unknown spin axis {_quote(axis)}")
    up, down = projs[axis]
    return Observable(
        f"S_{axis}",
        (
            Outcome(f"{axis}+", spin.HALF, up),
            Outcome(f"{axis}-", -spin.HALF, down),
        ),
    )


def spin_demo():
    """Three-step spin experiment plus its named stage-indexed statements.

    Prepare x-spin up, measure y-spin, then rotate the y-down branch onto
    the x-up ray with the exact unitary diag(1, i).  Stage subscripts: _i is
    the post-preparation stage 0, _o the post-measurement stage 1, _f the
    final stage 2.  The primed statements assert the y-spin expectation
    value is +-1/2 rather than asserting an eigenstate.
    """
    in_x_up = InSubspace(span([spin.X_UP], 2))
    in_y_up = InSubspace(span([spin.Y_UP], 2))
    in_y_down = InSubspace(span([spin.Y_DOWN], 2))

    stages = (
        Prepare(spin.X_UP),
        Measure(spin_observable("y")),
        ConditionalUnitary(OutcomeIs(1, "y-"), Matrix.diagonal(1, "i")),
    )
    formulas = {}
    for stage, tag in ((0, "i"), (1, "o"), (2, "f")):
        formulas[f"p_{tag}"] = Atom(in_x_up, stage)
        formulas[f"q_{tag}"] = Atom(in_y_up, stage)
        formulas[f"r_{tag}"] = Atom(in_y_down, stage)
    formulas["q'_i"] = Atom(ExpectationIn(spin.SPIN_Y, (Interval.point(spin.HALF),)), 0)
    formulas["r'_i"] = Atom(ExpectationIn(spin.SPIN_Y, (Interval.point(-spin.HALF),)), 0)
    return stages, formulas


def hatch_demo():
    """Classical analogue: a ball on a hatch drops to q or r with chance 1/2.

    Stage 0 is before the hatch opens (ball surely at p), stage 1 after.
    """
    stages = (
        ClassicalPrepare("p"),
        ClassicalStep(
            {
                "p": (("q", Rational(1, 2)), ("r", Rational(1, 2))),
                "q": (("q", Rational(1)),),
                "r": (("r", Rational(1)),),
            }
        ),
    )
    formulas = {}
    for stage, tag in ((0, "i"), (1, "o")):
        for point in ("p", "q", "r"):
            formulas[f"{point}_{tag}"] = Atom(PointIs(point), stage)
    return stages, formulas


# ---------------------------------------------------------------------------
# Wire formats.
# ---------------------------------------------------------------------------


def _outcome_to_json(out: Outcome) -> dict:
    return {
        "label": out.label,
        "value": str(out.value),
        "projector": matrix_to_json(out.projector),
    }


def _observable_to_json(obs: Observable) -> dict:
    return {"name": obs.name, "outcomes": [_outcome_to_json(o) for o in obs.outcomes]}


def _transition(pair) -> tuple:
    # one [point, probability] entry of a classical kernel row
    if len(pair.expect(list)) != 2:
        raise TypeError(
            f"{pair.path} must be a JSON pair [point, probability], not {pair.quoted()}"
        )
    point, p = pair
    return point.expect(str), p.rational()


def stage_to_json(stage) -> dict:
    if isinstance(stage, Prepare):
        return {"kind": "prepare", "state": vector_to_json(stage.state)}
    if isinstance(stage, Measure):
        return {"kind": "measure", "observable": _observable_to_json(stage.observable)}
    if isinstance(stage, ConditionalUnitary):
        return {
            "kind": "conditional_unitary",
            "condition": {"stage": stage.condition.stage, "outcome": stage.condition.label},
            "matrix": matrix_to_json(stage.matrix),
        }
    if isinstance(stage, ClassicalPrepare):
        return {"kind": "classical_prepare", "point": stage.point}
    if isinstance(stage, ClassicalStep):
        return {
            "kind": "classical_step",
            "kernel": {
                src: [[target, str(p)] for target, p in row]
                for src, row in stage.kernel.items()
            },
        }
    raise TypeError(f"unknown stage {stage!r}")


def stage_from_json(data):
    data = _JsonAt.of(data, "stage")
    kind = data["kind"].expect(str)
    if kind == "prepare":
        return data.build(Prepare, vector_from_json(data["state"]))
    if kind == "measure":
        obs = data["observable"]
        outcomes = tuple(
            Outcome(o["label"].expect(str), o["value"].rational(), matrix_from_json(o["projector"]))
            for o in obs["outcomes"]
        )
        return Measure(obs.build(Observable, obs["name"].expect(str), outcomes))
    if kind == "conditional_unitary":
        cond = data["condition"]
        condition = OutcomeIs(cond["stage"].expect(int), cond["outcome"].expect(str))
        return data.build(ConditionalUnitary, condition, matrix_from_json(data["matrix"]))
    if kind == "classical_prepare":
        return ClassicalPrepare(data["point"].expect(str))
    if kind == "classical_step":
        kernel = {src: tuple(_transition(t) for t in row) for src, row in data["kernel"].items()}
        return data["kernel"].build(ClassicalStep, kernel)
    raise ValueError(f"unknown stage kind {_quote(kind)}")


def process_to_json(stages) -> list:
    return [stage_to_json(s) for s in stages]


def process_from_json(data) -> tuple:
    return tuple(stage_from_json(s) for s in _JsonAt.of(data, "process"))


def _state_to_json(state):
    return state if isinstance(state, str) else vector_to_json(state)


def histories_to_json(histories) -> list:
    return [
        {
            "prob": str(h.probability),
            "trace": [
                {"stage": t.stage, "outcome": t.outcome, "state": _state_to_json(t.state)}
                for t in h.trace
            ],
        }
        for h in histories
    ]
