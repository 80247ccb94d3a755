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

from itertools import compress, repeat, tee
from operator import attrgetter, itemgetter
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
    for every ``i != k``, that is ``P_i P_k = 0``.  Outcome labels must be
    distinct: a condition or a query names an outcome by its label.
    """

    name: str
    outcomes: tuple

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if not self.outcomes:
            raise ValueError(f"observable {_quote(self.name)} has no outcomes")
        dim = self.outcomes[0].projector.ncols
        total, labels = None, set()
        for out in self.outcomes:
            if out.label in labels:
                raise ValueError(
                    f"observable {_quote(self.name)} has two outcomes labelled {_quote(out.label)}"
                )
            labels.add(out.label)
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

    def __post_init__(self):
        object.__setattr__(self, "point", str(self.point))


class ClassicalStep(Record):
    """Stochastic transition: maps a sample point to weighted successors, each named once.

    Points are named by their ``str``, so two sources that print alike are refused."""

    kernel: MappingProxyType

    def __post_init__(self):
        normalized = {}
        for source, transitions in self.kernel.items():
            if str(source) in normalized:
                raise ValueError(f"kernel names source {_quote(str(source))} twice")
            row = tuple(
                (str(target), _to_rational(p, "probabilities")) for target, p in transitions
            )
            targets = set()
            for target, _ in row:
                if target in targets:
                    raise ValueError(
                        f"kernel row {_quote(source)} names target {_quote(target)} twice"
                    )
                targets.add(target)
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


def _validate_process(stages) -> bool:
    """Reject a malformed process before any walk, and return whether it is quantum; every
    measurement and unitary must act on the prepared state's dimension.  No check of a
    ``Measure`` reads its stage index, so each ``Measure`` object is checked once, where it
    first appears."""
    if not stages:
        raise ValueError("a process needs at least one stage")
    if not isinstance(stages[0], (Prepare, ClassicalPrepare)):
        raise ValueError("a process must start with a preparation")
    quantum = isinstance(stages[0], Prepare)
    dim = stages[0].state.dim if quantum else None
    checked = set()  # ids of the Measure objects checked so far; the stages pin them
    for idx, st in enumerate(stages):
        if id(st) in checked:
            continue
        if quantum and not isinstance(st, _QUANTUM_STAGES):
            raise ValueError("cannot mix classical stages into a quantum process")
        if not quantum and not isinstance(st, _CLASSICAL_STAGES):
            raise ValueError("cannot mix quantum stages into a classical process")
        if idx and isinstance(st, (Prepare, ClassicalPrepare)):
            raise ValueError(f"stage {idx}: preparation is only allowed first")
        if isinstance(st, Measure):
            checked.add(id(st))
        if isinstance(st, (Measure, ConditionalUnitary)):
            acts_on = st.observable.dim if isinstance(st, Measure) else st.matrix.ncols
            if acts_on != dim:
                raise ValueError(
                    f"stage {idx} acts on dimension {acts_on}, the prepared state has {dim}"
                )
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
    return quantum


def run(stages) -> tuple:
    """Enumerate all branches; histories in depth-first outcome order.

    The walk keeps an explicit stack, so a process may have any number of
    stages, and starts below stage 0, the preparation's one branch.  A stage
    that leaves one child is walked on in place; a frame is pushed only where
    a branch splits.  Within a run equal states are one object, interned once
    (the prepared state, each product computed, each classical point), so the
    run's tables key on identities: equal TraceEntry objects are one object,
    shared by every history; each stage is worked out once per distinct entry
    before it; each observable acts once per state, and each unitary once per
    entry.  A state is hashed only when a product is computed.  A quantum
    history's Born weight, |C psi|^2 / |psi|^2 for the chain C of projectors
    and unitaries that made its leaf (Lüders' rule in sequence), is formed
    once per last-stage branch; a classical one is its kernel weights'
    product.  A preparation alone is one sure history.  Otherwise every
    history, its parent's trace plus one entry, is made where the last stage
    branches.
    """
    stages = tuple(stages)
    quantum = _validate_process(stages)
    prepared = stages[0].state if quantum else stages[0].point
    last = len(stages) - 1
    if not last:
        return (History(Rational(1), (TraceEntry(0, "-", prepared),)),)
    histories = []
    interned = {prepared: prepared}  # state -> the run's one object equal to it
    # id(entry for the stage before)[, condition applies] -> [(entry, weight)]: `entries` pins
    # each entry, and one stage's outcomes never share a nonzero state (orthogonal projectors)
    known = {}
    entries = {}  # (stage, outcome, id(state)) -> its one TraceEntry; `interned` pins the state
    # (id(observable), id(state)) -> its nonzero (outcome, state after) pairs; measurements only
    moves = {}

    def entry_of(idx, outcome, state):  # equal entries are one object, built once
        key = (idx, outcome, id(state))
        entry = entries.get(key)
        if entry is None:
            entry = entries[key] = TraceEntry(idx, outcome, state)
        return entry

    # each frame: (stage to run next, probability, entry for the stage before it); a quantum
    # frame's probability is None until the last stage, whose children carry their Born weights
    stack = []
    idx, probability, entry = 1, None if quantum else Rational(1), entry_of(0, "-", prepared)
    trace = [entry]  # the entries of the branch being walked, one per stage so far
    while True:
        st = stages[idx]
        key = id(entry)
        if isinstance(st, ConditionalUnitary):
            key = (key, trace[st.condition.stage].outcome == st.condition.label)
        children = known.get(key)
        if children is None:
            state = entry.state
            if isinstance(st, ClassicalStep):  # the only classical stage after the preparation
                row = st.kernel.get(state)
                if row is None:
                    raise ValueError(f"kernel has no transition row for point {_quote(state)}")
                children = [(entry_of(idx, t, interned.setdefault(t, t)), p) for t, p in row if p]
            else:
                if isinstance(st, Measure):
                    move = moves.get((id(st.observable), id(state)))
                    if move is None:  # in outcome order
                        move = moves[id(st.observable), id(state)] = []
                        for out in st.observable.outcomes:
                            post = out.projector @ state
                            # <psi, P psi> = |P psi|^2 for a hermitian projector: zero iff P psi is
                            if not post.is_zero():
                                move.append((out.label, interned.setdefault(post, post)))
                elif key[1]:  # a ConditionalUnitary whose condition holds
                    post = st.matrix @ state
                    move = (("-", interned.setdefault(post, post)),)
                else:
                    move = (("-", state),)
                children = []
                for outcome, post in move:
                    weight = _norm_ratio(post, prepared) if idx == last else None
                    children.append((entry_of(idx, outcome, post), weight))
            known[key] = children  # in outcome order
        if len(children) == 1 and idx < last:  # walked on in place, with no frame
            # its weight is None (quantum, before the last stage) or 1 (a row's one nonzero entry)
            ((entry, _),) = children
            trace.append(entry)
            idx += 1
            continue
        if idx == last:  # its children's histories are made here, in outcome order
            prefix = tuple(trace)
            for child, weight in children:
                p = weight if probability is None else probability * weight
                histories.append(History(p, prefix + (child,)))
        else:  # pushed last-first, so the first outcome is walked first
            for child, weight in reversed(children):
                stack.append((idx + 1, weight if probability is None else probability * weight, child))
        if not stack:
            return tuple(histories)
        idx, probability, entry = stack.pop()
        trace[idx - 1 :] = (entry,)


# ---------------------------------------------------------------------------
# Stage-indexed formulas.
# ---------------------------------------------------------------------------


class PointIs(Record):
    """Classical test: the branch sits at this sample point."""

    point: str

    def __post_init__(self):
        object.__setattr__(self, "point", str(self.point))


class Atom(Proposition):
    """A predicate evaluated on the state after ``stage`` in each history."""

    test: object  # Proposition for quantum runs, PointIs for classical runs
    stage: int


def evaluate_in(formula: Proposition, history: History) -> bool:
    """Truth value of a stage-indexed formula in one history."""

    def leaf(atom):
        if not isinstance(atom, Atom):
            raise TypeError(f"not a formula node: {atom!r}")
        return _atom_holds(atom, history.state_at(atom.stage))

    return truth(formula, leaf)


def _atom_holds(atom: Atom, state) -> bool:
    if isinstance(state, str):
        if not isinstance(atom.test, PointIs):
            raise TypeError("classical history states need PointIs atoms")
        return state == atom.test.point
    if isinstance(atom.test, PointIs):
        raise TypeError("PointIs atoms only apply to classical histories")
    return evaluate(atom.test, state)


def _truth_values(formula, histories):
    """Yield each history's truth value lazily, one walk per distinct tuple of trace entries.

    The value depends only on the entries at ``formula_stages(formula)``, so a history's key
    is the tuple of those entries' ids (``()`` for a formula with no stages): ``run`` makes
    equal TraceEntries one object, so ``evaluate_in`` walks each distinct tuple of entries
    once.  C iterators make the keys: one column ``map(id, map(itemgetter(s), traces))`` per
    stage, zipped over a ``tee`` of the input, so no Python code runs per history to make
    one.  (CPython 3.12+ inlines comprehensions, PEP 709, so a per-history one costs less
    there and this gains less.)  A key's value is kept beside a history holding its entries,
    which pins their ids.  An ``IndexError`` from the columns marks the next history as too
    short for a stage: it is walked on its own, so ``state_at`` raises if it must, and the
    columns restart after it.
    """
    stages = tuple(formula_stages(formula))
    walked = {}  # tuple of id(entry) at the formula's stages -> (a history with them, value)
    rest = iter(histories)
    while True:
        rest, traces = tee(rest)  # rest feeds the walk, traces the columns
        traces = tee(map(attrgetter("trace"), traces), len(stages))
        columns = [map(id, map(itemgetter(s), t)) for s, t in zip(stages, traces)]
        pairs = zip(zip(*columns) if stages else repeat(()), rest)
        while True:
            try:
                for key, h in pairs:
                    hit = walked.get(key)
                    if hit is None:
                        break
                    yield hit[1]
                else:
                    return
            except IndexError:
                # from a column, which failed on the history next in rest; or from the input
                # itself, which then gives no more, and its error goes on
                short = next(rest, None)
                if short is None:
                    raise
                break
            # outside the try, so an IndexError of the walk's own is not taken for a short history
            hit = walked[key] = (h, evaluate_in(formula, h))
            yield hit[1]
        yield evaluate_in(formula, short)


def holds_surely(formula: Proposition, histories) -> bool:
    """True iff the formula holds in every history given; ``run`` gives none of probability 0.

    No history after the first false one is read."""
    return all(_truth_values(formula, histories))


def prob_of(formula: Proposition, histories):
    """Exact probability mass of the histories where the formula is true.

    ``compress`` picks the true histories' probabilities from a ``tee`` of the input, beside
    ``_truth_values``' lazy walk, so an iterator is read once.  Numerators are added once per
    denominator, then the few sums as Rationals: a gcd per denominator, not per history.  The
    result is still exact and in lowest terms.
    """
    histories, again = tee(histories)
    numerators = {}  # denominator -> sum of the true histories' numerators over it
    for p in compress(map(attrgetter("probability"), again), _truth_values(formula, histories)):
        numerators[p.denominator] = numerators.get(p.denominator, 0) + p.numerator
    return sum((Rational(n, d) for d, n in numerators.items()), Rational(0))


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
    histories = tuple(histories)  # both sides walk it, so an iterator is read once
    lvals, rvals = (tuple(_truth_values(f, histories)) for f in (left, right))
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
            f"{pair.path} must be a JSON pair [point, probability], not {_quote(pair.value)}"
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
