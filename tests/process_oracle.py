"""The original ``process.run`` and queries, kept as an oracle.

``run`` is copied verbatim from ``ortholab.process`` as it was before a run
worked out each distinct (stage, state) once: it applies every projector
and unitary on every branch and builds a new TraceEntry for each child, so
histories share entries only along a common prefix.  ``_validate_process``
is copied verbatim too, as it was before it checked each ``Measure`` object
once: ``tests/test_process_oracle.py`` checks that both validators reject a
malformed process with the same error.
``prob_of`` and ``holds_surely`` are the plain queries: one ``evaluate_in``
per history, and one Rational addition per true history.
``tests/test_process_oracle.py`` checks that the current ``run`` gives the
same histories, in the same order, with the same probabilities, and that
every query answers the same as these.
"""

from operator import mul

from ortholab.linalg import Rational, _quote
from ortholab.process import (
    ClassicalPrepare,
    ClassicalStep,
    ConditionalUnitary,
    History,
    Measure,
    Prepare,
    TraceEntry,
    _CLASSICAL_STAGES,
    _QUANTUM_STAGES,
    evaluate_in,
)


def _validate_process(stages) -> bool:
    """Reject a malformed process before any walk, and return whether it is quantum; every
    measurement and unitary must act on the prepared state's dimension."""
    if not stages:
        raise ValueError("a process needs at least one stage")
    if not isinstance(stages[0], (Prepare, ClassicalPrepare)):
        raise ValueError("a process must start with a preparation")
    quantum = isinstance(stages[0], Prepare)
    dim = stages[0].state.dim if quantum else None
    for idx, st in enumerate(stages):
        if quantum and not isinstance(st, _QUANTUM_STAGES):
            raise ValueError("cannot mix classical stages into a quantum process")
        if not quantum and not isinstance(st, _CLASSICAL_STAGES):
            raise ValueError("cannot mix quantum stages into a classical process")
        if idx and isinstance(st, (Prepare, ClassicalPrepare)):
            raise ValueError(f"stage {idx}: preparation is only allowed first")
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
    stages.  Histories that share a prefix share its TraceEntry objects.
    """
    stages = tuple(stages)
    _validate_process(stages)
    histories = []
    trace = []  # the entries of the branch being walked, one per stage so far
    # each frame: (stage to run next, state, probability, entry for the stage before it)
    stack = [(0, None, Rational(1), None)]
    while stack:
        idx, state, probability, entry = stack.pop()
        if entry is not None:
            del trace[idx - 1 :]
            trace.append(entry)
        if idx == len(stages):
            if probability is None:  # a quantum leaf, C psi = x / dx: |C psi|^2 = x.x / dx^2
                x, dx = state.parts, state.den
                probability = Rational(sum(map(mul, x, x)) * den2, dx * dx * norm)
            histories.append(History(probability, tuple(trace)))
            continue
        st = stages[idx]
        children = []  # the frame fields after this stage, in outcome order
        if isinstance(st, Prepare):
            # Lüders' rule in sequence: a history's probability is |C psi|^2 / |psi|^2 for the
            # chain C of projectors and unitaries that made its leaf; it is None until the leaf
            norm, den2 = sum(map(mul, st.state.parts, st.state.parts)), st.state.den**2
            children.append((st.state, None, "-"))
        elif isinstance(st, Measure):
            for out in st.observable.outcomes:
                post = out.projector @ state
                # P is a hermitian projector, so <psi, P psi> = |P psi|^2: zero iff P psi is
                if not post.is_zero():
                    children.append((post, probability, out.label))
        elif isinstance(st, ConditionalUnitary):
            cond = st.condition
            applies = trace[cond.stage].outcome == cond.label
            children.append((st.matrix @ state if applies else state, probability, "-"))
        elif isinstance(st, ClassicalPrepare):
            children.append((st.point, probability, "-"))
        elif isinstance(st, ClassicalStep):
            row = st.kernel.get(state)
            if row is None:
                raise ValueError(f"kernel has no transition row for point {state!r}")
            for target, p in row:
                if p == 0:
                    continue
                children.append((target, probability * p, target))
        else:  # pragma: no cover
            raise TypeError(f"unknown stage {st!r}")
        # pushed last-first, so the first outcome is walked first
        for after, p, outcome in reversed(children):
            stack.append((idx + 1, after, p, TraceEntry(idx, outcome, after)))
    return tuple(histories)


def holds_surely(formula, histories) -> bool:
    """True iff the formula holds in every history."""
    return all(evaluate_in(formula, h) for h in histories)


def prob_of(formula, histories):
    """Exact probability mass of the histories where the formula is true."""
    return sum((h.probability for h in histories if evaluate_in(formula, h)), Rational(0))
