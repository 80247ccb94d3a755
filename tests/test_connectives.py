"""The one connective evaluator, ``propositions.truth``, and its two users.

``propositions.evaluate`` decides proposition leaves at a state and the
``process`` queries decide stage-bound ``Atom`` leaves in a history; both
walk ``And``, ``Or``, ``Not`` and ``Constant`` through ``truth``.
"""

import random
from dataclasses import dataclass

import pytest

from ortholab import span, vec
from ortholab.process import (
    Atom,
    check_distributivity,
    evaluate_in,
    formula_stages,
    holds_surely,
    prob_of,
    run,
    spin_demo,
)
from ortholab.propositions import (
    FALSE,
    TRUE,
    And,
    Constant,
    EqualsVector,
    InSubspace,
    Not,
    Or,
    Proposition,
    evaluate,
    truth,
)
from ortholab.spin import X_UP, Y_UP

DEPTH = 3000  # well past the default recursion limit of 1000


@dataclass(frozen=True)
class Leaf(Proposition):
    name: int
    value: bool


def reference_truth(node, leaf):
    """The recursive walk ``truth`` replaced, kept as its oracle."""
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, And):
        return all(reference_truth(c, leaf) for c in node.children)
    if isinstance(node, Or):
        return any(reference_truth(c, leaf) for c in node.children)
    if isinstance(node, Not):
        return not reference_truth(node.child, leaf)
    return leaf(node)


def random_tree(rng, depth, leaves):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if rng.random() < 0.1:
            return rng.choice((TRUE, FALSE))
        leaf = Leaf(len(leaves), rng.random() < 0.5)
        leaves.append(leaf)
        return leaf
    if roll < 0.4:
        return Not(random_tree(rng, depth - 1, leaves))
    children = tuple(random_tree(rng, depth - 1, leaves) for _ in range(rng.randrange(4)))
    return And(children) if roll < 0.7 else Or(children)


def recording_leaf(calls):
    def leaf(node):
        calls.append(node.name)
        return node.value

    return leaf


class TestAgainstRecursiveWalk:
    def test_values_and_leaf_order_match_on_random_trees(self):
        rng = random.Random("connectives/differential")
        empties = 0
        for _ in range(3000):
            leaves = []
            tree = random_tree(rng, rng.randrange(1, 7), leaves)
            got_calls, want_calls = [], []
            got = truth(tree, recording_leaf(got_calls))
            want = reference_truth(tree, recording_leaf(want_calls))
            assert (got, got_calls) == (want, want_calls)
            assert type(got) is type(want)
            empties += repr(tree).count("children=()")
        assert empties > 100  # the trees did exercise empty And and Or


@pytest.fixture(scope="module")
def spin():
    stages, formulas = spin_demo()
    return formulas, run(stages)


def deep_not(node):
    for _ in range(DEPTH):
        node = ~node
    return node


def deep_and(node, left_nested):
    chain = node
    for _ in range(DEPTH):
        chain = chain & node if left_nested else node & chain
    return chain


class TestDeepTrees:
    @pytest.mark.parametrize("left_nested", (True, False))
    def test_evaluate(self, left_nested):
        ray = InSubspace(span([X_UP], 2))
        assert evaluate(deep_not(ray), X_UP) is True
        assert evaluate(~deep_not(ray), X_UP) is False
        assert evaluate(deep_and(ray, left_nested), X_UP) is True
        assert evaluate(deep_and(ray, left_nested), Y_UP) is False

    @pytest.mark.parametrize("left_nested", (True, False))
    def test_process_queries(self, spin, left_nested):
        formulas, histories = spin
        p_i, q_o = formulas["p_i"], formulas["q_o"]
        negations = deep_not(p_i)
        conjunctions = deep_and(q_o, left_nested)
        assert all(evaluate_in(negations, h) for h in histories)
        assert holds_surely(negations, histories)
        assert not holds_surely(conjunctions, histories)
        assert prob_of(negations, histories) == 1
        assert prob_of(conjunctions, histories) == prob_of(q_o, histories)
        verdict = check_distributivity(negations, conjunctions, histories)
        assert verdict.per_history == tuple(
            (True, evaluate_in(q_o, h)) for h in histories
        )
        assert verdict.stage_mismatch
        assert formula_stages(negations) == frozenset((0,))
        assert formula_stages(negations & conjunctions) == frozenset((0, 1))


class TestShortCircuit:
    """A leaf after the deciding child is never run: here it would raise."""

    bad = EqualsVector(vec(1, 0, 0))  # three entries against two-entry states

    def test_evaluate(self):
        assert evaluate(TRUE | self.bad, X_UP) is True
        assert evaluate(FALSE & self.bad, X_UP) is False
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate(FALSE | self.bad, X_UP)

    def test_process_queries(self, spin):
        _, histories = spin
        bad = Atom(self.bad, 0)
        assert prob_of(TRUE | bad, histories) == 1
        assert not holds_surely(FALSE & bad, histories)
        assert all(evaluate_in(TRUE | bad, h) for h in histories)
        with pytest.raises(ValueError, match="dimension mismatch"):
            prob_of(TRUE & bad, histories)


class TestLeafKinds:
    def test_atom_inside_evaluate(self, spin):
        formulas, _ = spin
        ray = InSubspace(span([X_UP], 2))
        with pytest.raises(TypeError, match="not a proposition node"):
            evaluate(formulas["p_i"], X_UP)
        with pytest.raises(TypeError, match="not a proposition node"):
            evaluate(ray & ~formulas["p_i"], X_UP)

    def test_bare_proposition_inside_process_queries(self, spin):
        formulas, histories = spin
        ray = InSubspace(span([X_UP], 2))
        with pytest.raises(TypeError, match="not a formula node"):
            evaluate_in(ray, histories[0])
        with pytest.raises(TypeError, match="not a formula node"):
            prob_of(formulas["p_i"] & ray, histories)
