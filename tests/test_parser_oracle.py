"""Differential test: the precedence-climbing parser against the original one.

The oracle (``tests/parser_oracle.py``) parsed ``|`` and ``&`` with one
method per level; the parser now climbs one table of binary connectives.
On every generated statement both must build the same AST (compared by
``repr``) or raise the same error type with the same message.  Nesting
stays at or below 200 levels, where neither parser runs out of stack.
"""

import random

import pytest

import parser_oracle
from ortholab.dsl import parse_statement

STATEMENTS = 100_000
SEED = 20261018

# every token of the language, its unicode aliases, and characters it refuses
ALPHABET = list("xyzw_019()&|!=<≤∧∨¬# \t.-") + ["<=", "x1", "foo", "  "]
LEAVES = ("x", "y", "z", "w1", "a_b", "0", "1")
AND_OR = ("&", "∧", "|", "∨")
RELATIONS = ("=", "<=", "≤")


def outcome(parse, text):
    try:
        return repr(parse(text))
    except Exception as exc:  # the error itself is what gets compared
        return type(exc).__name__, str(exc)


def random_string(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(40)))


def random_term(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        text = rng.choice(LEAVES)
    elif rng.random() < 0.25:
        text = rng.choice("!¬") + random_term(rng, depth - 1)
    else:
        left, right = random_term(rng, depth - 1), random_term(rng, depth - 1)
        text = f"{left}{rng.choice(('', ' '))}{rng.choice(AND_OR)} {right}"
    return f"({text})" if rng.random() < 0.2 else text


def well_formed(rng):
    return f"{random_term(rng, 6)} {rng.choice(RELATIONS)} {random_term(rng, 6)}"


def near_miss(rng):
    # one character of a well-formed statement deleted, replaced or inserted
    text = well_formed(rng)
    i = rng.randrange(len(text))
    return text[:i] + rng.choice(["", rng.choice(ALPHABET)]) + text[i + rng.randrange(2) :]


def deep(k):
    # nesting k, at most 200: parentheses, negations, both, unclosed, long chains
    return (
        "(" * k + "x" + ")" * k + " = x",
        "!" * k + "x <= x",
        "(!" * (k // 2) + "x" + ")" * (k // 2) + " = 1",
        "x = " + "(" * k + "x | y",
        "x & " * k + "x = x",
        "(" * k + ")" * k + " = x",
    )


def generated():
    rng = random.Random(SEED)
    makers = (random_string, random_string, random_string, well_formed, near_miss)
    for _ in range(STATEMENTS):
        yield rng.choice(makers)(rng)
    for k in range(201):
        yield from deep(k)


def test_same_ast_or_same_error_on_generated_statements():
    kinds = set()
    for text in generated():
        expected = outcome(parser_oracle.parse_statement, text)
        assert outcome(parse_statement, text) == expected, text
        kinds.add("parsed" if isinstance(expected, str) else expected[0])
    # the generator reaches both outcomes, and never the stack limit
    assert kinds == {"parsed", "IdentitySyntaxError"}


@pytest.mark.parametrize(
    "text",
    [
        "x | y & z = (x | y) & z",
        "x & y | z = x & (y | z)",
        "x | y | z = x & y & z",
        "!x & !!y | z <= 1",
        "x ∨ y ∧ ¬z ≤ 0",
        "x | = y",
        "x & (y | z = x",
        "x = y z",
        "",
    ],
)
def test_same_ast_or_same_error_on_fixed_statements(text):
    assert outcome(parse_statement, text) == outcome(parser_oracle.parse_statement, text)


def test_three_thousand_negations_still_exhaust_the_stack():
    with pytest.raises(RecursionError):
        parse_statement("!" * 3000 + "x = x")
