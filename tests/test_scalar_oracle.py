"""Differential test: the term-pattern scalar reader against the original scanner.

The oracle (``tests/scalar_oracle.py``) walked the text one character at a
time; ``parse_scalar`` now matches at most two terms of one compiled pattern.
On every input both must return the same Scalar, with parts of the same
type, or raise the same error type with the same message: positions count
in the padded text, and over-long digit runs meet the interpreter's
int-string limit in the same slot.
"""

import itertools
import sys

import pytest

import scalar_oracle
from ortholab.linalg import parse_scalar

LIMIT = sys.get_int_max_str_digits()
ALPHABET = "019+-/i \t"


def outcome(parse, text):
    try:
        z = parse(text)
    except Exception as exc:  # the error itself is what gets compared
        return type(exc).__name__, str(exc)
    return type(z).__name__, type(z.re).__name__, z.re, type(z.im).__name__, z.im


def assert_same(texts):
    mismatches = []
    for text in texts:
        want, got = outcome(scalar_oracle.parse_scalar, text), outcome(parse_scalar, text)
        if want != got:
            mismatches.append((text, want, got))
    assert mismatches[:5] == []


def test_every_short_string():
    assert_same(
        "".join(chars)
        for length in range(6)
        for chars in itertools.product(ALPHABET, repeat=length)
    )


def test_every_code_point_alone_and_between_terms():
    chars = [chr(c) for c in range(0x10000)]
    assert_same(chars)
    assert_same(f"1{c}2i" for c in chars)


@pytest.mark.parametrize("digits", [LIMIT, LIMIT + 1])
def test_digit_runs_at_the_int_string_limit(digits):
    run = "7" * digits
    slots = ["{}", "-{}/3", "1/{}", "{}i", "1+{}i", "1-2/{}i", "{}/{}", "1/0+{}i", "{}/"]
    assert_same(slot.format(run, run) for slot in slots)


def test_non_strings():
    assert_same([None, 1, 1.5, b"1", ["1"], {"re": "1"}, 1j])
