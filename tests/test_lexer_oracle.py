"""Differential test: the one-pattern lexer against the original one.

The oracle (``tests/parser_oracle.py``) walked the text a character at a
time and named kinds ``AND``, ``LPAREN`` and so on; the lexer now reads
tokens with one regular expression and names each kind by its ASCII
spelling.  On every code point below U+10000, alone, between two
variables and before ``<=``, both must give the same tokens (texts,
positions, and kinds through ``OLD_TO_NEW``) or the same error.
"""

import parser_oracle
from ortholab.dsl import _tokenize

OLD_TO_NEW = {
    "AND": "&",
    "OR": "|",
    "NOT": "!",
    "LPAREN": "(",
    "RPAREN": ")",
    "EQ": "=",
    "LEQ": "<=",
    "BOTTOM": "0",
    "TOP": "1",
    "VAR": "VAR",
    "EOF": "EOF",
}
CONTEXTS = (lambda c: c, lambda c: "x" + c + "y", lambda c: c + "<=")


def lexed(tokenize, text, kinds=lambda kind: kind):
    try:
        return [(kinds(t.kind), t.text, t.position) for t in tokenize(text)]
    except Exception as exc:  # the error itself is what gets compared
        return type(exc).__name__, str(exc)


def test_every_code_point_lexes_as_before():
    mismatches = []
    for code in range(0x10000):
        for context in CONTEXTS:
            text = context(chr(code))
            old = lexed(parser_oracle._tokenize, text, OLD_TO_NEW.__getitem__)
            new = lexed(_tokenize, text)
            if old != new:
                mismatches.append((text, old, new))
    assert mismatches == []


def test_the_contexts_reach_every_outcome():
    # a token, a variable, an alias, whitespace and an error each occur
    assert lexed(_tokenize, "x&y") == [("VAR", "x", 1), ("&", "&", 2), ("VAR", "y", 3), ("EOF", "", 4)]
    assert lexed(_tokenize, "≤<=") == [("<=", "≤", 1), ("<=", "<=", 2), ("EOF", "", 4)]
    assert lexed(_tokenize, "x y") == [("VAR", "x", 1), ("VAR", "y", 3), ("EOF", "", 4)]
    assert lexed(_tokenize, "xéy") == ("IdentitySyntaxError", "unexpected character 'é' at position 2")
