"""The original ``dsl`` front end, kept as an oracle.

``_Parser`` is copied verbatim from ``ortholab.dsl`` as it was before the
parser became one precedence-climbing ``term(min_prec)``: a ``term`` for
``|`` over an ``and_term`` for ``&``.  The lexer (``_SINGLE_CHAR_TOKENS``,
``_Token`` and ``_tokenize``) is copied verbatim from before token kinds
became their ASCII spellings and one regular expression drove the lexer:
it names kinds ``AND``, ``LPAREN`` and so on, and walks the text one
character at a time.  ``tests/test_parser_oracle.py`` checks that the
current parser builds the same AST, or raises the same error, on every
statement it generates; ``tests/test_lexer_oracle.py`` compares the two
lexers on single characters.
"""

import re
from dataclasses import dataclass

from ortholab.dsl import (
    And,
    Bottom,
    IdentityStatement,
    IdentitySyntaxError,
    Not,
    Or,
    Relation,
    Term,
    Top,
    Var,
)

_VAR_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


_SINGLE_CHAR_TOKENS = {
    "&": "AND",
    "∧": "AND",  # logical and sign
    "|": "OR",
    "∨": "OR",  # logical or sign
    "!": "NOT",
    "¬": "NOT",  # negation sign
    "(": "LPAREN",
    ")": "RPAREN",
    "=": "EQ",
    "≤": "LEQ",  # less-or-equal sign
    "0": "BOTTOM",
    "1": "TOP",
}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int  # 1-based column


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        if text.startswith("<=", i):
            tokens.append(_Token("LEQ", "<=", pos))
            i += 2
            continue
        if ch in _SINGLE_CHAR_TOKENS:
            tokens.append(_Token(_SINGLE_CHAR_TOKENS[ch], ch, pos))
            i += 1
            continue
        m = _VAR_RE.match(text, i)
        if m:
            tokens.append(_Token("VAR", m.group(), pos))
            i = m.end()
            continue
        raise IdentitySyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("EOF", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str, expected: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise IdentitySyntaxError(f"expected {expected}, found {found!r}", tok.position)
        return self.advance()

    def statement(self) -> IdentityStatement:
        lhs = self.term()
        tok = self.peek()
        if tok.kind == "EQ":
            relation = Relation.EQUAL
        elif tok.kind == "LEQ":
            relation = Relation.LEQ
        else:
            found = tok.text or "end of input"
            raise IdentitySyntaxError(f"expected '=' or '<=', found {found!r}", tok.position)
        self.advance()
        rhs = self.term()
        self.expect("EOF", "end of input")
        return IdentityStatement(lhs, rhs, relation)

    def term(self) -> Term:
        node = self.and_term()
        while self.peek().kind == "OR":
            self.advance()
            node = Or(node, self.and_term())
        return node

    def and_term(self) -> Term:
        node = self.unary()
        while self.peek().kind == "AND":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Term:
        tok = self.peek()
        if tok.kind == "NOT":
            self.advance()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "VAR":
            self.advance()
            return Var(tok.text)
        if tok.kind == "TOP":
            self.advance()
            return Top()
        if tok.kind == "BOTTOM":
            self.advance()
            return Bottom()
        if tok.kind == "LPAREN":
            self.advance()
            node = self.term()
            self.expect("RPAREN", "')'")
            return node
        found = tok.text or "end of input"
        raise IdentitySyntaxError(
            f"expected a variable, '0', '1', '!' or '(', found {found!r}", tok.position
        )


def parse_statement(text: str) -> IdentityStatement:
    return _Parser(text).statement()
