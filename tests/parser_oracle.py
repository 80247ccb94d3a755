"""The original two-level ``dsl`` parser, kept as an oracle.

``_Parser`` is copied verbatim from ``ortholab.dsl`` as it was before the
parser became one precedence-climbing ``term(min_prec)``: a ``term`` for
``|`` over an ``and_term`` for ``&``.  ``tests/test_parser_oracle.py``
checks that the current parser builds the same AST, or raises the same
error, on every statement it generates.
"""

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
    _tokenize,
    _Token,
)


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
