"""A small term language for lattice identities, and a checker for them.

Grammar (ASCII, with unicode aliases):

    statement := term ("=" | "<=") term
    term      := or
    or        := and ("|" and)*
    and       := unary ("&" unary)*
    unary     := "!" unary | atom
    atom      := variable | "0" | "1" | "(" term ")"

``!`` binds tighter than ``&``, which binds tighter than ``|``; the binary
connectives associate to the left.  The same statement can be checked
against two kinds of structure, and ``&``/``|``/``<=`` are the elements' own
operations: meet/span/inclusion of subspaces, or the set operations of
subsets of a finite universe.  A structure adds only what its elements
lack: the constants, the complement and sampling.  The first reading has
counterexamples to distributivity; the second cannot.
"""

from __future__ import annotations

import collections
import enum
import itertools
import operator
import re

from .linalg import Record, _quote
from .lattice import (
    GAUSSIAN_RATIONAL,
    Subspace,
    _check_space_dim,
    ortho as subspace_ortho,
    random_subspace,
    subspace_to_json,
    substream,
)

__all__ = [
    "Term",
    "Var",
    "Top",
    "Bottom",
    "Not",
    "And",
    "Or",
    "Relation",
    "IdentityStatement",
    "IdentitySyntaxError",
    "parse_term",
    "parse_statement",
    "parse_statement_lines",
    "format_term",
    "format_statement",
    "collect_variables",
    "SubspaceLattice",
    "BooleanSetAlgebra",
    "eval_term",
    "UnboundVariableError",
    "Counterexample",
    "CheckReport",
    "check",
]

_VAR_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class Term(Record):
    """A lattice term; its ``&`` means meet, not conjunction, so it stays its own tree."""


class Var(Term):
    name: str

    def __post_init__(self):
        if not _VAR_RE.fullmatch(self.name):
            raise ValueError(f"invalid variable name {_quote(self.name)}")


class Top(Term):
    symbol = "1"  # unannotated: class attributes, not fields


class Bottom(Term):
    symbol = "0"


class Not(Term):
    child: Term
    symbol = "!"


class And(Term):
    left: Term
    right: Term
    symbol = "&"
    prec = 2


class Or(Term):
    left: Term
    right: Term
    symbol = "|"
    prec = 1


class Relation(enum.Enum):
    EQUAL = "="
    LEQ = "<="


class IdentityStatement(Record):
    lhs: Term
    rhs: Term
    relation: Relation


class IdentitySyntaxError(ValueError):
    """Lexer or parser failure; ``position`` is the 1-based column."""

    def __init__(self, message: str, position: int, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}{message} at position {position}")
        self.message = message
        self.position = position
        self.line = line


# ---------------------------------------------------------------------------
# Lexer and parser.
# ---------------------------------------------------------------------------

# Binary connectives by spelling; a higher ``prec`` binds tighter.
_BINARY = {And.symbol: And, Or.symbol: Or}
_CONSTANTS = {Top.symbol: Top, Bottom.symbol: Bottom}
# A token's kind is its ASCII spelling, or VAR or EOF; a Unicode alias reads as ASCII.
_SPELLINGS = {*_BINARY, *_CONSTANTS, Not.symbol, "(", ")", *(r.value for r in Relation)}
_ALIASES = {"∧": "&", "∨": "|", "¬": "!", "≤": "<="}
_TOKEN_RE = re.compile(rf"<=|{_VAR_RE.pattern}|\S")
_Token = collections.namedtuple("_Token", "kind text position")  # position: 1-based column


def _tokenize(text: str) -> list:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        spelled, pos = m.group(), m.start() + 1
        kind = _ALIASES.get(spelled, spelled)
        if kind not in _SPELLINGS:
            if not _VAR_RE.match(spelled):
                raise IdentitySyntaxError(f"unexpected character {spelled!r}", pos)
            kind = "VAR"
        tokens.append(_Token(kind, spelled, pos))
    tokens.append(_Token("EOF", "", len(text) + 1))
    return tokens


def _fail(tok: _Token, expected: str):
    found = tok.text or "end of input"
    raise IdentitySyntaxError(f"expected {expected}, found {_quote(found)}", tok.position)


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
        tok = self.advance()
        if tok.kind != kind:
            _fail(tok, expected)
        return tok

    def statement(self) -> IdentityStatement:
        lhs = self.term()
        tok = self.advance()
        if tok.kind not in ("=", "<="):
            _fail(tok, "'=' or '<='")
        rhs = self.term()
        self.expect("EOF", "end of input")
        return IdentityStatement(lhs, rhs, Relation(tok.kind))

    def term(self, min_prec: int = 1) -> Term:
        # precedence climbing: a right operand takes only tighter connectives (left-assoc)
        node = self.unary()
        while (op := _BINARY.get(self.peek().kind)) is not None and op.prec >= min_prec:
            self.advance()
            node = op(node, self.term(op.prec + 1))
        return node

    def unary(self) -> Term:
        tok = self.advance()
        if tok.kind == Not.symbol:
            return Not(self.unary())
        if tok.kind == "VAR":
            return Var(tok.text)
        if tok.kind in _CONSTANTS:
            return _CONSTANTS[tok.kind]()
        if tok.kind != "(":
            _fail(tok, "a variable, '0', '1', '!' or '('")
        node = self.term()
        self.expect(")", "')'")
        return node


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    node = parser.term()
    parser.expect("EOF", "end of input")
    return node


def parse_statement(text: str) -> IdentityStatement:
    return _Parser(text).statement()


def parse_statement_lines(text: str) -> list:
    """Parse a statements file: one statement per line, ``#`` comments allowed."""
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            statements.append(parse_statement(line))
        except IdentitySyntaxError as err:
            raise IdentitySyntaxError(err.message, err.position, line=lineno) from None
    return statements


# Printer: minimal parentheses, inverse of the parser on ASTs.


def _fmt(term: Term, min_prec: int) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, (Top, Bottom)):
        return term.symbol
    if isinstance(term, Not):
        # negation binds tighter than every binary connective
        return term.symbol + _fmt(term.child, And.prec + 1)
    if isinstance(term, (And, Or)):
        text = f"{_fmt(term.left, term.prec)} {term.symbol} {_fmt(term.right, term.prec + 1)}"
        return f"({text})" if term.prec < min_prec else text
    raise TypeError(f"not a term node: {term!r}")


def format_term(term: Term) -> str:
    return _fmt(term, 0)


def format_statement(stmt: IdentityStatement) -> str:
    return f"{format_term(stmt.lhs)} {stmt.relation.value} {format_term(stmt.rhs)}"


def collect_variables(term: Term) -> set:
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Not):
        return collect_variables(term.child)
    if isinstance(term, (And, Or)):
        return collect_variables(term.left) | collect_variables(term.right)
    return set()


# ---------------------------------------------------------------------------
# Structures the connectives are interpreted over.
# ---------------------------------------------------------------------------


class SubspaceLattice(Record):
    """Closed subspaces with meet/span/orthocomplement; not distributive."""

    space_dim: int
    field: str = GAUSSIAN_RATIONAL

    def __post_init__(self):
        _check_space_dim(self.space_dim)

    def top(self):
        return Subspace.full(self.space_dim)

    def bottom(self):
        return Subspace.zero(self.space_dim)

    def complement(self, a):
        return subspace_ortho(a)

    def random_element(self, rng):
        return random_subspace(rng, self.space_dim, self.field)

    def describe(self, element) -> dict:
        return subspace_to_json(element)

    def to_json(self) -> dict:
        return {"kind": "subspace", "space_dim": self.space_dim, "field": self.field}


class BooleanSetAlgebra(Record):
    """All subsets of a finite universe with the standard set operations."""

    universe_size: int

    def __post_init__(self):
        if self.universe_size < 1:
            raise ValueError("universe_size must be >= 1")

    def top(self):
        return frozenset(range(self.universe_size))

    def bottom(self):
        return frozenset()

    def complement(self, a):
        # a frozenset cannot complement itself without its universe
        return self.top() - a

    def elements(self):
        # fixed enumeration order: subset k has member i iff bit i of k is set
        for bits in range(1 << self.universe_size):
            yield frozenset(i for i in range(self.universe_size) if bits >> i & 1)

    def random_element(self, rng):
        bits = rng.randrange(1 << self.universe_size)
        return frozenset(i for i in range(self.universe_size) if bits >> i & 1)

    def describe(self, element) -> list:
        return sorted(element)

    def to_json(self) -> dict:
        return {"kind": "boolean", "universe_size": self.universe_size}


class UnboundVariableError(KeyError):
    pass


def eval_term(term: Term, assignment: dict, structure):
    """Value of a term under an assignment; the elements supply meet, join and order."""
    if isinstance(term, Var):
        if term.name not in assignment:
            raise UnboundVariableError(f"unbound variable {term.name!r}")
        return assignment[term.name]
    if isinstance(term, Top):
        return structure.top()
    if isinstance(term, Bottom):
        return structure.bottom()
    if isinstance(term, Not):
        return structure.complement(eval_term(term.child, assignment, structure))
    if isinstance(term, (And, Or)):
        left = eval_term(term.left, assignment, structure)
        right = eval_term(term.right, assignment, structure)
        return left & right if isinstance(term, And) else left | right
    raise TypeError(f"not a term node: {term!r}")


# ---------------------------------------------------------------------------
# The checker.
# ---------------------------------------------------------------------------

# (2**u)**n assignments fit the limit exactly when u * n <= 16, which builds no big integer
_EXHAUSTIVE_BITS = 16
_EXHAUSTIVE_LIMIT = 1 << _EXHAUSTIVE_BITS


class Counterexample(Record):
    trial: int
    assignment: dict
    lhs: object
    rhs: object


class CheckReport(Record):
    statement: str
    structure: object
    mode: str  # "exhaustive" or "random"
    trials: int  # assignments examined
    counterexample: Counterexample | None

    @property
    def holds(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict:
        out = {
            "statement": self.statement,
            "structure": self.structure.to_json(),
            "mode": self.mode,
            "trials": self.trials,
            "verdict": (
                f"no counterexample ({self.mode}, {self.trials} assignments)"
                if self.holds
                else "counterexample"
            ),
        }
        if self.counterexample is not None:
            cx = self.counterexample
            out["counterexample"] = {
                "trial": cx.trial,
                "assignment": {
                    name: self.structure.describe(value)
                    for name, value in sorted(cx.assignment.items())
                },
                "lhs": self.structure.describe(cx.lhs),
                "rhs": self.structure.describe(cx.rhs),
            }
        return out


def check(stmt: IdentityStatement, structure, trials: int = 1000, seed=0) -> CheckReport:
    """Look for an assignment falsifying the statement.

    Statements without variables, and Boolean structures with at most
    ``_EXHAUSTIVE_LIMIT`` assignments, are enumerated in the order of
    ``itertools.product`` over ``elements()``; otherwise ``trials`` seeded
    random assignments are drawn, one substream per trial, variables in
    sorted name order.  Each side is evaluated once per assignment, and the
    first falsifying one is reported with those two values, so the report
    re-evaluates to itself.  ``trials`` counts the assignments examined.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    names = sorted(collect_variables(stmt.lhs) | collect_variables(stmt.rhs))
    text = format_statement(stmt)
    if not names or (
        isinstance(structure, BooleanSetAlgebra)
        and structure.universe_size * len(names) <= _EXHAUSTIVE_BITS
    ):
        mode = "exhaustive"
        pools = [structure.elements() for _ in names]
        assignments = (dict(zip(names, values)) for values in itertools.product(*pools))
    else:
        mode = "random"
        rngs = (substream(seed, trial) for trial in range(trials))
        assignments = ({name: structure.random_element(rng) for name in names} for rng in rngs)
    holds = operator.le if stmt.relation is Relation.LEQ else operator.eq
    for trial, assignment in enumerate(assignments):
        lhs = eval_term(stmt.lhs, assignment, structure)
        rhs = eval_term(stmt.rhs, assignment, structure)
        if not holds(lhs, rhs):
            cx = Counterexample(trial, assignment, lhs, rhs)
            return CheckReport(text, structure, mode, trial + 1, cx)
    return CheckReport(text, structure, mode, trial + 1, None)
