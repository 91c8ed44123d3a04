"""Recursive-descent parser for the concrete formula syntax, in one pass.

Grammar (loosest binding first):

    formula := iff
    iff     := imp ('<->' imp)*                  # left associative
    imp     := or ('->' or)*                     # right associative
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | '[]' unary | '<>' unary
             | '[' bindings ']' unary | '<' bindings '>' unary
             | '[<' idents '>]' unary | '<[' idents ']>' unary
             | atom
    binding := ident ':' (ident | 'skip')
    atom    := ident | 'true' | 'false'
             | 'wins' '(' (ident | '@self') ')'
             | sum cmp sum | '(' formula ')'
    sum     := ['-'] addend (('+' | '-') addend)*
    addend  := rational ['*' ut] | ut
    ut      := 'ut' '[' (ident | '@self') ']'
    rational:= int ['/' int]
    cmp     := '>=' | '<=' | '<' | '>' | '='

One compiled pattern tokenizes the whole text with `finditer`. A token is a
plain tuple (kind, text, offset): the kind of an operator is its own text,
otherwise IDENT, INT, SELF, BAD (a character no token starts with) or EOF,
and the offset indexes the text. Line and column, 1-based and counted in
characters, are worked out from the offset only when an error is reported.
Coalition brackets are two adjacent characters ("[<", ">]", "<[", "]>");
adjacency is read from the offsets, so that e.g. "ut[x]>2" still lexes.

The parser builds core nodes as it goes: disjunction, implication,
biconditional, the diamonds, true/false and the comparisons are the
`formula` constructors that build Not, And and LinearGeq nodes, so the
result needs no second walk. Each unary operator costs one Python frame and each parenthesis
six, so text nested too deeply for the stack is a FormulaSyntaxError."""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FormulaSyntaxError
from .formula import (
    FALSE,
    SELF,
    TRUE,
    And,
    Box,
    CoalitionBox,
    CoalitionDiamond,
    Compare,
    Diamond,
    Diffuse,
    DiffuseDiamond,
    Formula,
    Heart,
    Iff,
    Implies,
    Nominal,
    Not,
    Or,
    UtilityTerm,
)
from .model import RESERVED_WORDS, SKIP

# Longer operators come first, so "<->" is never read as "<" "-" ">".
# Whitespace matches no alternative and `finditer` steps over it.
_TOKEN = re.compile(
    r"(?P<IDENT>[^\W\d]\w*)|(?P<INT>\d+)|(?P<SELF>@self)"
    r"|<->|\[\]|<>|->|>=|<=|[&|!()\[\]<>,:+\-*/=]"
    r"|(?P<BAD>\S)"
)
_COMPARISONS = frozenset((">=", "<=", "<", ">", "="))


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = [(m.lastgroup or m[0], m[0], m.start()) for m in _TOKEN.finditer(src)]
    tokens.append(("EOF", "", len(src)))
    # `[^\W\d]` also admits numeric characters such as "²"; an identifier
    # starts with a letter or "_".
    for kind, text, offset in tokens:
        first = text[:1]
        if kind == "BAD" or (kind == "IDENT" and not (first.isalpha() or first == "_")):
            raise _error(src, offset, f"unexpected character {first!r}")
    return tokens


def _error(src: str, offset: int, message: str) -> FormulaSyntaxError:
    line = src.count("\n", 0, offset) + 1
    return FormulaSyntaxError(message, line, offset - src.rfind("\n", 0, offset))


class _Parser:
    def __init__(self, src: str, tokens: list[tuple[str, str, int]]):
        self.src = src
        self.tokens = tokens
        self.pos = 0

    def error(self, message: str) -> FormulaSyntaxError:
        """A syntax error at the current token."""
        return _error(self.src, self.tokens[self.pos][2], message)

    def found(self) -> str:
        return repr(self.tokens[self.pos][1] or "end of input")

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found {self.found()}")
        self.pos += 1
        return tok

    # --- formula levels ---

    def formula(self) -> Formula:
        out = self.imp()
        while self.tokens[self.pos][0] == "<->":
            self.pos += 1
            out = Iff(out, self.imp())
        return out

    def imp(self) -> Formula:
        parts = [self.disj()]
        while self.tokens[self.pos][0] == "->":
            self.pos += 1
            parts.append(self.disj())
        out = parts.pop()
        while parts:
            out = Implies(parts.pop(), out)
        return out

    def disj(self) -> Formula:
        out = self.conj()
        while self.tokens[self.pos][0] == "|":
            self.pos += 1
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.unary()
        while self.tokens[self.pos][0] == "&":
            self.pos += 1
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "!":
            self.pos += 1
            return Not(self.unary())
        if kind == "[":
            nxt = self.tokens[self.pos + 1]
            if nxt[0] == "<" and nxt[2] == tok[2] + 1:
                self.pos += 2
                coalition = self.coalition(">", "]")
                return CoalitionBox(coalition, self.unary())
            self.pos += 1
            bindings = self.bindings("]")
            return Diffuse(bindings, self.unary())
        if kind == "[]":
            self.pos += 1
            return Box(self.unary())
        if kind == "<>":
            self.pos += 1
            return Diamond(self.unary())
        if kind == "<":
            nxt = self.tokens[self.pos + 1]
            if nxt[0] == "[" and nxt[2] == tok[2] + 1:
                self.pos += 2
                coalition = self.coalition("]", ">")
                return CoalitionDiamond(coalition, self.unary())
            self.pos += 1
            bindings = self.bindings(">")
            return DiffuseDiamond(bindings, self.unary())
        return self.atom()

    def coalition(self, first: str, second: str) -> frozenset[str]:
        members: list[str] = []
        while self.tokens[self.pos][0] == "IDENT":
            members.append(self.ident("seller name"))
            if self.tokens[self.pos][0] == ",":
                self.pos += 1
                continue
            break
        tok = self.expect(first)
        nxt = self.tokens[self.pos]
        if nxt[0] != second or nxt[2] != tok[2] + 1:
            raise self.error(f"expected '{first}{second}' to close the coalition")
        self.pos += 1
        return frozenset(members)

    def bindings(self, close: str) -> tuple:
        out: list[tuple[str, object]] = []
        seen: set[str] = set()
        while True:
            offset = self.tokens[self.pos][2]
            sell = self.ident("seller name")
            if sell in seen:
                raise _error(self.src, offset, f"seller {sell!r} listed twice in one action")
            seen.add(sell)
            self.expect(":")
            target = self.tokens[self.pos]
            if target[0] == "IDENT" and target[1] == "skip":
                self.pos += 1
                out.append((sell, SKIP))
            else:
                out.append((sell, self.ident("buyer name or 'skip'")))
            if self.tokens[self.pos][0] == ",":
                self.pos += 1
                continue
            break
        self.expect(close)
        return tuple(out)

    def ident(self, what: str) -> str:
        kind, text, _ = self.tokens[self.pos]
        if kind != "IDENT" or text in RESERVED_WORDS:
            raise self.error(f"expected {what}, found {self.found()}")
        self.pos += 1
        return text

    def atom(self) -> Formula:
        kind, text, _ = self.tokens[self.pos]
        if kind == "(":
            self.pos += 1
            out = self.formula()
            self.expect(")")
            return out
        if kind == "IDENT":
            if text == "true":
                self.pos += 1
                return TRUE
            if text == "false":
                self.pos += 1
                return FALSE
            if text == "wins":
                self.pos += 1
                self.expect("(")
                target = self.subject()
                self.expect(")")
                return Heart(target)
            if text == "ut":
                return self.linear()
            if text == "skip":
                raise self.error("'skip' is only allowed as an action target")
            self.pos += 1
            return Nominal(text)
        if kind == "INT" or kind == "-":
            return self.linear()
        raise self.error(f"expected a formula, found {self.found()}")

    def subject(self):
        if self.tokens[self.pos][0] == "SELF":
            self.pos += 1
            return SELF
        return self.ident("agent name or '@self'")

    # --- linear atoms ---

    def linear(self) -> Formula:
        lhs_terms, lhs_const = self.sum_()
        op = self.tokens[self.pos][0]
        if op not in _COMPARISONS:
            raise self.error("expected a comparison (>=, <=, <, >, =)")
        self.pos += 1
        rhs_terms, rhs_const = self.sum_()
        terms = lhs_terms + [(-c, t) for c, t in rhs_terms]
        return Compare(op, terms, rhs_const - lhs_const)

    def sum_(self):
        terms: list[tuple[Fraction, UtilityTerm]] = []
        const = Fraction(0)
        sign = 1
        if self.tokens[self.pos][0] == "-":
            self.pos += 1
            sign = -1
        while True:
            const = self.addend(terms, const, sign)
            kind = self.tokens[self.pos][0]
            if kind == "+":
                self.pos += 1
                sign = 1
            elif kind == "-":
                self.pos += 1
                sign = -1
            else:
                return terms, const

    def addend(self, terms, const, sign):
        kind, text, _ = self.tokens[self.pos]
        if kind == "INT":
            value = self.rational()
            if self.tokens[self.pos][0] == "*":
                self.pos += 1
                terms.append((sign * value, self.ut_term()))
                return const
            return const + sign * value
        if kind == "IDENT" and text == "ut":
            terms.append((Fraction(sign), self.ut_term()))
            return const
        raise self.error("expected a number or ut[...]")

    def rational(self) -> Fraction:
        start = self.tokens[self.pos][2]
        try:
            numerator, denominator = int(self.expect("INT")[1]), 1
            if self.tokens[self.pos][0] == "/":
                self.pos += 1
                denominator = int(self.expect("INT")[1])
        except ValueError:  # more digits than the interpreter will convert
            raise _error(self.src, start, "number too long") from None
        if denominator == 0:
            raise self.error("zero denominator")
        return Fraction(numerator, denominator)

    def ut_term(self) -> UtilityTerm:
        kind, text, _ = self.tokens[self.pos]
        if kind != "IDENT" or text != "ut":
            raise self.error("expected ut[...]")
        self.pos += 1
        self.expect("[")
        subject = self.subject()
        self.expect("]")
        return UtilityTerm(subject)


def parse_formula(src: str) -> Formula:
    """Parse concrete syntax straight into a core formula.

    A run of binary operators is read in a loop, so the tree returned can be
    deeper than the recursive helpers allow: `==` and `hash` raise
    `RecursionError` on it."""
    parser = _Parser(src, _tokenize(src))
    try:
        out = parser.formula()
    except RecursionError:
        raise parser.error("formula nests too deeply") from None
    tok = parser.tokens[parser.pos]
    if tok[0] != "EOF":
        raise parser.error(f"unexpected trailing input {tok[1]!r}")
    return out
