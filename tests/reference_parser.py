"""The character-by-character parser that `damcheck.parser` replaced.

It tokenizes into `_Token` records that carry line and column, and parses
straight into core formulas: the constructors of the derived operators
(`Or`, `Implies`, `Iff`, ...) build core nodes, so the `desugar` call it still
makes is the identity. It is kept only as the oracle for the differential
tests: for every input both parsers must give equal trees, or raise
`FormulaSyntaxError` at the same line and column.

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

Coalition brackets are two adjacent characters ("[<", ">]", "<[", "]>");
they are recognised by token adjacency so that e.g. "ut[x]>2" still lexes."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from damcheck.errors import FormulaSyntaxError
from damcheck.formula import (
    SELF,
    And,
    Box,
    CoalitionBox,
    CoalitionDiamond,
    Compare,
    Diamond,
    Diffuse,
    DiffuseDiamond,
    Falsity,
    Formula,
    Heart,
    Iff,
    Implies,
    Nominal,
    Not,
    Or,
    Truth,
    UtilityTerm,
    desugar,
)
from damcheck.model import RESERVED_WORDS, SKIP

_THREE = ("<->",)
_TWO = ("[]", "<>", "->", ">=", "<=")
_ONE = "&|!()[]<>,:+-*/="


@dataclass(frozen=True)
class _Token:
    kind: str  # operator text, or one of IDENT, INT, SELF, EOF
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if src.startswith("@self", i):
            tokens.append(_Token("SELF", "@self", line, col))
            i += 5
            col += 5
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(_Token("INT", src[i:j], line, col))
            col += j - i
            i = j
            continue
        matched = None
        for op in _THREE + _TWO:
            if src.startswith(op, i):
                matched = op
                break
        if matched is None and ch in _ONE:
            matched = ch
        if matched is None:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", line, col)
        tokens.append(_Token(matched, matched, line, col))
        i += len(matched)
        col += len(matched)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise FormulaSyntaxError(message, tok.line, tok.col)

    def adjacent(self) -> bool:
        a, b = self.peek(), self.peek(1)
        return a.line == b.line and b.col == a.col + len(a.text)

    # --- formula levels ---

    def formula(self) -> Formula:
        out = self.imp()
        while self.peek().kind == "<->":
            self.next()
            out = Iff(out, self.imp())
        return out

    def imp(self) -> Formula:
        parts = [self.disj()]
        while self.peek().kind == "->":
            self.next()
            parts.append(self.disj())
        out = parts[-1]
        for left in reversed(parts[:-1]):
            out = Implies(left, out)
        return out

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek().kind == "|":
            self.next()
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.unary()
        while self.peek().kind == "&":
            self.next()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        kind = self.peek().kind
        if kind == "!":
            self.next()
            return Not(self.unary())
        if kind == "[]":
            self.next()
            return Box(self.unary())
        if kind == "<>":
            self.next()
            return Diamond(self.unary())
        if kind == "[":
            if self.peek(1).kind == "<" and self.adjacent():
                self.next()
                self.next()
                coalition = self.coalition(close=(">", "]"))
                return CoalitionBox(coalition, self.unary())
            self.next()
            bindings = self.bindings(close="]")
            return Diffuse(bindings, self.unary())
        if kind == "<":
            if self.peek(1).kind == "[" and self.adjacent():
                self.next()
                self.next()
                coalition = self.coalition(close=("]", ">"))
                return CoalitionDiamond(coalition, self.unary())
            self.next()
            bindings = self.bindings(close=">")
            return DiffuseDiamond(bindings, self.unary())
        return self.atom()

    def coalition(self, close: tuple[str, str]) -> frozenset[str]:
        members: list[str] = []
        while self.peek().kind == "IDENT":
            members.append(self.ident("seller name"))
            if self.peek().kind == ",":
                self.next()
                continue
            break
        first, second = close
        tok = self.expect(first)
        nxt = self.peek()
        if nxt.kind != second or not (
            nxt.line == tok.line and nxt.col == tok.col + 1
        ):
            self.fail(f"expected {first}{second!r} to close the coalition")
        self.next()
        return frozenset(members)

    def bindings(self, close: str) -> tuple:
        out: list[tuple[str, object]] = []
        seen: set[str] = set()
        while True:
            tok = self.peek()
            sell = self.ident("seller name")
            if sell in seen:
                raise FormulaSyntaxError(
                    f"seller {sell!r} listed twice in one action", tok.line, tok.col
                )
            seen.add(sell)
            self.expect(":")
            target_tok = self.peek()
            if target_tok.kind == "IDENT" and target_tok.text == "skip":
                self.next()
                out.append((sell, SKIP))
            else:
                out.append((sell, self.ident("buyer name or 'skip'")))
            if self.peek().kind == ",":
                self.next()
                continue
            break
        self.expect(close)
        return tuple(out)

    def ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text in RESERVED_WORDS:
            self.fail(f"expected {what}, found {tok.text or 'end of input'!r}")
        self.next()
        return tok.text

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            out = self.formula()
            self.expect(")")
            return out
        if tok.kind == "IDENT":
            if tok.text == "true":
                self.next()
                return Truth()
            if tok.text == "false":
                self.next()
                return Falsity()
            if tok.text == "wins":
                self.next()
                self.expect("(")
                target = self.subject()
                self.expect(")")
                return Heart(target)
            if tok.text == "ut":
                return self.linear()
            if tok.text == "skip":
                self.fail("'skip' is only allowed as an action target")
            self.next()
            return Nominal(tok.text)
        if tok.kind in ("INT", "-"):
            return self.linear()
        self.fail(f"expected a formula, found {tok.text or 'end of input'!r}")

    def subject(self):
        tok = self.peek()
        if tok.kind == "SELF":
            self.next()
            return SELF
        return self.ident("agent name or '@self'")

    # --- linear atoms ---

    def linear(self) -> Formula:
        lhs_terms, lhs_const = self.sum_()
        op_tok = self.peek()
        if op_tok.kind not in (">=", "<=", "<", ">", "="):
            self.fail("expected a comparison (>=, <=, <, >, =)")
        self.next()
        rhs_terms, rhs_const = self.sum_()
        terms = lhs_terms + tuple((-c, t) for c, t in rhs_terms)
        return Compare(op_tok.kind, terms, rhs_const - lhs_const)

    def sum_(self):
        terms: list[tuple[Fraction, UtilityTerm]] = []
        const = Fraction(0)
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        while True:
            const = self.addend(terms, const, sign)
            kind = self.peek().kind
            if kind == "+":
                self.next()
                sign = 1
            elif kind == "-":
                self.next()
                sign = -1
            else:
                return tuple(terms), const

    def addend(self, terms, const, sign):
        tok = self.peek()
        if tok.kind == "INT":
            value = self.rational()
            if self.peek().kind == "*":
                self.next()
                terms.append((sign * value, self.ut_term()))
                return const
            return const + sign * value
        if tok.kind == "IDENT" and tok.text == "ut":
            terms.append((Fraction(sign), self.ut_term()))
            return const
        self.fail("expected a number or ut[...]")

    def rational(self) -> Fraction:
        tok = self.peek()
        try:
            numerator, denominator = int(self.expect("INT").text), 1
            if self.peek().kind == "/":
                self.next()
                denominator = int(self.expect("INT").text)
        except ValueError:  # more digits than the interpreter will convert
            raise FormulaSyntaxError("number too long", tok.line, tok.col) from None
        if denominator == 0:
            self.fail("zero denominator")
        return Fraction(numerator, denominator)

    def ut_term(self) -> UtilityTerm:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != "ut":
            self.fail("expected ut[...]")
        self.next()
        self.expect("[")
        subject = self.subject()
        self.expect("]")
        return UtilityTerm(subject)


def parse_formula(src: str) -> Formula:
    """Parse concrete syntax into a core formula (sugar is desugared)."""
    parser = _Parser(_tokenize(src))
    try:
        out = desugar(parser.formula())
    except RecursionError:
        tok = parser.peek()
        raise FormulaSyntaxError("formula nests too deeply", tok.line, tok.col) from None
    tok = parser.peek()
    if tok.kind != "EOF":
        raise FormulaSyntaxError(
            f"unexpected trailing input {tok.text!r}", tok.line, tok.col
        )
    return out
