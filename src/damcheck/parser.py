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

One compiled pattern splits the whole text into whitespace and tokens,
alternately, with `re.split`. A token is its own text; the distinct tokens
that are not operators are sorted once into identifiers (a letter or "_"
first) and numbers (a decimal digit first), and any other is a bad
character. The end of input is the empty token. Offsets are worked out from
the pieces only where the parser reads them: coalition brackets are two
adjacent characters ("[<", ">]", "<[", "]>"), adjacent when no whitespace
stands between the two tokens, so that e.g. "ut[x]>2" still lexes; and an
error's line and column, 1-based and counted in characters, come from the
offset of the token it names.

A parenthesised group parses the same wherever it stands, since "(" and ")"
are always tokens of their own. So a group whose text, from "(" to the
matching ")", was already parsed without error in the same text is not read
again: the parser returns the node it built then and goes on after the ")".
Repeated groups therefore share one node, and a text that prints a small
DAG as a large tree (as `translate`'s output does) parses in time near the
size of the DAG. A group is recognised by a hash of its pieces, checked
against the pieces of its first occurrence, so the table of groups stays
linear in the text.

The parser builds core nodes as it goes: disjunction, implication,
biconditional, the diamonds, true/false and the comparisons are the
`formula` constructors that build Not, And and LinearGeq nodes, so the
result needs no second walk. Each unary operator costs one Python frame and
each parenthesis six, so text nested too deeply for the stack is a
FormulaSyntaxError. A repeated group costs no frame beyond its first
occurrence, so the limit applies to the first occurrence of each group."""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress, count

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

# Longer operators come before their prefixes, so "<->" is never read as
# "<" "-" ">"; the one-character operators that start no longer one come
# first, as they are the most common tokens. Every character that is not
# whitespace starts a match, so the whitespace between matches is what
# `split` leaves between the tokens.
_TOKEN = re.compile(
    r"([&|!(),:+*/=\]]|<->|->|\[\]|<>|>=|<=|[\[<>\-]|[^\W\d]\w*|\d+|@self|\S)"
)
# the tokens that are neither identifiers nor numbers
_SYMBOLS = frozenset("& | ! ( ) [ ] < > , : + - * / = <-> [] <> -> >= <= @self".split())
_COMPARISONS = frozenset((">=", "<=", "<", ">", "="))
_PARENS = frozenset("()")


def _offset(parts: list[str], k: int) -> int:
    """The offset in the text of token k; the end of input is token len(tokens)."""
    return sum(map(len, parts[: 2 * k + 1]))


def _closing(tokens: list[str]) -> dict[int, int]:
    """The index of each "(" that has a matching ")" -> the index of that ")"."""
    out: dict[int, int] = {}
    opened: list[int] = []
    for k in compress(count(), map(_PARENS.__contains__, tokens)):
        if tokens[k] == "(":
            opened.append(k)
        elif opened:
            out[opened.pop()] = k
    return out


def _error(src: str, offset: int, message: str) -> FormulaSyntaxError:
    line = src.count("\n", 0, offset) + 1
    return FormulaSyntaxError(message, line, offset - src.rfind("\n", 0, offset))


class _Parser:
    def __init__(self, src: str):
        self.src = src
        # parts[2k + 1] is token k and parts[2k] the whitespace before it,
        # so the last piece is the trailing whitespace
        self.parts = parts = _TOKEN.split(src)
        self.tokens = tokens = parts[1::2]
        # each distinct token is judged once, and the first character no
        # token starts with is reported before any syntax error. `[^\W\d]`
        # also admits numeric characters such as "²", but an identifier
        # starts with a letter or "_"
        self.words: set[str] = set()
        self.numbers: set[str] = set()
        bad = []
        for tok in set(tokens) - _SYMBOLS:
            first = tok[0]
            if first.isalpha() or first == "_":
                self.words.add(tok)
            elif first.isdecimal():
                self.numbers.add(tok)
            else:
                bad.append(tok)
        if bad:
            k = min(map(tokens.index, bad))
            raise _error(src, _offset(parts, k), f"unexpected character {tokens[k][0]!r}")
        tokens.append("")  # the end of input
        self.pos = 0
        self.closing = _closing(tokens)
        # hash of a group's pieces -> (the slice of parts its first
        # occurrence spans, start and stop, and the node parsed from it)
        self.groups: dict[int, tuple[int, int, Formula]] = {}

    def error(self, message: str, at: int | None = None) -> FormulaSyntaxError:
        """A syntax error at token `at`, by default the current one."""
        at = self.pos if at is None else at
        return _error(self.src, _offset(self.parts, at), message)

    def found(self) -> str:
        return repr(self.tokens[self.pos] or "end of input")

    def adjacent(self) -> bool:
        """Whether no whitespace stands before the current token."""
        return not self.parts[2 * self.pos]

    def expect(self, tok: str) -> None:
        if self.tokens[self.pos] != tok:
            raise self.error(f"expected {tok!r}, found {self.found()}")
        self.pos += 1

    # --- formula levels ---

    def formula(self) -> Formula:
        out = self.imp()
        while self.tokens[self.pos] == "<->":
            self.pos += 1
            out = Iff(out, self.imp())
        return out

    def imp(self) -> Formula:
        parts = [self.disj()]
        while self.tokens[self.pos] == "->":
            self.pos += 1
            parts.append(self.disj())
        out = parts.pop()
        while parts:
            out = Implies(parts.pop(), out)
        return out

    def disj(self) -> Formula:
        out = self.conj()
        while self.tokens[self.pos] == "|":
            self.pos += 1
            out = Or(out, self.conj())
        return out

    def conj(self) -> Formula:
        out = self.unary()
        while self.tokens[self.pos] == "&":
            self.pos += 1
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.tokens[self.pos]
        if tok == "!":
            self.pos += 1
            return Not(self.unary())
        if tok == "[":
            self.pos += 1
            if self.tokens[self.pos] == "<" and self.adjacent():
                self.pos += 1
                coalition = self.coalition(">", "]")
                return CoalitionBox(coalition, self.unary())
            bindings = self.bindings("]")
            return Diffuse(bindings, self.unary())
        if tok == "[]":
            self.pos += 1
            return Box(self.unary())
        if tok == "<>":
            self.pos += 1
            return Diamond(self.unary())
        if tok == "<":
            self.pos += 1
            if self.tokens[self.pos] == "[" and self.adjacent():
                self.pos += 1
                coalition = self.coalition("]", ">")
                return CoalitionDiamond(coalition, self.unary())
            bindings = self.bindings(">")
            return DiffuseDiamond(bindings, self.unary())
        return self.atom()

    def coalition(self, first: str, second: str) -> frozenset[str]:
        members: list[str] = []
        while self.tokens[self.pos] in self.words:
            members.append(self.ident("seller name"))
            if self.tokens[self.pos] == ",":
                self.pos += 1
                continue
            break
        self.expect(first)
        if self.tokens[self.pos] != second or not self.adjacent():
            raise self.error(f"expected '{first}{second}' to close the coalition")
        self.pos += 1
        return frozenset(members)

    def bindings(self, close: str) -> tuple:
        out: list[tuple[str, object]] = []
        seen: set[str] = set()
        while True:
            at = self.pos
            sell = self.ident("seller name")
            if sell in seen:
                raise self.error(f"seller {sell!r} listed twice in one action", at)
            seen.add(sell)
            self.expect(":")
            if self.tokens[self.pos] == "skip":
                self.pos += 1
                out.append((sell, SKIP))
            else:
                out.append((sell, self.ident("buyer name or 'skip'")))
            if self.tokens[self.pos] == ",":
                self.pos += 1
                continue
            break
        self.expect(close)
        return tuple(out)

    def ident(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if tok not in self.words or tok in RESERVED_WORDS:
            raise self.error(f"expected {what}, found {self.found()}")
        self.pos += 1
        return tok

    def atom(self) -> Formula:
        tok = self.tokens[self.pos]
        if tok == "(":
            # a group met before in this text is the node parsed then
            start = self.pos
            self.pos += 1
            end = self.closing.get(start)
            if end is not None:
                pieces = self.parts[2 * start + 1 : 2 * end + 2]
                key = hash(tuple(pieces))
                seen = self.groups.get(key)
                if seen is not None and self.parts[seen[0] : seen[1]] == pieces:
                    self.pos = end + 1
                    return seen[2]
            out = self.formula()
            self.expect(")")
            # a group that parses ends at its matching ")"
            if end is not None:
                self.groups.setdefault(key, (2 * start + 1, 2 * end + 2, out))
            return out
        if tok in self.words:
            if tok == "true":
                self.pos += 1
                return TRUE
            if tok == "false":
                self.pos += 1
                return FALSE
            if tok == "wins":
                self.pos += 1
                self.expect("(")
                target = self.subject()
                self.expect(")")
                return Heart(target)
            if tok == "ut":
                return self.linear()
            if tok == "skip":
                raise self.error("'skip' is only allowed as an action target")
            self.pos += 1
            return Nominal(tok)
        if tok in self.numbers or tok == "-":
            return self.linear()
        raise self.error(f"expected a formula, found {self.found()}")

    def subject(self):
        if self.tokens[self.pos] == "@self":
            self.pos += 1
            return SELF
        return self.ident("agent name or '@self'")

    # --- linear atoms ---

    def linear(self) -> Formula:
        lhs_terms, lhs_const = self.sum_()
        op = self.tokens[self.pos]
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
        if self.tokens[self.pos] == "-":
            self.pos += 1
            sign = -1
        while True:
            const = self.addend(terms, const, sign)
            tok = self.tokens[self.pos]
            if tok == "+":
                self.pos += 1
                sign = 1
            elif tok == "-":
                self.pos += 1
                sign = -1
            else:
                return terms, const

    def addend(self, terms, const, sign):
        tok = self.tokens[self.pos]
        if tok in self.numbers:
            value = self.rational()
            if self.tokens[self.pos] == "*":
                self.pos += 1
                terms.append((sign * value, self.ut_term()))
                return const
            return const + sign * value
        if tok == "ut":
            terms.append((Fraction(sign), self.ut_term()))
            return const
        raise self.error("expected a number or ut[...]")

    def rational(self) -> Fraction:
        start = self.pos
        try:
            numerator, denominator = self.integer(), 1
            if self.tokens[self.pos] == "/":
                self.pos += 1
                denominator = self.integer()
        except ValueError:  # more digits than the interpreter will convert
            raise self.error("number too long", start) from None
        if denominator == 0:
            raise self.error("zero denominator")
        return Fraction(numerator, denominator)

    def integer(self) -> int:
        tok = self.tokens[self.pos]
        if tok not in self.numbers:
            raise self.error(f"expected 'INT', found {self.found()}")
        self.pos += 1
        return int(tok)

    def ut_term(self) -> UtilityTerm:
        if self.tokens[self.pos] != "ut":
            raise self.error("expected ut[...]")
        self.pos += 1
        self.expect("[")
        subject = self.subject()
        self.expect("]")
        return UtilityTerm(subject)


def parse_formula(src: str) -> Formula:
    """Parse concrete syntax straight into a core formula.

    A parenthesised group whose text occurs again in `src` is parsed once,
    and every occurrence is the same node object, so the result is a DAG.
    The nesting limit applies to the first occurrence of each group. A run
    of binary operators is read in a loop, so the tree returned can be
    deeper than the recursive helpers allow: `==` and `hash` raise
    `RecursionError` on it."""
    parser = _Parser(src)
    try:
        out = parser.formula()
    except RecursionError:
        raise parser.error("formula nests too deeply") from None
    tok = parser.tokens[parser.pos]
    if tok:
        raise parser.error(f"unexpected trailing input {tok!r}")
    return out
