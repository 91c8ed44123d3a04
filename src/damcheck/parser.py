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

One compiled pattern splits the text, all but its repeated groups (below),
into whitespace and tokens, alternately, with `re.split`. A token is its own
text; the distinct tokens that are not operators are sorted once into
identifiers (a letter or "_" first) and numbers (a decimal digit first), and
any other is a bad character. The end of input is the empty token. Offsets
are worked out from the pieces only where the parser reads them: coalition
brackets are two adjacent characters ("[<", ">]", "<[", "]>"), adjacent when
no whitespace stands between the two tokens, so that e.g. "ut[x]>2" still
lexes; and an error's line and column, 1-based and counted in characters,
come from the offset of the token it names.

A parenthesised group parses the same wherever it stands, since "(" and ")"
are always tokens of their own. So before anything is split, the groups are
walked outermost first, in text order, and a group whose text, from "(" to
the matching ")" and whitespace included, equals an earlier group's is a
repeat. A repeat is one piece, read as the token "(", and the parser returns
the node it built from the first occurrence and goes on after the ")"; the
text before it must parse for the parser to get there, so that occurrence
was parsed without error. Only the text between repeats is split, and
nothing inside a repeat is looked at again, so a text that prints a small
DAG as a large tree (as `translate`'s output does) is read in time near the
size of the DAG: one C-level scan of the parentheses, a hash of each group
outside the repeats, and the tokens of the DAG's own text. A group's text is
keyed by its hash and compared only on a hit, and no text is kept, so the
table stays linear in the number of groups. The parentheses of "wins(...)"
are no group.

The parser builds core nodes as it goes: disjunction, implication,
biconditional, the diamonds, true/false and the comparisons are the
`formula` constructors that build Not, And and LinearGeq nodes, so the
result needs no second walk. Each unary operator costs one Python frame and
each parenthesis six, so text nested too deeply for the stack is a
FormulaSyntaxError. A repeated group costs no frame beyond its first
occurrence, so the limit applies to the first occurrence of each group."""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import accumulate

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
# every byte but "(" and ")", and the step each of those takes the depth by
_NOT_PARENS = bytes(sorted(set(range(256)) - set(b"()")))
_STEP = {ord("("): 1, ord(")"): -1}
# a group with no group inside
_INNERMOST = re.compile(r"\([^()]*\)")


def _offset(parts: list[str], k: int) -> int:
    """The offset in the text of token k; the end of input is token len(tokens)."""
    return sum(map(len, parts[: 2 * k + 1]))


def _follows_wins(src: str, at: int) -> bool:
    """Whether the token before offset `at` is "wins". A token that holds a
    word character is a word, a number or "@self", so the run of word
    characters and "@" that ends in "wins" starts a token, and is lexed
    from there."""
    end = at
    while end and src[end - 1].isspace():
        end -= 1
    if not src.endswith("wins", 0, end):
        return False
    start = end - 4
    while start and (src[start - 1].isalnum() or src[start - 1] in "_@"):
        start -= 1
    return _TOKEN.findall(src, start, end)[-1] == "wins"


def _shared_groups(src: str) -> list[tuple[int, int, int]]:
    """The pieces that the repeated groups of `src` make, in text order:
    (start, end, first) for a repeat, src[start:end], of the group whose "("
    stands at offset `first`, and (first, first + 1, -1) for that "("."""
    # every repeated group holds a group with no group inside, which then
    # occurs twice as well
    innermost = set()
    for match in _INNERMOST.finditer(src):
        if match.group() in innermost:
            break
        innermost.add(match.group())
    else:
        return []
    # one scan finds every parenthesis: the k-th stands at offset
    # ends[k] + k, and depth[k] is the nesting depth just after it
    ends = list(accumulate(map(len, src.replace(")", "(").split("("))))
    parens = src.encode("utf-8", "surrogatepass").translate(None, _NOT_PARENS)
    depth = list(accumulate(map(_STEP.__getitem__, parens)))
    # the parser reads nothing after a ")" that closes no group, nor any
    # group nested deeper than its stack allows at six frames a level
    stop = depth.index(-1) if -1 in depth else len(depth)
    deepest = sys.getrecursionlimit() // 6 + 1
    seen: dict[int, int] = {}  # hash of a group's text -> its first "("
    repeats: list[tuple[int, int, int]] = []
    k = parens.find(b"(", 0, stop)
    while k >= 0 and depth[k] <= deepest:
        start = ends[k] + k
        try:
            close = depth.index(depth[k] - 1, k + 1, stop)
        except ValueError:  # no ")" closes it
            close = k
        if close != k and not _follows_wins(src, start):
            text = src[start : ends[close] + close + 1]
            # balanced text found at a group's "(" is that group's text
            first = seen.setdefault(hash(text), start)
            if first != start and src.startswith(text, first):
                repeats.append((start, start + len(text), first))
                k = close  # go on after the repeat
        k = parens.find(b"(", k + 1, stop)
    if not repeats:
        return repeats
    return sorted(repeats + [(at, at + 1, -1) for at in {first for _, _, first in repeats}])


def _error(src: str, offset: int, message: str) -> FormulaSyntaxError:
    line = src.count("\n", 0, offset) + 1
    return FormulaSyntaxError(message, line, offset - src.rfind("\n", 0, offset))


class _Parser:
    def __init__(self, src: str):
        self.src = src
        # parts[2k + 1] is token k and parts[2k] the whitespace before it,
        # so the last piece is the trailing whitespace. A repeated group is
        # one piece, token "(", and only the text between repeats is split
        self.parts = parts = []
        # the "(" of each repeat -> the "(" of the group it repeats
        self.repeats: dict[int, int] = {}
        at: dict[int, int] = {}
        last = 0
        for start, end, first in _shared_groups(src):
            parts += _TOKEN.split(src[last:start])
            if first < 0:
                at[start] = len(parts) // 2
            else:
                self.repeats[len(parts) // 2] = at[first]
            parts.append(src[start:end])
            last = end
        parts += _TOKEN.split(src[last:])
        self.tokens = tokens = parts[1::2]
        for k in self.repeats:
            tokens[k] = "("
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
        # the "(" of each group parsed -> the node parsed from the group
        self.nodes: dict[int, Formula] = {}

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
            start = self.pos
            self.pos += 1
            first = self.repeats.get(start)
            if first is not None:
                # a repeat is the node its first occurrence was parsed to
                return self.nodes[first]
            out = self.formula()
            self.expect(")")
            self.nodes[start] = out
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
    The later occurrences are not even split into tokens, so a text that
    prints a small DAG as a large tree parses in time near the DAG's size.
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
