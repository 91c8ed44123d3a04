"""Formula ASTs: the core node kinds, the derived operators, printing.

A formula is built from eight core node kinds: nominals, integer linear
utility inequalities (>=), negation, conjunction, the friendship box, the
concurrent-incentivisation box, the coalition box, and the allocation test.
Every other operator (true/false, disjunction, implication, the
biconditional, the three diamonds, and comparisons with rational
coefficients) is a constructor that builds core nodes, so every formula is
core. `desugar` is kept as the identity for its callers."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ActionError, DamError


class _Self:
    """Singleton marker: the agent a formula is evaluated at."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "@self"


SELF = _Self()


@dataclass(frozen=True)
class UtilityTerm:
    """The utility of a named agent, or of the current agent (SELF)."""

    subject: object  # nominal str | SELF


# --- core node kinds ---------------------------------------------------------


@dataclass(frozen=True)
class Nominal:
    name: str


@dataclass(frozen=True)
class LinearGeq:
    """sum(coeff_i * utility(subject_i)) >= bound, all integers."""

    terms: tuple[tuple[int, UtilityTerm], ...]
    bound: int


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Box:
    """Holds at every friend of the current agent."""

    child: "Formula"


@dataclass(frozen=True)
class Diffuse:
    """After the listed sellers concurrently incentivise (others SKIP), the
    body holds; vacuously true when the action is infeasible."""

    bindings: tuple[tuple[str, object], ...]  # (seller nominal, buyer nominal | SKIP)
    child: "Formula"

    def __post_init__(self):
        if not self.bindings:
            raise ActionError("an action must bind at least one seller (use skip)")
        sellers = [s for s, _ in self.bindings]
        if len(set(sellers)) != len(sellers):
            raise ActionError(f"seller bound twice in one action: {sellers}")


@dataclass(frozen=True)
class CoalitionBox:
    """However the coalition incentivises (feasibly), the remaining sellers
    have some response after which the body holds."""

    coalition: frozenset[str]
    child: "Formula"


@dataclass(frozen=True)
class Heart:
    """The named agent (or the current one) holds an item right now."""

    target: object  # nominal str | SELF


Formula = Nominal | LinearGeq | Not | And | Box | Diffuse | CoalitionBox | Heart

TRUE = LinearGeq((), 0)
FALSE = LinearGeq((), 1)


# --- derived operators: constructors of core nodes ----------------------------


def Truth() -> Formula:
    return TRUE


def Falsity() -> Formula:
    return FALSE


def Or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def Implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def Iff(left: Formula, right: Formula) -> Formula:
    """Both implications; they share the operand objects, so a chain of
    biconditionals costs linear time and memory."""
    return And(Implies(left, right), Implies(right, left))


def Diamond(child: Formula) -> Formula:
    return Not(Box(Not(child)))


def DiffuseDiamond(bindings, child: Formula) -> Formula:
    return Not(Diffuse(bindings, Not(child)))


def CoalitionDiamond(coalition, child: Formula) -> Formula:
    return Not(CoalitionBox(coalition, Not(child)))


def Compare(op: str, terms, bound) -> Formula:
    """A linear comparison (>=, <=, <, > or =) with rational coefficients,
    as integer `>=` atoms: denominators are cleared, and the other
    comparisons are rewritten in terms of >=."""
    terms, bound = _cleared(terms, bound)
    if op == ">=":
        return LinearGeq(terms, bound)
    if op == "<=":
        return LinearGeq(_negated(terms), -bound)
    if op == "<":
        return Not(LinearGeq(terms, bound))
    if op == ">":
        return Not(LinearGeq(_negated(terms), -bound))
    if op == "=":
        return And(LinearGeq(terms, bound), LinearGeq(_negated(terms), -bound))
    raise ValueError(f"unknown comparison {op!r}")


def _cleared(terms, bound):
    denom = math.lcm(bound.denominator, *(c.denominator for c, _ in terms)) if terms else bound.denominator
    out = tuple((int(c * denom), t) for c, t in terms)
    return out, int(bound * denom)


def _negated(terms):
    return tuple((-c, t) for c, t in terms)


def big_and(items) -> Formula:
    """Balanced conjunction of the items (empty -> true)."""
    return _fold(list(items), And, TRUE)


def big_or(items) -> Formula:
    """Balanced disjunction of the items (empty -> false)."""
    return _fold(list(items), Or, FALSE)


def _fold(items: list, pair, empty):
    if not items:
        return empty
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(pair(items[i], items[i + 1]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def desugar(node: Formula) -> Formula:
    """The formula itself. The derived operators build core nodes, so there
    is nothing left to rewrite; kept as the identity for its callers."""
    return node


def names_of(node: Formula) -> set[str]:
    """Every nominal occurring in the formula; SELF is not a nominal. The
    walk keeps its own stack, so it answers at any depth, and visits a
    shared subformula once."""
    out: set[str] = set()
    for node in _distinct(node):
        kind = type(node)
        if kind is Nominal:
            out.add(node.name)
        elif kind is Heart:
            if isinstance(node.target, str):
                out.add(node.target)
        elif kind is LinearGeq:
            for _, term in node.terms:
                if isinstance(term.subject, str):
                    out.add(term.subject)
        elif kind is Diffuse:
            for sell, target in node.bindings:
                out.add(sell)
                if isinstance(target, str):
                    out.add(target)
        elif kind is CoalitionBox:
            out.update(node.coalition)
    return out


def contains_coalition(node: Formula) -> bool:
    """Whether a coalition operator occurs in the formula, at any depth; a
    shared subformula is visited once."""
    return any(type(n) is CoalitionBox for n in _distinct(node))


def _children(node) -> tuple:
    """The node's operands; TypeError if it is not a formula node."""
    kind = type(node)
    if kind is And:
        return (node.left, node.right)
    if kind in (Not, Box, Diffuse, CoalitionBox):
        return (node.child,)
    if kind in (Nominal, LinearGeq, Heart):
        return ()
    raise TypeError(f"not a formula node: {node!r}")


def _distinct(node):
    """Each distinct node of the formula once, by identity, in the order a
    recursive walk first meets it: a node before its operands, left before
    right. The walk keeps its own stack, so a formula of any depth is walked."""
    seen: set[int] = set()
    todo = [node]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            todo.extend(reversed(_children(node)))


# --- printing ----------------------------------------------------------------

_AND, _UNARY, _ATOM = 1, 2, 3
# The most characters `format_formula` copies from the texts of shared nodes.
# Only those copies make the text longer than the distinct nodes' own text,
# so this bounds the printed length and the memory it takes: a translated
# formula can print exponentially long text.
_MAX_COPIED = 2**26


def format_formula(node: Formula) -> str:
    """Concrete syntax; parsing the output reproduces the formula. A number
    with more digits than Python will convert to text is a DamError.

    The printer works from an explicit stack, so it prints a formula of any
    depth, in time linear in the output. It keeps a memo by identity: a node
    reached from two or more parents has its text joined once, at its first
    use, and every later use appends that text again, in parentheses where
    the use asks for them. A DAG that prints as a large tree then costs its
    distinct nodes plus the copying of text. Copying more than `_MAX_COPIED`
    characters in all is a DamError, raised before the whole text is joined."""
    shared = _shared_nodes(node)
    texts: dict[int, tuple[str, int]] = {}  # id(shared node) -> its text, level
    copied = 0
    out: list[str] = []
    todo: list = [(node, _AND)]
    while todo:
        item = todo.pop()
        kind = type(item)
        if kind is str:
            out.append(item)
            continue
        if kind is list:  # a shared node's text ends here: [id, start, level]
            key, start, level = item
            text = "".join(out[start:])
            del out[start:]
            out.append(text)
            texts[key] = (text, level)
            continue
        node, min_level = item
        key = id(node)
        known = texts.get(key)
        if known is not None:
            text, level = known
            copied += len(text)
            if copied > _MAX_COPIED:
                raise DamError(f"formula text longer than {_MAX_COPIED} characters")
            if level < min_level:
                out.extend(("(", text, ")"))
            else:
                out.append(text)
            continue
        pieces, level = _layout(node)
        if level < min_level:
            out.append("(")
            todo.append(")")
        if key in shared:
            todo.append([key, len(out), level])
        if type(pieces) is str:
            out.append(pieces)
        else:
            todo.extend(pieces)
    return "".join(out)


def _shared_nodes(node) -> set[int]:
    """The ids of the nodes reached from two or more parents, or twice from
    one; each distinct node is visited once."""
    reached: set[int] = set()
    shared: set[int] = set()
    for parent in _distinct(node):
        for child in _children(parent):
            key = id(child)
            if key in reached:
                shared.add(key)
            else:
                reached.add(key)
    return shared


def _layout(node):
    """The node's printed form and its precedence level. The form of an atom
    is its text; any other node's is its pieces, last first, each text or a
    (child, the least level the child may print at without parentheses)."""
    kind = type(node)
    if kind is Not:
        return ((node.child, _UNARY), "!"), _UNARY
    if kind is And:
        return ((node.right, _UNARY), " & ", (node.left, _AND)), _AND
    if kind is Nominal:
        return node.name, _ATOM
    if kind is Diffuse:
        return ((node.child, _UNARY), f"[{_bindings_str(node.bindings)}] "), _UNARY
    if kind is LinearGeq:
        return _linear_str(node), _ATOM
    if kind is Box:
        return ((node.child, _UNARY), "[] "), _UNARY
    if kind is Heart:
        return f"wins({_subject(node.target)})", _ATOM
    if kind is CoalitionBox:
        inside = ", ".join(sorted(node.coalition)) or " "
        return ((node.child, _UNARY), f"[<{inside}>] "), _UNARY
    raise TypeError(f"not a formula node: {node!r}")


def _subject(target) -> str:
    return "@self" if not isinstance(target, str) else target


def _bindings_str(bindings) -> str:
    return ", ".join(
        f"{sell}:{'skip' if not isinstance(target, str) else target}"
        for sell, target in bindings
    )


def _linear_str(node: LinearGeq) -> str:
    try:
        return f"{_sum_str(node.terms)} >= {node.bound}"
    except ValueError:  # str() refuses integers past sys.get_int_max_str_digits()
        raise DamError("a number in the formula has too many digits to print") from None


def _sum_str(terms) -> str:
    if not terms:
        return "0"
    parts: list[str] = []
    for index, (coeff, term) in enumerate(terms):
        ut = f"ut[{_subject(term.subject)}]"
        magnitude = abs(coeff)
        body = ut if magnitude == 1 else f"{magnitude}*{ut}"
        if index == 0:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(parts)
