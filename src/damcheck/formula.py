"""Formula ASTs: core constructors, surface sugar, desugaring, printing.

Core constructors are nominals, integer linear utility inequalities (>=),
negation, conjunction, the friendship box, the concurrent-incentivisation
box, the coalition box, and the allocation test. Everything else (duals,
disjunction, implication, other comparisons, rational constants, true/false)
is sugar that `desugar` eliminates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction



class _Self:
    """Singleton marker: the agent a formula is evaluated at."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "@self"


SELF = _Self()


def _check_bindings(bindings) -> None:
    if not bindings:
        raise ValueError("an action must bind at least one seller (use skip)")
    sellers = [s for s, _ in bindings]
    if len(set(sellers)) != len(sellers):
        raise ValueError(f"seller bound twice in one action: {sellers}")


@dataclass(frozen=True)
class UtilityTerm:
    """The utility of a named agent, or of the current agent (SELF)."""

    subject: object  # nominal str | SELF


# --- core constructors -----------------------------------------------------


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
        _check_bindings(self.bindings)


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


TRUE = LinearGeq((), 0)
FALSE = LinearGeq((), 1)


# --- sugar -----------------------------------------------------------------


@dataclass(frozen=True)
class Truth:
    pass


@dataclass(frozen=True)
class Falsity:
    pass


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Diamond:
    child: "Formula"


@dataclass(frozen=True)
class DiffuseDiamond:
    bindings: tuple[tuple[str, object], ...]
    child: "Formula"

    def __post_init__(self):
        _check_bindings(self.bindings)


@dataclass(frozen=True)
class CoalitionDiamond:
    coalition: frozenset[str]
    child: "Formula"


@dataclass(frozen=True)
class Compare:
    """Linear comparison with rational coefficients; desugared by clearing
    denominators and rewriting <=, <, >, = in terms of >=."""

    op: str  # one of >=, <=, <, >, =
    terms: tuple[tuple[Fraction, UtilityTerm], ...]
    bound: Fraction


Formula = (
    Nominal | LinearGeq | Not | And | Box | Diffuse | CoalitionBox | Heart
    | Truth | Falsity | Or | Implies | Iff | Diamond | DiffuseDiamond
    | CoalitionDiamond | Compare
)


def big_and(items) -> Formula:
    """Balanced conjunction of the items (empty -> true)."""
    return _fold(list(items), And, Truth())


def big_or(items) -> Formula:
    """Balanced disjunction of the items (empty -> false)."""
    return _fold(list(items), Or, Falsity())


def _fold(items: list, pair, empty) -> Formula:
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


def _cleared(terms, bound):
    denom = math.lcm(bound.denominator, *(c.denominator for c, _ in terms)) if terms else bound.denominator
    out = tuple((int(c * denom), t) for c, t in terms)
    return out, int(bound * denom)


def _negated(terms):
    return tuple((-c, t) for c, t in terms)


# --- sugar in core terms: the one definition that `desugar` and the parser share


def core_or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def core_implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def core_iff(left: Formula, right: Formula) -> Formula:
    """Both implications; they share the operand objects, so a chain of
    biconditionals costs linear time and memory."""
    return And(core_implies(left, right), core_implies(right, left))


def core_diamond(child: Formula) -> Formula:
    return Not(Box(Not(child)))


def core_diffuse_diamond(bindings, child: Formula) -> Formula:
    return Not(Diffuse(bindings, Not(child)))


def core_coalition_diamond(coalition, child: Formula) -> Formula:
    return Not(CoalitionBox(coalition, Not(child)))


def core_compare(op: str, terms, bound) -> Formula:
    """A rational linear comparison as integer `>=` atoms."""
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


def desugar(node: Formula) -> Formula:
    """Rewrite into the core fragment. A node with no sugar beneath it comes
    back as the same object, so desugaring a core formula builds nothing."""
    kind = type(node)
    if kind is Nominal or kind is Heart or kind is LinearGeq:
        return node
    if kind is Not or kind is Box:
        child = desugar(node.child)
        return node if child is node.child else kind(child)
    if kind is And:
        left, right = desugar(node.left), desugar(node.right)
        if left is node.left and right is node.right:
            return node
        return And(left, right)
    if kind is Diffuse:
        child = desugar(node.child)
        return node if child is node.child else Diffuse(node.bindings, child)
    if kind is CoalitionBox:
        child = desugar(node.child)
        return node if child is node.child else CoalitionBox(node.coalition, child)
    if kind is Truth:
        return TRUE
    if kind is Falsity:
        return FALSE
    if kind is Or:
        return core_or(desugar(node.left), desugar(node.right))
    if kind is Implies:
        return core_implies(desugar(node.left), desugar(node.right))
    if kind is Iff:
        return core_iff(desugar(node.left), desugar(node.right))
    if kind is Diamond:
        return core_diamond(desugar(node.child))
    if kind is DiffuseDiamond:
        return core_diffuse_diamond(node.bindings, desugar(node.child))
    if kind is CoalitionDiamond:
        return core_coalition_diamond(node.coalition, desugar(node.child))
    if kind is Compare:
        return core_compare(node.op, node.terms, node.bound)
    raise TypeError(f"not a formula node: {node!r}")


def names_of(node: Formula) -> set[str]:
    """Every nominal occurring in the formula; SELF is not a nominal. The
    walk keeps its own stack, so it answers at any depth."""
    out: set[str] = set()
    todo = [node]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Nominal:
            out.add(node.name)
        elif kind is Heart:
            if isinstance(node.target, str):
                out.add(node.target)
        elif kind in (LinearGeq, Compare):
            for _, term in node.terms:
                if isinstance(term.subject, str):
                    out.add(term.subject)
        elif kind in (Not, Box, Diamond):
            todo.append(node.child)
        elif kind in (And, Or, Implies, Iff):
            todo.append(node.right)
            todo.append(node.left)
        elif kind in (Diffuse, DiffuseDiamond):
            for sell, target in node.bindings:
                out.add(sell)
                if isinstance(target, str):
                    out.add(target)
            todo.append(node.child)
        elif kind in (CoalitionBox, CoalitionDiamond):
            out.update(node.coalition)
            todo.append(node.child)
        elif kind not in (Truth, Falsity):
            raise TypeError(f"not a formula node: {node!r}")
    return out


def contains_coalition(node: Formula) -> bool:
    """Whether a coalition operator occurs in the formula, at any depth."""
    todo = [node]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind in (CoalitionBox, CoalitionDiamond):
            return True
        if kind in (Not, Box, Diamond, Diffuse, DiffuseDiamond):
            todo.append(node.child)
        elif kind in (And, Or, Implies, Iff):
            todo.append(node.right)
            todo.append(node.left)
    return False


# --- printing ----------------------------------------------------------------

_IFF, _IMP, _OR, _AND, _UNARY, _ATOM = 1, 2, 3, 4, 5, 6


def format_formula(node: Formula) -> str:
    """Concrete syntax; parsing the output of a core formula reproduces it.

    The printer works from an explicit stack and joins the pieces once, so
    it prints a formula of any depth in time linear in the output."""
    out: list[str] = []
    todo: list = [(node, _IFF)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, min_level = item
        pieces, level = _layout(node)
        if level < min_level:
            out.append("(")
            todo.append(")")
        if type(pieces) is str:
            out.append(pieces)
        else:
            todo.extend(pieces)
    return "".join(out)


def _layout(node):
    """The node's printed form and its precedence level. The form of an atom
    is its text; any other node's is its pieces, last first, each text or a
    (child, the least level the child may print at without parentheses).
    Core kinds are tested first: they are most of what is printed."""
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
        return f"{_sum_str(node.terms)} >= {node.bound}", _ATOM
    if kind is Box:
        return ((node.child, _UNARY), "[] "), _UNARY
    if kind is Heart:
        return f"wins({_subject(node.target)})", _ATOM
    if kind is CoalitionBox:
        inside = ", ".join(sorted(node.coalition)) or " "
        return ((node.child, _UNARY), f"[<{inside}>] "), _UNARY
    if kind is Truth:
        return "true", _ATOM
    if kind is Falsity:
        return "false", _ATOM
    if kind is Compare:
        return f"{_sum_str(node.terms)} {node.op} {_rat_str(node.bound)}", _ATOM
    if kind is Or:
        return ((node.right, _AND), " | ", (node.left, _OR)), _OR
    if kind is Implies:
        return ((node.right, _IMP), " -> ", (node.left, _OR)), _IMP
    if kind is Iff:
        return ((node.right, _IMP), " <-> ", (node.left, _IFF)), _IFF
    if kind is Diamond:
        return ((node.child, _UNARY), "<> "), _UNARY
    if kind is DiffuseDiamond:
        return ((node.child, _UNARY), f"<{_bindings_str(node.bindings)}> "), _UNARY
    if kind is CoalitionDiamond:
        inside = ", ".join(sorted(node.coalition)) or " "
        return ((node.child, _UNARY), f"<[{inside}]> "), _UNARY
    raise TypeError(f"not a formula node: {node!r}")


def _subject(target) -> str:
    return "@self" if not isinstance(target, str) else target


def _bindings_str(bindings) -> str:
    return ", ".join(
        f"{sell}:{'skip' if not isinstance(target, str) else target}"
        for sell, target in bindings
    )


def _rat_str(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _sum_str(terms) -> str:
    if not terms:
        return "0"
    parts: list[str] = []
    for index, (coeff, term) in enumerate(terms):
        ut = f"ut[{_subject(term.subject)}]"
        magnitude = abs(Fraction(coeff))
        body = ut if magnitude == 1 else f"{_rat_str(magnitude)}*{ut}"
        if index == 0:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(parts)
