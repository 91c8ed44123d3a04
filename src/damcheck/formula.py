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


def desugar(node: Formula) -> Formula:
    """Rewrite into the core fragment; identity (up to reconstruction) on it."""
    kind = type(node)
    if kind is Nominal or kind is Heart or kind is LinearGeq:
        return node
    if kind is Not:
        return Not(desugar(node.child))
    if kind is And:
        return And(desugar(node.left), desugar(node.right))
    if kind is Box:
        return Box(desugar(node.child))
    if kind is Diffuse:
        return Diffuse(node.bindings, desugar(node.child))
    if kind is CoalitionBox:
        return CoalitionBox(node.coalition, desugar(node.child))
    if kind is Truth:
        return TRUE
    if kind is Falsity:
        return FALSE
    if kind is Or:
        return Not(And(Not(desugar(node.left)), Not(desugar(node.right))))
    if kind is Implies:
        return Not(And(desugar(node.left), Not(desugar(node.right))))
    if kind is Iff:
        return And(
            desugar(Implies(node.left, node.right)),
            desugar(Implies(node.right, node.left)),
        )
    if kind is Diamond:
        return Not(Box(Not(desugar(node.child))))
    if kind is DiffuseDiamond:
        return Not(Diffuse(node.bindings, Not(desugar(node.child))))
    if kind is CoalitionDiamond:
        return Not(CoalitionBox(node.coalition, Not(desugar(node.child))))
    if kind is Compare:
        terms, bound = _cleared(node.terms, node.bound)
        if node.op == ">=":
            return LinearGeq(terms, bound)
        if node.op == "<=":
            return LinearGeq(_negated(terms), -bound)
        if node.op == "<":
            return Not(LinearGeq(terms, bound))
        if node.op == ">":
            return Not(LinearGeq(_negated(terms), -bound))
        if node.op == "=":
            return And(LinearGeq(terms, bound), LinearGeq(_negated(terms), -bound))
        raise ValueError(f"unknown comparison {node.op!r}")
    raise TypeError(f"not a formula node: {node!r}")


def names_of(node: Formula) -> set[str]:
    """Every nominal occurring in the formula; SELF is not a nominal."""
    out: set[str] = set()
    _collect_names(node, out)
    return out


def _collect_names(node, out: set[str]) -> None:
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
        _collect_names(node.child, out)
    elif kind in (And, Or, Implies, Iff):
        _collect_names(node.left, out)
        _collect_names(node.right, out)
    elif kind in (Diffuse, DiffuseDiamond):
        for sell, target in node.bindings:
            out.add(sell)
            if isinstance(target, str):
                out.add(target)
        _collect_names(node.child, out)
    elif kind in (CoalitionBox, CoalitionDiamond):
        out.update(node.coalition)
        _collect_names(node.child, out)
    elif kind in (Truth, Falsity):
        pass
    else:
        raise TypeError(f"not a formula node: {node!r}")


def contains_coalition(node: Formula) -> bool:
    kind = type(node)
    if kind in (CoalitionBox, CoalitionDiamond):
        return True
    if kind in (Not, Box, Diamond, Diffuse, DiffuseDiamond):
        return contains_coalition(node.child)
    if kind in (And, Or, Implies, Iff):
        return contains_coalition(node.left) or contains_coalition(node.right)
    return False


# --- printing ----------------------------------------------------------------

_IFF, _IMP, _OR, _AND, _UNARY, _ATOM = 1, 2, 3, 4, 5, 6


def format_formula(node: Formula) -> str:
    """Concrete syntax; parsing the output of a core formula reproduces it."""
    return _fmt(node, _IFF)


def _fmt(node, min_level: int) -> str:
    text, level = _fmt_level(node)
    if level < min_level:
        return f"({text})"
    return text


def _fmt_level(node):
    kind = type(node)
    if kind is Nominal:
        return node.name, _ATOM
    if kind is Truth:
        return "true", _ATOM
    if kind is Falsity:
        return "false", _ATOM
    if kind is Heart:
        return f"wins({_subject(node.target)})", _ATOM
    if kind is LinearGeq:
        return f"{_sum_str(node.terms)} >= {node.bound}", _ATOM
    if kind is Compare:
        return f"{_sum_str(node.terms)} {node.op} {_rat_str(node.bound)}", _ATOM
    if kind is Not:
        return f"!{_fmt(node.child, _UNARY)}", _UNARY
    if kind is Box:
        return f"[] {_fmt(node.child, _UNARY)}", _UNARY
    if kind is Diamond:
        return f"<> {_fmt(node.child, _UNARY)}", _UNARY
    if kind is Diffuse:
        return f"[{_bindings_str(node.bindings)}] {_fmt(node.child, _UNARY)}", _UNARY
    if kind is DiffuseDiamond:
        return f"<{_bindings_str(node.bindings)}> {_fmt(node.child, _UNARY)}", _UNARY
    if kind is CoalitionBox:
        inside = ", ".join(sorted(node.coalition)) or " "
        return f"[<{inside}>] {_fmt(node.child, _UNARY)}", _UNARY
    if kind is CoalitionDiamond:
        inside = ", ".join(sorted(node.coalition)) or " "
        return f"<[{inside}]> {_fmt(node.child, _UNARY)}", _UNARY
    if kind is And:
        return f"{_fmt(node.left, _AND)} & {_fmt(node.right, _UNARY)}", _AND
    if kind is Or:
        return f"{_fmt(node.left, _OR)} | {_fmt(node.right, _AND)}", _OR
    if kind is Implies:
        return f"{_fmt(node.left, _OR)} -> {_fmt(node.right, _IMP)}", _IMP
    if kind is Iff:
        return f"{_fmt(node.left, _IFF)} <-> {_fmt(node.right, _IMP)}", _IFF
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
