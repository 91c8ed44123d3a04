"""Reduction gadgets and brute-force oracles.

Generators turn 3-SAT and prenex QBF instances into (mechanism, formula)
pairs whose strategy-existence / strategic-checking answers match the source
instance; the exponential oracles exist to cross-validate them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import MechanismError, OracleLimitError
from .formula import (
    And,
    Box,
    CoalitionBox,
    CoalitionDiamond,
    Diamond,
    Falsity,
    Formula,
    Iff,
    Implies,
    Nominal,
    Not,
    Or,
    Truth,
    big_and,
    big_or,
    desugar,
)
from .mechjson import mechanism_from_dict
from .model import Mechanism

_ORACLE_CAP = 20

# --- 3-SAT instances -----------------------------------------------------------


@dataclass(frozen=True)
class CnfInstance:
    """A 3-CNF: clauses are triples of DIMACS literals over vars 1..num_vars."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise MechanismError("negative variable count")
        for clause in self.clauses:
            if len(clause) != 3:
                raise MechanismError(f"clause {clause!r} does not have 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise MechanismError(f"literal {lit} out of range in {clause!r}")


def sat_oracle(instance: CnfInstance) -> bool:
    """Exhaustive truth-table satisfiability test (capped at 20 variables)."""
    n = instance.num_vars
    if n > _ORACLE_CAP:
        raise OracleLimitError(f"oracle capped at {_ORACLE_CAP} variables, got {n}")
    for bits in range(1 << n):
        ok = True
        for clause in instance.clauses:
            if not any(
                ((bits >> (abs(lit) - 1)) & 1) == (1 if lit > 0 else 0)
                for lit in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


# --- propositional formulas (QBF matrices) -------------------------------------


@dataclass(frozen=True)
class PVar:
    index: int


@dataclass(frozen=True)
class PConst:
    value: bool


@dataclass(frozen=True)
class PNot:
    child: "Prop"


@dataclass(frozen=True)
class PAnd:
    left: "Prop"
    right: "Prop"


@dataclass(frozen=True)
class POr:
    left: "Prop"
    right: "Prop"


@dataclass(frozen=True)
class PImplies:
    left: "Prop"
    right: "Prop"


@dataclass(frozen=True)
class PIff:
    left: "Prop"
    right: "Prop"


Prop = PVar | PConst | PNot | PAnd | POr | PImplies | PIff


def prop_eval(node: Prop, assignment) -> bool:
    kind = type(node)
    if kind is PVar:
        return bool(assignment[node.index])
    if kind is PConst:
        return node.value
    if kind is PNot:
        return not prop_eval(node.child, assignment)
    if kind is PAnd:
        return prop_eval(node.left, assignment) and prop_eval(node.right, assignment)
    if kind is POr:
        return prop_eval(node.left, assignment) or prop_eval(node.right, assignment)
    if kind is PImplies:
        return (not prop_eval(node.left, assignment)) or prop_eval(
            node.right, assignment
        )
    if kind is PIff:
        return prop_eval(node.left, assignment) == prop_eval(node.right, assignment)
    raise TypeError(f"not a propositional node: {node!r}")


def prop_vars(node: Prop) -> set[int]:
    kind = type(node)
    if kind is PVar:
        return {node.index}
    if kind is PConst:
        return set()
    if kind is PNot:
        return prop_vars(node.child)
    return prop_vars(node.left) | prop_vars(node.right)


def prop_to_formula(node: Prop, atom_for: Callable[[int], Formula]) -> Formula:
    kind = type(node)
    if kind is PVar:
        return atom_for(node.index)
    if kind is PConst:
        return Truth() if node.value else Falsity()
    if kind is PNot:
        return Not(prop_to_formula(node.child, atom_for))
    pairs = {PAnd: And, POr: Or, PImplies: Implies, PIff: Iff}
    ctor = pairs.get(kind)
    if ctor is None:
        raise TypeError(f"not a propositional node: {node!r}")
    return ctor(
        prop_to_formula(node.left, atom_for), prop_to_formula(node.right, atom_for)
    )


# --- QBF instances --------------------------------------------------------------

FORALL = "forall"
EXISTS = "exists"


@dataclass(frozen=True)
class QbfInstance:
    """Prenex QBF: prefix[i] quantifies variable i+1 (outermost first); the
    matrix is a propositional formula with no free variables."""

    prefix: tuple[str, ...]
    matrix: Prop

    def __post_init__(self):
        for q in self.prefix:
            if q not in (FORALL, EXISTS):
                raise MechanismError(f"bad quantifier {q!r}")
        free = prop_vars(self.matrix) - set(range(1, len(self.prefix) + 1))
        if free:
            raise MechanismError(f"free variables in matrix: {sorted(free)}")


def qbf_oracle(instance: QbfInstance) -> bool:
    """Exhaustive quantifier expansion (capped at 20 variables)."""
    n = len(instance.prefix)
    if n > _ORACLE_CAP:
        raise OracleLimitError(f"oracle capped at {_ORACLE_CAP} variables, got {n}")
    assignment: dict[int, bool] = {}

    def go(k: int) -> bool:
        if k > n:
            return prop_eval(instance.matrix, assignment)
        results = []
        for value in (False, True):
            assignment[k] = value
            results.append(go(k + 1))
        del assignment[k]
        if instance.prefix[k - 1] == FORALL:
            return results[0] and results[1]
        return results[0] or results[1]

    return go(1)


# --- the 3-SAT gadget ------------------------------------------------------------


def _literal_name(i: int, j: int, lit: int) -> str:
    stem = "gamma" if lit > 0 else "ngamma"
    return f"{stem}{i}_{j}_{abs(lit)}"


def gen_sat_gadget(instance: CnfInstance) -> tuple[Mechanism, Formula]:
    """One-seller mechanism plus goal whose strategy-existence answer equals
    the satisfiability of the 3-CNF.

    Layers: seller - clause agents - literal agents - atom agents - splitters -
    truth/falsity agents; every incentive is zero, so reachability is the only
    constraint. Setting atom l true (false) means linking the seller to t_l
    (f_l) by incentivising the matching splitter."""
    k = len(instance.clauses)
    n = instance.num_vars
    buyers = []
    edges = []

    for i in range(1, k + 1):
        buyers.append({"id": f"b{i}", "names": [f"beta{i}"], "budget": 1, "valuation": 0})
        edges.append(["s", f"b{i}"])
        for j, lit in enumerate(instance.clauses[i - 1], start=1):
            cid = f"c{i}_{j}"
            buyers.append(
                {"id": cid, "names": [_literal_name(i, j, lit)], "budget": 1, "valuation": 0}
            )
            edges.append([f"b{i}", cid])
            edges.append([cid, f"d{abs(lit)}"])
    for l in range(1, n + 1):
        buyers.append({"id": f"d{l}", "names": [f"delta{l}"], "budget": 1, "valuation": 0})
        buyers.append({"id": f"e{l}_1", "names": [f"epsilon{l}_1"], "budget": 1, "valuation": 0})
        buyers.append({"id": f"e{l}_2", "names": [f"epsilon{l}_2"], "budget": 1, "valuation": 0})
        buyers.append({"id": f"t{l}", "names": [f"true{l}"], "budget": 1, "valuation": 0})
        buyers.append({"id": f"f{l}", "names": [f"false{l}"], "budget": 1, "valuation": 0})
        edges.append([f"d{l}", f"e{l}_1"])
        edges.append([f"d{l}", f"e{l}_2"])
        edges.append([f"e{l}_1", f"t{l}"])
        edges.append([f"e{l}_2", f"f{l}"])

    mechanism = mechanism_from_dict(
        {
            "sellers": [{"id": "s", "names": ["sigma"], "budget": 1}],
            "buyers": buyers,
            "edges": edges,
            "rule": "smf",
        }
    )

    def reach3(nominal: str) -> Formula:
        core = And(Nominal(nominal), Diamond(Nominal("sigma")))
        return Diamond(Diamond(Diamond(core)))

    clause_parts = []
    for i in range(1, k + 1):
        bodies = []
        for j, lit in enumerate(instance.clauses[i - 1], start=1):
            l = abs(lit)
            if lit > 0:
                settled = And(reach3(f"true{l}"), Not(reach3(f"false{l}")))
            else:
                settled = And(reach3(f"false{l}"), Not(reach3(f"true{l}")))
            bodies.append(And(Nominal(_literal_name(i, j, lit)), settled))
        clause_parts.append(
            Box(Implies(Nominal(f"beta{i}"), Diamond(big_or(bodies))))
        )
    return mechanism, desugar(big_and(clause_parts))


# --- the QBF gadget --------------------------------------------------------------


def gen_qbf_gadget(instance: QbfInstance) -> tuple[Mechanism, Formula]:
    """One-seller mechanism plus strategic formula whose truth at the seller
    equals the QBF's truth.

    Variable i gets buyer pairs (a_i^0, b_i^0) and (a_i^1, b_i^1); linking the
    seller to b_i^j (via a_i^j) sets p_i to j. Guards force step t to fix
    exactly variable t, so the coalition modalities quantify the prefix
    outermost-first."""
    n = len(instance.prefix)
    buyers = []
    edges = []
    for i in range(1, n + 1):
        for j in (0, 1):
            buyers.append(
                {"id": f"a{i}_{j}", "names": [f"alpha{i}_{j}"], "budget": 1, "valuation": 0}
            )
            buyers.append(
                {"id": f"b{i}_{j}", "names": [f"beta{i}_{j}"], "budget": 1, "valuation": 0}
            )
            edges.append(["s", f"a{i}_{j}"])
            edges.append([f"a{i}_{j}", f"b{i}_{j}"])
    mechanism = mechanism_from_dict(
        {
            "sellers": [{"id": "s", "names": ["sigma"], "budget": 1}],
            "buyers": buyers,
            "edges": edges,
            "rule": "smf",
        }
    )

    def sees(i: int, j: int) -> Formula:
        return Diamond(Nominal(f"beta{i}_{j}"))

    def fixed(k: int) -> Formula:
        parts = [Iff(sees(i, 0), Not(sees(i, 1))) for i in range(1, k + 1)]
        parts += [
            And(Not(sees(i, 0)), Not(sees(i, 1))) for i in range(k + 1, n + 1)
        ]
        return big_and(parts)

    def build(k: int) -> Formula:
        if k > n:
            return prop_to_formula(instance.matrix, lambda i: sees(i, 1))
        if instance.prefix[k - 1] == FORALL:
            return CoalitionBox(frozenset({"sigma"}), Implies(fixed(k), build(k + 1)))
        return CoalitionDiamond(frozenset({"sigma"}), And(fixed(k), build(k + 1)))

    return mechanism, desugar(build(1))


# --- the expressivity pair --------------------------------------------------------


def expressivity_pair(n: int) -> tuple[Mechanism, Mechanism, Formula]:
    """Two one-seller mechanisms differing only in one unnamed-buyer incentive
    (2 vs 1 against a seller budget of 1), plus the strategic reachability
    formula that tells them apart: false on the first, true on the second."""
    if n < 1:
        raise MechanismError("need at least one spur buyer")

    def build(bridge_incentive: int) -> Mechanism:
        buyers = []
        edges = []
        for i in range(1, n + 1):
            buyers.append(
                {
                    "id": f"a{i}",
                    "names": [f"alpha{i}"],
                    "budget": 0,
                    "valuation": 0,
                    "incentives": {"s": 1},
                }
            )
            buyers.append(
                {"id": f"l{i}", "names": [f"lambda{i}"], "budget": 0, "valuation": 0}
            )
            edges.append(["s", f"a{i}"])
            edges.append([f"a{i}", f"l{i}"])
        buyers.append(
            {
                "id": "b",
                "names": ["beta"],
                "budget": 0,
                "valuation": 0,
                "incentives": {"s": bridge_incentive},
            }
        )
        buyers.append({"id": "c", "names": ["gamma"], "budget": 0, "valuation": 0})
        edges.append(["s", "b"])
        edges.append(["b", "c"])
        return mechanism_from_dict(
            {
                "sellers": [{"id": "s", "names": ["sigma"], "budget": 1}],
                "buyers": buyers,
                "edges": edges,
                "rule": "smf",
            }
        )

    formula = desugar(CoalitionDiamond(frozenset({"sigma"}), Diamond(Nominal("gamma"))))
    return build(2), build(1), formula


# --- DIMACS / QDIMACS readers ------------------------------------------------------


def _int_token(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MechanismError(f"{where}: expected an integer, found {token!r}") from None


def _scan(text: str, fmt: str):
    """The variable count, (quantifier, variables) blocks and clauses of
    (Q)DIMACS text. Requires a `p cnf` header whose clause count is the number
    of clauses; `a`/`e` lines must precede the first clause; clauses end at 0,
    may span lines, and must not be empty."""
    num_vars = num_clauses = None
    blocks: list[tuple[str, list[int]]] = []
    clauses: list[list[int]] = []
    literals: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] in "c%":
            continue
        if line[0] == "p":
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise MechanismError(f"bad {fmt} header {line!r}")
            num_vars = _int_token(parts[2], f"{fmt} header")
            num_clauses = _int_token(parts[3], f"{fmt} header")
        elif line[0] in "ae":
            if clauses or literals:
                raise MechanismError("quantifier line after the matrix began")
            block = []
            for token in line.split()[1:]:
                var = _int_token(token, f"{fmt} prefix")
                if var == 0:
                    break
                block.append(var)
            blocks.append((FORALL if line[0] == "a" else EXISTS, block))
        else:
            for token in line.split():
                lit = _int_token(token, f"{fmt} clause")
                if lit != 0:
                    literals.append(lit)
                elif not literals:
                    raise MechanismError(f"empty clause in {fmt} input")
                else:
                    clauses.append(literals)
                    literals = []
    if literals:
        raise MechanismError(f"unterminated clause in {fmt} input")
    if num_vars is None:
        raise MechanismError("missing 'p cnf' header")
    if len(clauses) != num_clauses:
        raise MechanismError(
            f"{fmt} header declares {num_clauses} clauses, found {len(clauses)}"
        )
    return num_vars, blocks, clauses


def read_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF; 1- and 2-literal clauses are padded by repeating the
    final literal, wider clauses are rejected."""
    num_vars, blocks, clauses = _scan(text, "DIMACS")
    if blocks:
        raise MechanismError("quantifier line in DIMACS input")
    padded = []
    for literals in clauses:
        if len(literals) > 3:
            raise MechanismError(f"clause wider than 3 literals: {literals}")
        padded.append(tuple(literals + literals[-1:] * (3 - len(literals))))
    return CnfInstance(num_vars=num_vars, clauses=tuple(padded))


def read_qdimacs(text: str) -> QbfInstance:
    """Parse prenex QDIMACS; quantified variables must lie within the
    header's variable count and are renumbered into prefix order, and every
    matrix variable must be quantified."""
    num_vars, blocks, clauses = _scan(text, "QDIMACS")
    prefix: list[str] = []
    renumber: dict[int, int] = {}
    for quant, block in blocks:
        for var in block:
            if not 1 <= var <= num_vars:
                raise MechanismError(
                    f"quantified variable {var} outside the header's 1..{num_vars}"
                )
            if var in renumber:
                raise MechanismError(f"variable {var} quantified twice")
            prefix.append(quant)
            renumber[var] = len(prefix)
    matrix: Prop | None = None
    for literals in clauses:
        disj: Prop | None = None
        for lit in literals:
            if abs(lit) not in renumber:
                raise MechanismError(f"free variable {abs(lit)} in QDIMACS matrix")
            atom: Prop = PVar(renumber[abs(lit)])
            atom = PNot(atom) if lit < 0 else atom
            disj = atom if disj is None else POr(disj, atom)
        matrix = disj if matrix is None else PAnd(matrix, disj)
    return QbfInstance(tuple(prefix), PConst(True) if matrix is None else matrix)
