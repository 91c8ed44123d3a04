"""Reduction gadgets and brute-force oracles.

Generators turn 3-SAT and prenex QBF instances into (mechanism, formula)
pairs whose strategy-existence / strategic-checking answers match the source
instance; the exponential oracles exist to cross-validate them. The
generators build core formulas with the `formula` constructors and the
balanced folds `big_and` and `big_or`. QDIMACS clauses and matrices are
balanced folds too, so thousands of clauses nest shallowly, and the
propositional walks keep their own stack, so a matrix of any depth is
accepted."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from .errors import MechanismError, OracleLimitError
from .formula import (
    FALSE,
    TRUE,
    And,
    Box,
    CoalitionBox,
    CoalitionDiamond,
    Diamond,
    Formula,
    Iff,
    Implies,
    Nominal,
    Not,
    Or,
    _fold,
    big_and,
    big_or,
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


def _postorder(node: Prop) -> list:
    """The nodes of a propositional formula, each after its operands. The
    walk keeps its own stack, so it takes a formula of any depth."""
    out = []
    todo = [node]
    while todo:
        node = todo.pop()
        out.append(node)
        kind = type(node)
        if kind is PNot:
            todo.append(node.child)
        elif kind in (PAnd, POr, PImplies, PIff):
            todo.append(node.left)
            todo.append(node.right)
        elif kind is not PVar and kind is not PConst:
            raise TypeError(f"not a propositional node: {node!r}")
    out.reverse()
    return out


def _prop_fold(node: Prop, atom, negate, pairs):
    """Fold a propositional formula bottom-up: atom(n) for a PVar or PConst,
    negate(v) for a PNot, and pairs[kind](l, r) for the binary kinds."""
    values = []
    for node in _postorder(node):
        kind = type(node)
        if kind is PVar or kind is PConst:
            values.append(atom(node))
        elif kind is PNot:
            values.append(negate(values.pop()))
        else:
            right = values.pop()
            values.append(pairs[kind](values.pop(), right))
    return values.pop()


def prop_eval(node: Prop, assignment) -> bool:
    def atom(leaf):
        return bool(assignment[leaf.index] if type(leaf) is PVar else leaf.value)

    # on bools, l <= r is l -> r
    pairs = {PAnd: operator.and_, POr: operator.or_, PImplies: operator.le, PIff: operator.eq}
    return _prop_fold(node, atom, operator.not_, pairs)


def prop_vars(node: Prop) -> set[int]:
    return {leaf.index for leaf in _postorder(node) if type(leaf) is PVar}


def prop_to_formula(node: Prop, atom_for: Callable[[int], Formula]) -> Formula:
    """The core formula of a propositional one; variable i becomes atom_for(i)."""

    def atom(leaf):
        if type(leaf) is PVar:
            return atom_for(leaf.index)
        return TRUE if leaf.value else FALSE

    return _prop_fold(node, atom, Not, {PAnd: And, POr: Or, PImplies: Implies, PIff: Iff})


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


# --- the gadgets' one-seller mechanism --------------------------------------------


def _one_seller(buyers, edges, budget: int = 1, incentives=None) -> Mechanism:
    """The gadgets' mechanism: seller s, named sigma, with budget 1 under the
    smf rule. A buyer is an (id, name) pair with valuation 0, the given budget
    and the incentive from s that `incentives` gives its id (default 0)."""
    incentives = incentives or {}
    entries = [
        {"id": ident, "names": [name], "budget": budget, "valuation": 0,
         "incentives": {"s": incentives.get(ident, 0)}}
        for ident, name in buyers
    ]
    sellers = [{"id": "s", "names": ["sigma"], "budget": 1}]
    return mechanism_from_dict(
        {"sellers": sellers, "buyers": entries, "edges": edges, "rule": "smf"}
    )


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
    (f_l) by incentivising the matching splitter. An instance with no
    variable (and so no clause: each literal names one) would have no buyer,
    and is refused."""
    if not instance.num_vars:
        raise MechanismError(
            "a 3-CNF with no variable and no clause has a gadget with no buyer"
        )
    buyers = []
    edges = []
    clause_parts = []

    def reach3(nominal: str) -> Formula:
        core = And(Nominal(nominal), Diamond(Nominal("sigma")))
        return Diamond(Diamond(Diamond(core)))

    for i, clause in enumerate(instance.clauses, start=1):
        buyers.append((f"b{i}", f"beta{i}"))
        edges.append(["s", f"b{i}"])
        bodies = []
        for j, lit in enumerate(clause, start=1):
            cid, name, l = f"c{i}_{j}", _literal_name(i, j, lit), abs(lit)
            buyers.append((cid, name))
            edges.append([f"b{i}", cid])
            edges.append([cid, f"d{l}"])
            yes, no = ("true", "false") if lit > 0 else ("false", "true")
            settled = And(reach3(f"{yes}{l}"), Not(reach3(f"{no}{l}")))
            bodies.append(And(Nominal(name), settled))
        some = Diamond(big_or(bodies))
        clause_parts.append(Box(Implies(Nominal(f"beta{i}"), some)))
    for l in range(1, instance.num_vars + 1):
        buyers.append((f"d{l}", f"delta{l}"))
        buyers.append((f"e{l}_1", f"epsilon{l}_1"))
        buyers.append((f"e{l}_2", f"epsilon{l}_2"))
        buyers.append((f"t{l}", f"true{l}"))
        buyers.append((f"f{l}", f"false{l}"))
        edges.append([f"d{l}", f"e{l}_1"])
        edges.append([f"d{l}", f"e{l}_2"])
        edges.append([f"e{l}_1", f"t{l}"])
        edges.append([f"e{l}_2", f"f{l}"])
    return _one_seller(buyers, edges), big_and(clause_parts)


# --- the QBF gadget --------------------------------------------------------------


def gen_qbf_gadget(instance: QbfInstance) -> tuple[Mechanism, Formula]:
    """One-seller mechanism plus strategic formula whose truth at the seller
    equals the QBF's truth.

    Variable i gets buyer pairs (a_i^0, b_i^0) and (a_i^1, b_i^1); linking the
    seller to b_i^j (via a_i^j) sets p_i to j. Guards force step t to fix
    exactly variable t, so the coalition modalities quantify the prefix
    outermost-first. A loop wraps the matrix from the innermost quantifier.
    A QBF with no quantified variable would have no buyer, and is refused."""
    n = len(instance.prefix)
    if not n:
        raise MechanismError("a QBF with no quantified variable has a gadget with no buyer")
    buyers = []
    edges = []
    for i in range(1, n + 1):
        for j in (0, 1):
            buyers.append((f"a{i}_{j}", f"alpha{i}_{j}"))
            buyers.append((f"b{i}_{j}", f"beta{i}_{j}"))
            edges.append(["s", f"a{i}_{j}"])
            edges.append([f"a{i}_{j}", f"b{i}_{j}"])

    def sees(i: int, j: int) -> Formula:
        return Diamond(Nominal(f"beta{i}_{j}"))

    def fixed(k: int) -> Formula:
        parts = [Iff(sees(i, 0), Not(sees(i, 1))) for i in range(1, k + 1)]
        parts += [
            And(Not(sees(i, 0)), Not(sees(i, 1))) for i in range(k + 1, n + 1)
        ]
        return big_and(parts)

    sigma = frozenset({"sigma"})
    formula = prop_to_formula(instance.matrix, lambda i: sees(i, 1))
    for k in range(n, 0, -1):
        if instance.prefix[k - 1] == FORALL:
            formula = CoalitionBox(sigma, Implies(fixed(k), formula))
        else:
            formula = CoalitionDiamond(sigma, And(fixed(k), formula))
    return _one_seller(buyers, edges), formula


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
        incentives = {"b": bridge_incentive}
        for i in range(1, n + 1):
            buyers.append((f"a{i}", f"alpha{i}"))
            buyers.append((f"l{i}", f"lambda{i}"))
            edges.append(["s", f"a{i}"])
            edges.append([f"a{i}", f"l{i}"])
            incentives[f"a{i}"] = 1
        buyers.append(("b", "beta"))
        buyers.append(("c", "gamma"))
        edges.append(["s", "b"])
        edges.append(["b", "c"])
        return _one_seller(buyers, edges, budget=0, incentives=incentives)

    formula = CoalitionDiamond(frozenset({"sigma"}), Diamond(Nominal("gamma")))
    return build(2), build(1), formula


# --- DIMACS / QDIMACS readers ------------------------------------------------------


def _int_token(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MechanismError(f"{where}: expected an integer, found {token!r}") from None


def _scan(text: str, fmt: str):
    """The variable count, (quantifier, variables) blocks and clauses of
    (Q)DIMACS text. Requires one `p cnf` header of exactly four fields,
    before any prefix or clause line, whose clause count is the number of
    clauses; `a`/`e` lines must precede the first clause; clauses end at 0,
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
            if len(parts) != 4 or parts[1] != "cnf":
                raise MechanismError(f"bad {fmt} header {line!r}")
            if num_vars is not None:
                raise MechanismError(f"second {fmt} header {line!r}")
            if blocks or clauses or literals:
                raise MechanismError(f"{fmt} header {line!r} after a prefix or clause line")
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
    matrix variable must be quantified. Each clause and the matrix are
    balanced folds, of POr and of PAnd."""
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

    def atom(lit: int) -> Prop:
        if abs(lit) not in renumber:
            raise MechanismError(f"free variable {abs(lit)} in QDIMACS matrix")
        var = PVar(renumber[abs(lit)])
        return PNot(var) if lit < 0 else var

    disjunctions = [
        _fold([atom(lit) for lit in literals], POr, PConst(False))
        for literals in clauses
    ]
    return QbfInstance(tuple(prefix), _fold(disjunctions, PAnd, PConst(True)))
