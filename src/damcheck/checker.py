"""Model checking on one engine over the indexed arena of network states.

Every query runs on the same three pieces: `check` and `check_strategic`
here, and the strategy search and the equilibrium test in `analysis`.

* `model._Arena` is the static index of a network and the one update rule
  over it: numbered agents, friendship rows as integer bitmasks, and money
  as integers scaled by a common denominator. It is cached on the
  immutable `MarketNetwork`. An action that moves nothing returns its
  input, and its successor is the state itself.
* `_Engine` is one query: a table of the states it built, the formulas
  compiled for it, and their labelling over those states (Clarke, Emerson
  & Sistla, ACM TOPLAS 1986). The table is keyed by (the sellers' rows,
  budgets): an update never changes a buyer-buyer bit, and it gives a
  buyer a seller bit only with the buyer's bit in that seller's row, so
  the sellers' rows of a reachable state determine its buyers' rows.
  Each state's allocation, the root's included, is `auction.evaluate` of
  the state as the arena materialises it, computed once and kept in the
  state. The engine alone holds what a query keeps: its states, their
  memos and allocations, and its start time, which `report` turns into
  `CheckStats.elapsed_ms`. `forget` drops a state's memo and allocation
  for a caller that will not ask about that state again.
* `_Engine.compile` turns a formula into its evaluator over the engine's
  states in one walk, the only one a query makes over its formula (global
  model checking for hybrid logics, Franceschet & de Rijke 2006). Formulas
  are core, so it meets only the eight core node kinds, and for `check`
  and `strategy_exists` it refuses coalition boxes in that same walk.
  The walk visits each distinct conjunction once: a conjunction it meets
  again, as the parser and the derived-operator constructors share
  subformulas, is looked up by identity. The walk branches only at
  conjunctions, so a formula that is a small DAG but a large tree (a `<->`
  chain, or a parsed `translate` output) compiles in time near its number
  of distinct nodes. The walk also hash-conses as it goes
  (Filliatre & Conchon 2006): a node's key is its operator and its
  operands' serials, so hashing a key costs the same at any depth, and
  equal subformulas share one serial. The serial table belongs to the
  engine, so every formula compiled on one engine shares one numbering,
  and the states' memos, keyed by serial, serve them all. `!!f` is
  compiled as f, so a chain of diamonds `<><>x` runs as `!B B !x`, with
  one negation at each end. Each distinct node gets one closure
  `fn(state, need)`, bound to the engine and made after the walk, children
  first; a closure calls its children's closures directly, so there is no
  dispatch on the operator at evaluation time (Feeley & Lapalme, "Using
  closures for code generation", 1987).
* A closure answers its node at a whole set of agents at once: `need` and
  the result are bitmasks over agent numbers. A friendship box labels its
  child once, at the union of the asked agents' friends; a diffusion box
  builds its one successor once for all of them; a coalition box narrows
  the set as choices fail and asks each counter-choice only about the
  agents no earlier one answered; a conjunction asks its right operand
  only where the left one holds. Kernels save work on the hot path. A box
  whose child is a negation `[] !g` asks g itself and fails where g holds;
  a conjunction whose left operand is a nominal masks the asked agents
  with the nominal's bit. Two box kernels rest on friendship being
  symmetric, which `model._require_valid` checks and `_Arena.apply`
  keeps, so the agents that have n as a friend are those of n's row:
  `[] !n` (so `<>n`) is the asked agents less n's row, with no call and
  no memo, and `[] !(n & g)` (so `<>(n & g)` and `[](n -> g)`) asks g
  once, at n, and only if an asked agent is n's friend, then fails at the
  asked agents in n's row if g holds. The second also takes a box over a
  conjunction of such negations, `[](!(n1 & g1) & !(n2 & g2) & ...)` (so
  `<>(n1 & g1 | n2 & g2 | ...)`, the clause of each SAT gadget), as
  `[]!(n1 & g1) & []!(n2 & g2) & ...`: left to right, each box asked only
  at the agents where the ones before it hold. Neither kernel builds the
  set of friends. Each g is asked at most where the general box would
  ask its nominal conjunction, and exactly there when it is the only one,
  so the kernels build no state the general box would not. With several,
  a later g that has a diffusion can build fewer: it is not asked for
  agents that have already failed. Each state memoises by serial, as a
  pair (agents decided, agents where it holds), the modal nodes but
  `[] !n` and the conjunctions the formula shares as objects, so a later
  call computes only the agents not yet decided.
  Nested boxes then cost time linear in their depth, and a formula whose
  subformulas are shared objects, such as a `<->` chain, is evaluated once
  per state and node, in time linear in its distinct nodes. Nothing
  outlives the query."""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass

from . import auction
from .errors import CoalitionOperatorError, DamError, UnknownAgentError
from .formula import (
    SELF,
    And,
    Box,
    CoalitionBox,
    Diffuse,
    Formula,
    Heart,
    LinearGeq,
    Nominal,
    Not,
)
from .model import SKIP, AgentId, Mechanism, _action, _agent, _Arena, _bits, _coalition


@dataclass
class CheckStats:
    """Counters a query fills in: the mechanism's agent count, the number of
    distinct (friendship, budget) states the query built, root included, and
    the milliseconds from the start of the query to its answer."""

    agents: int = 0
    states_explored: int = 0
    elapsed_ms: float = 0.0


@dataclass(frozen=True)
class CheckQuery:
    mechanism: Mechanism
    at: AgentId
    formula: Formula


def _shallow(entry):
    """Report a formula too deeply nested for Python's stack as a DamError
    that names the entry point."""

    @functools.wraps(entry)
    def run(*args, **kwargs):
        try:
            return entry(*args, **kwargs)
        except RecursionError:
            raise DamError(f"formula nests too deeply for {entry.__name__}") from None

    return run


# --- the evaluators that compile builds ----------------------------------------
#
# Each maker returns the closure of one compiled node, `compute(state, need)`.
# A closure calls its children's closures directly, one Python frame per
# formula level, so a deep formula needs as many frames as it has levels.
# Makers only compute: `compile` wraps the nodes that keep a per-state memo
# in `_memo`.

_UNDECIDED = (0, 0)


def _memo(serial, compute):
    """compute, memoised in each state under serial as (agents decided,
    agents where it holds): a call computes only the asked agents not yet
    decided."""

    def memo(state, need):
        known, value = state.memo.get(serial, _UNDECIDED)
        todo = need & ~known
        if todo:
            value |= compute(state, todo)
            state.memo[serial] = (known | todo, value)
        return value & need

    return memo


def _nom(engine, agent):
    bit = 1 << agent

    def nom(state, need):
        return need & bit

    return nom


def _not(engine, child):
    child = engine.made[child]

    def neg(state, need):
        return need & ~child(state, need)

    return neg


def _and(engine, left, right):
    right = engine.made[right]
    key = engine.keys[left]
    if key[0] is _nom:
        bit = 1 << key[1]

        def nom_conj(state, need):
            # a nominal on the left holds at its own agent only
            got = need & bit
            return right(state, got) if got else 0

        return nom_conj
    left = engine.made[left]

    def conj(state, need):
        # the right operand only where the left one holds
        got = left(state, need)
        return right(state, got) if got else 0

    return conj


def _heart(engine, target):
    agents = engine.arena.agents
    allocation = engine.allocation
    if target >= 0:
        who = agents[target]

        def heart(state, need):
            return need if allocation(state).placement[who] == 1 else 0

    else:

        def heart(state, need):
            placement = allocation(state).placement
            return sum(1 << i for i in _bits(need) if placement[agents[i]] == 1)

    return heart


def _lin(engine, terms, bound):
    if not terms:  # `true` and `false` read no utility, so they run no auction
        holds = -1 if bound <= 0 else 0
        return lambda state, need: need & holds
    agents = engine.arena.agents
    allocation = engine.allocation
    named = [(c, agents[who]) for c, who in terms if who >= 0]
    per_self = sum(c for c, who in terms if who < 0)

    def lin(state, need):
        utility = allocation(state).utility
        gap = bound  # the bound, less the terms that name an agent
        for coeff, who in named:
            gap -= coeff * utility[who]
        if not per_self:
            return need if gap <= 0 else 0
        return sum(1 << i for i in _bits(need) if per_self * utility[agents[i]] >= gap)

    return lin


def _unfriends(keys, key):
    """The agent n if key is that of `[] !n`, else None."""
    if key[0] is _box:
        child = keys[key[1]]
        if child[0] is _not and keys[child[1]][0] is _nom:
            return keys[child[1]][1]
    return None


def _guards(keys, serial):
    """The (n, serial of g) of each leaf of the conjunction tree at serial,
    left to right and each distinct node once, if every leaf is
    `!(n & g)`; else None. A single leaf is a tree of one."""
    out = []
    seen = set()
    todo = [serial]
    while todo:
        serial = todo.pop()
        if serial in seen:
            continue
        seen.add(serial)
        key = keys[serial]
        if key[0] is _and:
            todo += (key[2], key[1])
            continue
        inner = keys[key[1]] if key[0] is _not else None
        if inner is None or inner[0] is not _and or keys[inner[1]][0] is not _nom:
            return None
        out.append((keys[inner[1]][1], inner[2]))
    return out


def _box(engine, child):
    # friendship is symmetric (`_require_valid`, kept by `_Arena.apply`), so
    # the agents that have n as a friend are those of adj[n]
    keys = engine.keys
    key = keys[child]
    if key[0] is _not and keys[key[1]][0] is _nom:
        n = keys[key[1]][1]

        def unfriended(state, need):
            # `[] !n` fails exactly at n's friends
            return need & ~state.adj[n]

        return unfriended
    guards = _guards(keys, child)
    if guards is not None:
        guards = [(n, 1 << n, engine.made[g]) for n, g in guards]

        def guarded(state, need):
            # `[] !(n & g)` fails at n's friends if g holds at n: g is asked
            # at n alone, and only if an asked agent is n's friend. A box
            # over `!(n1 & g1) & !(n2 & g2) & ...` is the conjunction of
            # those boxes, each asked where the ones before it hold
            adj = state.adj
            for n, bit, g in guards:
                hit = need & adj[n]
                if hit and g(state, bit):
                    need ^= hit
            return need

        return guarded
    if key[0] is not _not:
        child, flip = engine.made[child], -1
    else:
        # `[] !g` fails where g holds: ask g itself, and keep its answer
        child, flip = engine.made[key[1]], 0

    def box(state, need):
        # the child once, at every friend of every agent asked about; the
        # bit loops are inline because boxes are the hot path
        adj = state.adj
        around = 0
        rest = need
        while rest:
            low = rest & -rest
            rest ^= low
            around |= adj[low.bit_length() - 1]
        failed = around & (child(state, around) ^ flip)  # x ^ -1 is ~x
        got = need
        rest = need if failed else 0
        while rest:
            low = rest & -rest
            rest ^= low
            if adj[low.bit_length() - 1] & failed:
                got ^= low
        return got

    return box


def _diff(engine, action, child):
    child = engine.made[child]
    feasible = engine.arena.feasible

    def diff(state, need):
        # the action does not depend on the agent: one successor for all
        if feasible(state.adj, state.budgets, action):
            return child(cached_update(engine, state, action), need)
        return need

    return diff


def _coal(engine, members, child):
    child = engine.made[child]
    arena = engine.arena
    others = [s for s in arena.seller_ids if s not in members]
    options_of = arena.options
    sellers = arena.seller_ids

    def coal(state, need):
        # every feasible choice of the members has a counter-choice of the
        # others after which the body holds
        options = [options_of(state.adj, state.budgets, s) for s in sellers]
        action = [-1] * len(options)
        got = need
        for picked in itertools.product(*(options[s] for s in members)):
            for s, t in zip(members, picked):
                action[s] = t
            some = 0  # the agents of `got` some counter-choice answers
            for counter in itertools.product(*(options[s] for s in others)):
                for s, t in zip(others, counter):
                    action[s] = t
                some |= child(cached_update(engine, state, tuple(action)), got & ~some)
                if some == got:
                    break
            got = some
            if not got:
                break
        return got

    return coal


_MODAL = (_box, _diff, _coal)  # the makers whose nodes are memoised, but `[] !n`


class _State:
    """One (rows, budgets) state of a query, with its allocation and the
    memo of modal nodes and shared conjunctions: serial -> (bitmask of the
    agents decided, bitmask of those at which the node holds)."""

    __slots__ = ("adj", "budgets", "alloc", "memo")

    def __init__(self, adj, budgets):
        self.adj = adj
        self.budgets = budgets
        self.alloc = None
        self.memo: dict[int, tuple[int, int]] = {}


class _Engine:
    """One query on a mechanism: its arena, the table of states it built,
    and the table of the formulas compiled for it, which the states' memos
    are keyed by."""

    def __init__(self, mechanism: Mechanism):
        self.began = time.perf_counter()
        self.arena = arena = _Arena.of(mechanism)
        self.width = len(arena.agents)
        self.sellers = len(arena.seller_ids)
        self.table: dict[tuple, _State] = {}
        # every formula compiled on this engine numbers its nodes here, so
        # equal subformulas of any two of them share one serial and memo
        self.serials: dict[tuple, int] = {}  # key -> serial
        self.made: list = []  # serial -> closure
        self.keys: list[tuple] = []  # serial -> key
        self.root = self.state((arena.adj0, arena.budget0))

    def compile(self, node, coalition_free: bool = False):
        """A formula -> its evaluator over this engine's states, a closure
        `fn(state, need)` that returns the agents of the bitmask `need` at
        which it holds. With `coalition_free` a coalition box raises
        CoalitionOperatorError; anything but a core node raises TypeError.
        Names are resolved by `model`'s resolvers (`_agent`, `_action` and
        `_coalition`), each node's before its operands', and the agents they
        answer become arena numbers; they raise for a name that names no
        agent or stands where it may not.

        A node's key is (op, operand serials and data); the op is the
        closure's maker. `!!f` gets f's serial: every closure answers within
        `need`, so `!!f` and f answer alike. Only a conjunction met again is
        looked up by identity: only a conjunction makes the walk branch, and
        a lookup at every node would cost a formula that shares nothing
        about 40% more time to compile.

        The walk builds only keys. The closures of the new keys are then
        made in serial order, children first, as `op(engine, *operands)`,
        where engine.made[serial] is the closure of each earlier key. Modal
        nodes but `[] !n`, one mask operation that costs less than a memo
        lookup, and the conjunctions the walk met again by identity, are
        wrapped in `_memo`: only object sharing gives a formula more paths
        than nodes, and memoising conjunctions that are merely equal by key
        costs the unshared SAT goals time."""
        arena = self.arena
        net, index = arena.net, arena.index
        serials, made, keys = self.serials, self.made, self.keys
        walked: dict[int, int] = {}  # id of a conjunction walked -> its serial
        shared: set[int] = set()  # serials of the conjunctions met again

        def go(n) -> int:
            kind = type(n)
            if kind is Not:
                child = go(n.child)
                if keys[child][0] is _not:
                    return keys[child][1]
                key = (_not, child)
            elif kind is And:
                serial = walked.get(id(n))
                if serial is not None:
                    shared.add(serial)
                    return serial
                key = (_and, go(n.left), go(n.right))
            elif kind is Nominal:
                key = (_nom, index[_agent(net, n.name)])
            elif kind is Box:
                key = (_box, go(n.child))
            elif kind is Heart:
                key = (_heart, -1 if n.target is SELF else index[_agent(net, n.target)])
            elif kind is LinearGeq:
                terms = tuple(
                    (c, -1 if t.subject is SELF else index[_agent(net, t.subject)])
                    for c, t in n.terms
                )
                key = (_lin, terms, n.bound)
            elif kind is Diffuse:
                action = [-1] * len(arena.seller_ids)
                for sell, target in _action(net, n.bindings).items():
                    action[index[sell]] = -1 if target is SKIP else index[target]
                key = (_diff, tuple(action), go(n.child))
            elif kind is CoalitionBox:
                if coalition_free:
                    raise CoalitionOperatorError(
                        f"the coalition {{{', '.join(sorted(n.coalition))}}} occurs"
                        " in a formula that must be coalition-free"
                    )
                members = tuple(index[s] for s in _coalition(net, n.coalition))
                key = (_coal, members, go(n.child))
            else:
                raise TypeError(f"not a formula node: {n!r}")
            serial = serials.get(key)
            if serial is None:
                serial = serials[key] = len(keys)
                keys.append(key)
            if kind is And:
                walked[id(n)] = serial
            return serial

        top = go(node)
        for serial in range(len(made), len(keys)):
            key = keys[serial]
            compute = key[0](self, *key[1:])
            if serial in shared or key[0] in _MODAL and _unfriends(keys, key) is None:
                compute = _memo(serial, compute)
            made.append(compute)
        return made[top]

    def state(self, rows_budgets) -> _State:
        """The query's state for (rows, budgets), built on first use. The
        table is keyed by (the sellers' rows, budgets), which within one
        query determine the state (see the module docstring): a lookup
        hashes and compares a few rows, not every agent's."""
        adj, budgets = rows_budgets
        key = (adj[: self.sellers], budgets)
        got = self.table.get(key)
        if got is None:
            got = self.table[key] = _State(adj, budgets)
        return got

    def allocation(self, state: _State) -> auction.AllocationResult:
        if state.alloc is None:
            state.alloc = auction.evaluate(self.arena.materialize(state.adj, state.budgets))
        return state.alloc

    def forget(self, state: _State) -> None:
        """Drop the state's memo and allocation; the state stays in the
        table, and a later question about it computes them again."""
        state.memo.clear()
        state.alloc = None

    def report(self, stats: CheckStats | None) -> None:
        """Write the agent count, the states built and the time since the
        engine was made into stats, if given."""
        if stats is not None:
            stats.agents = self.width
            stats.states_explored = len(self.table)
            stats.elapsed_ms = (time.perf_counter() - self.began) * 1000


def cached_update(engine: _Engine, state: _State, action) -> _State:
    """The state after a feasible action: the engine's one successor lookup.
    An action that moves nothing returns `state` itself, with no key built;
    a successor already in the query's table, which `_Engine.state` keys by
    the sellers' rows and the budgets, comes back with its memo and
    allocation."""
    adj, budgets = engine.arena.apply(state.adj, state.budgets, action)
    if adj is state.adj and budgets is state.budgets:
        return state
    return engine.state((adj, budgets))


def _check(query: CheckQuery, stats: CheckStats | None, strategic: bool) -> bool:
    engine = _Engine(query.mechanism)
    compiled = engine.compile(query.formula, coalition_free=not strategic)
    at = engine.arena.index.get(query.at)
    if at is None:
        raise UnknownAgentError(f"{query.at.id!r} is not an agent of the mechanism")
    result = compiled(engine.root, 1 << at) != 0
    engine.report(stats)
    return result


@_shallow
def check(query: CheckQuery, stats: CheckStats | None = None) -> bool:
    """Truth of a coalition-free formula at an agent of a mechanism."""
    return _check(query, stats, strategic=False)


@_shallow
def check_strategic(query: CheckQuery, stats: CheckStats | None = None) -> bool:
    """Truth of a formula that may contain coalition operators."""
    return _check(query, stats, strategic=True)
