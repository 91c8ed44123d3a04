"""Nash-equilibrium checks, bounded strategy search, and the translation of
coalition operators into the coalition-free fragment.

The equilibrium test and the strategy search run on the checker's engine
(`checker._Engine`): the same arena states, update rule (`model._Arena`),
successor lookup and formula evaluator as `check`. `ne_formula` and
`translate` only write formulas, and never evaluate. `translate` first
compiles its input on the engine, as `check_strategic` does, so the two
refuse the same mechanisms and names; `ne_formula` alone reads only the
plain network. Both read the sellers and their choices off the network
(`_choices`). All four refuse an invalid mechanism first, through
`model._require_valid`, as `check` does."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import auction
from .checker import CheckStats, _diff, _Engine, _shallow, cached_update
from .errors import ArityError, DamError, InfeasibleProfileError
from .formula import (
    TRUE,
    And,
    Box,
    Compare,
    Diffuse,
    DiffuseDiamond,
    Formula,
    Heart,
    Implies,
    LinearGeq,
    Nominal,
    Not,
    UtilityTerm,
    big_and,
    big_or,
)
from .model import (
    SKIP,
    AgentId,
    JointAction,
    MarketNetwork,
    Mechanism,
    _coalition,
    _require_valid,
)

# --- Nash equilibrium --------------------------------------------------------


@dataclass(frozen=True)
class NeQuery:
    """A profile of joint actions to test for k-step equilibrium."""

    mechanism: Mechanism
    profile: tuple[JointAction, ...]


@dataclass(frozen=True)
class NeViolation:
    """A feasible unilateral deviation that strictly improves one seller."""

    seller: AgentId
    position: int
    target: object  # AgentId | SKIP
    baseline: Fraction
    achieved: Fraction


@dataclass(frozen=True)
class NeResult:
    is_ne: bool
    violation: NeViolation | None
    utilities: tuple[Fraction, ...]  # per seller, ascending seller id


def check_ne_direct(query: NeQuery, stats: CheckStats | None = None) -> NeResult:
    """Game-theoretic equilibrium test: no seller may improve her final
    utility by swapping a single step's target for another buyer or SKIP.
    Deviations whose trajectory becomes infeasible are not available and are
    skipped. `stats` gets the agent count, the states built and the elapsed
    time, as in `check`.

    Under `smf` a deviation that leaves the seller too little money to beat
    her baseline, even when she sells to the buyer with the highest
    valuation, is still played but runs no auction. The answer, the
    violation found first and the states built are the same as when every
    deviation runs one."""
    profile = tuple(query.profile)
    if not profile:
        raise ArityError("profile must contain at least one joint action")
    engine = _Engine(query.mechanism)
    steps = [engine.arena.action_of(action) for action in profile]
    trajectory = [engine.root]
    for action in steps:
        state = _play(engine, trajectory[-1], (action,))
        if state is None:
            raise InfeasibleProfileError("the profile itself violates a precondition")
        trajectory.append(state)
    utility = engine.allocation(trajectory[-1]).utility
    baseline = [utility[engine.arena.agents[s]] for s in engine.arena.seller_ids]
    violation = _first_violation(engine, trajectory, steps, baseline)
    engine.report(stats)
    return NeResult(violation is None, violation, tuple(baseline))


def _first_violation(engine: _Engine, trajectory, steps, baseline):
    """The first feasible unilateral deviation, by position, seller and then
    target (buyers ascending, then SKIP), that beats the baseline, or None."""
    arena = engine.arena
    cap = auction.seller_gain_cap(arena.rule, arena.net)
    # seller s cannot beat her baseline from a scaled budget of at most
    # floor[s], so such an outcome needs no auction
    floor = (
        None
        if cap is None
        else [math.floor((money - cap) * arena.scale) for money in baseline]
    )
    for position, action in enumerate(steps):
        state = trajectory[position]
        for s in arena.seller_ids:
            # the others' targets are feasible here, so each of s's options
            # gives a feasible joint action
            for candidate in arena.options(state.adj, state.budgets, s):
                if candidate == action[s]:
                    continue
                deviated = (*action[:s], candidate, *action[s + 1 :])
                outcome = _play(engine, state, (deviated, *steps[position + 1 :]))
                if outcome is None or (
                    floor is not None and outcome.budgets[s] <= floor[s]
                ):
                    continue
                achieved = engine.allocation(outcome).utility[arena.agents[s]]
                if achieved > baseline[s]:
                    return NeViolation(
                        seller=arena.agents[s],
                        position=position,
                        target=SKIP if candidate < 0 else arena.agents[candidate],
                        baseline=baseline[s],
                        achieved=achieved,
                    )
    return None


def _play(engine: _Engine, state, actions):
    """The state after the arena actions in turn, or None at the first
    infeasible one."""
    for action in actions:
        if not engine.arena.feasible(state.adj, state.budgets, action):
            return None
        state = cached_update(engine, state, action)
    return state


def _ut_cmp(op: str, nominal: str, value: Fraction) -> Formula:
    return Compare(op, ((Fraction(1), UtilityTerm(nominal)),), Fraction(value))


def _choices(net: MarketNetwork):
    """The sellers ascending, each seller's canonical nominal, and the
    targets a seller may name: each buyer's canonical nominal, buyers
    ascending, then SKIP."""
    sellers = sorted(net.sellers)
    seller_nom = {s: net.canonical_name(s) for s in sellers}
    options: list[object] = [net.canonical_name(b) for b in sorted(net.buyers)]
    options.append(SKIP)
    return sellers, seller_nom, options


def ne_formula(mechanism: Mechanism, profile, utilities) -> Formula:
    """The equilibrium schema as a formula: the profile-diamond asserting each
    seller's utility, conjoined with one deviation diamond per position,
    seller, and target in buyers-plus-SKIP, bounding her utility.

    Note the deviation conjuncts use diamonds, so an infeasible deviation
    falsifies the schema; `check_ne_direct` is the reading that skips them."""
    _require_valid(mechanism)
    sellers, seller_nom, options = _choices(mechanism.network)
    profile = tuple(profile)
    utilities = tuple(Fraction(u) for u in utilities)
    if not profile:
        raise ArityError("profile must contain at least one joint action")
    if len(utilities) != len(sellers):
        raise ArityError(
            f"{len(utilities)} utilities given for {len(sellers)} sellers"
        )
    steps = [tuple((seller_nom[s], a.target_of(s)) for s in sellers) for a in profile]

    def diamonds(bindings, body: Formula) -> Formula:
        for step in reversed(bindings):
            body = DiffuseDiamond(step, body)
        return body

    shares = [_ut_cmp("=", seller_nom[s], utilities[i]) for i, s in enumerate(sellers)]
    goal = diamonds(steps, big_and(shares))
    deviations = []
    for position, step in enumerate(steps):
        for i, sell in enumerate(sellers):
            bound = _ut_cmp("<=", seller_nom[sell], utilities[i])
            for candidate in options:
                deviated = (*step[:i], (seller_nom[sell], candidate), *step[i + 1 :])
                deviations.append(
                    diamonds((*steps[:position], deviated, *steps[position + 1 :]), bound)
                )
    return big_and([goal, *deviations])


# --- bounded strategy existence ----------------------------------------------


@dataclass(frozen=True)
class StrategyQuery:
    """Search for a feasible action sequence after which the goal holds at
    every seller. Depth, at least 0, defaults to |sellers| * |buyers|."""

    mechanism: Mechanism
    goal: Formula
    max_depth: int | None = None


@dataclass(frozen=True)
class StrategyResult:
    found: bool
    witness: tuple[JointAction, ...] | None


@_shallow
def strategy_exists(
    query: StrategyQuery, stats: CheckStats | None = None
) -> StrategyResult:
    """Breadth-first search over reachable (friends, budgets) states for a
    feasible sequence of joint actions making the goal true at every seller.

    States are deduplicated, so each reachable configuration is examined once
    at its minimal depth; the returned witness is shortest-first.

    Every seller works towards the goal, so a choice that could only block
    another seller is never tried (`_Arena.cooperative_options`): the states
    at each depth are still those that every feasible joint action reaches.
    With several sellers they may be found in another order than over every
    action, so the witness is one shortest witness, and a search that stops
    early counts in `states_explored` the states found up to then.

    Choices that commute reach one state in several orders, so the search
    skips actions whose successors it has already made (sleep sets with a
    table of states: Godefroid, LNCS 1032, 1996). Take a state X whose
    recorded step a from its parent P moved one seller alone, m to t. At
    X, the action b in which m alone moves, to u, is skipped when u < t and
    u was m's friend at P (`_asleep`).
    * b was an option at P and came before a there. The step changed no
      buyer-buyer bit, and m's row only gained bits, so b moved something
      at P too; m's budget at X is hers at P less t's price, so she could
      pay for u and then for t. Each option list is ascending and ends
      with SKIP, so in P's product order b comes before a, and P+b was in
      the table before X.
    * b and a commute. A seller who moves alone wins her target, gains its
      buyer-friends (her row, and her bit in theirs) and pays from her own
      budget, in either order. So X+b = P+b+a: P+b itself, if a moves
      nothing there, or a successor of P+b, which is expanded before X.
    By induction on the order of expansion, every skipped successor is
    already among the states the search made. So the frontiers and their
    order, the witness and `states_explored` are those of the search over
    every cooperative action.

    The goal's top-level conjuncts are compiled in their written order and
    asked fail-first: a conjunct that fails at a state is asked first at
    the next one (Haralick & Elliott 1980). Each state's answer is the
    same in any order, so the witness and `states_explored` are too. A
    goal with a diffusion builds states as it is asked, so it keeps its
    written order, and each conjunct is asked where the ones before it
    hold, as `&` asks them."""
    mech = query.mechanism
    net = mech.network
    depth_cap = (
        query.max_depth
        if query.max_depth is not None
        else len(net.sellers) * len(net.buyers)
    )
    if depth_cap < 0:
        raise DamError(f"max_depth must be at least 0, got {depth_cap}")
    engine = _Engine(mech)
    arena = engine.arena
    tests = [engine.compile(c, coalition_free=True) for c in _conjuncts(query.goal)]
    # a diffusion builds states, which states_explored counts, so a goal
    # with one is asked in its written order
    fail_first = _diff not in {key[0] for key in engine.keys}

    sellers = (1 << len(arena.seller_ids)) - 1  # sellers are numbered first

    def satisfied(state) -> bool:
        # each conjunct where the ones before it hold, as `&` asks them
        got = sellers
        for i, test in enumerate(tests):
            got = test(state, got)
            if got != sellers:
                if fail_first:
                    # the goal fails: ask this conjunct first next time
                    tests.insert(0, tests.pop(i))
                    break
                if not got:
                    break
        # the search may hold thousands of states: keep none of their memos
        engine.forget(state)
        return got == sellers

    # solo[s][u]: the action in which seller s alone moves, to u; mover
    # maps each such action back to (s, u)
    skips = (-1,) * len(arena.seller_ids)
    solo = [
        [(*skips[:s], u, *skips[s + 1 :]) for u in range(len(arena.agents))]
        for s in arena.seller_ids
    ]
    mover = {action: (s, u) for s, row in enumerate(solo) for u, action in enumerate(row)}
    parents = {engine.root: None}
    hit = engine.root if satisfied(engine.root) else None
    frontier = [engine.root]
    depth = 0
    while frontier and depth < depth_cap and hit is None:
        upcoming = []
        for state in frontier:
            options = [
                arena.cooperative_options(state.adj, state.budgets, s)
                for s in arena.seller_ids
            ]
            link = parents[state]
            moved = link and mover.get(link[1])
            asleep = _asleep(link[0], moved, options, solo) if moved else ()
            for action in itertools.product(*options):
                if action in asleep:
                    continue
                successor = cached_update(engine, state, action)
                if successor in parents:
                    continue
                parents[successor] = (state, action)
                if satisfied(successor):
                    hit = successor
                    break
                upcoming.append(successor)
            if hit is not None:
                break
        frontier = upcoming
        depth += 1
    engine.report(stats)
    if hit is None:
        return StrategyResult(False, None)
    steps = []
    while parents[hit] is not None:
        hit, action = parents[hit]
        steps.append(arena.action_to_joint(action))
    steps.reverse()
    return StrategyResult(True, tuple(steps))


def _asleep(parent, moved, options, solo):
    """The single-mover actions at a state whose successors the search has
    already made (see `strategy_exists`), given its parent, the (seller m,
    target t) that the step from the parent moved alone, and its options:
    m's moves alone to a target below t that was her friend at the
    parent."""
    m, t = moved
    low = parent.adj[m] & ((1 << t) - 1)  # her friends at the parent, below t
    return {solo[m][u] for u in options[m][:-1] if low >> u & 1}


def _conjuncts(goal: Formula) -> list[Formula]:
    """The goal's top-level conjuncts, left to right, each distinct one
    once. The walk keeps its own stack and enters each conjunction once by
    identity, so a shared chain of conjunctions takes time linear in its
    distinct nodes."""
    out = []
    seen: set[int] = set()
    todo = [goal]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if type(node) is And:
            todo += (node.right, node.left)
        else:
            out.append(node)
    return out


# --- coalition-operator elimination -------------------------------------------


@_shallow
def translate(mechanism: Mechanism, form: Formula) -> Formula:
    """A coalition-free formula agreeing with the input on this mechanism at
    every agent. The one walk copies the core nodes and unfolds each
    coalition box into a conjunction over the coalition's choices (buyers
    plus SKIP, one canonical name per buyer) of disjunctions over
    counter-choices, built from the `formula` constructors of the derived
    operators, so the output is core too.

    The walk keeps a memo by identity: a subformula the input shares is
    translated once and its output shared in turn, each distinct coalition
    box is unfolded once, and a subformula with no coalition box comes back
    as the same object. The output then has about as many distinct nodes as
    the input plus the unfoldings, though its printed text can still be
    exponentially longer than the input's.

    It refuses what `check_strategic` refuses, with the same error, from the
    same walk: the input is compiled first on the query engine, which
    refuses an invalid mechanism, a name that names no agent or stands
    where it may not, and anything but a formula node. The copying walk
    then resolves no name; each coalition box reads its members and the
    sellers' choices off the plain network (`_choices`)."""
    _Engine(mechanism).compile(form)
    return _tr(mechanism.network, {}, form)


def _tr(net: MarketNetwork, memo: dict[int, Formula], node):
    """`node` translated, where `memo` maps id(input node) to its output.
    `translate` compiled the input first, so its names all resolve."""
    kind = type(node)
    if kind is Nominal or kind is Heart or kind is LinearGeq:
        return node
    out = memo.get(id(node))
    if out is not None:
        return out
    if kind is Not or kind is Box or kind is Diffuse:
        child = _tr(net, memo, node.child)
        if child is node.child:
            out = node
        elif kind is Diffuse:
            out = Diffuse(node.bindings, child)
        else:
            out = kind(child)
    elif kind is And:
        left, right = _tr(net, memo, node.left), _tr(net, memo, node.right)
        out = node if left is node.left and right is node.right else And(left, right)
    else:  # the compile walk admits no other kind but a coalition box
        out = _expand_coalition(net, memo, node)
    memo[id(node)] = out
    return out


def _expand_coalition(net: MarketNetwork, memo: dict[int, Formula], node) -> Formula:
    coalition = _coalition(net, node.coalition)
    sellers, seller_nom, options = _choices(net)
    others = [seller_nom[s] for s in sellers if s not in coalition]
    inner = _tr(net, memo, node.child)

    conjuncts = []
    for picked in itertools.product(options, repeat=len(coalition)):
        own = tuple((seller_nom[s], t) for s, t in zip(coalition, picked))
        counters = [
            DiffuseDiamond(own + tuple(zip(others, counter)), inner)
            for counter in itertools.product(options, repeat=len(others))
        ]
        # the empty coalition's only "action" is all-skip, which is always possible
        own_possible = DiffuseDiamond(own, TRUE) if own else TRUE
        # one guard per choice: every choice has at least one counter-choice
        conjuncts.append(Implies(own_possible, big_or(counters)))
    return big_and(conjuncts)
