"""Reference semantics over Mechanism values, kept apart from the engine.

`reference_precondition` and `reference_apply` are the concurrent update
written over `frozenset` friendships and `Fraction` budgets, with no network
index: the oracle that `model._Arena` and its views `action_precondition`
and `apply_joint_action` are held to. `reference_check` evaluates a formula
by direct recursion, materialising each successor through `reference_apply`;
`reference_ne` is the equilibrium test as a loop over whole deviated
profiles. Neither memoises anything, so both are exponential and meant for
small instances only: they are the oracles the engine's answers are
compared against. `reference_format` is the printer that walks a formula
as a tree, the oracle for `format_formula`'s bytes. `reference_validate`
is the invariant check as it stood before `AgentId` became a named tuple: one
generic `==` or lookup per friendship entry, money compared as Fractions.
`reference_smf` is the `smf` allocation as it stood before it became one
pass: placements first, then payments and utilities rebuilt per agent by
arithmetic on the placement bits. `reference_reachable` counts the states
within k rounds by a breadth-first walk over every feasible joint action,
the count the strategy search's reduced product is held to.
`reference_strategy_search` is the strategy search as it stood before it
skipped the successors that commuting choices had already reached: the
plain breadth-first search over every cooperative joint action, whose
frontiers, witness and `states_explored` the search is held to.
`reference_mechanism_from_dict` is the loader as it stood before it became
one pass: it builds the network, then walks it again with
`validate_mechanism`; the one-pass loader is held to its answers and
refusal texts. `reference_mechanism_to_dict` is the schema dictionary as it
stood before saving rendered the file straight from the network: the dict
`mechanism_to_dict` returns and `json.dumps(..., indent=2)` of which every
saved file is held to."""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from typing import Any

from damcheck import auction
from damcheck.auction import AllocationResult, ranked_bidders
from damcheck.errors import ActionError, DamError, MechanismError, PreconditionError
from damcheck.formula import (
    SELF,
    And,
    Box,
    CoalitionBox,
    Diffuse,
    Heart,
    LinearGeq,
    Nominal,
    Not,
    desugar,
)
from damcheck.mechjson import parse_rational
from damcheck.model import (
    _IDENT_RE,
    BUYER,
    RESERVED_WORDS,
    SELLER,
    SKIP,
    AgentId,
    JointAction,
    MarketNetwork,
    Mechanism,
    _require_valid,
    buyer,
    joint_action,
    resolve_name,
    seller,
    validate_mechanism,
)


def reference_precondition(mechanism: Mechanism, action: JointAction) -> bool:
    """True iff every non-SKIP seller targets a current friend she can afford."""
    net = mechanism.network
    for sell, target in action.entries:
        if target is SKIP:
            continue
        who = resolve_name(mechanism, target)
        if who.kind != BUYER:
            raise ActionError(f"action target {target!r} names a non-buyer")
        if who not in net.friends_of(sell):
            return False
        if net.budget[sell] < net.incentive_for(who, sell):
            return False
    return True


def _winners(
    mechanism: Mechanism, action: JointAction
) -> list[tuple[AgentId, AgentId]]:
    """Per targeted buyer, the unique winning seller: maximal incentive among
    the sellers targeting her in this action, ties to the least seller id."""
    net = mechanism.network
    targeted: dict[AgentId, list[AgentId]] = {}
    for sell, target in action.entries:
        if target is SKIP:
            continue
        who = resolve_name(mechanism, target)
        targeted.setdefault(who, []).append(sell)
    result = []
    for buy, candidates in targeted.items():
        best = min(
            candidates, key=lambda s: (-net.incentive_for(buy, s), s.id)
        )
        result.append((best, buy))
    return result


def reference_apply(mechanism: Mechanism, action: JointAction) -> Mechanism:
    """The mechanism after one concurrent incentivisation round.

    For each buyer targeted by at least one seller, the winning seller gains
    edges to all the buyer's buyer-friends, pays the buyer her incentive, and
    the buyer's budget grows by it. Losers pay and gain nothing. Everything
    is computed from the pre-update state; the input is not mutated."""
    if not reference_precondition(mechanism, action):
        raise PreconditionError("joint action precondition does not hold")
    net = mechanism.network
    pairs = _winners(mechanism, action)

    additions: list[tuple[AgentId, frozenset[AgentId]]] = []
    for winner, buy in pairs:
        gained = frozenset(x for x in net.friends_of(buy) if x.kind == BUYER)
        additions.append((winner, gained))

    new_friends = dict(net.friends)
    for winner, gained in additions:
        fresh = gained - new_friends.get(winner, frozenset())
        if fresh:
            new_friends[winner] = new_friends.get(winner, frozenset()) | fresh
            for x in fresh:
                new_friends[x] = new_friends.get(x, frozenset()) | {winner}

    new_budget = dict(net.budget)
    for winner, buy in pairs:
        paid = net.incentive_for(buy, winner)
        new_budget[winner] = new_budget[winner] - paid
        new_budget[buy] = new_budget[buy] + paid

    return Mechanism(
        network=replace(net, friends=new_friends, budget=new_budget),
        rule=mechanism.rule,
    )


def reference_check(mechanism: Mechanism, at: AgentId, formula) -> bool:
    """Truth of a formula (coalition operators allowed) at an agent."""
    return _eval(mechanism, at, desugar(formula))


def action_from_bindings(mechanism: Mechanism, bindings) -> JointAction:
    """JointAction for formula-level bindings; unlisted sellers SKIP."""
    partial: dict[AgentId, object] = {}
    for nominal, target in bindings:
        agent = resolve_name(mechanism, nominal)
        if agent.kind != SELLER:
            raise ActionError(f"{nominal!r} does not name a seller")
        if agent in partial:
            raise ActionError(f"seller {agent.id!r} bound twice in one action")
        partial[agent] = target
    return joint_action(mechanism.network, partial)


def _eval(m: Mechanism, at: AgentId, node) -> bool:
    kind = type(node)
    if kind is Nominal:
        return resolve_name(m, node.name) == at
    if kind is Not:
        return not _eval(m, at, node.child)
    if kind is And:
        return _eval(m, at, node.left) and _eval(m, at, node.right)
    if kind is Box:
        return all(_eval(m, b, node.child) for b in m.network.friends_of(at))
    if kind is Heart:
        alloc = auction.evaluate(m)
        who = at if node.target is SELF else resolve_name(m, node.target)
        return alloc.placement[who] == 1
    if kind is LinearGeq:
        alloc = auction.evaluate(m)
        total = 0
        for coeff, term in node.terms:
            who = at if term.subject is SELF else resolve_name(m, term.subject)
            total += coeff * alloc.utility[who]
        return total >= node.bound
    if kind is Diffuse:
        action = action_from_bindings(m, node.bindings)
        if not reference_precondition(m, action):
            return True
        return _eval(reference_apply(m, action), at, node.child)
    if kind is CoalitionBox:
        return _eval_coalition(m, at, node)
    raise TypeError(f"cannot evaluate node {node!r}")


def _eval_coalition(m: Mechanism, at: AgentId, node) -> bool:
    """For every feasible coalition choice there is a counter-choice of the
    remaining sellers whose combined action realises the body."""
    net = m.network
    members: set[AgentId] = set()
    for nominal in node.coalition:
        agent = resolve_name(m, nominal)
        if agent.kind != SELLER:
            raise ActionError(f"coalition member {nominal!r} does not name a seller")
        members.add(agent)
    coalition = sorted(members)
    others = [s for s in sorted(net.sellers) if s not in members]
    choices: list[object] = [net.canonical_name(b) for b in net.buyers]
    choices.append(SKIP)

    for picked in itertools.product(choices, repeat=len(coalition)):
        c_action = joint_action(net, dict(zip(coalition, picked)))
        if not reference_precondition(m, c_action):
            continue  # infeasible coalition choice: the implication is vacuous
        answered = False
        for counter in itertools.product(choices, repeat=len(others)):
            assignment = dict(zip(coalition, picked))
            assignment.update(zip(others, counter))
            full = joint_action(net, assignment)
            if not reference_precondition(m, full):
                continue
            if _eval(reference_apply(m, full), at, node.child):
                answered = True
                break
        if not answered:
            return False
    return True


# --- the smf allocation --------------------------------------------------------
# `auction.smf_evaluate` as it stood before it became one pass over the
# sellers. The one-pass function must give the same three dicts.


def reference_smf(net: MarketNetwork) -> AllocationResult:
    """First-price allocation: sellers are processed in ascending id order;
    each sells to the best-ranked bidder not already holding an item, keeping
    her own item when none remains. Winners pay their valuation."""
    placement: dict[AgentId, int] = {a: 0 for a in net.agents()}
    sold_to: dict[AgentId, AgentId] = {}
    allocated: set[AgentId] = set()
    for sell in sorted(net.sellers, key=lambda s: s.id):
        refinement = [b for b in ranked_bidders(net, sell) if b not in allocated]
        if refinement:
            head = refinement[0]
            placement[head] = 1
            allocated.add(head)
            sold_to[sell] = head
        else:
            placement[sell] = 1

    payment = {
        b: net.valuation[b] if placement[b] else Fraction(0) for b in net.buyers
    }
    utility: dict[AgentId, Fraction] = {}
    for b in net.buyers:
        utility[b] = net.budget[b] - net.valuation[b] * placement[b]
    for sell in net.sellers:
        head = sold_to.get(sell)
        utility[sell] = net.budget[sell] + (
            net.valuation[head] if head is not None else Fraction(0)
        )
    return AllocationResult(placement=placement, payment=payment, utility=utility)


# --- the tree printer ----------------------------------------------------------
# `formula.format_formula` as it stood before it reused the text of shared
# nodes: it walks every formula as a tree. The new printer must write the
# same bytes.

_AND, _UNARY, _ATOM = 1, 2, 3


def reference_format(node) -> str:
    """Concrete syntax; parsing the output reproduces the formula. A number
    with more digits than Python will convert to text is a DamError.

    The printer works from an explicit stack and joins the pieces once, so
    it prints a formula of any depth in time linear in the output."""
    out: list[str] = []
    todo: list = [(node, _AND)]
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


def _final_state(mechanism: Mechanism, profile) -> Mechanism | None:
    current = mechanism
    for action in profile:
        if not reference_precondition(current, action):
            return None
        current = reference_apply(current, action)
    return current


def reference_ne(mechanism: Mechanism, profile):
    """(is_ne, violation, utilities) for a feasible profile, where violation
    is (seller, position, target, baseline, achieved) of the first improving
    deviation in (position, seller, target) order, or None."""
    net = mechanism.network
    profile = tuple(profile)
    final = _final_state(mechanism, profile)
    assert final is not None, "the profile itself must be feasible"
    sellers = sorted(net.sellers)
    baseline = {s: auction.evaluate(final).utility[s] for s in sellers}
    utilities = tuple(baseline[s] for s in sellers)
    options: list[object] = [net.canonical_name(b) for b in sorted(net.buyers)]
    options.append(SKIP)
    for position, action in enumerate(profile):
        for sell in sellers:
            original = action.target_of(sell)
            original_agent = SKIP if original is SKIP else resolve_name(mechanism, original)
            for candidate in options:
                candidate_agent = (
                    SKIP if candidate is SKIP else resolve_name(mechanism, candidate)
                )
                if candidate_agent == original_agent:
                    continue
                targets = action.targets()
                targets[sell] = candidate
                deviated = list(profile)
                deviated[position] = joint_action(net, targets)
                outcome = _final_state(mechanism, deviated)
                if outcome is None:
                    continue
                achieved = auction.evaluate(outcome).utility[sell]
                if achieved > baseline[sell]:
                    violation = (sell, position, candidate_agent, baseline[sell], achieved)
                    return False, violation, utilities
    return True, None, utilities


def reference_reachable(mechanism: Mechanism, rounds: int) -> list[int]:
    """For k = 0..rounds, the number of distinct states reachable within k
    rounds, the initial state included: a plain breadth-first walk through
    `reference_apply` over every feasible joint action, choices that can
    only block included. States are told apart by friendships and budgets."""
    net = mechanism.network
    sellers = sorted(net.sellers)
    options: list[object] = [net.canonical_name(b) for b in sorted(net.buyers)]
    options.append(SKIP)
    actions = [
        joint_action(net, dict(zip(sellers, combo)))
        for combo in itertools.product(options, repeat=len(sellers))
    ]

    def key(state: Mechanism):
        friends = state.network.friends
        return (
            frozenset((a, f) for a, f in friends.items() if f),
            frozenset(state.network.budget.items()),
        )

    seen = {key(mechanism)}
    counts = [1]
    frontier = [mechanism]
    for _ in range(rounds):
        upcoming = []
        for state in frontier:
            for action in actions:
                if reference_precondition(state, action):
                    successor = reference_apply(state, action)
                    if key(successor) not in seen:
                        seen.add(key(successor))
                        upcoming.append(successor)
        counts.append(len(seen))
        frontier = upcoming
    return counts


def reference_strategy_search(query, stats=None):
    """`strategy_exists` as a plain breadth-first search over every
    cooperative joint action, with no action skipped, and the states it
    made: (its StrategyResult, the frontiers). frontiers[d] lists, as
    (rows, budgets) in the order the search made them, the states first
    reached at depth d, the state that satisfies the goal included. It runs
    on the checker's engine, so it counts `states_explored` as the search
    does."""
    from damcheck.analysis import StrategyResult, _conjuncts
    from damcheck.checker import _diff, _Engine, cached_update

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
    fail_first = _diff not in {key[0] for key in engine.keys}

    sellers = (1 << len(arena.seller_ids)) - 1

    def satisfied(state) -> bool:
        got = sellers
        for i, test in enumerate(tests):
            got = test(state, got)
            if got != sellers:
                if fail_first:
                    tests.insert(0, tests.pop(i))
                    break
                if not got:
                    break
        engine.forget(state)
        return got == sellers

    parents = {engine.root: None}
    frontiers = [[(engine.root.adj, engine.root.budgets)]]
    hit = engine.root if satisfied(engine.root) else None
    frontier = [engine.root]
    depth = 0
    while frontier and depth < depth_cap and hit is None:
        upcoming = []
        made = []
        for state in frontier:
            options = [
                arena.cooperative_options(state.adj, state.budgets, s)
                for s in arena.seller_ids
            ]
            for action in itertools.product(*options):
                successor = cached_update(engine, state, action)
                if successor in parents:
                    continue
                parents[successor] = (state, action)
                made.append((successor.adj, successor.budgets))
                if satisfied(successor):
                    hit = successor
                    break
                upcoming.append(successor)
            if hit is not None:
                break
        frontiers.append(made)
        frontier = upcoming
        depth += 1
    engine.report(stats)
    if hit is None:
        return StrategyResult(False, None), frontiers
    steps = []
    while parents[hit] is not None:
        hit, action = parents[hit]
        steps.append(arena.action_to_joint(action))
    steps.reverse()
    return StrategyResult(True, tuple(steps)), frontiers


def reference_validate(mechanism: Mechanism) -> list[str]:
    """The invariant violations of `model.validate_mechanism`, in its order."""
    net = mechanism.network
    out: list[str] = []
    if not net.sellers:
        out.append("no sellers: at least one seller is required")
    if not net.buyers:
        out.append("no buyers: at least one buyer is required")

    seen_ids: set[str] = set()
    for agent in net.agents():
        if type(agent.id) is not str:
            out.append(f"agent id {agent.id!r} is not a string")
        if agent.id in seen_ids:
            out.append(f"duplicate agent id {agent.id!r}")
        seen_ids.add(agent.id)
    for s in net.sellers:
        if s.kind != SELLER:
            out.append(f"agent {s.id!r} listed as seller but has kind {s.kind!r}")
    for b in net.buyers:
        if b.kind != BUYER:
            out.append(f"agent {b.id!r} listed as buyer but has kind {b.kind!r}")

    agents = set(net.agents())
    for agent, nbrs in net.friends.items():
        if agent not in agents:
            out.append(f"friendship mentions unknown agent {agent.id!r}")
            continue
        listed = list(nbrs)
        distinct = list(dict.fromkeys(listed))
        for other in distinct:
            if listed.count(other) > 1:
                out.append(f"friendship of {agent.id!r} lists {other.id!r} more than once")
        for other in distinct:
            if other not in agents:
                out.append(
                    f"friendship of {agent.id!r} mentions unknown agent {other.id!r}"
                )
                continue
            if other == agent:
                out.append(f"friendship irreflexivity violated at {agent.id!r}")
                continue
            if agent not in net.friends_of(other):
                out.append(
                    f"friendship not symmetric: {agent.id!r}-{other.id!r}"
                )
            if agent.kind == SELLER and other.kind == SELLER:
                # report each unordered seller-seller edge once
                if agent.id < other.id:
                    out.append(
                        f"seller-seller edge forbidden: {agent.id!r}-{other.id!r}"
                    )

    for agent in net.agents():
        bdg = net.budget.get(agent)
        if bdg is None:
            out.append(f"no budget for agent {agent.id!r}")
        elif bdg < 0:
            out.append(f"negative budget for agent {agent.id!r}")
    for b in net.buyers:
        val = net.valuation.get(b)
        if val is None:
            out.append(f"no valuation for buyer {b.id!r}")
            continue
        if val < 0:
            out.append(f"negative valuation for buyer {b.id!r}")
        bdg = net.budget.get(b)
        if bdg is not None and val > bdg:
            out.append(f"valuation exceeds budget for buyer {b.id!r}")

    for (buy, sell), amount in net.incentive.items():
        if buy not in agents or buy.kind != BUYER:
            out.append(f"incentive keyed by non-buyer {buy.id!r}")
        if sell not in agents or sell.kind != SELLER:
            out.append(f"incentive keyed by non-seller {sell.id!r}")
        if amount < 0:
            out.append(f"negative incentive for ({buy.id!r}, {sell.id!r})")

    named = set()
    for nominal, agent in net.names.items():
        if not _IDENT_RE.match(nominal) or nominal in RESERVED_WORDS:
            out.append(f"nominal {nominal!r} is not a usable identifier")
        if agent not in agents:
            out.append(f"nominal {nominal!r} names unknown agent {agent.id!r}")
        named.add(agent)
    for agent in net.agents():
        if agent not in named:
            out.append(f"agent {agent.id!r} has no name")

    if not auction.has_rule(mechanism.rule):
        out.append(f"unknown auction rule {mechanism.rule!r}")
    return out


def reference_mechanism_from_dict(doc: dict) -> Mechanism:
    """`mechjson.mechanism_from_dict` as it stood with two walks: build the
    network, checking shapes, then refuse what `validate_mechanism` finds.
    A nominal that one agent lists twice is refused with the loader's
    present text."""
    if not isinstance(doc, dict):
        raise MechanismError("mechanism document must be a JSON object")
    for key in ("sellers", "buyers", "edges"):
        if not isinstance(doc.get(key, []), list):
            raise MechanismError(f"{key!r} must be a list")

    sellers: list[AgentId] = []
    buyers: list[AgentId] = []
    budget: dict[AgentId, Fraction] = {}
    valuation: dict[AgentId, Fraction] = {}
    incentive: dict[tuple[AgentId, AgentId], Fraction] = {}
    names: dict[str, AgentId] = {}
    parsed: dict[int | str, Fraction] = {}  # amounts repeat: parse each once

    def rational(value: Any, where: str) -> Fraction:
        if type(value) is not int and type(value) is not str:  # True == 1.0 == 1
            return parse_rational(value, where)
        exact = parsed.get(value)
        if exact is None:
            exact = parsed[value] = parse_rational(value, where)
        return exact

    def add_names(agent: AgentId, noms: Any) -> None:
        if not isinstance(noms, list) or not all(isinstance(n, str) for n in noms):
            raise MechanismError(f"names of {agent.id!r} must be a list of strings")
        for nom in noms:
            if nom in names:
                if names[nom] is agent:
                    raise MechanismError(f"names of {agent.id!r} list {nom!r} twice")
                raise MechanismError(f"nominal {nom!r} names two agents")
            names[nom] = agent

    def agent_id_of(entry: Any, section: str) -> str:
        if not isinstance(entry, dict) or "id" not in entry:
            raise MechanismError(f"every {section} entry needs an 'id' field")
        ident = entry["id"]
        if not isinstance(ident, str):
            raise MechanismError(f"{section} id {ident!r} is not a string")
        return ident

    for entry in doc.get("sellers", []):
        agent = seller(agent_id_of(entry, "seller"))
        sellers.append(agent)
        budget[agent] = rational(entry.get("budget", 0), f"budget of {agent.id}")
        add_names(agent, entry.get("names", []))

    seller_by_id = {s.id: s for s in sellers}
    for entry in doc.get("buyers", []):
        agent = buyer(agent_id_of(entry, "buyer"))
        buyers.append(agent)
        budget[agent] = rational(entry.get("budget", 0), f"budget of {agent.id}")
        valuation[agent] = rational(entry.get("valuation", 0), f"valuation of {agent.id}")
        add_names(agent, entry.get("names", []))
        incentives = entry.get("incentives", {})
        if not isinstance(incentives, dict):
            raise MechanismError(f"incentives of {agent.id!r} must be an object")
        for sid, amount in incentives.items():
            sell = seller_by_id.get(sid)
            if sell is None:
                raise MechanismError(
                    f"incentives of {agent.id!r} mention unknown seller {sid!r}"
                )
            value = rational(amount, f"incentive of ({agent.id}, {sid})")
            if value:  # zero is the default; keep the map canonical
                incentive[(agent, sell)] = value

    by_id = {a.id: a for a in sellers + buyers}
    if len(by_id) != len(sellers) + len(buyers):
        raise MechanismError("duplicate agent ids")

    adjacent: dict[AgentId, set[AgentId]] = {a: set() for a in by_id.values()}
    for pair in doc.get("edges", []):
        if not isinstance(pair, list) or len(pair) != 2:
            raise MechanismError(f"edge {pair!r} is not a two-element list")
        if not isinstance(pair[0], str) or not isinstance(pair[1], str):
            raise MechanismError(f"edge {pair!r}: agent ids must be strings")
        try:
            a, b = by_id[pair[0]], by_id[pair[1]]
        except KeyError as exc:
            raise MechanismError(f"edge {pair!r} mentions unknown agent {exc}") from None
        if b in adjacent[a]:
            raise MechanismError(f"duplicate or reversed edge {pair!r}")
        adjacent[a].add(b)
        adjacent[b].add(a)
    friends = {a: frozenset(nbrs) for a, nbrs in adjacent.items()}

    mechanism = Mechanism(
        network=MarketNetwork(
            sellers=tuple(sellers),
            buyers=tuple(buyers),
            friends=friends,
            budget=budget,
            valuation=valuation,
            incentive=incentive,
            names=names,
        ),
        rule=str(doc.get("rule", "smf")),
    )
    violations = validate_mechanism(mechanism)
    if violations:
        raise MechanismError("invalid mechanism: " + "; ".join(violations))
    return mechanism


def format_rational(value: int | Fraction) -> int | str:
    """An exact amount, an `int` or a `Fraction`, as the schema writes it."""
    num, den = value.as_integer_ratio()
    return num if den == 1 else f"{num}/{den}"


def reference_mechanism_to_dict(mechanism: Mechanism) -> dict:
    """The schema dictionary of a mechanism. An invalid mechanism raises
    MechanismError first, with the text `load_mechanism` gives it
    (`model._require_valid`), so what this returns is a file that loads."""
    _require_valid(mechanism)
    net = mechanism.network
    names_of: dict[AgentId, list[str]] = {agent: [] for agent in net.agents()}
    for nom, agent in net.names.items():
        names_of[agent].append(nom)
    for noms in names_of.values():
        noms.sort()
    sellers = [
        {"id": s.id, "names": names_of[s], "budget": format_rational(net.budget[s])}
        for s in net.sellers
    ]
    buyers = [
        {
            "id": b.id,
            "names": names_of[b],
            "budget": format_rational(net.budget[b]),
            "valuation": format_rational(net.valuation[b]),
            "incentives": {  # each amount read once; absent or zero is left out
                s.id: format_rational(amount)
                for s in net.sellers
                if (amount := net.incentive.get((b, s)))
            },
        }
        for b in net.buyers
    ]
    # friendship is symmetric: each edge once, from its lesser id
    edges = sorted(
        [a.id, b.id] for a, nbrs in net.friends.items() for b in nbrs if a.id <= b.id
    )
    return {
        "sellers": sellers,
        "buyers": buyers,
        "edges": edges,
        "rule": mechanism.rule,
    }
