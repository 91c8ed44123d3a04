"""Market networks, mechanisms, joint actions, and the concurrent update.

`_Arena` is the static index of a network (agent numbering, friendship
bitmasks, scaled money) and the one implementation of the update rule; it
is cached on the immutable `MarketNetwork`. Every query steps through it,
and `action_precondition` and `apply_joint_action` are views over it for
callers that hold `Mechanism` values. The tests hold it to the value-level
update in `tests/reference.py`.

`_require_valid` is the one validity gate: the arena (and so every query
and `translate`), saving and `ne_formula` pass through it first, so each
refuses exactly what the loader refuses, with `validate_mechanism`'s text,
and what passes it needs no check of its own.

Names are resolved here too, once for every caller: `_agent`, `_action`
and `_coalition` say which agent a nominal names, and whether it may stand
where it does, on the plain network. Only the checker's compile walk
calls them on a formula, and maps their answers to arena numbers;
`translate` refuses names through that walk, and reads only the members
of each coalition it unfolds with `_coalition`."""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import (
    ActionError,
    MechanismError,
    PreconditionError,
    UnknownNominalError,
)

SELLER = "seller"
BUYER = "buyer"

# Words the formula syntax claims for itself; they cannot be agent names.
RESERVED_WORDS = frozenset({"true", "false", "wins", "ut", "skip"})
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# The types of exact money, matched by `type(amount) in MONEY_TYPES`, so a
# bool, a float or a Decimal is not money.
MONEY_TYPES = frozenset({int, Fraction})


class _Skip:
    """Singleton marker: the seller incentivises nobody this round."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "SKIP"


SKIP = _Skip()
_ZERO = Fraction(0)


class AgentId(NamedTuple):
    """An agent: a unique id string and a kind (seller/buyer). A named tuple
    that hashes and sorts by (id, kind) in C, but never equals a plain tuple."""

    id: str
    kind: str

    def __repr__(self) -> str:
        return f"{self.kind[0]}:{self.id}"

    def __eq__(self, other: object) -> bool:
        return type(other) is AgentId and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return type(other) is not AgentId or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


def seller(ident: str) -> AgentId:
    return AgentId(ident, SELLER)


def buyer(ident: str) -> AgentId:
    return AgentId(ident, BUYER)


@dataclass(frozen=True)
class MarketNetwork:
    """The social/economic state: agents, friendship, budgets, valuations,
    incentives demanded per (buyer, seller) pair, and the naming map."""

    sellers: tuple[AgentId, ...]
    buyers: tuple[AgentId, ...]
    friends: Mapping[AgentId, frozenset[AgentId]]
    budget: Mapping[AgentId, Fraction]
    valuation: Mapping[AgentId, Fraction]
    incentive: Mapping[tuple[AgentId, AgentId], Fraction]
    names: Mapping[str, AgentId]

    def agents(self) -> tuple[AgentId, ...]:
        return self.sellers + self.buyers

    def friends_of(self, agent: AgentId) -> frozenset[AgentId]:
        return self.friends.get(agent, frozenset())

    def incentive_for(self, buy: AgentId, sell: AgentId) -> Fraction:
        return self.incentive.get((buy, sell), _ZERO)

    def agent_by_id(self, ident: str) -> AgentId | None:
        table = self.__dict__.get("_by_id")
        if table is None:
            table = {a.id: a for a in self.agents()}
            self.__dict__["_by_id"] = table
        return table.get(ident)

    def canonical_name(self, agent: AgentId) -> str:
        """Lexicographically least nominal naming the agent."""
        table = self.__dict__.get("_canonical")
        if table is None:
            table = {}
            for nom, who in self.names.items():
                cur = table.get(who)
                if cur is None or nom < cur:
                    table[who] = nom
            self.__dict__["_canonical"] = table
        try:
            return table[agent]
        except KeyError:
            raise MechanismError(f"agent {agent.id!r} has no name") from None


@dataclass(frozen=True)
class Mechanism:
    """A market network paired with the auction rule evaluated on it.

    It holds no cache: placement, payments, and utilities are computed from
    the network by auction.evaluate, and a query keeps those of the states
    it builds in its own table; updates return fresh mechanisms."""

    network: MarketNetwork
    rule: str = "smf"


@dataclass(frozen=True)
class JointAction:
    """One concurrent incentivisation round: per seller, a buyer nominal or SKIP.

    Entries are sorted by seller id and cover every seller exactly once."""

    entries: tuple[tuple[AgentId, object], ...]

    def target_of(self, sell: AgentId) -> object:
        for who, target in self.entries:
            if who == sell:
                return target
        raise ActionError(f"{sell.id!r} is not a seller of this action")

    def targets(self) -> dict[AgentId, object]:
        return dict(self.entries)


def joint_action(
    network: MarketNetwork, targets: Mapping[AgentId | str, object]
) -> JointAction:
    """Build a JointAction from a partial assignment; unlisted sellers SKIP.

    Keys may be seller AgentIds or seller id strings; values buyer nominals
    or SKIP. Raises ActionError for unknown/duplicate sellers."""
    resolved: dict[AgentId, object] = {}
    sellers = set(network.sellers)
    for key, value in targets.items():
        if isinstance(key, AgentId):
            agent = key
        else:
            found = network.agent_by_id(key)
            if found is None:
                raise ActionError(f"unknown seller id {key!r}")
            agent = found
        if agent not in sellers:
            raise ActionError(f"{agent.id!r} is not a seller")
        if agent in resolved:
            raise ActionError(f"seller {agent.id!r} assigned twice")
        if not (value is SKIP or isinstance(value, str)):
            raise ActionError(f"bad target {value!r} for seller {agent.id!r}")
        resolved[agent] = value
    entries = tuple(
        (s, resolved.get(s, SKIP)) for s in sorted(network.sellers)
    )
    return JointAction(entries)


# --- resolving names: each refusal text is written here once ---------------


def resolve_name(mechanism: Mechanism, nominal: str) -> AgentId:
    """The unique agent a nominal names; UnknownNominalError if absent."""
    return _agent(mechanism.network, nominal)


def _agent(net: MarketNetwork, nominal: str) -> AgentId:
    """The agent a nominal names; UnknownNominalError if none."""
    try:
        return net.names[nominal]
    except KeyError:
        raise UnknownNominalError(
            f"nominal {nominal!r} names no agent of the mechanism"
        ) from None


def _target(net: MarketNetwork, nominal: str) -> AgentId:
    """The buyer an action target names; ActionError if it names a seller."""
    agent = _agent(net, nominal)
    if agent.kind != BUYER:
        raise ActionError(f"action target {nominal!r} names a non-buyer")
    return agent


def _action(net: MarketNetwork, bindings) -> dict[AgentId, object]:
    """An action's (seller nominal, target nominal or SKIP) bindings as
    {seller: buyer or SKIP}. Bindings are resolved in order, and each refuses
    an unknown name, then a seller nominal that names a buyer, then a seller
    bound before under another name, then a target that is not a buyer."""
    action: dict[AgentId, object] = {}
    for nominal, target in bindings:
        sell = _agent(net, nominal)
        if sell.kind != SELLER:
            raise ActionError(f"{nominal!r} does not name a seller")
        if sell in action:
            raise ActionError(f"seller {nominal!r} bound twice in one action")
        action[sell] = SKIP if target is SKIP else _target(net, target)
    return action


def _coalition(net: MarketNetwork, coalition) -> list[AgentId]:
    """A coalition's sellers, ascending and each once. Members resolve in
    name order, so that of two bad ones the same is reported on every run."""
    members: set[AgentId] = set()
    for nominal in sorted(coalition):
        member = _agent(net, nominal)
        if member.kind != SELLER:
            raise ActionError(f"coalition member {nominal!r} does not name a seller")
        members.add(member)
    return sorted(members)


def validate_mechanism(mechanism: Mechanism) -> list[str]:
    """All invariant violations of the mechanism, as human-readable strings.

    An empty list means the mechanism is valid. Violations are data, not
    exceptions: callers decide whether to refuse."""
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
            try:
                hash(agent.id)
            except TypeError:  # the agent keys no table: nothing more can be judged
                return out
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
        # a row that is no set can list a friend twice, which the arena
        # would count twice; frozenset() of a frozenset is the same object
        if len(frozenset(nbrs)) < len(nbrs):
            counts = Counter(nbrs)
            for other, times in counts.items():
                if times > 1:
                    out.append(f"friendship of {agent.id!r} lists {other.id!r} more than once")
            nbrs = counts  # each friend once, in the order first listed
        looped = agent in nbrs  # set lookups hash in C; `==` only on a self-loop row
        for other in nbrs:
            if other not in agents:
                out.append(
                    f"friendship of {agent.id!r} mentions unknown agent {other.id!r}"
                )
                continue
            if looped and other == agent:
                out.append(f"friendship irreflexivity violated at {agent.id!r}")
                continue
            if agent not in net.friends.get(other, ()):
                out.append(
                    f"friendship not symmetric: {agent.id!r}-{other.id!r}"
                )
            if agent.kind == SELLER and other.kind == SELLER:
                # report each unordered seller-seller edge once, from its
                # lesser id; str() orders an id that is not a string too
                if str(agent.id) <= str(other.id):
                    out.append(
                        f"seller-seller edge forbidden: {agent.id!r}-{other.id!r}"
                    )

    for agent in net.agents():
        bdg = net.budget.get(agent)
        if bdg is None:
            out.append(f"no budget for agent {agent.id!r}")
        elif type(bdg) not in MONEY_TYPES:
            out.append(f"budget of agent {agent.id!r} is not rational: {bdg!r}")
        elif bdg.numerator < 0:  # cheaper than Fraction's `<`
            out.append(f"negative budget for agent {agent.id!r}")
    for b in net.buyers:
        val = net.valuation.get(b)
        if val is None:
            out.append(f"no valuation for buyer {b.id!r}")
            continue
        if type(val) not in MONEY_TYPES:
            out.append(f"valuation of buyer {b.id!r} is not rational: {val!r}")
            continue
        if val.numerator < 0:
            out.append(f"negative valuation for buyer {b.id!r}")
        bdg = net.budget.get(b)
        # val > bdg, cross-multiplied: Fraction's `>` runs in Python
        if (
            type(bdg) in MONEY_TYPES
            and val.numerator * bdg.denominator > bdg.numerator * val.denominator
        ):
            out.append(f"valuation exceeds budget for buyer {b.id!r}")

    for (buy, sell), amount in net.incentive.items():
        if buy not in agents or buy.kind != BUYER:
            out.append(f"incentive keyed by non-buyer {buy.id!r}")
        if sell not in agents or sell.kind != SELLER:
            out.append(f"incentive keyed by non-seller {sell.id!r}")
        if type(amount) not in MONEY_TYPES:
            out.append(
                f"incentive for ({buy.id!r}, {sell.id!r}) is not rational: {amount!r}"
            )
        elif amount.numerator < 0:
            out.append(f"negative incentive for ({buy.id!r}, {sell.id!r})")

    named = set()
    for nominal, agent in net.names.items():
        if type(nominal) is not str or not _IDENT_RE.match(nominal) or nominal in RESERVED_WORDS:
            out.append(f"nominal {nominal!r} is not a usable identifier")
        if type(agent) is not AgentId:
            out.append(f"nominal {nominal!r} names {agent!r}, which is not an agent")
            continue
        if agent not in agents:
            out.append(f"nominal {nominal!r} names unknown agent {agent.id!r}")
        named.add(agent)
    for agent in net.agents():
        if agent not in named:
            out.append(f"agent {agent.id!r} has no name")

    from . import auction  # late import: auction depends on this module

    # a rule that is not a string may not even hash, and no file holds it
    if type(mechanism.rule) is not str or not auction.has_rule(mechanism.rule):
        out.append(f"unknown auction rule {mechanism.rule!r}")
    return out


def _require_valid(mechanism: Mechanism) -> None:
    """MechanismError with every violation `validate_mechanism` reports,
    unless there is none. A pass is recorded on the immutable network for
    the rule, as `_Arena.of` keys its cache, so a network is walked once.
    `mechanism_from_dict` records the pass its inline rules judged, and
    `apply_joint_action` the pass of the network it updated."""
    cache = mechanism.network.__dict__
    if mechanism.rule not in cache.get("_valid_for", ()):
        violations = validate_mechanism(mechanism)
        if violations:
            raise MechanismError("invalid mechanism: " + "; ".join(violations))
        cache["_valid_for"] = (mechanism.rule,)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class _Arena:
    """Indexed, bitmask view of a network and the concurrent update on it:
    the one implementation of the update rule.

    Agents are numbered sellers first, each group ascending by id, so a
    seller's number is her position in an action and ties between sellers
    go to the lower number. A state is a pair (rows, budgets): rows[i] is
    the bitmask of agent i's friends, budgets[i] her money times `scale`,
    the least common denominator of the network's budgets and incentives,
    so money comparisons stay exact. An action is a tuple over sellers of a
    buyer number, or -1 for SKIP. An invalid mechanism is refused by
    `_require_valid` before anything is indexed."""

    def __init__(self, mechanism: Mechanism):
        _require_valid(mechanism)
        net = mechanism.network
        self.net = net
        self.rule = mechanism.rule
        self.agents: list[AgentId] = sorted(net.sellers) + sorted(net.buyers)
        self.index = {a: i for i, a in enumerate(self.agents)}
        self.seller_ids = range(len(net.sellers))
        self.buyer_ids = range(len(net.sellers), len(self.agents))
        self.buyer_mask = (1 << len(self.agents)) - (1 << len(net.sellers))
        budgets = [net.budget[a] for a in self.agents]
        money = (*budgets, *net.incentive.values())
        self.scale = math.lcm(*(m.denominator for m in money))
        self.adj0 = tuple(
            sum(1 << self.index[f] for f in net.friends_of(a)) for a in self.agents
        )
        self.budget0 = tuple(int(m * self.scale) for m in budgets)
        # price[s][b]: what buyer b demands from seller s, scaled
        self.price = [[0] * len(self.agents) for _ in self.seller_ids]
        for (b, s), amount in net.incentive.items():
            self.price[self.index[s]][self.index[b]] = int(amount * self.scale)

    @classmethod
    def of(cls, mechanism: Mechanism) -> _Arena:
        """The arena of the mechanism's network, built once and cached on the
        immutable network, for as long as the rule stays the same."""
        cache = mechanism.network.__dict__
        arena = cache.get("_arena")
        if arena is None or arena.rule != mechanism.rule:
            arena = cache["_arena"] = cls(mechanism)
        return arena

    def feasible(self, adj, budgets, action) -> bool:
        for s, target in enumerate(action):
            if target >= 0 and (
                not (adj[s] >> target) & 1 or budgets[s] < self.price[s][target]
            ):
                return False
        return True

    def options(self, adj, budgets, s: int) -> list[int]:
        """Seller s's feasible targets, ascending, then -1 (SKIP). A joint
        action is feasible iff each seller's entry is one of hers."""
        price, money = self.price[s], budgets[s]
        row = adj[s] & self.buyer_mask
        return [t for t in _bits(row) if price[t] <= money] + [-1]

    def cooperative_options(self, adj, budgets, s: int) -> list[int]:
        """Seller s's feasible targets that are not inert, ascending, then -1
        (SKIP). A target is inert when it costs her nothing and gives her no
        new friend. Such a choice changes the state only by winning a tie at
        price 0 and so blocking a higher-numbered seller: a joint action with
        inert choices has the same successor as the one in which those
        sellers, and the sellers they block, SKIP, and SKIP is always an
        option. So over the product of every seller's list the successors of
        a state are the same as over `options`, and each action but all-SKIP
        moves the state. This is sound only when every seller cooperates:
        where one seller plays against another, blocking is a real move."""
        price, money, mask = self.price[s], budgets[s], self.buyer_mask
        row = adj[s] & mask
        out = []
        rest = row
        while rest:  # inline, as the strategy search asks at every state
            low = rest & -rest
            rest ^= low
            t = low.bit_length() - 1
            if price[t] <= money and (price[t] or adj[t] & mask & ~row):
                out.append(t)
        out.append(-1)
        return out

    def apply(self, adj, budgets, action):
        """Rows and budgets after a feasible action. For each targeted buyer
        the highest bid wins, the winner gains edges to all the buyer's
        buyer-friends and pays her the incentive; losers pay and gain
        nothing. Each new edge joins a seller and a buyer and is set in both
        rows: friendship stays symmetric and no buyer-buyer bit changes,
        which the checker's friendship boxes and state table rely on. The
        rows are copied only when some row gains a friend, and the budgets
        only when money moves, so an action that moves nothing returns its
        input objects."""
        price = self.price
        winner: dict[int, int] = {}  # target -> the seller who wins her
        for s, target in enumerate(action):
            if target >= 0:
                best = winner.get(target)
                # only a strictly higher bid wins: ties go to the least seller id
                if best is None or price[s][target] > price[best][target]:
                    winner[target] = s
        new_adj = new_bud = None
        for target, s in winner.items():
            # a seller wins at most one target, and a gain sets only a seller
            # bit in buyer rows, so adj[s] and the buyer bits of adj[target]
            # are still current
            gained = adj[target] & self.buyer_mask & ~adj[s]
            if gained:
                if new_adj is None:
                    new_adj = list(adj)
                bit = 1 << s
                rest = gained
                while rest:
                    low = rest & -rest
                    rest ^= low
                    new_adj[low.bit_length() - 1] |= bit
                new_adj[s] |= gained
            paid = price[s][target]
            if paid:
                if new_bud is None:
                    new_bud = list(budgets)
                new_bud[s] -= paid
                new_bud[target] += paid
        return (
            adj if new_adj is None else tuple(new_adj),
            budgets if new_bud is None else tuple(new_bud),
        )

    def materialize(self, adj, budgets) -> Mechanism:
        """The state as a Mechanism value. Rows only ever gain bits, so only
        the added friends and the changed budgets are patched in; the
        arena's initial objects give the network itself, uncopied."""
        net = self.net
        if adj is self.adj0 and budgets is self.budget0:
            return Mechanism(net, self.rule)
        friends = dict(net.friends)
        for i, (row, row0) in enumerate(zip(adj, self.adj0)):
            if row != row0:
                agent = self.agents[i]
                added = frozenset(self.agents[j] for j in _bits(row & ~row0))
                # a row may be a list; frozenset() returns a frozenset row itself
                friends[agent] = frozenset(net.friends_of(agent)) | added
        budget = net.budget
        if budgets is not self.budget0:
            budget = dict(budget)
            for i, (money, money0) in enumerate(zip(budgets, self.budget0)):
                if money != money0:
                    budget[self.agents[i]] = Fraction(money, self.scale)
        return Mechanism(replace(net, friends=friends, budget=budget), self.rule)

    def action_of(self, joint: JointAction) -> tuple:
        """The arena action of a JointAction."""
        action = [-1] * len(self.seller_ids)
        for sell, target in joint.entries:
            s = self.index.get(sell, -1)
            if s not in self.seller_ids:
                raise ActionError(f"{sell.id!r} is not a seller of the mechanism")
            if target is not SKIP:
                action[s] = self.index[_target(self.net, target)]
        return tuple(action)

    def action_to_joint(self, action) -> JointAction:
        """The JointAction of an arena action: sellers are numbered in id
        order, and each target is named by its canonical nominal."""
        agents, name = self.agents, self.net.canonical_name
        entries = (
            (agents[s], SKIP if t < 0 else name(agents[t])) for s, t in enumerate(action)
        )
        return JointAction(tuple(entries))


def action_precondition(mechanism: Mechanism, action: JointAction) -> bool:
    """True iff every non-SKIP seller targets a current friend she can afford."""
    arena = _Arena.of(mechanism)
    return arena.feasible(arena.adj0, arena.budget0, arena.action_of(action))


def apply_joint_action(mechanism: Mechanism, action: JointAction) -> Mechanism:
    """The mechanism after one concurrent incentivisation round (see
    `_Arena.apply`); PreconditionError if the round is infeasible. The input
    is not mutated."""
    arena = _Arena.of(mechanism)
    step = arena.action_of(action)
    if not arena.feasible(arena.adj0, arena.budget0, step):
        raise PreconditionError("joint action precondition does not hold")
    updated = arena.materialize(*arena.apply(arena.adj0, arena.budget0, step))
    # a feasible update keeps a valid network valid: the gate's pass holds
    updated.network.__dict__["_valid_for"] = (arena.rule,)
    return updated
