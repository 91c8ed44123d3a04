"""Market networks, mechanisms, joint actions, and the concurrent update."""

from __future__ import annotations

import re
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

    Placement, payments, and utilities are always recomputed from the current
    network (see auction.evaluate); updates return fresh mechanisms."""

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


def resolve_name(mechanism: Mechanism, nominal: str) -> AgentId:
    """The unique agent a nominal names; UnknownNominalError if absent."""
    try:
        return mechanism.network.names[nominal]
    except KeyError:
        raise UnknownNominalError(
            f"nominal {nominal!r} names no agent of the mechanism"
        ) from None


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
                # report each unordered seller-seller edge once
                if agent.id < other.id:
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
        if not _IDENT_RE.match(nominal) or nominal in RESERVED_WORDS:
            out.append(f"nominal {nominal!r} is not a usable identifier")
        if agent not in agents:
            out.append(f"nominal {nominal!r} names unknown agent {agent.id!r}")
        named.add(agent)
    for agent in net.agents():
        if agent not in named:
            out.append(f"agent {agent.id!r} has no name")

    from . import auction  # late import: auction depends on this module

    if not auction.has_rule(mechanism.rule):
        out.append(f"unknown auction rule {mechanism.rule!r}")
    return out


def action_precondition(mechanism: Mechanism, action: JointAction) -> bool:
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


def apply_joint_action(mechanism: Mechanism, action: JointAction) -> Mechanism:
    """The mechanism after one concurrent incentivisation round.

    For each buyer targeted by at least one seller, the winning seller gains
    edges to all the buyer's buyer-friends, pays the buyer her incentive, and
    the buyer's budget grows by it. Losers pay and gain nothing. Everything
    is computed from the pre-update state; the input is not mutated."""
    if not action_precondition(mechanism, action):
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
