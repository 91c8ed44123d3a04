"""Auction rules: placement, payments, and utilities for a network state.

Ships the single-item multiple-unit first-price rule ("smf") behind a
registry keyed by rule name, so mechanisms can plug in other evaluators."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import NotASellerError, UnknownRuleError
from .model import BUYER, SELLER, AgentId, MarketNetwork, Mechanism


@dataclass(frozen=True)
class AllocationResult:
    """Placement bit per agent, payment per buyer, utility per agent."""

    placement: Mapping[AgentId, int]
    payment: Mapping[AgentId, Fraction]
    utility: Mapping[AgentId, Fraction]


# collections.abc's alias, not typing's: typing keeps the aliases it makes
# in a cache of its own, which would keep this module's classes, and with
# them the whole package, alive after the package is imported again
RuleFn = Callable[[MarketNetwork], AllocationResult]

_RULES: dict[str, RuleFn] = {}


def register_rule(name: str, evaluator: RuleFn) -> None:
    _RULES[name] = evaluator


def has_rule(name: str) -> bool:
    return name in _RULES


def get_rule(name: str) -> RuleFn:
    try:
        return _RULES[name]
    except KeyError:
        raise UnknownRuleError(f"no auction rule registered as {name!r}") from None


def ranked_bidders(net: MarketNetwork, sell: AgentId) -> list[AgentId]:
    """The seller's buyer-neighbours, best valuation first, ties by buyer id."""
    if sell.kind != SELLER:
        raise NotASellerError(f"{sell.id!r} is not a seller")
    nbrs = [a for a in net.friends_of(sell) if a.kind == BUYER]
    return sorted(nbrs, key=lambda b: (-net.valuation[b], b.id))


def smf_evaluate(net: MarketNetwork) -> AllocationResult:
    """First-price allocation in one pass over the sellers, ascending by id.

    Every agent starts unplaced, every buyer with payment 0 and every agent
    with her budget as utility. Each seller sells to her best-ranked bidder
    not already placed: the buyer is placed, pays her valuation, and the
    valuation moves from the buyer's utility to the seller's. A seller with
    no unplaced bidder keeps her item and is placed herself.

    An unsold agent's utility is her budget itself, so on a hand-built
    network with `int` money it is an `int`, equal to the `Fraction` an
    arithmetic step would give."""
    placement: dict[AgentId, int] = dict.fromkeys(net.agents(), 0)
    payment: dict[AgentId, Fraction] = dict.fromkeys(net.buyers, Fraction(0))
    utility = {a: net.budget[a] for a in net.agents()}
    for sell in sorted(net.sellers, key=lambda s: s.id):
        for head in ranked_bidders(net, sell):
            if not placement[head]:
                placement[head] = 1
                price = payment[head] = net.valuation[head]
                utility[head] -= price
                utility[sell] += price
                break
        else:
            placement[sell] = 1
    return AllocationResult(placement=placement, payment=payment, utility=utility)


register_rule("smf", smf_evaluate)


def seller_gain_cap(rule: str, net: MarketNetwork) -> int | Fraction | None:
    """The most by which a seller's utility under the rule registered as
    `rule` can exceed her budget, or None when that is not known. Under
    `smf_evaluate` it is the highest valuation, as she gains the valuation
    of the buyer she sells to and nothing when she keeps her item. The
    network must be valid, so it has a buyer and no valuation below 0. The
    answer reads the registered function, so another rule registered as
    "smf" gets None."""
    if get_rule(rule) is not smf_evaluate:
        return None
    return max(net.valuation[b] for b in net.buyers)


def evaluate(mechanism: Mechanism) -> AllocationResult:
    """Allocation for the mechanism's current network under its rule.

    Computed on every call and stored nowhere: a query keeps the allocation
    of each state it builds in its own table (`checker._Engine`)."""
    return get_rule(mechanism.rule)(mechanism.network)
