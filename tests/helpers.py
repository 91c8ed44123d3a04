"""Shared test data: the worked-example mechanisms and random generators."""

from __future__ import annotations

import contextlib
import itertools
import random
import signal
from fractions import Fraction

from damcheck import AllocationResult, Mechanism, mechanism_from_dict
from damcheck.formula import (
    SELF,
    And,
    Box,
    CoalitionBox,
    CoalitionDiamond,
    Compare,
    Diamond,
    Diffuse,
    DiffuseDiamond,
    Falsity,
    Heart,
    Implies,
    Nominal,
    Not,
    Or,
    Truth,
    UtilityTerm,
    big_and,
)
from damcheck.model import SKIP, joint_action

from reference import reference_apply, reference_check, reference_precondition


@contextlib.contextmanager
def time_limit(seconds: float, message: str):
    """Raise TimeoutError(message) in the block once `seconds` of real time
    have passed, so that a walk that blows up fails its test instead of
    hanging it."""

    def expire(signum, frame):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def distinct_nodes(node) -> int:
    """The number of distinct node objects in a formula, by identity."""
    seen: set[int] = set()
    todo = [node]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            parts = ("child", "left", "right")
            todo.extend(getattr(node, part) for part in parts if hasattr(node, part))
    return len(seen)


def equal_valuation_pair() -> Mechanism:
    """Two sellers, two equal-valuation buyers, complete bipartite."""
    return mechanism_from_dict(
        {
            "sellers": [
                {"id": "s1", "names": ["sigma1"], "budget": 0},
                {"id": "s2", "names": ["sigma2"], "budget": 0},
            ],
            "buyers": [
                {"id": "b1", "names": ["beta1"], "budget": 1, "valuation": 1},
                {"id": "b2", "names": ["beta2"], "budget": 1, "valuation": 1},
            ],
            "edges": [["s1", "b1"], ["s1", "b2"], ["s2", "b1"], ["s2", "b2"]],
            "rule": "smf",
        }
    )


def shared_buyer_pair(first: str = "s1", second: str = "s2") -> Mechanism:
    """Two sellers sharing one buyer; the later-ordered seller keeps her item."""
    return mechanism_from_dict(
        {
            "sellers": [
                {"id": first, "names": [f"sig_{first}"], "budget": 0},
                {"id": second, "names": [f"sig_{second}"], "budget": 0},
            ],
            "buyers": [{"id": "b", "names": ["beta"], "budget": 1, "valuation": 1}],
            "edges": [[first, "b"], [second, "b"]],
            "rule": "smf",
        }
    )


def referral_chain() -> Mechanism:
    """One seller (budget 5) with the four-buyer referral chain."""
    return mechanism_from_dict(
        {
            "sellers": [{"id": "s", "names": ["sigma"], "budget": 5}],
            "buyers": [
                {"id": "a", "names": ["alpha"], "budget": 3, "valuation": 1,
                 "incentives": {"s": 5}},
                {"id": "b", "names": ["beta"], "budget": 8, "valuation": 2,
                 "incentives": {"s": 6}},
                {"id": "c", "names": ["gamma"], "budget": 9, "valuation": 9,
                 "incentives": {"s": 1}},
                {"id": "d", "names": ["delta"], "budget": 11, "valuation": 10,
                 "incentives": {"s": 0}},
            ],
            "edges": [["s", "a"], ["s", "b"], ["a", "b"], ["a", "c"], ["d", "c"]],
            "rule": "smf",
        }
    )


MARKET_VALUATIONS = {"a": 1, "b": 4, "c": 1, "d": 1, "e": 3, "f": 1}
MARKET_NAMES = {"a": "alpha", "b": "beta", "c": "gamma", "d": "delta",
              "e": "epsilon", "f": "zeta"}


def two_seller_market() -> Mechanism:
    """Two sellers (budgets 1, all incentives 1) over six buyers."""
    return mechanism_from_dict(
        {
            "sellers": [
                {"id": "s1", "names": ["sigma1"], "budget": 1},
                {"id": "s2", "names": ["sigma2"], "budget": 1},
            ],
            "buyers": [
                {
                    "id": ident,
                    "names": [MARKET_NAMES[ident]],
                    "budget": value,
                    "valuation": value,
                    "incentives": {"s1": 1, "s2": 1},
                }
                for ident, value in MARKET_VALUATIONS.items()
            ],
            "edges": [
                ["s1", "d"], ["s1", "a"], ["d", "e"], ["e", "a"],
                ["s2", "f"], ["s2", "c"], ["b", "c"], ["f", "e"],
                ["a", "b"], ["f", "b"],
            ],
            "rule": "smf",
        }
    )


def cooperative_goal():
    """Every named agent holds an item or has a friend who does."""
    nominals = ["sigma1", "sigma2"] + sorted(MARKET_NAMES.values())
    return big_and(
        Implies(Nominal(nom), Or(Heart(SELF), Diamond(Heart(SELF))))
        for nom in nominals
    )


def odd_degree_rule(net):
    """A rule unlike smf: an agent holds an item when she has an odd number
    of friends, and her utility is her budget plus her friend count."""
    return AllocationResult(
        placement={a: len(net.friends_of(a)) % 2 for a in net.agents()},
        payment={b: Fraction(0) for b in net.buyers},
        utility={a: net.budget[a] + len(net.friends_of(a)) for a in net.agents()},
    )


# --- random instances ---------------------------------------------------------


def random_mechanism(
    rng: random.Random,
    max_sellers: int = 2,
    max_buyers: int = 4,
    max_budget: int = 2,
) -> Mechanism:
    n_sellers = rng.randint(1, max_sellers)
    n_buyers = rng.randint(1, max_buyers)
    sellers = []
    for i in range(1, n_sellers + 1):
        names = [f"sig{i}"]
        if rng.random() < 0.3:
            names.append(f"sig{i}_alias")
        sellers.append({"id": f"s{i}", "names": names, "budget": rng.randint(0, max_budget)})
    buyers = []
    for j in range(1, n_buyers + 1):
        budget = rng.randint(0, max_budget)
        names = [f"bet{j}"]
        if rng.random() < 0.3:
            names.append(f"bet{j}_alias")
        buyers.append(
            {
                "id": f"b{j}",
                "names": names,
                "budget": budget,
                "valuation": rng.randint(0, budget),
                "incentives": {
                    f"s{i}": rng.randint(0, max_budget)
                    for i in range(1, n_sellers + 1)
                    if rng.random() < 0.7
                },
            }
        )
    edges = []
    for i in range(1, n_sellers + 1):
        for j in range(1, n_buyers + 1):
            if rng.random() < 0.6:
                edges.append([f"s{i}", f"b{j}"])
    for j, k in itertools.combinations(range(1, n_buyers + 1), 2):
        if rng.random() < 0.3:
            edges.append([f"b{j}", f"b{k}"])
    return mechanism_from_dict(
        {"sellers": sellers, "buyers": buyers, "edges": edges, "rule": "smf"}
    )


def random_rational_market(rng: random.Random, n_sellers: int, n_buyers: int = 3) -> Mechanism:
    """Random market with exact non-integer money: seller budgets and
    non-zero incentives in halves, so a seller can often just afford a
    buyer, and buyer budgets and valuations in thirds."""
    sellers = [
        {"id": f"s{i}", "names": [f"sig{i}"], "budget": str(Fraction(rng.randint(0, 4), 2))}
        for i in range(1, n_sellers + 1)
    ]
    buyers = []
    for j in range(1, n_buyers + 1):
        budget = Fraction(rng.randint(0, 6), 3)
        buyers.append(
            {
                "id": f"b{j}",
                "names": [f"bet{j}"],
                "budget": str(budget),
                "valuation": str(budget * Fraction(rng.randint(0, 2), 2)),
                "incentives": {
                    f"s{i}": str(Fraction(rng.randint(1, 3), 2))
                    for i in range(1, n_sellers + 1)
                    if rng.random() < 0.8
                },
            }
        )
    edges = [
        [f"s{i}", f"b{j}"]
        for i in range(1, n_sellers + 1)
        for j in range(1, n_buyers + 1)
        if rng.random() < 0.6
    ]
    edges += [
        [f"b{j}", f"b{k}"]
        for j, k in itertools.combinations(range(1, n_buyers + 1), 2)
        if rng.random() < 0.4
    ]
    return mechanism_from_dict(
        {"sellers": sellers, "buyers": buyers, "edges": edges, "rule": "smf"}
    )


def random_action(rng: random.Random, mechanism: Mechanism):
    """An arbitrary (possibly infeasible) joint action."""
    net = mechanism.network
    targets = {}
    for sell in net.sellers:
        if rng.random() < 0.35:
            targets[sell] = SKIP
        else:
            targets[sell] = net.canonical_name(rng.choice(list(net.buyers)))
    return joint_action(net, targets)


def random_feasible_action(rng: random.Random, mechanism: Mechanism):
    """A feasible joint action (falls back to SKIP per seller)."""
    net = mechanism.network
    targets = {}
    for sell in net.sellers:
        affordable = [
            b
            for b in net.friends_of(sell)
            if b.kind == "buyer" and net.budget[sell] >= net.incentive_for(b, sell)
        ]
        if affordable and rng.random() < 0.75:
            targets[sell] = net.canonical_name(rng.choice(sorted(affordable)))
        else:
            targets[sell] = SKIP
    return joint_action(net, targets)


def random_formula(
    rng: random.Random,
    mechanism: Mechanism,
    depth: int = 2,
    coalition: bool = False,
):
    """Random (sugared) formula over the mechanism's nominals."""
    net = mechanism.network
    nominals = sorted(net.names)
    # one nominal per seller: a joint action may bind each seller only once
    seller_noms = sorted(net.canonical_name(s) for s in net.sellers)
    buyer_noms = sorted(n for n, a in net.names.items() if a.kind == "buyer")

    def subject():
        return SELF if rng.random() < 0.3 else rng.choice(nominals)

    def atom():
        roll = rng.random()
        if roll < 0.25:
            return Nominal(rng.choice(nominals))
        if roll < 0.5:
            return Heart(subject())
        if roll < 0.9:
            terms = tuple(
                (Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2])),
                 UtilityTerm(subject()))
                for _ in range(rng.randint(1, 2))
            )
            op = rng.choice([">=", "<=", "<", ">", "="])
            return Compare(op, terms, Fraction(rng.randint(-4, 8)))
        return Truth() if rng.random() < 0.5 else Falsity()

    def bindings():
        chosen = [s for s in seller_noms if rng.random() < 0.7] or seller_noms[:1]
        out = []
        for nom in chosen:
            if buyer_noms and rng.random() < 0.75:
                out.append((nom, rng.choice(buyer_noms)))
            else:
                out.append((nom, SKIP))
        return tuple(out)

    def go(d: int):
        if d <= 0:
            return atom()
        roll = rng.random()
        if roll < 0.15:
            return atom()
        if roll < 0.3:
            return Not(go(d))
        if roll < 0.45:
            return And(go(d), go(d)) if rng.random() < 0.5 else Or(go(d), go(d))
        if roll < 0.55:
            return Implies(go(d), go(d))
        if roll < 0.7:
            inner = go(d - 1)
            return Box(inner) if rng.random() < 0.5 else Diamond(inner)
        if roll < 0.85 or not coalition:
            inner = go(d - 1)
            binds = bindings()
            return Diffuse(binds, inner) if rng.random() < 0.5 else DiffuseDiamond(binds, inner)
        members = frozenset(s for s in seller_noms if rng.random() < 0.6)
        inner = go(d - 1)
        if rng.random() < 0.5:
            return CoalitionBox(members, inner)
        return CoalitionDiamond(members, inner)

    return go(depth)


def exhaustive_strategy(mechanism: Mechanism, goal, depth: int) -> bool:
    """Independent oracle: breadth-first over every feasible action sequence
    up to the depth, with no memoization, judging each state with the
    reference evaluator over Mechanism values, not the engine."""
    net = mechanism.network
    sellers = sorted(net.sellers)
    options = [net.canonical_name(b) for b in sorted(net.buyers)] + [SKIP]

    def holds(state: Mechanism) -> bool:
        return all(reference_check(state, s, goal) for s in sellers)

    if holds(mechanism):
        return True
    frontier = [mechanism]
    for _ in range(depth):
        upcoming = []
        for state in frontier:
            for combo in itertools.product(options, repeat=len(sellers)):
                action = joint_action(net, dict(zip(sellers, combo)))
                if not reference_precondition(state, action):
                    continue
                successor = reference_apply(state, action)
                if holds(successor):
                    return True
                upcoming.append(successor)
        frontier = upcoming
    return False
