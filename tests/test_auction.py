"""SMF rule: ranking, refinement, placements, payments, utilities."""

import random
from collections import Counter
from dataclasses import replace

import pytest

from damcheck import (
    AllocationResult,
    apply_joint_action,
    evaluate,
    joint_action,
    mechanism_from_dict,
    ranked_bidders,
    register_rule,
    smf_evaluate,
)
from damcheck.errors import NotASellerError, UnknownRuleError
from damcheck.model import Mechanism, _Arena

from helpers import (
    equal_valuation_pair,
    random_mechanism,
    random_rational_market,
    referral_chain,
    shared_buyer_pair,
)
from reference import reference_smf


def ids(agents):
    return [a.id for a in agents]


def test_ranked_bidders_referral_chain():
    net = referral_chain().network
    assert ids(ranked_bidders(net, net.agent_by_id("s"))) == ["b", "a"]


def test_ranked_bidders_tie_breaks_by_buyer_id():
    net = equal_valuation_pair().network
    assert ids(ranked_bidders(net, net.agent_by_id("s2"))) == ["b1", "b2"]


def test_ranked_bidders_empty_neighbourhood():
    mech = referral_chain()
    net = mech.network
    # isolate the seller by rebuilding with no edges at all
    from dataclasses import replace

    lonely = replace(net, friends={a: frozenset() for a in net.agents()})
    assert ranked_bidders(lonely, lonely.agent_by_id("s")) == []


def test_ranked_bidders_rejects_buyers():
    net = referral_chain().network
    with pytest.raises(NotASellerError):
        ranked_bidders(net, net.agent_by_id("a"))


def test_equal_valuation_pair_placements():
    mech = equal_valuation_pair()
    alloc = evaluate(mech)
    net = mech.network
    assert alloc.placement[net.agent_by_id("b1")] == 1
    assert alloc.placement[net.agent_by_id("b2")] == 1
    assert alloc.placement[net.agent_by_id("s1")] == 0
    assert alloc.placement[net.agent_by_id("s2")] == 0


def test_shared_buyer_pair_placements():
    mech = shared_buyer_pair()
    alloc = evaluate(mech)
    net = mech.network
    assert alloc.placement[net.agent_by_id("b")] == 1
    assert alloc.placement[net.agent_by_id("s1")] == 0
    assert alloc.placement[net.agent_by_id("s2")] == 1  # keeps her item


def test_seller_order_sensitivity_regression():
    # Same shape as M2 but with the seller ids swapped: now the other one keeps.
    mech = shared_buyer_pair(first="t2", second="t1")
    alloc = evaluate(mech)
    net = mech.network
    assert alloc.placement[net.agent_by_id("t1")] == 0  # processed first, sells
    assert alloc.placement[net.agent_by_id("t2")] == 1


def test_referral_chain_utilities_before_and_after():
    mech = referral_chain()
    net = mech.network
    alloc = evaluate(mech)
    assert alloc.utility[net.agent_by_id("s")] == 7
    assert alloc.placement[net.agent_by_id("b")] == 1
    assert alloc.payment[net.agent_by_id("b")] == 2

    after = apply_joint_action(mech, joint_action(net, {"s": "alpha"}))
    alloc2 = evaluate(after)
    net2 = after.network
    assert alloc2.utility[net2.agent_by_id("s")] == 9
    assert alloc2.placement[net2.agent_by_id("c")] == 1
    assert alloc2.payment[net2.agent_by_id("c")] == 9


def test_refinement_removes_winners_not_first_ranked_values():
    # s1 sells to x; s2's refinement skips x so y wins there; s3, who sees
    # only y, must keep her item: y already holds one and may not win twice
    mech = mechanism_from_dict(
        {
            "sellers": [
                {"id": "s1", "names": ["sig1"], "budget": 0},
                {"id": "s2", "names": ["sig2"], "budget": 0},
                {"id": "s3", "names": ["sig3"], "budget": 0},
            ],
            "buyers": [
                {"id": "x", "names": ["chi"], "budget": 5, "valuation": 5},
                {"id": "y", "names": ["ypsilon"], "budget": 2, "valuation": 2},
            ],
            "edges": [["s1", "x"], ["s2", "x"], ["s2", "y"], ["s3", "y"]],
            "rule": "smf",
        }
    )
    alloc = evaluate(mech)
    net = mech.network
    assert alloc.placement[net.agent_by_id("x")] == 1
    assert alloc.placement[net.agent_by_id("y")] == 1
    assert alloc.placement[net.agent_by_id("s3")] == 1  # keeps her item
    assert alloc.utility[net.agent_by_id("s3")] == 0  # sold nothing


def test_smf_invariants_random():
    rng = random.Random(777)
    for _ in range(200):
        net = random_mechanism(rng, max_sellers=2, max_buyers=4).network
        alloc = smf_evaluate(net)
        winners = [b for b in net.buyers if alloc.placement[b] == 1]
        # each winner holds exactly one item and is a neighbour of some seller
        assert len(winners) == len(set(winners))
        assert len(winners) <= len(net.sellers)
        for b in winners:
            assert any(b in net.friends_of(s) for s in net.sellers)
        # buyer utility equation pointwise
        for b in net.buyers:
            assert alloc.utility[b] == net.budget[b] - net.valuation[b] * alloc.placement[b]
            assert alloc.payment[b] >= 0 and alloc.utility[b] >= 0
        # a seller keeps her item iff she sold to nobody
        sold = len(winners)
        kept = sum(alloc.placement[s] for s in net.sellers)
        assert sold + kept == len(net.sellers)


def _int_money(mech: Mechanism) -> Mechanism:
    """The same market, hand-built with every whole amount as an int."""
    net = mech.network

    def whole(table):
        return {k: int(v) if v.denominator == 1 else v for k, v in table.items()}

    money = {f: whole(getattr(net, f)) for f in ("budget", "valuation", "incentive")}
    return Mechanism(replace(net, **money), mech.rule)


def _cases_met(net, alloc) -> set[str]:
    """Which of the cases the one-pass allocation must get right occur in
    this state: tied bidders, a seller with no buyer-friend, a seller who
    shares her first-ranked bidder with an earlier seller, and int money."""
    met = set()
    ranked = {s: ranked_bidders(net, s) for s in net.sellers}
    for sell, bidders in ranked.items():
        values = [net.valuation[b] for b in bidders]
        if len(set(values)) < len(values):
            met.add("tie")
        if not bidders:
            met.add("no bidder")
        elif any(
            other.id < sell.id and ranked[other][:1] == bidders[:1] for other in ranked
        ):
            met.add("contested")
    if any(type(v) is int for v in alloc.utility.values()):
        met.add("int money")
    return met


def test_one_pass_matches_the_reference_at_reachable_states():
    # random rational markets with 1-3 sellers, in Fraction money and
    # hand-built with int money; the initial state and the states reached
    # by 2-3 random feasible rounds, each as a network through materialize
    rng = random.Random(2101)
    met = Counter()
    for n in range(120):
        market = random_rational_market(rng, n_sellers=1 + n % 3)
        for mech in (market, _int_money(market)):
            arena = _Arena.of(mech)
            state = (arena.adj0, arena.budget0)
            for step in range(1 + rng.randint(2, 3)):
                if step:
                    action = tuple(
                        rng.choice(arena.options(*state, s)) for s in arena.seller_ids
                    )
                    state = arena.apply(*state, action)
                net = arena.materialize(*state).network
                got, want = smf_evaluate(net), reference_smf(net)
                assert got.placement == want.placement
                assert got.payment == want.payment
                assert got.utility == want.utility
                met.update(_cases_met(net, got))
    assert {"tie", "no bidder", "contested", "int money"} <= set(met), met


def test_evaluate_stores_nothing_on_the_mechanism():
    mech = referral_chain()
    first, second = evaluate(mech), evaluate(mech)
    assert first == second == smf_evaluate(mech.network)
    assert set(mech.__dict__) == {"network", "rule"}


def test_rule_registry():
    with pytest.raises(UnknownRuleError):
        evaluate(Mechanism(referral_chain().network, rule="vcg"))

    def trivial(net):
        zero = {a: 0 for a in net.agents()}
        from fractions import Fraction

        money = {a: Fraction(0) for a in net.agents()}
        return AllocationResult(placement=zero, payment=money, utility=money)

    register_rule("trivial", trivial)
    alloc = evaluate(Mechanism(referral_chain().network, rule="trivial"))
    assert set(alloc.placement.values()) == {0}


_REIMPORT = """
import gc, sys, weakref
sys.path.insert(0, sys.argv[1])
import damcheck.cli
refs = {
    f"{name}.{attr}": weakref.ref(value)
    for name, module in list(sys.modules.items())
    if name.startswith("damcheck")
    for attr, value in vars(module).items()
    if isinstance(value, type) and value.__module__ == name
}
for name in [name for name in sys.modules if name.startswith("damcheck")]:
    del sys.modules[name]
del damcheck
import damcheck.cli
gc.collect()
print(len(refs), *sorted(name for name, ref in refs.items() if ref() is not None))
"""


def test_reimporting_the_package_frees_the_first_copy():
    # a fresh interpreter imports every module, drops them all and imports
    # them again: nothing may keep a class of the first copy alive, as a
    # cached typing alias of a damcheck class once did
    import subprocess
    import sys
    from pathlib import Path

    import damcheck

    src = str(Path(damcheck.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _REIMPORT, src], capture_output=True, text=True, check=True
    )
    count, *alive = done.stdout.split()
    assert int(count) > 40 and alive == []
