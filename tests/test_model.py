"""Core model: validation, naming, action preconditions, and the update."""

import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from damcheck import (
    BUYER,
    SKIP,
    Mechanism,
    action_precondition,
    apply_joint_action,
    joint_action,
    mechanism_from_dict,
    resolve_name,
    save_mechanism,
    validate_mechanism,
)
from damcheck.errors import (
    ActionError,
    MechanismError,
    PreconditionError,
    UnknownNominalError,
)
from damcheck.mechjson import mechanism_to_dict, parse_rational
from damcheck.model import _Arena, buyer, seller

from helpers import (
    random_feasible_action,
    random_mechanism,
    random_rational_market,
    referral_chain,
    two_seller_market,
)
from reference import reference_apply, reference_precondition


def test_referral_chain_is_valid():
    assert validate_mechanism(referral_chain()) == []


def test_self_loop_is_one_irreflexivity_violation():
    mech = referral_chain()
    net = mech.network
    s = net.sellers[0]
    friends = dict(net.friends)
    friends[s] = friends[s] | {s}
    bad = Mechanism(replace(net, friends=friends), mech.rule)
    violations = validate_mechanism(bad)
    assert len(violations) == 1
    assert "irreflex" in violations[0]


def test_valuation_above_budget_is_one_violation():
    mech = referral_chain()
    net = mech.network
    a = net.agent_by_id("a")
    valuation = dict(net.valuation)
    valuation[a] = Fraction(4)  # budget stays 3
    bad = Mechanism(replace(net, valuation=valuation), mech.rule)
    violations = validate_mechanism(bad)
    assert len(violations) == 1
    assert "valuation exceeds budget" in violations[0]


def test_missing_budget_and_name_reported():
    mech = referral_chain()
    net = mech.network
    a = net.agent_by_id("a")
    budget = dict(net.budget)
    del budget[a]
    names = {n: who for n, who in net.names.items() if who != a}
    bad = Mechanism(replace(net, budget=budget, names=names), mech.rule)
    text = " / ".join(validate_mechanism(bad))
    assert "no budget" in text and "no name" in text


def test_resolve_name():
    mech = referral_chain()
    assert resolve_name(mech, "gamma").id == "c"
    assert resolve_name(mech, "sigma").id == "s"
    with pytest.raises(UnknownNominalError):
        resolve_name(mech, "zeta")


def test_action_precondition_referral_chain():
    mech = referral_chain()
    act = joint_action(mech.network, {"s": "alpha"})
    assert action_precondition(mech, act)
    after = apply_joint_action(mech, act)
    # budget is now 0 < 1 = incentive demanded by the newly reachable buyer
    follow = joint_action(after.network, {"s": "gamma"})
    assert not action_precondition(after, follow)


def test_an_action_refuses_a_seller_it_does_not_cover():
    act = joint_action(two_seller_market().network, {"s1": "alpha"})
    with pytest.raises(ActionError) as err:
        act.target_of(seller("s"))
    assert str(err.value) == "'s' is not a seller of this action"
    # a two-sellers action read on the referral chain, whose seller is s
    with pytest.raises(ActionError) as err:
        action_precondition(referral_chain(), act)
    assert str(err.value) == "'s1' is not a seller of the mechanism"


def test_all_skip_action_is_precondition_true_and_identity():
    mech = two_seller_market()
    act = joint_action(mech.network, {})
    assert all(t is SKIP for _, t in act.entries)
    assert action_precondition(mech, act)
    assert apply_joint_action(mech, act) == mech


def test_apply_referral_chain_update():
    mech = referral_chain()
    after = apply_joint_action(mech, joint_action(mech.network, {"s": "alpha"}))
    net = after.network
    s, a, c = (net.agent_by_id(i) for i in "sac")
    assert net.budget[s] == 0
    assert net.budget[a] == 8
    assert c in net.friends_of(s) and s in net.friends_of(c)
    # everything else untouched
    assert net.valuation == mech.network.valuation
    assert net.incentive == mech.network.incentive
    assert net.names == mech.network.names
    before_edges = {frozenset(p) for x, nbrs in mech.network.friends.items() for p in ((x, y) for y in nbrs)}
    after_edges = {frozenset(p) for x, nbrs in net.friends.items() for p in ((x, y) for y in nbrs)}
    assert after_edges - before_edges == {frozenset((s, c))}


def test_apply_two_seller_joint_update():
    mech = two_seller_market()
    after = apply_joint_action(
        mech, joint_action(mech.network, {"s1": "delta", "s2": "gamma"})
    )
    net = after.network
    s1, s2, b, c, d, e = (net.agent_by_id(i) for i in ("s1", "s2", "b", "c", "d", "e"))
    assert e in net.friends_of(s1)
    assert b in net.friends_of(s2)
    assert net.budget[s1] == 0 and net.budget[s2] == 0
    assert net.budget[d] == mech.network.budget[d] + 1
    assert net.budget[c] == mech.network.budget[c] + 1


def test_tie_breaks_to_lexicographically_least_seller():
    doc = {
        "sellers": [
            {"id": "sA", "names": ["sigA"], "budget": 2},
            {"id": "sB", "names": ["sigB"], "budget": 2},
        ],
        "buyers": [
            {"id": "b", "names": ["beta"], "budget": 1, "valuation": 1,
             "incentives": {"sA": 2, "sB": 2}},
            {"id": "x", "names": ["chi"], "budget": 0, "valuation": 0},
        ],
        "edges": [["sA", "b"], ["sB", "b"], ["b", "x"]],
        "rule": "smf",
    }
    mech = mechanism_from_dict(doc)
    after = apply_joint_action(
        mech, joint_action(mech.network, {"sA": "beta", "sB": "beta"})
    )
    net = after.network
    sA, sB, x = net.agent_by_id("sA"), net.agent_by_id("sB"), net.agent_by_id("x")
    assert x in net.friends_of(sA)
    assert x not in net.friends_of(sB)
    assert net.budget[sA] == 0  # winner pays
    assert net.budget[sB] == 2  # loser pays nothing


def test_higher_incentive_beats_lexicographic_order():
    doc = {
        "sellers": [
            {"id": "sA", "names": ["sigA"], "budget": 2},
            {"id": "sB", "names": ["sigB"], "budget": 3},
        ],
        "buyers": [
            {"id": "b", "names": ["beta"], "budget": 1, "valuation": 1,
             "incentives": {"sA": 2, "sB": 3}},
            {"id": "x", "names": ["chi"], "budget": 0, "valuation": 0},
        ],
        "edges": [["sA", "b"], ["sB", "b"], ["b", "x"]],
        "rule": "smf",
    }
    mech = mechanism_from_dict(doc)
    after = apply_joint_action(
        mech, joint_action(mech.network, {"sA": "beta", "sB": "beta"})
    )
    net = after.network
    assert net.agent_by_id("x") in net.friends_of(net.agent_by_id("sB"))
    assert net.budget[net.agent_by_id("sB")] == 0
    assert net.budget[net.agent_by_id("sA")] == 2


def test_apply_requires_precondition():
    mech = referral_chain()
    act = joint_action(mech.network, {"s": "gamma"})  # not a friend yet
    with pytest.raises(PreconditionError):
        apply_joint_action(mech, act)


def test_joint_action_rejects_bad_keys_and_targets():
    net = referral_chain().network
    with pytest.raises(ActionError):
        joint_action(net, {"nobody": "alpha"})
    with pytest.raises(ActionError):
        joint_action(net, {"a": "beta"})  # buyer used as seller
    mech = referral_chain()
    bad_target = joint_action(net, {"s": "sigma"})  # seller as target
    with pytest.raises(ActionError):
        action_precondition(mech, bad_target)


def test_update_properties_random():
    rng = random.Random(4242)
    for _ in range(200):
        mech = random_mechanism(rng)
        net = mech.network
        act = random_feasible_action(rng, mech)
        if not action_precondition(mech, act):
            continue
        after = apply_joint_action(mech, act)
        anet = after.network
        # budget conservation
        assert sum(net.budget.values()) == sum(anet.budget.values())
        # edge monotonicity and symmetry/irreflexivity preservation
        for agent, nbrs in net.friends.items():
            assert nbrs <= anet.friends_of(agent)
        for agent, nbrs in anet.friends.items():
            assert agent not in nbrs
            for other in nbrs:
                assert agent in anet.friends_of(other)
                assert not (agent.kind == "seller" and other.kind == "seller")
        # winner accounting: sellers whose budget dropped paid their target
        for sell in net.sellers:
            delta = anet.budget[sell] - net.budget[sell]
            assert delta <= 0
        assert validate_mechanism(after) == []


def _tied(mech, action) -> bool:
    """Two sellers target one buyer with the same incentive."""
    net = mech.network
    bids = [
        (resolve_name(mech, t), net.incentive_for(resolve_name(mech, t), s))
        for s, t in action.entries
        if t is not SKIP
    ]
    return len(bids) != len(set(bids))


def test_update_views_match_reference_along_trajectories(tmp_path):
    # the views run on the arena; the reference is the update over frozensets
    # and Fractions. Along 2-3 step trajectories every joint action gets the
    # same feasibility, and the chosen step's successor is equal and saves to
    # the same bytes (the view writes back Fractions where the reference
    # keeps ints). The first market's arena also advances its own state, so
    # its feasibility and update are compared at reachable states, not only
    # at its root.
    # Steps prefer tied bids, so the tie-break to the least seller id is
    # exercised, and sellers with no buyer friend occur
    rng = random.Random(515)
    steps = ties = lonely = 0
    for trial in range(120):
        if trial % 4:
            mech = random_rational_market(rng, n_sellers=rng.randint(2, 3), n_buyers=4)
        else:
            mech = random_mechanism(rng)
        arena = _Arena.of(mech)
        state = (arena.adj0, arena.budget0)
        for _ in range(rng.randint(2, 3)):
            net = mech.network
            sellers = sorted(net.sellers)
            options = [net.canonical_name(b) for b in sorted(net.buyers)] + [SKIP]
            feasible = []
            for combo in itertools.product(options, repeat=len(sellers)):
                action = joint_action(net, dict(zip(sellers, combo)))
                holds = reference_precondition(mech, action)
                assert action_precondition(mech, action) == holds
                assert arena.feasible(*state, arena.action_of(action)) == holds
                if holds:
                    feasible.append(action)
            tied = [a for a in feasible if _tied(mech, a)]
            action = rng.choice(tied if tied and rng.random() < 0.8 else feasible)
            after = apply_joint_action(mech, action)
            want = reference_apply(mech, action)
            assert after == want
            state = arena.apply(*state, arena.action_of(action))
            assert arena.materialize(*state) == want
            save_mechanism(after, tmp_path / "view.json")
            save_mechanism(want, tmp_path / "reference.json")
            assert (tmp_path / "view.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
            steps += 1
            ties += _tied(mech, action)
            lonely += any(
                all(f.kind != BUYER for f in net.friends_of(s)) for s in sellers
            )
            mech = after
    assert steps > 250
    assert ties >= 30
    assert lonely >= 15


def test_precondition_view_resolves_every_target_before_judging():
    # s1's target is not her friend, and s2 targets a seller. The reference
    # stops at s1 and answers False; the view resolves the whole action
    # first and refuses the seller target
    mech = two_seller_market()
    action = joint_action(mech.network, {"s1": "gamma", "s2": "sigma1"})
    assert reference_precondition(mech, action) is False
    with pytest.raises(ActionError, match="action target 'sigma1' names a non-buyer"):
        action_precondition(mech, action)
    with pytest.raises(ActionError, match="action target 'sigma1' names a non-buyer"):
        apply_joint_action(mech, action)


# --- mechanism files -----------------------------------------------------------


def test_roundtrip_dict():
    mech = two_seller_market()
    doc = mechanism_to_dict(mech)
    again = mechanism_from_dict(doc)
    assert again == mech


def test_rational_parsing():
    assert parse_rational(3) == 3
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("7") == 7
    with pytest.raises(MechanismError):
        parse_rational(0.5)
    with pytest.raises(MechanismError):
        parse_rational("1/0")
    with pytest.raises(MechanismError):
        parse_rational(True)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    # the grammar is -?digits(/digits)?: no exponent (expanding one takes
    # seconds), decimal point, '_', '+' or space
    for text in ("1e10000000", "1.5", "1_000", "+2", " 3", "3/"):
        began = time.perf_counter()
        with pytest.raises(MechanismError):
            parse_rational(text)
        assert time.perf_counter() - began < 0.5, text


def test_duplicate_and_reversed_edges_rejected():
    base = {
        "sellers": [{"id": "s", "names": ["sigma"], "budget": 1}],
        "buyers": [{"id": "b", "names": ["beta"], "budget": 1, "valuation": 1}],
        "rule": "smf",
    }
    with pytest.raises(MechanismError):
        mechanism_from_dict({**base, "edges": [["s", "b"], ["s", "b"]]})
    with pytest.raises(MechanismError):
        mechanism_from_dict({**base, "edges": [["s", "b"], ["b", "s"]]})


def test_loader_refuses_invalid():
    with pytest.raises(MechanismError):
        mechanism_from_dict(
            {
                "sellers": [{"id": "s", "names": ["sigma"], "budget": 1}],
                "buyers": [
                    {"id": "b", "names": ["beta"], "budget": 1, "valuation": 2}
                ],
                "edges": [["s", "b"]],
                "rule": "smf",
            }
        )


def test_loader_defaults_missing_incentives_to_zero():
    mech = mechanism_from_dict(
        {
            "sellers": [{"id": "s", "names": ["sigma"], "budget": 1}],
            "buyers": [{"id": "b", "names": ["beta"], "budget": 1, "valuation": 1}],
            "edges": [["s", "b"]],
            "rule": "smf",
        }
    )
    net = mech.network
    assert net.incentive_for(net.agent_by_id("b"), net.agent_by_id("s")) == 0


def test_roundtrip_dict_random():
    rng = random.Random(90210)
    for _ in range(50):
        mech = random_mechanism(rng)
        assert mechanism_from_dict(mechanism_to_dict(mech)) == mech


def test_malformed_documents_raise_mechanism_errors():
    with pytest.raises(MechanismError):
        mechanism_from_dict({"sellers": [{"names": ["x"]}], "buyers": []})
    with pytest.raises(MechanismError):
        mechanism_from_dict(
            {
                "sellers": [{"id": "s", "names": ["sigma"], "budget": 1}],
                "buyers": [{"id": "b", "names": ["beta"], "budget": 1,
                            "valuation": 1, "incentives": [1, 2]}],
                "edges": [],
            }
        )
    with pytest.raises(MechanismError):
        mechanism_from_dict("not an object")


_S = [{"id": "s", "names": ["sigma"], "budget": 1}]
_B = [{"id": "b", "names": ["beta"], "budget": 1, "valuation": 1}]
_A = {"id": "a", "names": ["alpha"], "budget": 1, "valuation": 1}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"sellers": [{"id": "s", "names": "sigma"}], "buyers": _B},
         "names of 's' must be a list of strings"),
        ({"sellers": [{"id": "s", "names": ["alpha"]}], "buyers": [_A]},
         "nominal 'alpha' names two agents"),
        ({"sellers": [{"id": "s", "names": ["sigma", "sigma"]}], "buyers": _B},
         "names of 's' list 'sigma' twice"),
        ({"sellers": _S, "buyers": [{**_A, "incentives": {"zz": 1}}]},
         "incentives of 'a' mention unknown seller 'zz'"),
        ({"sellers": _S, "buyers": _B, "edges": [["s"]]},
         "edge ['s'] is not a two-element list"),
        ({"sellers": _S, "buyers": _B, "edges": [["s", "zz"]]},
         "edge ['s', 'zz'] mentions unknown agent 'zz'"),
        ({"sellers": [], "buyers": _B},
         "invalid mechanism: no sellers: at least one seller is required"),
        ({"sellers": _S, "buyers": []},
         "invalid mechanism: no buyers: at least one buyer is required"),
    ],
    ids=[
        "names-not-a-list",
        "nominal-of-two-agents",
        "nominal-listed-twice",
        "incentive-of-unknown-seller",
        "edge-of-one-agent",
        "edge-to-unknown-agent",
        "no-sellers",
        "no-buyers",
    ],
)
def test_malformed_documents_name_their_cause(doc, message):
    with pytest.raises(MechanismError) as err:
        mechanism_from_dict(doc)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda net: joint_action(net, {seller("s1"): SKIP, "s1": "alpha"}),
         ActionError, "seller 's1' assigned twice"),
        (lambda net: joint_action(net, {"s1": 5}), ActionError, "bad target 5 for seller 's1'"),
        (lambda net: replace(net, names={}).canonical_name(buyer("a")),
         MechanismError, "agent 'a' has no name"),
    ],
    ids=["seller-assigned-twice", "target-not-a-name", "agent-without-a-name"],
)
def test_bad_actions_and_nameless_agents_name_their_cause(make, error, message):
    with pytest.raises(error) as err:
        make(two_seller_market().network)
    assert str(err.value) == message


def test_reserved_words_rejected_as_names():
    with pytest.raises(MechanismError):
        mechanism_from_dict(
            {
                "sellers": [{"id": "s", "names": ["skip"], "budget": 1}],
                "buyers": [{"id": "b", "names": ["beta"], "budget": 0, "valuation": 0}],
                "edges": [],
                "rule": "smf",
            }
        )
