"""Equilibrium analysis, strategy search, and coalition elimination."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from damcheck import (
    SKIP,
    check,
    check_ne_direct,
    check_strategic,
    joint_action,
    mechanism_from_dict,
    ne_formula,
    parse_formula,
    strategy_exists,
    translate,
)
from damcheck.analysis import NeQuery, StrategyQuery
from damcheck.checker import CheckQuery, CheckStats
from damcheck.errors import (
    ArityError,
    CoalitionOperatorError,
    DamError,
    InfeasibleProfileError,
)
from damcheck.formula import (
    FALSE,
    TRUE,
    And,
    Box,
    CoalitionBox,
    CoalitionDiamond,
    Compare,
    Diamond,
    Diffuse,
    DiffuseDiamond,
    Heart,
    Implies,
    LinearGeq,
    Nominal,
    Not,
    Or,
    Truth,
    UtilityTerm,
    _distinct,
    big_and,
    contains_coalition,
    desugar,
    names_of,
)
from damcheck.gadgets import CnfInstance, expressivity_pair, gen_sat_gadget, sat_oracle
from damcheck.model import action_precondition, apply_joint_action

from helpers import (
    distinct_nodes,
    exhaustive_strategy,
    odd_degree_rule,
    referral_chain,
    two_seller_market,
    random_formula,
    random_action,
    random_feasible_action,
    random_mechanism,
    random_rational_market,
    time_limit,
)
from reference import (
    reference_apply,
    reference_check,
    reference_ne,
    reference_precondition,
    reference_reachable,
    reference_strategy_search,
)


def tiny_one_buyer():
    return mechanism_from_dict(
        {
            "sellers": [{"id": "s", "names": ["sigma"], "budget": 1}],
            "buyers": [{"id": "a", "names": ["alpha"], "budget": 1, "valuation": 1}],
            "edges": [["s", "a"]],
            "rule": "smf",
        }
    )


def flatten_and(node):
    if isinstance(node, And):
        return flatten_and(node.left) + flatten_and(node.right)
    return [node]


# --- the equilibrium formula -----------------------------------------------------


def test_ne_formula_one_seller_one_buyer_schema():
    mech = tiny_one_buyer()
    profile = [joint_action(mech.network, {"s": "alpha"})]
    got = ne_formula(mech, profile, [Fraction(9)])

    eq = Compare("=", ((Fraction(1), UtilityTerm("sigma")),), Fraction(9))
    le = Compare("<=", ((Fraction(1), UtilityTerm("sigma")),), Fraction(9))
    expected = desugar(
        big_and(
            [
                DiffuseDiamond((("sigma", "alpha"),), big_and([eq])),
                DiffuseDiamond((("sigma", "alpha"),), le),
                DiffuseDiamond((("sigma", SKIP),), le),
            ]
        )
    )
    assert got == expected


def test_ne_formula_deviation_count_two_sellers():
    mech = two_seller_market()
    profile = [joint_action(mech.network, {"s1": "alpha", "s2": "gamma"})]
    got = ne_formula(mech, profile, [Fraction(4), Fraction(1)])
    # every schema conjunct is a (negated) Diffuse, so the And-tree leaves are
    # exactly the profile diamond plus the per-seller deviation diamonds
    assert len(flatten_and(got)) == 1 + 2 * (6 + 1)


def test_ne_formula_refuses_a_network_with_no_buyers():
    # reachable only by hand-building the network, which validation refuses
    from dataclasses import replace

    from damcheck import validate_mechanism
    from damcheck.errors import MechanismError

    mech = tiny_one_buyer()
    net = replace(
        mech.network,
        buyers=(),
        friends={a: frozenset() for a in mech.network.sellers},
        valuation={},
    )
    from damcheck import Mechanism

    stripped = Mechanism(net, mech.rule)
    profile = [joint_action(net, {})]
    violations = validate_mechanism(stripped)
    assert violations[0] == "no buyers: at least one buyer is required"
    with pytest.raises(MechanismError) as err:
        ne_formula(stripped, profile, [Fraction(1)])
    assert str(err.value) == "invalid mechanism: " + "; ".join(violations)


def test_ne_formula_arity_checks():
    mech = two_seller_market()
    profile = [joint_action(mech.network, {"s1": "alpha"})]
    with pytest.raises(ArityError):
        ne_formula(mech, profile, [Fraction(1)])  # two sellers, one utility
    with pytest.raises(ArityError):
        ne_formula(mech, [], [Fraction(1), Fraction(1)])


def test_check_ne_direct_refuses_an_empty_profile():
    with pytest.raises(ArityError) as err:
        check_ne_direct(NeQuery(two_seller_market(), ()))
    assert str(err.value) == "profile must contain at least one joint action"


def test_check_ne_direct_market_profile_not_ne():
    mech = two_seller_market()
    outcome = check_ne_direct(
        NeQuery(mech, (joint_action(mech.network, {"s1": "delta", "s2": "gamma"}),))
    )
    assert not outcome.is_ne
    assert outcome.utilities == (Fraction(3), Fraction(4))
    v = outcome.violation
    assert v.seller.id == "s1"
    assert v.position == 0
    assert v.target.id == "a"
    assert v.baseline == 3 and v.achieved == 4


def test_check_ne_direct_referral_profile_is_ne():
    mech = referral_chain()
    profile = (joint_action(mech.network, {"s": "alpha"}),)
    outcome = check_ne_direct(NeQuery(mech, profile))
    assert outcome.is_ne
    assert outcome.utilities == (Fraction(9),)

    # independent brute force over the five unilateral one-step actions
    net = mech.network
    best = Fraction(0)
    for target in ["alpha", "beta", "gamma", "delta", SKIP]:
        act = joint_action(net, {"s": target})
        if not action_precondition(mech, act):
            continue
        after = apply_joint_action(mech, act)
        from damcheck import evaluate

        best = max(best, evaluate(after).utility[net.agent_by_id("s")])
    assert best == 9


def test_check_ne_direct_all_skip_when_nothing_affordable():
    mech = mechanism_from_dict(
        {
            "sellers": [{"id": "s", "names": ["sigma"], "budget": 1}],
            "buyers": [
                {"id": "a", "names": ["alpha"], "budget": 1, "valuation": 1,
                 "incentives": {"s": 5}}
            ],
            "edges": [["s", "a"]],
            "rule": "smf",
        }
    )
    profile = (joint_action(mech.network, {}),)
    assert check_ne_direct(NeQuery(mech, profile)).is_ne


def test_check_ne_direct_two_step_deviation_at_second_position():
    # referral chain s - a - x - y: the profile stops after reaching x, but
    # deviating at step two (incentivise x instead of skipping) reaches y
    mech = mechanism_from_dict(
        {
            "sellers": [{"id": "s", "names": ["sigma"], "budget": 2}],
            "buyers": [
                {"id": "a", "names": ["alpha"], "budget": 0, "valuation": 0,
                 "incentives": {"s": 1}},
                {"id": "x", "names": ["chi"], "budget": 5, "valuation": 5,
                 "incentives": {"s": 1}},
                {"id": "y", "names": ["ypsilon"], "budget": 9, "valuation": 9},
            ],
            "edges": [["s", "a"], ["a", "x"], ["x", "y"]],
            "rule": "smf",
        }
    )
    net = mech.network
    profile = (
        joint_action(net, {"s": "alpha"}),
        joint_action(net, {}),
    )
    outcome = check_ne_direct(NeQuery(mech, profile))
    assert not outcome.is_ne
    assert outcome.utilities == (Fraction(6),)
    v = outcome.violation
    assert v.position == 1
    assert v.target.id == "x"
    assert v.achieved == 9

    # the fully-played chain is an equilibrium: nothing affordable is better
    best = (
        joint_action(net, {"s": "alpha"}),
        joint_action(net, {"s": "chi"}),
    )
    assert check_ne_direct(NeQuery(mech, best)).is_ne


def test_check_ne_direct_rejects_infeasible_profiles():
    mech = referral_chain()
    bad = (joint_action(mech.network, {"s": "gamma"}),)
    with pytest.raises(InfeasibleProfileError):
        check_ne_direct(NeQuery(mech, bad))


def test_ne_formula_agrees_with_direct_check_two_steps():
    rng = random.Random(909)
    for _ in range(15):
        n_buyers = rng.randint(1, 2)
        buyers = []
        for j in range(1, n_buyers + 1):
            budget = rng.randint(0, 3)
            buyers.append(
                {"id": f"b{j}", "names": [f"bet{j}"], "budget": budget,
                 "valuation": rng.randint(0, budget)}
            )
        mech = mechanism_from_dict(
            {
                "sellers": [{"id": "s1", "names": ["sig1"], "budget": 1}],
                "buyers": buyers,
                "edges": [["s1", f"b{j}"] for j in range(1, n_buyers + 1)],
                "rule": "smf",
            }
        )
        net = mech.network
        options = [net.canonical_name(b) for b in net.buyers] + [SKIP]
        profile = (
            joint_action(net, {"s1": rng.choice(options)}),
            joint_action(net, {"s1": rng.choice(options)}),
        )
        outcome = check_ne_direct(NeQuery(mech, profile))
        schema = ne_formula(mech, profile, outcome.utilities)
        anyone = rng.choice(net.agents())
        assert check(CheckQuery(mech, anyone, schema)) == outcome.is_ne


def test_ne_formula_agrees_with_direct_check_when_all_deviations_feasible():
    rng = random.Random(808)
    agreements = 0
    for _ in range(40):
        n_sellers = rng.randint(1, 2)
        n_buyers = rng.randint(1, 3)
        sellers = [
            {"id": f"s{i}", "names": [f"sig{i}"], "budget": rng.randint(0, 2)}
            for i in range(1, n_sellers + 1)
        ]
        buyers = []
        for j in range(1, n_buyers + 1):
            budget = rng.randint(0, 3)
            buyers.append(
                {"id": f"b{j}", "names": [f"bet{j}"], "budget": budget,
                 "valuation": rng.randint(0, budget)}
            )
        edges = [
            [f"s{i}", f"b{j}"]
            for i in range(1, n_sellers + 1)
            for j in range(1, n_buyers + 1)
        ]
        mech = mechanism_from_dict(
            {"sellers": sellers, "buyers": buyers, "edges": edges, "rule": "smf"}
        )
        net = mech.network
        # zero incentives + complete bipartite graph: every deviation feasible
        targets = {
            s: (net.canonical_name(rng.choice(sorted(net.buyers)))
                if rng.random() < 0.7 else SKIP)
            for s in net.sellers
        }
        profile = (joint_action(net, targets),)
        outcome = check_ne_direct(NeQuery(mech, profile))
        schema = ne_formula(mech, profile, outcome.utilities)
        agent = rng.choice(net.agents())
        assert check(CheckQuery(mech, agent, schema)) == outcome.is_ne
        agreements += 1
    assert agreements == 40


# --- strategy existence ------------------------------------------------------------


def test_strategy_trivial_goal_has_empty_witness():
    outcome = strategy_exists(StrategyQuery(referral_chain(), Truth()))
    assert outcome.found and outcome.witness == ()


def test_strategy_referral_chain_reaches_gamma():
    mech = referral_chain()
    outcome = strategy_exists(StrategyQuery(mech, Heart("gamma")))
    assert outcome.found
    assert len(outcome.witness) == 1
    # witness validity: replay and re-check
    state = mech
    for action in outcome.witness:
        assert action_precondition(state, action)
        state = apply_joint_action(state, action)
    for s in state.network.sellers:
        assert check(CheckQuery(state, s, Heart("gamma")))


def test_strategy_unreachable_goal_mentioning_distant_buyer():
    m1, _, _ = expressivity_pair(1)
    outcome = strategy_exists(StrategyQuery(m1, Heart("gamma"), max_depth=8))
    assert not outcome.found


def test_default_depth_cap_misses_a_longer_witness():
    # one seller and one buyer: the default cap, |sellers| * |buyers| = 1,
    # is not the depth of the reachable graph. The buyer's utility rises by
    # 1 a round, so ut[alpha] >= 5 needs five rounds
    mech = mechanism_from_dict(
        {
            "sellers": [{"id": "s", "names": ["sigma"], "budget": 10}],
            "buyers": [{"id": "a", "names": ["alpha"], "budget": 0, "valuation": 0,
                        "incentives": {"s": 1}}],
            "edges": [["s", "a"]],
            "rule": "smf",
        }
    )
    goal = parse_formula("ut[alpha] >= 5")
    stats = CheckStats()
    assert not strategy_exists(StrategyQuery(mech, goal), stats).found
    assert stats.states_explored == 2
    outcome = strategy_exists(StrategyQuery(mech, goal, max_depth=5), stats)
    assert outcome.found
    assert [action.targets() for action in outcome.witness] == [
        {mech.network.agent_by_id("s"): "alpha"}
    ] * 5
    assert stats.states_explored == 6


def test_strategy_rejects_coalition_goals():
    with pytest.raises(CoalitionOperatorError):
        strategy_exists(
            StrategyQuery(referral_chain(), CoalitionDiamond(frozenset({"sigma"}), Truth()))
        )
    # a coalition under sugar that was never desugared
    nested = Implies(Nominal("alpha"), CoalitionDiamond(frozenset({"sigma"}), Truth()))
    with pytest.raises(CoalitionOperatorError):
        strategy_exists(StrategyQuery(referral_chain(), nested))


def test_strategy_agrees_with_exhaustive_enumeration():
    rng = random.Random(2024)
    for _ in range(30):
        mech = random_mechanism(rng, max_sellers=2, max_buyers=4, max_budget=2)
        goal = desugar(random_formula(rng, mech, depth=1, coalition=False))
        depth = rng.randint(1, 2)
        got = strategy_exists(StrategyQuery(mech, goal, max_depth=depth))
        want = exhaustive_strategy(mech, goal, depth)
        assert got.found == want
        if got.found:
            state = mech
            for action in got.witness:
                assert action_precondition(state, action)
                state = apply_joint_action(state, action)
            for s in state.network.sellers:
                assert check(CheckQuery(state, s, goal))


# --- coalition elimination ----------------------------------------------------------


def test_arena_update_matches_model_update():
    # the arena's bitmask transition must agree field-for-field with the
    # value-level update in tests/reference.py, and the model's views with both
    from damcheck.model import _Arena

    rng = random.Random(424242)
    compared = 0
    for _ in range(150):
        mech = random_mechanism(rng)
        arena = _Arena.of(mech)
        action = random_action(rng, mech)
        arena_action = arena.action_of(action)
        feasible = reference_precondition(mech, action)
        assert arena.feasible(arena.adj0, arena.budget0, arena_action) == feasible
        assert action_precondition(mech, action) == feasible
        if not feasible:
            continue
        compared += 1
        adj2, bud2 = arena.apply(arena.adj0, arena.budget0, arena_action)
        want = reference_apply(mech, action)
        assert arena.materialize(adj2, bud2) == want
        assert apply_joint_action(mech, action) == want
    assert compared > 40


def test_arena_update_matches_model_update_along_trajectories():
    # the update again, now at reachable states: 2-3 step trajectories on
    # rational markets, where the arena and the reference each advance their
    # own state; actions come from the arena's own options and prefer two
    # sellers bidding the same incentive for one buyer, so the tie-break to
    # the least seller id is exercised
    import itertools

    from damcheck.model import _Arena

    rng = random.Random(515)
    compared = equal_bids = 0
    for _ in range(120):
        mech = random_rational_market(rng, n_sellers=rng.randint(2, 3), n_buyers=4)
        arena = _Arena.of(mech)
        adj, budgets = arena.adj0, arena.budget0
        for _ in range(rng.randint(2, 3)):
            options = [arena.options(adj, budgets, s) for s in arena.seller_ids]
            actions = list(itertools.product(*options))

            def equal_bid(action):
                return any(
                    t >= 0 and t == u and arena.price[s][t] == arena.price[r][u]
                    for (s, t), (r, u) in itertools.combinations(enumerate(action), 2)
                )

            tied = [a for a in actions if equal_bid(a)]
            action = rng.choice(tied if tied and rng.random() < 0.8 else actions)
            joint = arena.action_to_joint(action)
            assert reference_precondition(mech, joint)
            adj, budgets = arena.apply(adj, budgets, action)
            want = reference_apply(mech, joint)
            assert arena.materialize(adj, budgets) == want
            assert apply_joint_action(mech, joint) == want
            mech = want
            compared += 1
            equal_bids += equal_bid(action)
    assert compared > 250
    assert equal_bids >= 30


def test_coalition_clause_matches_handwritten_loop():
    # third route for the coalition box, written with bare model operations
    import itertools

    from damcheck.formula import CoalitionBox

    rng = random.Random(77)
    for _ in range(25):
        mech = random_mechanism(rng, max_sellers=2, max_buyers=3)
        net = mech.network
        body = desugar(random_formula(rng, mech, depth=1, coalition=False))
        seller_noms = sorted(net.canonical_name(s) for s in net.sellers)
        members = frozenset(n for n in seller_noms if rng.random() < 0.6)
        anyone = rng.choice(net.agents())
        form = CoalitionBox(members, body)

        member_agents = sorted({net.names[n] for n in members})
        others = [s for s in sorted(net.sellers) if s not in set(member_agents)]
        options = [net.canonical_name(b) for b in sorted(net.buyers)] + [SKIP]

        def eval_after(full_targets):
            action = joint_action(net, full_targets)
            if not action_precondition(mech, action):
                return None
            return check(CheckQuery(apply_joint_action(mech, action), anyone, body))

        expected = True
        for picked in itertools.product(options, repeat=len(member_agents)):
            c_targets = dict(zip(member_agents, picked))
            if not action_precondition(mech, joint_action(net, c_targets)):
                continue
            if not any(
                eval_after({**c_targets, **dict(zip(others, counter))})
                for counter in itertools.product(options, repeat=len(others))
            ):
                expected = False
                break

        assert check_strategic(CheckQuery(mech, anyone, form)) == expected


def test_translate_is_identity_on_coalition_free():
    rng = random.Random(11)
    for _ in range(25):
        mech = random_mechanism(rng)
        form = desugar(random_formula(rng, mech, depth=2, coalition=False))
        assert translate(mech, form) == form


def test_translate_small_example_equivalent_and_flat():
    mech = mechanism_from_dict(
        {
            "sellers": [{"id": "s", "names": ["sigma"], "budget": 1}],
            "buyers": [
                {"id": "a", "names": ["alpha"], "budget": 1, "valuation": 1,
                 "incentives": {"s": 1}},
                {"id": "c", "names": ["gamma"], "budget": 1, "valuation": 1},
            ],
            "edges": [["s", "a"], ["a", "c"]],
            "rule": "smf",
        }
    )
    form = desugar(CoalitionDiamond(frozenset({"sigma"}), Heart("gamma")))
    flat = translate(mech, form)
    assert not contains_coalition(flat)
    assert names_of(flat) <= names_of(form) | {"sigma", "alpha", "gamma"}
    for agent in mech.network.agents():
        q1 = check_strategic(CheckQuery(mech, agent, form))
        q2 = check(CheckQuery(mech, agent, flat))
        assert q1 == q2


def test_translate_guards_each_coalition_choice_once():
    # [<sigma1>] over two sellers and six buyers: sigma1 has seven choices, so
    # seven feasibility guards <choice> true, not one per counter-choice too
    mech = two_seller_market()
    form = desugar(CoalitionBox(frozenset({"sigma1"}), Heart("alpha")))
    flat = translate(mech, form)

    def guards(node) -> int:
        if isinstance(node, And):
            return guards(node.left) + guards(node.right)
        if isinstance(node, (Not, Box)):
            return guards(node.child)
        if isinstance(node, Diffuse):
            return (node.child == Not(TRUE)) + guards(node.child)
        return 0

    assert guards(flat) == 7
    for agent in mech.network.agents():
        assert check(CheckQuery(mech, agent, flat)) == check_strategic(
            CheckQuery(mech, agent, form)
        )


def _only_core_kinds(node) -> bool:
    """Whether every node of the formula is a coalition-free core kind."""
    todo = [node]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is And:
            todo += [node.left, node.right]
        elif kind in (Not, Box, Diffuse):
            todo.append(node.child)
        elif kind not in (Nominal, LinearGeq, Heart):
            return False
    return True


def test_translate_agreement_random():
    rng = random.Random(555)
    for _ in range(30):
        mech = random_mechanism(rng, max_sellers=2, max_buyers=3)
        raw = random_formula(rng, mech, depth=2, coalition=True)
        form = desugar(raw)
        flat = translate(mech, form)
        assert not contains_coalition(flat)
        # sugar is lowered inside translate's one walk, to the same output
        assert translate(mech, raw) == flat
        assert _only_core_kinds(flat)
        for agent in mech.network.agents():
            assert check_strategic(CheckQuery(mech, agent, form)) == check(
                CheckQuery(mech, agent, flat)
            )


def _misplaced_names(rng, mech):
    """A random formula over the market's own names under an action or a
    coalition whose names stand where they may not: a buyer in a coalition
    or binding as a seller, a seller as an action target, or one seller
    bound under two of her names."""
    net = mech.network
    sellers = sorted(n for n, a in net.names.items() if a.kind == "seller")
    buyers = sorted(n for n, a in net.names.items() if a.kind == "buyer")
    aliased = [
        names for s in net.sellers
        if len(names := sorted(n for n, a in net.names.items() if a == s)) > 1
    ]
    body = random_formula(rng, mech, depth=1, coalition=True)
    fault = rng.randrange(4 if aliased else 3)
    if fault == 0:
        return CoalitionBox(frozenset({rng.choice(buyers), rng.choice(sellers)}), body)
    if fault == 1:
        return Diffuse(((rng.choice(buyers), rng.choice([SKIP, *buyers])),), body)
    if fault == 2:
        return Diffuse(((rng.choice(sellers), rng.choice(sellers)),), body)
    first, second = rng.choice(aliased)[:2]
    return Diffuse(((first, rng.choice(buyers)), (second, SKIP)), body)


def _refusal(run):
    try:
        run()
    except DamError as exc:
        return type(exc), str(exc)
    return None


def test_translate_refuses_what_check_strategic_refuses():
    # formulas written for one random market and read on another, where
    # some of their names, often several, name no agent: translate refuses
    # exactly when check_strategic does, with the same error for the first
    # name that fails
    rng = random.Random(2102)
    refused = several = 0
    texts = set()
    for _ in range(60):
        source = random_mechanism(rng, max_sellers=3, max_buyers=4)
        mech = random_mechanism(rng, max_sellers=2, max_buyers=3)
        form = random_formula(rng, source, depth=2, coalition=True)
        anyone = mech.network.agents()[0]
        outcome = _refusal(lambda: translate(mech, form))
        assert outcome == _refusal(lambda: check_strategic(CheckQuery(mech, anyone, form)))
        if outcome is not None:
            refused += 1
            texts.add(re.sub(r"'[^']*'", "_", outcome[1]))
        several += len(names_of(form) - set(mech.network.names)) > 1
    assert 0 < refused < 60 and several > 0
    # formulas read on their own market, each with two actions or
    # coalitions whose names are in the wrong role: every one is refused,
    # by both, for the same first name
    for _ in range(60):
        mech = random_mechanism(rng, max_sellers=2, max_buyers=3)
        form = And(_misplaced_names(rng, mech), _misplaced_names(rng, mech))
        anyone = mech.network.agents()[0]
        outcome = _refusal(lambda: translate(mech, form))
        assert outcome is not None
        assert outcome == _refusal(lambda: check_strategic(CheckQuery(mech, anyone, form)))
        texts.add(re.sub(r"'[^']*'", "_", outcome[1]))
    # each refusal text of the resolvers occurred, so the equalities above
    # compared every kind of refusal
    assert texts == {
        "nominal _ names no agent of the mechanism",
        "_ does not name a seller",
        "coalition member _ does not name a seller",
        "action target _ names a non-buyer",
        "seller _ bound twice in one action",
    }


_SHARED_BOX = "(<[sigma]> wins(gamma))"


def test_translate_builds_each_distinct_node_once():
    # a parsed <-> chain uses each level twice, so 40 levels have 2**40
    # paths to the coalition box at the bottom: a copy of the tree would
    # never end, and the timer turns that into a failure
    mech = referral_chain()
    counts = {}
    with time_limit(5, "translate copied the shared chain as a tree"):
        for chain in (" <-> beta", " <-> " + _SHARED_BOX):
            counts[chain] = [
                distinct_nodes(translate(mech, parse_formula(_SHARED_BOX + chain * levels)))
                for levels in (0, 10, 20, 40)
            ]
        coalition_free = parse_formula("alpha" + " <-> beta" * 40)
        assert translate(mech, coalition_free) is coalition_free
    for base, ten, twenty, forty in counts.values():
        # the same few new nodes per level, on top of one unfolded box
        assert twenty - ten == ten - base < 10 * 10
        assert forty - twenty == 2 * (twenty - ten)


def test_translate_of_shared_coalition_chains_agrees_with_check_strategic():
    mech = referral_chain()
    operands = [_SHARED_BOX, "beta", "(<[sigma]> wins(delta))", "alpha"]
    verdicts = set()
    for levels in range(1, 11):
        for text in (
            _SHARED_BOX + f" <-> {_SHARED_BOX}" * levels,
            _SHARED_BOX + "".join(f" <-> {operands[i % 4]}" for i in range(levels)),
        ):
            form = parse_formula(text)
            flat = translate(mech, form)
            for agent in mech.network.agents():
                verdict = check_strategic(CheckQuery(mech, agent, form))
                assert check(CheckQuery(mech, agent, flat)) == verdict
                verdicts.add(verdict)
    assert verdicts == {True, False}


def _costly_market(rng, rational: bool):
    """Two or three sellers and four buyers, where every buyer asks every
    seller more than any buyer's valuation, as in the benchmark's NE sweeps.
    With `rational`, money comes in halves and valuations in thirds."""

    def money(lo: int, hi: int):
        if rational:
            return str(Fraction(rng.randint(2 * lo, 2 * hi), 2))
        return rng.randint(lo, hi)

    sellers = [f"s{i}" for i in range(1, rng.randint(2, 3) + 1)]
    buyers = []
    for j in range(1, 5):
        valuation = Fraction(rng.randint(0, 11), 3) if rational else rng.randint(0, 3)
        buyers.append(
            {
                "id": f"b{j}",
                "names": [f"bet{j}"],
                "budget": str(valuation + 1),
                "valuation": str(valuation),
                "incentives": {s: money(4, 6) for s in sellers},
            }
        )
    pairs = [(s, b["id"]) for s in sellers for b in buyers]
    pairs += list(itertools.combinations([b["id"] for b in buyers], 2))
    return mechanism_from_dict(
        {
            "sellers": [
                {"id": s, "names": [f"sig{s[1:]}"], "budget": money(5, 9)} for s in sellers
            ],
            "buyers": buyers,
            "edges": [list(pair) for pair in pairs if rng.random() < 0.5],
            "rule": "smf",
        }
    )


def _negative_valuation_market():
    """A hand-built market that validation refuses: the one buyer's
    valuation is -1, and s3 has no buyer-friend. Under the profile s2:a, s2
    would pay 1 and s1 sell to a, so s2 would keep her item for utility 1;
    skipping would leave her 2. `check_ne_direct` refuses it, as it does
    every invalid network, so the bound on a sale never reads a negative
    valuation."""
    from dataclasses import replace

    from damcheck import Mechanism

    mech = mechanism_from_dict(
        {
            "sellers": [
                {"id": "s1", "names": ["s1"], "budget": 0},
                {"id": "s2", "names": ["s2"], "budget": 2},
                {"id": "s3", "names": ["s3"], "budget": 1},
            ],
            "buyers": [
                {"id": "a", "names": ["a"], "budget": 0, "valuation": 0,
                 "incentives": {"s2": 1}},
            ],
            "edges": [["s1", "a"], ["s2", "a"]],
            "rule": "smf",
        }
    )
    net = mech.network
    net = replace(net, valuation={b: Fraction(-1) for b in net.buyers})
    return Mechanism(net, mech.rule), [joint_action(net, {"s2": "a"})]


def _rounding_market():
    """Money in halves and valuations in thirds. Skipping, seller s sells to
    a for 1 + 1/3; paying b 1/2 brings her c, whom she sells to for
    1/2 + 1 = 3/2. The highest valuation is 1, so a deviation can pay only
    when it leaves her more than 1/3, which is 2/3 in the arena's halves:
    the bound must round that down to 0, as the deviation leaves her 1."""
    return mechanism_from_dict(
        {
            "sellers": [{"id": "s", "names": ["s"], "budget": 1}],
            "buyers": [
                {"id": "a", "names": ["a"], "budget": 1, "valuation": "1/3"},
                {"id": "b", "names": ["b"], "budget": 1, "valuation": 0,
                 "incentives": {"s": "1/2"}},
                {"id": "c", "names": ["c"], "budget": 1, "valuation": 1},
            ],
            "edges": [["s", "a"], ["s", "b"], ["b", "c"]],
            "rule": "smf",
        }
    )


def _ne_cases(rng):
    """(mechanism, profile) pairs: 80 random markets with random feasible
    profiles; 20 costly markets (half with rational money) with all-skip
    profiles, where no deviation can pay; 20 more with random profiles,
    where some can; the rounding market; and 20
    rational markets under the odd-degree rule, whose sellers gain from
    friends rather than sales, so that no bound on smf may apply to it."""
    from damcheck import Mechanism

    def random_profile(mech):
        state, profile = mech, []
        for _ in range(rng.randint(1, 3)):
            action = random_feasible_action(rng, state)
            profile.append(action)
            state = apply_joint_action(state, action)
        return profile

    for index in range(80):
        if index % 2:
            mech = random_rational_market(rng, n_sellers=rng.randint(1, 3))
        else:
            mech = random_mechanism(rng, max_sellers=3, max_buyers=4)
        yield mech, random_profile(mech)
    for index in range(40):
        mech = _costly_market(rng, rational=index % 2 == 1)
        if index < 20:
            skip_all = joint_action(mech.network, {s: SKIP for s in mech.network.sellers})
            yield mech, [skip_all] * rng.randint(1, 3)
        else:
            yield mech, random_profile(mech)
    rounding = _rounding_market()
    yield rounding, [joint_action(rounding.network, {"s": SKIP})]
    for _ in range(20):
        plain = random_rational_market(rng, n_sellers=rng.randint(1, 3))
        mech = Mechanism(plain.network, "odd-degree")
        yield mech, random_profile(mech)


def test_check_ne_direct_matches_reference_loop(monkeypatch):
    from damcheck import auction

    monkeypatch.setitem(auction._RULES, "odd-degree", odd_degree_rule)
    rng = random.Random(31337)
    verdicts = set()
    for mech, profile in _ne_cases(rng):
        got = check_ne_direct(NeQuery(mech, tuple(profile)))
        is_ne, violation, utilities = reference_ne(mech, profile)
        assert got.is_ne == is_ne
        assert got.utilities == utilities
        if violation is not None:
            v = got.violation
            assert (v.seller, v.position, v.target, v.baseline, v.achieved) == violation
        verdicts.add((mech.rule, is_ne))
    # both answers under both rules
    assert verdicts == {(rule, ne) for rule in ("smf", "odd-degree") for ne in (True, False)}
    mech, profile = _negative_valuation_market()
    with pytest.raises(DamError) as err:
        check_ne_direct(NeQuery(mech, tuple(profile)))
    assert str(err.value) == "invalid mechanism: negative valuation for buyer 'a'"


def test_deviations_that_cannot_pay_run_no_auction(monkeypatch):
    # every incentive exceeds every valuation, so under the all-skip profile
    # any deviation costs a seller more than a sale could bring her: the
    # baseline is the one allocation, though every deviation is still played
    from damcheck import auction

    calls = []
    evaluate = auction.evaluate

    def counting(mechanism):
        calls.append(mechanism)
        return evaluate(mechanism)

    monkeypatch.setattr(auction, "evaluate", counting)
    rng = random.Random(4242)
    explored = []
    for index in range(10):
        mech = _costly_market(rng, rational=index % 2 == 1)
        net = mech.network
        profile = (joint_action(net, {s: SKIP for s in net.sellers}),) * 2
        calls.clear()
        stats = CheckStats()
        result = check_ne_direct(NeQuery(mech, profile), stats)
        assert result.is_ne and len(calls) == 1
        explored.append(stats.states_explored)
    # the root plus the distinct outcomes of the feasible deviations, each
    # of which would otherwise have run an auction
    assert explored == [6, 9, 3, 5, 1, 5, 9, 4, 6, 6]


def test_multi_seller_strategy_agrees_with_exhaustive_enumeration():
    # several sellers and non-integer money: one labelling per searched state
    # at all sellers at once, against the reference judging seller by seller.
    # Goals false at the root, half of them reachable by befriending a buyer,
    # so the search has to step
    rng = random.Random(1618)
    searched = found = 0
    while searched < 40:
        mech = random_rational_market(rng, n_sellers=rng.randint(2, 3), n_buyers=4)
        net = mech.network
        buyer_noms = sorted(n for n, a in net.names.items() if a.kind == "buyer")
        goal = desugar(
            Or(
                Diamond(Nominal(rng.choice(buyer_noms))),
                random_formula(rng, mech, depth=1, coalition=False),
            )
        )
        if exhaustive_strategy(mech, goal, 0):
            continue
        depth = rng.randint(1, 2)
        got = strategy_exists(StrategyQuery(mech, goal, max_depth=depth))
        assert got.found == exhaustive_strategy(mech, goal, depth)
        searched += 1
        found += got.found
    assert 0 < found < searched


# For each n = 1..4 and each answer, the first random 3-CNF of n + 1 clauses
# over n variables drawn from random.Random(f"states:{n}:{satisfiable}") that
# has that answer, kept as literals. Each row: n, the clauses, the witness's
# targets (None when unsatisfiable) and the states the search builds.
_PINNED_SEARCHES = [
    (1, ((1, -1, 1), (-1, 1, 1)), ["beta1", "gamma1_1_1", "delta1", "epsilon1_1"], 9),
    (1, ((-1, -1, -1), (1, 1, 1)), None, 11),
    (2, ((2, 1, -1), (2, 1, -2), (-2, -2, 1)),
     ["beta1", "gamma1_2_1", "delta1", "epsilon1_1"], 42),
    (2, ((-2, 1, 1), (2, 2, 2), (-1, -1, -1)), None, 97),
    (3, ((3, 3, -2), (1, 3, -2), (2, -1, 3), (2, -3, -2)),
     ["beta1", "gamma1_1_3", "ngamma1_3_2", "delta2", "delta3", "epsilon2_1",
      "epsilon3_1"], 645),
    (3, ((1, 2, 1), (1, 1, 1), (-1, 2, -1), (-1, -1, -1)), None, 195),
    (4, ((-3, -1, 2), (-2, -1, 1), (-2, -4, -2), (2, -2, 2), (-2, 2, 3)),
     ["beta1", "ngamma1_1_3", "gamma1_3_2", "delta2", "delta3", "epsilon2_2",
      "epsilon3_2"], 1266),
    (4, ((1, -1, -3), (-3, -3, -3), (-3, 4, -3), (3, -4, 3), (3, 3, 3)), None, 1371),
]


@pytest.mark.parametrize("num_vars, clauses, witness, states", _PINNED_SEARCHES)
def test_strategy_search_counts_on_sat_gadgets_are_pinned(num_vars, clauses, witness, states):
    # state counts are exact and do not depend on the machine, so a change
    # to the search or the update rule that alters the work fails here
    instance = CnfInstance(num_vars, clauses)
    mech, goal = gen_sat_gadget(instance)
    stats = CheckStats()
    outcome = strategy_exists(StrategyQuery(mech, goal), stats)
    assert outcome.found == sat_oracle(instance) == (witness is not None)
    if witness is not None:
        assert [target for action in outcome.witness for _, target in action.entries] == witness
    assert stats.states_explored == states


# --- successors that move nothing --------------------------------------------------


def _market(sellers, buyers, edges):
    """A market from (id, budget) sellers and (id, {seller: incentive})
    buyers; every buyer has budget and valuation 0, each agent one name."""
    return mechanism_from_dict(
        {
            "sellers": [{"id": s, "names": [s], "budget": b} for s, b in sellers],
            "buyers": [
                {"id": b, "names": [b], "budget": 0, "valuation": 0, "incentives": inc}
                for b, inc in buyers
            ],
            "edges": [list(edge) for edge in edges],
            "rule": "smf",
        }
    )


def _arena_agrees_with_reference(mech, arena, targets, new):
    joint = joint_action(mech.network, targets)
    action = arena.action_of(joint)
    assert arena.feasible(arena.adj0, arena.budget0, action)
    assert arena.materialize(*new) == reference_apply(mech, joint)


def test_action_that_moves_nothing_returns_its_input_and_state():
    from damcheck.analysis import _Engine, cached_update
    from damcheck.model import _Arena

    # s already knows every friend of a, and a asks nothing
    mech = _market([("s", 1)], [("a", {"s": 0}), ("b", {})], [("s", "a"), ("s", "b"), ("a", "b")])
    arena = _Arena(mech)
    action = arena.action_of(joint_action(mech.network, {"s": "a"}))
    adj, budgets = arena.apply(arena.adj0, arena.budget0, action)
    assert adj is arena.adj0 and budgets is arena.budget0
    engine = _Engine(mech)
    assert cached_update(engine, engine.root, action) is engine.root
    assert cached_update(engine, engine.root, (-1,)) is engine.root
    assert len(engine.table) == 1
    _arena_agrees_with_reference(mech, arena, {"s": "a"}, (adj, budgets))


def test_action_that_pays_without_a_new_friend_moves_only_money():
    from damcheck.analysis import _Engine, cached_update
    from damcheck.model import _Arena

    mech = _market([("s", 3)], [("a", {"s": 2}), ("b", {})], [("s", "a"), ("s", "b"), ("a", "b")])
    arena = _Arena(mech)
    action = arena.action_of(joint_action(mech.network, {"s": "a"}))
    adj, budgets = arena.apply(arena.adj0, arena.budget0, action)
    assert adj is arena.adj0 and budgets is not arena.budget0
    s, a = arena.index[mech.network.names["s"]], arena.index[mech.network.names["a"]]
    assert budgets[s] == arena.budget0[s] - 2 * arena.scale
    assert budgets[a] == arena.budget0[a] + 2 * arena.scale
    engine = _Engine(mech)
    successor = cached_update(engine, engine.root, action)
    assert successor is not engine.root and successor.adj is engine.root.adj
    assert len(engine.table) == 2
    _arena_agrees_with_reference(mech, arena, {"s": "a"}, (adj, budgets))


@pytest.mark.parametrize("first_gains", [True, False])
def test_two_winners_where_only_one_gains_a_friend(first_gains):
    from damcheck.model import _Arena

    # s1 wins a, s2 wins c; c's only buyer-friend d is already s2's friend,
    # while a brings b to s1. Sellers are numbered by id, so s1 is the first
    # winner the update visits
    edges = [("s1", "a"), ("a", "b"), ("s2", "c"), ("s2", "d"), ("c", "d")]
    if not first_gains:  # swap the roles of s1 and s2
        edges = [("s1", "c"), ("s1", "d"), ("c", "d"), ("s2", "a"), ("a", "b")]
    mech = _market(
        [("s1", 0), ("s2", 0)], [("a", {}), ("b", {}), ("c", {}), ("d", {})], edges
    )
    arena = _Arena(mech)
    targets = {"s1": "a", "s2": "c"} if first_gains else {"s1": "c", "s2": "a"}
    action = arena.action_of(joint_action(mech.network, targets))
    adj, budgets = arena.apply(arena.adj0, arena.budget0, action)
    assert adj is not arena.adj0 and budgets is arena.budget0
    idle = arena.index[mech.network.names["s2" if first_gains else "s1"]]
    assert adj[idle] == arena.adj0[idle]
    _arena_agrees_with_reference(mech, arena, targets, (adj, budgets))


def test_the_sellers_rows_and_budgets_key_every_reachable_state():
    # an update adds a seller bit to a buyer's row only with the buyer's bit
    # to the seller's row, so within one query the sellers' rows determine
    # the buyers' and key the engine's table with the budgets
    from damcheck.checker import _Engine, cached_update

    rng = random.Random(2929)
    for _ in range(40):
        mech = random_rational_market(rng, n_sellers=rng.randint(2, 3))
        engine = _Engine(mech)
        arena = engine.arena
        rounds = rng.randint(2, 3)
        seen = {(arena.adj0, arena.budget0)}
        frontier = [engine.root]
        for _ in range(rounds):
            upcoming = []
            for state in frontier:
                options = [arena.options(state.adj, state.budgets, s) for s in arena.seller_ids]
                for action in itertools.product(*options):
                    full = arena.apply(state.adj, state.budgets, action)
                    successor = cached_update(engine, state, action)
                    assert (successor.adj, successor.budgets) == full
                    if full not in seen:
                        seen.add(full)
                        upcoming.append(successor)
            frontier = upcoming
        for state in engine.table.values():
            for b in arena.buyer_ids:
                sellers = sum(1 << s for s in arena.seller_ids if state.adj[s] >> b & 1)
                assert state.adj[b] == arena.adj0[b] & arena.buyer_mask | sellers
        assert len(engine.table) == len(seen) == reference_reachable(mech, rounds)[-1]


# --- the cooperative search skips choices that can only block ---------------------


def test_cooperative_search_builds_every_state_within_the_cap():
    # prices of 0 and ties between sellers are common here, so many choices
    # are inert; with goal false the search runs to its cap and must build
    # exactly the states that every feasible joint action reaches
    from damcheck.model import _Arena

    rng = random.Random(2317)
    inert = 0
    for _ in range(200):
        mech = random_mechanism(rng, max_sellers=3)
        arena = _Arena(mech)
        root = (arena.adj0, arena.budget0)
        for s in arena.seller_ids:
            inert += len(arena.options(*root, s)) - len(arena.cooperative_options(*root, s))
        want = reference_reachable(mech, 4)
        for cap in range(5):
            stats = CheckStats()
            assert not strategy_exists(StrategyQuery(mech, FALSE, max_depth=cap), stats).found
            assert stats.states_explored == want[cap]
    assert inert > 200


def test_cooperative_search_applies_only_actions_that_move(monkeypatch):
    from damcheck.model import _Arena

    update = _Arena.apply
    applied = []  # per action other than all-SKIP: did it move the state

    def recording(self, adj, budgets, action):
        new = update(self, adj, budgets, action)
        if any(t >= 0 for t in action):
            applied.append(new != (adj, budgets))
        return new

    monkeypatch.setattr(_Arena, "apply", recording)
    rng = random.Random(2318)
    for _ in range(200):
        mech = random_mechanism(rng, max_sellers=3)
        buyer_noms = sorted(n for n, a in mech.network.names.items() if a.kind == "buyer")
        # goals with no diffusion, so every update is the search's own
        goal = rng.choice([FALSE, desugar(Diamond(Nominal(rng.choice(buyer_noms))))])
        strategy_exists(StrategyQuery(mech, goal, max_depth=3))
    assert len(applied) > 1000 and all(applied)


def test_cooperative_search_witnesses_replay_and_are_shortest():
    rng = random.Random(2319)
    stepped = 0
    while stepped < 40:
        mech = random_mechanism(rng, max_sellers=3, max_buyers=3)
        net = mech.network
        buyer_noms = sorted(n for n, a in net.names.items() if a.kind == "buyer")
        befriend = Diamond(Nominal(rng.choice(buyer_noms)))
        other = random_formula(rng, mech, depth=1, coalition=False)
        goal = desugar(rng.choice([And, Or])(befriend, other))
        got = strategy_exists(StrategyQuery(mech, goal, max_depth=3))
        if not got.found:
            continue
        state = mech
        for action in got.witness:
            assert reference_precondition(state, action)
            state = reference_apply(state, action)
        assert all(reference_check(state, s, goal) for s in net.sellers)
        if got.witness:
            stepped += 1
            assert not exhaustive_strategy(mech, goal, len(got.witness) - 1)


def test_coalition_search_keeps_choices_that_only_block(monkeypatch):
    from damcheck.model import _Arena

    # alpha costs s1 nothing and brings her no friend, yet by winning the
    # tie at price 0 she keeps s2 from befriending beta
    mech = mechanism_from_dict(
        {
            "sellers": [
                {"id": "s1", "names": ["sigma1"], "budget": 0},
                {"id": "s2", "names": ["sigma2"], "budget": 0},
            ],
            "buyers": [
                {"id": "a", "names": ["alpha"], "budget": 0, "valuation": 0},
                {"id": "b", "names": ["beta"], "budget": 0, "valuation": 0},
            ],
            "edges": [["s1", "a"], ["s2", "a"], ["s1", "b"], ["a", "b"]],
            "rule": "smf",
        }
    )
    s2 = mech.network.names["sigma2"]
    blocked = parse_formula("[<sigma2>] [] !beta")
    assert check_strategic(CheckQuery(mech, s2, blocked))
    assert check(CheckQuery(mech, s2, translate(mech, blocked)))
    assert reference_check(mech, s2, blocked)
    assert not check(CheckQuery(mech, s2, parse_formula("<sigma2:alpha> [] !beta")))
    # without s1's inert choice the coalition box would be false
    monkeypatch.setattr(_Arena, "options", _Arena.cooperative_options)
    assert not check_strategic(CheckQuery(mech, s2, blocked))


# --- successors that commuting choices already made are skipped -------------------


def test_strategy_search_makes_the_plain_search_frontiers(monkeypatch):
    # the search skips single-mover actions whose successors it has already
    # made; every state it makes, in order (each is asked the goal once,
    # then forgotten), is one the plain search makes at the same point
    from damcheck import analysis
    from damcheck.checker import _Engine

    forget, asleep = _Engine.forget, analysis._asleep
    made = []

    def recording(self, state):
        made.append((state.adj, state.budgets))
        forget(self, state)

    slept = []

    def counting(parent, moved, options, solo):
        out = asleep(parent, moved, options, solo)
        slept.extend(out)
        return out

    monkeypatch.setattr(_Engine, "forget", recording)
    monkeypatch.setattr(analysis, "_asleep", counting)
    rng = random.Random(3101)
    kinds = {"no diffusion": 0, "diffusion": 0}
    found = 0
    for _ in range(400):
        mech = random_rational_market(rng, n_sellers=rng.randint(1, 3), n_buyers=rng.randint(2, 4))
        buyer_noms = sorted(n for n, a in mech.network.names.items() if a.kind == "buyer")
        goal = FALSE
        if rng.random() < 0.7:
            goal = desugar(
                Or(
                    Diamond(Nominal(rng.choice(buyer_noms))),
                    random_formula(rng, mech, depth=2, coalition=False),
                )
            )
        kinds["diffusion" if _has_diffusion(goal) else "no diffusion"] += 1
        query = StrategyQuery(mech, goal, max_depth=rng.choice([None, 1, 2, 3, 4]))
        want_stats, stats = CheckStats(), CheckStats()
        want, frontiers = reference_strategy_search(query, want_stats)
        made.clear()
        got = strategy_exists(query, stats)
        assert made == [state for frontier in frontiers for state in frontier]
        assert got == want
        assert stats.states_explored == want_stats.states_explored
        found += got.found
    assert min(kinds.values()) > 100 and 100 < found < 300
    assert len(slept) > 150


def test_sat_gadget_searches_apply_at_most_half_the_plain_search(monkeypatch):
    # 31 SAT gadgets of the shapes the benchmark draws: every shape up to 3
    # variables and 5 clauses, the cheap ones twice, a few wider ones, and
    # unsatisfiable cores over 2 and 3 variables. The search computes at most
    # half the successors the plain search computes, with the same answers
    # and states. Counted, not timed
    from damcheck import Mechanism
    from damcheck.model import _Arena

    rng = random.Random(3131)
    shapes = [(v, c) for v in (1, 2, 3) for c in range(1, 6)]
    shapes += [(v, c) for v in (1, 2, 3) for c in range(1, 4)]
    shapes += [(4, 1), (4, 2), (4, 3), (5, 1), (5, 2)]
    instances = [
        CnfInstance(
            nv,
            tuple(
                tuple(rng.choice([-1, 1]) * rng.randint(1, nv) for _ in range(3))
                for _ in range(nc)
            ),
        )
        for nv, nc in shapes
    ]
    instances += [
        CnfInstance(2, ((1, 2, 1), (1, -2, -2), (-1, 2, 2), (-1, -2, -1))),
        CnfInstance(3, ((1, 2, 2), (-1, -3, 3), (1, -2, 1), (-1, 3, -1))),
    ]
    update = _Arena.apply
    applied = []

    def counting(self, adj, budgets, action):
        applied.append(action)
        return update(self, adj, budgets, action)

    monkeypatch.setattr(_Arena, "apply", counting)
    plain = searched = 0
    for instance in instances:
        mech, goal = gen_sat_gadget(instance)
        want_stats, stats = CheckStats(), CheckStats()
        applied.clear()
        want, _ = reference_strategy_search(StrategyQuery(mech, goal), want_stats)
        plain += len(applied)
        applied.clear()
        got = strategy_exists(StrategyQuery(Mechanism(mech.network, mech.rule), goal), stats)
        searched += len(applied)
        assert got == want and got.found == sat_oracle(instance)
        assert stats.states_explored == want_stats.states_explored
    assert len(instances) == 31 and plain > 10_000
    assert searched <= plain // 2


# --- the goal's conjuncts are asked fail-first --------------------------------------


def _has_diffusion(node) -> bool:
    return any(type(n) is Diffuse for n in _distinct(node))


def _search(mech, goal, cap):
    stats = CheckStats()
    got = strategy_exists(StrategyQuery(mech, goal, max_depth=cap), stats)
    return got.found, got.witness, stats.states_explored


def test_strategy_answers_alike_in_every_order_of_the_conjuncts():
    # diffusion-free conjuncts, which the search reorders as they fail;
    # `!!goal` is one conjunct, asked as a whole in its written order
    rng = random.Random(2501)
    found = reordered = 0
    for _ in range(150):
        mech = random_mechanism(rng, max_sellers=3)
        buyer_noms = sorted(n for n, a in mech.network.names.items() if a.kind == "buyer")
        conjuncts = []
        while len(conjuncts) < rng.randint(2, 5):
            if rng.random() < 0.5:
                conjuncts.append(Diamond(Nominal(rng.choice(buyer_noms))))
                continue
            extra = random_formula(rng, mech, depth=rng.randint(0, 2))
            if not _has_diffusion(extra):
                conjuncts.append(extra)
        cap = rng.randint(1, 3)
        want = _search(mech, Not(Not(big_and(conjuncts))), cap)
        for k in range(len(conjuncts)):
            goal = big_and(conjuncts[k:] + conjuncts[:k])
            assert _search(mech, goal, cap) == want
        found += want[0]
        reordered += want[2] > 1 and len(conjuncts) > 2
    assert 20 < found < 130 and reordered > 40


def test_strategy_splits_a_shared_chain_of_conjunctions_in_linear_time():
    mech = referral_chain()
    befriend = Diamond(Nominal("gamma"))
    goal = befriend
    for _ in range(40):  # 2**40 paths to `befriend`
        goal = And(goal, goal)
    with time_limit(5, "a shared chain of 40 conjunctions was walked as a tree"):
        assert _search(mech, goal, None) == _search(mech, befriend, None)


def test_strategy_keeps_the_written_order_of_a_goal_with_a_diffusion():
    # such a goal builds states as it is asked, so asking its conjuncts in
    # another order, or not asking the rest once one fails, can change
    # states_explored (it does on 9 of these markets)
    rng = random.Random(2502)
    explored = found = 0
    for _ in range(400):
        mech = random_mechanism(rng, max_sellers=3)
        buyer_noms = sorted(n for n, a in mech.network.names.items() if a.kind == "buyer")
        diffusive = random_formula(rng, mech, depth=2)
        while not _has_diffusion(diffusive):
            diffusive = random_formula(rng, mech, depth=2)
        conjuncts = [diffusive] + [
            Diamond(Nominal(rng.choice(buyer_noms)))
            if rng.random() < 0.5
            else random_formula(rng, mech, depth=1)
            for _ in range(rng.randint(1, 3))
        ]
        rng.shuffle(conjuncts)
        cap = rng.randint(1, 3)
        goal = big_and(conjuncts)
        got = _search(mech, goal, cap)
        assert got == _search(mech, Not(Not(goal)), cap)
        found += got[0]
        explored += got[2]
    # recorded before the search asked conjuncts one by one
    assert (found, explored) == (61, 1100)


def test_successors_raise_the_friendship_and_money_potential():
    # a successor that is not its own state has more friendship bits, or the
    # same bits and strictly less money among the sellers; buyers never
    # befriend each other, so the reachable graph is acyclic but for
    # self-loops
    from damcheck.model import _Arena

    rng = random.Random(42)
    moved = 0
    for _ in range(100):
        mech = random_rational_market(rng, n_sellers=rng.randint(1, 3), n_buyers=rng.randint(2, 4))
        arena = _Arena(mech)
        mask = arena.buyer_mask
        buyers_of = [row & mask for row in arena.adj0[len(arena.seller_ids) :]]

        def potential(adj, budgets):
            bits = sum(bin(row).count("1") for row in adj)
            return bits, -sum(budgets[s] for s in arena.seller_ids)

        seen = {(arena.adj0, arena.budget0)}
        frontier = list(seen)
        for _ in range(3):
            upcoming = []
            for adj, budgets in frontier:
                options = [arena.options(adj, budgets, s) for s in arena.seller_ids]
                for action in itertools.product(*options):
                    new = arena.apply(adj, budgets, action)
                    if new == (adj, budgets):
                        continue
                    moved += 1
                    assert potential(*new) > potential(adj, budgets)
                    assert [row & mask for row in new[0][len(arena.seller_ids) :]] == buyers_of
                    if new not in seen:
                        seen.add(new)
                        upcoming.append(new)
            frontier = upcoming
    assert moved > 2000
