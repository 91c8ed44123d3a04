"""Checker semantics: worked-network suites, duality, vacuity, coalitions."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from damcheck import (
    SKIP,
    NeQuery,
    check,
    check_ne_direct,
    check_strategic,
    parse_formula,
    strategy_exists,
    translate,
)
from damcheck.analysis import StrategyQuery
from damcheck.checker import CheckQuery, CheckStats, _Engine
from damcheck.errors import (
    CoalitionOperatorError,
    DamError,
    UnknownAgentError,
    UnknownNominalError,
)
from damcheck.formula import (
    SELF,
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
    Iff,
    Implies,
    Nominal,
    Not,
    Truth,
    UtilityTerm,
    big_and,
    desugar,
)
from damcheck.gadgets import gen_qbf_gadget, read_qdimacs
from damcheck.model import action_precondition, apply_joint_action, buyer, joint_action

from helpers import (
    referral_chain,
    time_limit,
    two_seller_market,
    cooperative_goal,
    odd_degree_rule,
    random_action,
    random_formula,
    random_mechanism,
    random_rational_market,
)
from reference import reference_check


def at(mechanism, ident):
    agent = mechanism.network.agent_by_id(ident)
    assert agent is not None
    return agent


def run(mechanism, ident, text):
    return check(CheckQuery(mechanism, at(mechanism, ident), parse_formula(text)))


def run_strategic(mechanism, ident, form):
    if isinstance(form, str):
        form = parse_formula(form)
    return check_strategic(CheckQuery(mechanism, at(mechanism, ident), form))


# --- the one-seller referral chain ----------------------------------------------


def test_referral_improves_seller():
    assert run(
        referral_chain(),
        "a",
        "ut[sigma] = 7 & wins(beta) & <sigma:alpha>(ut[sigma] = 9 & wins(gamma))",
    )


def test_two_referrals_unaffordable():
    assert run(referral_chain(), "a", "!<sigma:alpha><sigma:gamma>(ut[sigma] > 9)")


def test_wrong_constant_fails():
    assert not run(referral_chain(), "a", "ut[sigma] = 8")


# --- the two-seller market ------------------------------------------------------


def test_market_static_state():
    assert run(two_seller_market(), "s1", "ut[sigma1] = 2 & ut[sigma2] = 2 & wins(alpha) & wins(gamma)")


def test_market_joint_diffusion_improves_both():
    assert run(two_seller_market(), "s1", "[sigma1:delta, sigma2:gamma](ut[sigma1] > 2 & ut[sigma2] > 2)")


def test_cooperative_goal_valid_after_coordinated_action():
    mech = two_seller_market()
    # before any diffusion the goal already fails at d
    assert not check(CheckQuery(mech, at(mech, "d"), desugar(cooperative_goal())))
    goal = Diffuse(
        (("sigma1", "delta"), ("sigma2", "gamma")), cooperative_goal()
    )
    for agent in mech.network.agents():
        assert check(CheckQuery(mech, agent, goal))


def test_cooperative_goal_fails_at_d_after_selfish_action():
    mech = two_seller_market()
    goal = Diffuse(
        (("sigma1", "alpha"), ("sigma2", "gamma")), cooperative_goal()
    )
    assert not check(CheckQuery(mech, at(mech, "d"), goal))


def test_market_dominance_under_every_counter_action():
    mech = two_seller_market()
    body = parse_formula("ut[sigma1] > ut[sigma2]")
    conjuncts = []
    options = [mech.network.canonical_name(b) for b in sorted(mech.network.buyers)]
    for target in options + [SKIP]:
        conjuncts.append(
            Diffuse((("sigma1", "alpha"), ("sigma2", target)), body)
        )
    assert check(CheckQuery(mech, at(mech, "s1"), big_and(conjuncts)))


# --- generic semantics -----------------------------------------------------------


def test_skip_action_is_identity_modulo_check():
    mech = referral_chain()
    for text in ("wins(beta)", "ut[sigma] >= 7", "[] wins(@self)"):
        plain = run(mech, "a", text)
        skipped = run(mech, "a", f"[sigma:skip] ({text})")
        assert plain == skipped


def test_diffuse_box_vacuous_and_diamond_false_when_infeasible():
    mech = referral_chain()
    # gamma is not a friend of the seller yet, so the action is infeasible
    assert run(mech, "a", "[sigma:gamma] false")
    assert not run(mech, "a", "<sigma:gamma> true")


def test_diffuse_duality_random():
    rng = random.Random(99)
    hits = 0
    for _ in range(150):
        mech = random_mechanism(rng)
        action = random_action(rng, mech)
        bindings = tuple(
            (mech.network.canonical_name(s), t) for s, t in action.entries
        )
        body = random_formula(rng, mech, depth=1)
        agent = rng.choice(mech.network.agents())
        diamond = check(
            CheckQuery(mech, agent, desugar(DiffuseDiamond(bindings, body)))
        )
        # independently recomputed: feasible and body holds after the update
        feasible = action_precondition(mech, action)
        if feasible:
            hits += 1
            direct = check(
                CheckQuery(apply_joint_action(mech, action), agent, desugar(body))
            )
        else:
            direct = False
        assert diamond == direct
        box = check(CheckQuery(mech, agent, desugar(Diffuse(bindings, Not(body)))))
        assert box == (not direct if feasible else True)
    assert hits > 20  # the sample exercised the feasible branch


def test_check_rejects_coalitions_and_unknowns():
    mech = referral_chain()
    with pytest.raises(CoalitionOperatorError):
        run(mech, "a", "[<sigma>] wins(beta)")
    # a coalition under sugar that was never desugared
    nested = Implies(Nominal("alpha"), CoalitionDiamond(frozenset({"sigma"}), Truth()))
    with pytest.raises(CoalitionOperatorError):
        check(CheckQuery(mech, at(mech, "a"), nested))
    with pytest.raises(UnknownNominalError):
        run(mech, "a", "wins(zeta)")
    with pytest.raises(UnknownAgentError):
        check(CheckQuery(mech, buyer("nobody"), parse_formula("true")))


def test_strategic_agrees_with_plain_on_coalition_free():
    rng = random.Random(1234)
    for _ in range(60):
        mech = random_mechanism(rng)
        form = desugar(random_formula(rng, mech, depth=2, coalition=False))
        agent = rng.choice(mech.network.agents())
        q = CheckQuery(mech, agent, form)
        assert check(q) == check_strategic(q)


def test_empty_coalition_operators():
    mech = referral_chain()
    # [<>] body: the remaining sellers have SOME feasible action realising body
    assert run_strategic(mech, "a", CoalitionBox(frozenset(), Heart("gamma")))
    assert not run_strategic(mech, "a", CoalitionBox(frozenset(), Heart("delta")))
    # <[]> body: body holds after EVERY feasible counter-action; incentivising
    # alpha makes gamma win instead of beta, falsifying the universal reading
    assert not run_strategic(mech, "a", CoalitionDiamond(frozenset(), Heart("beta")))
    assert run_strategic(
        mech, "a", CoalitionDiamond(frozenset(), parse_formula("ut[sigma] >= 7"))
    )


def test_market_dominance_as_coalition_diamond():
    # the per-counter-action conjunction has a strategic counterpart: sigma1
    # alone has a choice (alpha) that wins against every response
    mech = two_seller_market()
    form = CoalitionDiamond(
        frozenset({"sigma1"}), parse_formula("ut[sigma1] > ut[sigma2]")
    )
    assert run_strategic(mech, "s1", desugar(form))


def test_grand_coalition_diamond_referral_chain():
    # the seller can make gamma win: incentivise alpha
    mech = referral_chain()
    assert run_strategic(
        mech, "a", CoalitionDiamond(frozenset({"sigma"}), Heart("gamma"))
    )
    # but cannot make delta win (never reachable on budget 5)
    assert not run_strategic(
        mech, "a", CoalitionDiamond(frozenset({"sigma"}), Heart("delta"))
    )


def test_coalition_validities_random():
    rng = random.Random(31337)
    for _ in range(60):
        mech = random_mechanism(rng)
        net = mech.network
        seller_noms = sorted(net.canonical_name(s) for s in net.sellers)
        body = random_formula(rng, mech, depth=1, coalition=False)
        body2 = random_formula(rng, mech, depth=1, coalition=False)
        agent = rng.choice(net.agents())
        small = frozenset(n for n in seller_noms if rng.random() < 0.5)
        union = small | frozenset(n for n in seller_noms if rng.random() < 0.5)

        def truth(form):
            return check_strategic(CheckQuery(mech, agent, desugar(form)))

        # monotonicity of coalition power
        if truth(CoalitionDiamond(small, body)):
            assert truth(CoalitionDiamond(union, body))
        # empty-box implies grand-coalition diamond
        if truth(CoalitionBox(frozenset(), body)):
            assert truth(CoalitionDiamond(frozenset(seller_noms), body))
        # achieving a conjunction implies achieving each conjunct
        if truth(CoalitionDiamond(small, And(body, body2))):
            assert truth(CoalitionDiamond(small, body))


def test_box_over_friends_includes_sellers():
    # friendship is symmetric across kinds: a buyer's neighbourhood contains
    # the sellers she participates with, so modalities can look back at them
    mech = referral_chain()
    assert run(mech, "a", "<> sigma")
    assert not run(mech, "c", "<> sigma")
    assert run(mech, "a", "<sigma:alpha> [] !sigma | true")  # parses and runs
    after = apply_joint_action(
        mech, __import__("damcheck").joint_action(mech.network, {"s": "alpha"})
    )
    assert check(CheckQuery(after, at(after, "c"), parse_formula("<> sigma")))


def test_two_seller_search_respects_incentive_competition():
    # only the hub's winning seller absorbs the leaf; a passive seller never
    # blocks a referral, so sB reaches the leaf by having sA skip, unless she
    # cannot afford the hub's demand at all
    def build(sb_budget, sb_incentive):
        from damcheck import mechanism_from_dict

        return mechanism_from_dict(
            {
                "sellers": [
                    {"id": "sA", "names": ["sigA"], "budget": 1},
                    {"id": "sB", "names": ["sigB"], "budget": sb_budget},
                ],
                "buyers": [
                    {"id": "h", "names": ["hub"], "budget": 1, "valuation": 1,
                     "incentives": {"sA": 1, "sB": sb_incentive}},
                    {"id": "leaf", "names": ["leafname"], "budget": 0,
                     "valuation": 0},
                ],
                "edges": [["sA", "h"], ["sB", "h"], ["h", "leaf"]],
                "rule": "smf",
            }
        )

    from damcheck import strategy_exists
    from damcheck.analysis import StrategyQuery

    goal = parse_formula("sigB -> <> leafname")
    affordable = strategy_exists(StrategyQuery(build(1, 1), goal, max_depth=4))
    assert affordable.found
    # the witness must leave sA out of the hub (a tie would hand it to sA)
    step = affordable.witness[0]
    targets = {s.id: t for s, t in step.entries}
    assert targets["sB"] == "hub"
    assert targets["sA"] is not targets["sB"]

    # sB cannot pay what the hub demands from her: the leaf stays out of reach
    priced_out = strategy_exists(StrategyQuery(build(1, 2), goal, max_depth=4))
    assert not priced_out.found


def test_extra_names_never_change_truth():
    # naming is many-to-one; decorating agents with fresh aliases must leave
    # every judgement untouched
    from dataclasses import replace

    from damcheck import Mechanism

    rng = random.Random(13579)
    for _ in range(40):
        mech = random_mechanism(rng)
        net = mech.network
        extra = dict(net.names)
        for index, who in enumerate(net.agents()):
            if rng.random() < 0.6:
                extra[f"spare{index}"] = who
        decorated = Mechanism(replace(net, names=extra), mech.rule)
        form = desugar(random_formula(rng, mech, depth=2, coalition=True))
        anyone = rng.choice(net.agents())
        assert check_strategic(CheckQuery(mech, anyone, form)) == check_strategic(
            CheckQuery(decorated, anyone, form)
        )


def test_stats_counts_updates():
    mech = referral_chain()
    stats = CheckStats()
    check(
        CheckQuery(mech, at(mech, "a"), parse_formula("<sigma:alpha> wins(gamma)")),
        stats,
    )
    assert stats.agents == 5
    assert stats.states_explored >= 1


def test_states_explored_counts_distinct_states():
    mech = referral_chain()
    for form, built in [("wins(beta) & [] ut[@self] >= 0", 1), ("<sigma:alpha> wins(gamma)", 2)]:
        for query in (check, check_strategic):
            stats = CheckStats()
            query(CheckQuery(mech, at(mech, "a"), parse_formula(form)), stats)
            assert stats.states_explored == built
    stats = CheckStats()
    strategy_exists(StrategyQuery(mech, parse_formula("wins(beta)")), stats)
    assert stats.states_explored == 1


def _entry_points():
    from damcheck import check_ne_direct, joint_action
    from damcheck.analysis import NeQuery

    market = two_seller_market()
    net = market.network
    d = net.agent_by_id("d")
    boxes = parse_formula("[] <sigma1:alpha, sigma2:gamma> <sigma1:beta> ut[sigma1] >= 2")
    coalitions = parse_formula("<[sigma1]> <[sigma2]> (wins(alpha) | wins(delta))")
    profile = (joint_action(net, {"s1": "delta", "s2": "gamma"}), joint_action(net, {}))
    return [
        (check, CheckQuery(market, d, boxes), 2),
        (check_strategic, CheckQuery(market, d, coalitions), 4),
        (strategy_exists, StrategyQuery(market, parse_formula("wins(alpha) & wins(beta)")), 8),
        (check_ne_direct, NeQuery(market, profile), 3),
    ]


@pytest.mark.parametrize("index", range(4), ids=["check", "strategic", "strategy", "ne"])
def test_every_entry_point_reports_its_own_elapsed_time(index):
    # the query times itself, so a library caller gets elapsed_ms too; the
    # counts are those the queries reported before they timed themselves
    entry, query, states = _entry_points()[index]
    stats = CheckStats()
    entry(query, stats)
    assert (stats.agents, stats.states_explored) == (8, states)
    assert stats.elapsed_ms > 0


def test_forget_drops_a_states_memo_and_allocation():
    from damcheck.checker import _Engine

    mech = referral_chain()
    engine = _Engine(mech)
    compiled = engine.compile(parse_formula("wins(beta) & [] ut[@self] >= 0"))
    a = 1 << engine.arena.index[at(mech, "a")]
    root = engine.root
    answer = compiled(root, a)
    assert root.memo and root.alloc is not None
    engine.forget(root)
    assert root.memo == {} and root.alloc is None
    assert engine.state((root.adj, root.budgets)) is root
    assert compiled(root, a) == answer != 0


def test_deep_formulas_are_still_answered():
    mech = referral_chain()
    assert run(mech, "a", "!" * 900 + "true")
    assert run(mech, "a", "<sigma:skip> " * 300 + "true")


def test_compile_walks_a_shared_chain_once_per_node():
    # Iff shares its operands, so 200 levels have a few distinct nodes each
    # but 2**200 paths from the root: a walk as a tree would never end, and
    # the timer turns that into a failure
    import signal

    from damcheck.checker import _Engine

    mech = referral_chain()
    chain = Nominal("alpha")
    for _ in range(200):
        chain = Iff(chain, Nominal("beta"))

    def expire(signum, frame):
        raise TimeoutError("compile walked the shared chain as a tree")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        _Engine(mech).compile(chain)
        # alpha holds at a and beta does not, so the chain alternates
        assert check(CheckQuery(mech, at(mech, "a"), chain))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _alpha_chain(levels):
    # each level of a parsed <-> chain asks the level below twice, and alpha
    # holds at a, so no conjunction cuts a path short
    return parse_formula("alpha" + " <-> alpha" * levels)


def test_shared_conjunctions_run_once_per_state(monkeypatch):
    # a conjunction the chain shares as an object is memoised per state, so
    # its closure runs a fixed number of times per level; evaluated once per
    # path, 40 levels would never end, and the timer turns that into a failure
    from damcheck import checker

    mech = referral_chain()
    real_and = checker._and
    calls = 0

    def counting_and(*args):
        conj = real_and(*args)

        def counted(state, need):
            nonlocal calls
            calls += 1
            return conj(state, need)

        return counted

    monkeypatch.setattr(checker, "_and", counting_and)
    counts = {}
    with time_limit(5, "a shared conjunction ran once per path"):
        for levels in (10, 20, 40):
            calls = 0
            assert check(CheckQuery(mech, at(mech, "a"), _alpha_chain(levels)))
            counts[levels] = calls
    assert counts[20] == 2 * counts[10] and counts[40] == 4 * counts[10]


def test_a_200_level_chain_answers_within_a_second():
    mech = referral_chain()
    chain = _alpha_chain(200)
    with time_limit(1, "check of a 200-level <-> chain took over a second"):
        assert check(CheckQuery(mech, at(mech, "a"), chain))


def _pool_dag(rng, mech):
    """A core formula built bottom-up from a pool, each new node taking its
    children from the whole pool, so that a node, conjunctions included,
    is often reached from several parents."""
    net = mech.network
    sellers = sorted(net.canonical_name(s) for s in net.sellers)
    buyers = sorted(net.canonical_name(b) for b in net.buyers)
    pool = [desugar(random_formula(rng, mech, depth=0)) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(3, 9)):
        roll = rng.random()
        if roll < 0.4:
            node = And(rng.choice(pool), rng.choice(pool))
        elif roll < 0.6:
            node = Not(rng.choice(pool))
        elif roll < 0.75:
            node = Box(rng.choice(pool))
        elif roll < 0.9:
            bindings = tuple(
                (s, rng.choice([*buyers, SKIP])) for s in sellers if rng.random() < 0.7
            )
            node = Diffuse(bindings or ((sellers[0], SKIP),), rng.choice(pool))
        else:
            members = frozenset(s for s in sellers if rng.random() < 0.6)
            node = CoalitionBox(members, rng.choice(pool))
        pool.append(node)
    return pool[-1]


def test_shared_dags_match_reference_at_partial_needs():
    # one engine asked about random groups of agents and about each agent,
    # shuffled together, then about everyone, so memoised conjunctions and
    # boxes are often only partly decided when a later ask reaches them
    from damcheck.checker import _Engine

    rng = random.Random(4242)
    for _ in range(120):
        mech = random_rational_market(rng, n_sellers=rng.randint(1, 3))
        form = _pool_dag(rng, mech)
        engine = _Engine(mech)
        want = 0
        for agent in mech.network.agents():
            want |= reference_check(mech, agent, form) << engine.arena.index[agent]
        compiled = engine.compile(form)
        everyone = (1 << engine.width) - 1
        asks = [rng.randrange(everyone + 1) for _ in range(4)]
        asks += [1 << i for i in range(engine.width)]
        rng.shuffle(asks)
        for need in [*asks, everyone]:
            assert compiled(engine.root, need) == want & need


def _nominal_box(rng, mech, depth, named):
    """`<>n`, `[] !n`, `<>(n & g)` or `[](n -> g)`, negated or not, where n
    names any agent and g is a diffusion, `wins(@self)`, `ut[@self] >= c`
    or, above depth 0, another such formula. Each n's agent is appended to
    named."""
    net = mech.network
    sellers = sorted(net.canonical_name(s) for s in net.sellers)
    buyers = sorted(net.canonical_name(b) for b in net.buyers)
    agent = rng.choice(sorted(net.agents()))
    named.append(agent)
    n = Nominal(net.canonical_name(agent))

    def guard(d):
        roll = rng.random()
        if roll < 0.15:
            return Heart(SELF)
        if roll < 0.3:
            bound = Fraction(rng.randint(0, 4), 2)
            return Compare(">=", ((Fraction(1), UtilityTerm(SELF)),), bound)
        if d and roll < 0.55:
            return _nominal_box(rng, mech, d - 1, named)
        bindings = tuple(
            (s, rng.choice([*buyers, SKIP])) for s in sellers if rng.random() < 0.7
        )
        bindings = bindings or ((sellers[0], rng.choice(buyers)),)
        diffusion = Diffuse if rng.random() < 0.5 else DiffuseDiamond
        return diffusion(bindings, guard(d))

    shape = rng.randrange(4)
    if shape == 0:
        form = Diamond(n)
    elif shape == 1:
        form = Box(Not(n))
    elif shape == 2:
        form = Diamond(And(n, guard(depth)))
    else:
        form = Box(Implies(n, guard(depth)))
    return Not(form) if rng.random() < 0.3 else form


# the states each market's pool built over every check, recorded with the
# generic friendship box, before `[] !n` and `[] !(n & g)` had kernels
_NOMINAL_BOX_STATES = [
    26, 19, 24, 36, 30, 30, 30, 30, 26, 24, 47, 24, 30, 42, 18, 36, 30, 31, 24, 24, 24,
    30, 30, 42, 36, 18, 30, 35, 42, 24, 30, 38, 19, 32, 50, 24, 36, 30, 24, 33, 30, 30,
    36, 36, 36, 30, 18, 19, 18, 30, 30, 24, 42, 37, 42, 30, 30, 36, 36, 36, 39, 24, 40,
    24, 18, 25, 26, 34, 30, 42, 18, 24, 30, 30, 30, 31, 33, 30, 45, 24,
]


def test_nominal_guarded_boxes_match_reference_and_build_the_same_states():
    # `[] !n` fails at n's friends and `[] !(n & g)` asks g at n alone: both
    # read friendship from n's row, which is sound since it is symmetric
    from damcheck.checker import _Engine

    rng = random.Random(2929)
    built = []
    # how often a nominal names the asked agent, a seller, or a friendless agent
    named_kinds = {"self": 0, "seller": 0, "friendless": 0}
    for _ in range(80):
        n_sellers, n_buyers = rng.randint(1, 3), rng.randint(2, 4)
        mech = random_rational_market(rng, n_sellers, n_buyers)
        net = mech.network
        states = 0
        for _ in range(6):
            named = []
            form = _nominal_box(rng, mech, rng.randint(0, 2), named)
            named_kinds["seller"] += any(a in net.sellers for a in named)
            named_kinds["friendless"] += any(not net.friends_of(a) for a in named)
            engine = _Engine(mech)
            want = 0
            for agent in net.agents():
                named_kinds["self"] += agent in named
                stats = CheckStats()
                holds = check(CheckQuery(mech, agent, form), stats)
                assert holds == reference_check(mech, agent, form)
                states += stats.states_explored
                want |= holds << engine.arena.index[agent]
            compiled = engine.compile(form)
            everyone = (1 << engine.width) - 1
            for need in [rng.randrange(everyone + 1) for _ in range(4)] + [everyone]:
                assert compiled(engine.root, need) == want & need
        built.append(states)
    assert min(named_kinds.values()) >= 20
    assert built == _NOMINAL_BOX_STATES


def _guarded_conjuncts(rng, mech):
    """`[](!(n1 & g1) & ... & !(nk & gk))`, k from 1 to 4, and its twin
    `[]((...) & true)`, which the general box answers; either may be
    negated, the diamond `<>(n1 & g1 | ...)`. Each leaf may be written
    `n -> g'` instead, each n names any agent, and each g is `wins(@self)`,
    `ut[@self] >= c`, a random formula, or a diffusion of one."""
    net = mech.network
    sellers = sorted(net.canonical_name(s) for s in net.sellers)
    buyers = sorted(net.canonical_name(b) for b in net.buyers)

    def guard():
        roll = rng.random()
        if roll < 0.15:
            return Heart(SELF)
        if roll < 0.3:
            bound = Fraction(rng.randint(0, 4), 2)
            return Compare(">=", ((Fraction(1), UtilityTerm(SELF)),), bound)
        if roll < 0.55:
            return random_formula(rng, mech, depth=1)
        bindings = tuple(
            (s, rng.choice([*buyers, SKIP])) for s in sellers if rng.random() < 0.7
        )
        bindings = bindings or ((sellers[0], rng.choice(buyers)),)
        diffusion = Diffuse if rng.random() < 0.5 else DiffuseDiamond
        return diffusion(bindings, guard())

    leaves = []
    for _ in range(rng.randint(1, 4)):
        n = Nominal(net.canonical_name(rng.choice(sorted(net.agents()))))
        g = guard()
        leaves.append(Implies(n, g) if rng.random() < 0.3 else Not(And(n, g)))
    if rng.random() < 0.5:
        child = big_and(leaves)
    else:
        child = leaves[0]
        for leaf in leaves[1:]:
            child = And(child, leaf)
    form, twin = Box(child), Box(And(child, TRUE))
    if rng.random() < 0.5:
        form, twin = Not(form), Not(twin)
    return form, twin


def test_boxes_over_guarded_conjuncts_match_reference_and_build_no_more_states():
    # `[](!(n1 & g1) & !(n2 & g2))` is `[]!(n1 & g1) & []!(n2 & g2)`: each g
    # is asked at its n alone, and only where an asked agent is still open
    from damcheck.checker import _Engine

    rng = random.Random(3131)
    diffusive = fewer = 0
    for _ in range(60):
        mech = random_rational_market(rng, rng.randint(1, 3), rng.randint(2, 4))
        net = mech.network
        for _ in range(5):
            form, twin = _guarded_conjuncts(rng, mech)
            diffusive += "Diffuse" in repr(form)
            engine = _Engine(mech)
            want = built = twin_built = 0
            for agent in net.agents():
                stats, twin_stats = CheckStats(), CheckStats()
                holds = check(CheckQuery(mech, agent, form), stats)
                assert holds == reference_check(mech, agent, form)
                assert holds == check(CheckQuery(mech, agent, twin), twin_stats)
                built += stats.states_explored
                twin_built += twin_stats.states_explored
                want |= holds << engine.arena.index[agent]
            assert built <= twin_built
            fewer += built < twin_built
            compiled = engine.compile(form)
            everyone = (1 << engine.width) - 1
            for need in [rng.randrange(everyone + 1) for _ in range(4)] + [everyone]:
                assert compiled(engine.root, need) == want & need
    assert diffusive > 100 and fewer > 10


def test_a_box_over_a_negated_nominal_keeps_no_memo():
    # `[] !n` is one mask operation, cheaper than a memo lookup
    from damcheck.checker import _Engine

    engine = _Engine(referral_chain())
    everyone = (1 << engine.width) - 1
    engine.compile(parse_formula("<> beta & [] !gamma"))(engine.root, everyone)
    assert engine.root.memo == {}
    engine.compile(parse_formula("<> (beta | gamma)"))(engine.root, everyone)
    assert engine.root.memo


def _kernel_boundaries(rng, mech):
    """Formulas just inside and just outside each friendship-box kernel,
    and a nominal conjunction outside any box, each negated at random.
    Every n and m names any agent; every g and h is a diffusion,
    `wins(@self)` or `ut[@self] >= c`."""
    net = mech.network
    sellers = sorted(net.canonical_name(s) for s in net.sellers)
    buyers = sorted(net.canonical_name(b) for b in net.buyers)
    agents = sorted(net.agents())

    def nom():
        return Nominal(net.canonical_name(rng.choice(agents)))

    def guard(depth=1):
        roll = rng.random()
        if roll < 0.3:
            return Heart(SELF)
        if roll < 0.6 or not depth:
            bound = Fraction(rng.randint(0, 4), 2)
            return Compare(">=", ((Fraction(1), UtilityTerm(SELF)),), bound)
        bindings = tuple(
            (s, rng.choice([*buyers, SKIP])) for s in sellers if rng.random() < 0.7
        )
        bindings = bindings or ((sellers[0], rng.choice(buyers)),)
        diffusion = Diffuse if rng.random() < 0.5 else DiffuseDiamond
        return diffusion(bindings, guard(depth - 1))

    forms = [
        And(nom(), guard()),  # no box: a nominal on the left of `&`
        And(guard(), nom()),
        Box(Not(And(nom(), guard()))),  # inside `[] !(n & g)`
        Box(Not(And(guard(), nom()))),  # the nominal on the right
        Box(And(Not(And(nom(), guard())), Not(And(nom(), guard())))),  # inside
        Box(And(Not(And(nom(), guard())), guard())),  # h is not guarded
        Box(And(Not(nom()), Not(And(nom(), guard())))),  # `!n` is no `!(n & g)`
        Box(Not(Not(nom()))),  # `!!n` is n
        Box(Box(Not(nom()))),  # a general box over `[] !n`
        Box(Not(And(nom(), nom()))),  # g is a nominal
    ]
    return [Not(form) if rng.random() < 0.3 else form for form in forms]


# the states each market's formulas built over every check, recorded before
# the compile walk picked each box's kernel
_KERNEL_BOUNDARY_STATES = [
    30, 63, 30, 62, 30, 60, 60, 30, 70, 50, 66, 52, 33, 60, 50, 60, 66, 60, 70, 60, 51,
    60, 50, 79, 30, 50, 50, 63, 55, 50, 41, 60, 59, 51, 40, 70, 70, 54, 60, 30, 60, 50,
    57, 57, 50, 73, 44, 30, 60, 56,
]


def test_formulas_at_the_kernel_boundaries_match_reference_and_build_the_same_states():
    from damcheck.checker import _Engine

    rng = random.Random(3232)
    built = []
    diffusive = 0
    for _ in range(50):
        mech = random_rational_market(rng, rng.randint(1, 3), rng.randint(2, 4))
        net = mech.network
        states = 0
        for form in _kernel_boundaries(rng, mech):
            diffusive += "Diffuse" in repr(form)
            engine = _Engine(mech)
            want = 0
            for agent in net.agents():
                stats = CheckStats()
                holds = check(CheckQuery(mech, agent, form), stats)
                assert holds == reference_check(mech, agent, form)
                states += stats.states_explored
                want |= holds << engine.arena.index[agent]
            compiled = engine.compile(form)
            everyone = (1 << engine.width) - 1
            for need in [rng.randrange(everyone + 1) for _ in range(4)] + [everyone]:
                assert compiled(engine.root, need) == want & need
        built.append(states)
    assert diffusive > 100
    assert built == _KERNEL_BOUNDARY_STATES


@pytest.mark.parametrize(
    "text, entry",
    [
        ("[] wins(@self)", -1),
        ("[] !wins(@self)", -1),
        ("[] !(beta & wins(@self))", -1),
        ("[sigma:alpha] wins(@self)", -1),
        ("[<sigma>] wins(@self)", -1),
        # the parser shares the repeated group as one object
        ("(wins(@self) & ut[@self] >= 1) & (wins(@self) & ut[@self] >= 1)", -2),
        ("[] !beta", None),
        ("wins(@self) & ut[@self] >= 1", None),
    ],
)
def test_which_nodes_leave_a_memo_entry(text, entry):
    # the modal nodes but `[] !n`, and the conjunctions a formula shares as
    # objects, leave an entry under their serial at the state they are
    # asked at; the top node of a formula is its last serial, the shared
    # conjunction of `c & c` the one before it
    from damcheck.checker import _Engine

    engine = _Engine(referral_chain())
    engine.compile(parse_formula(text))(engine.root, (1 << engine.width) - 1)
    want = set() if entry is None else {len(engine.keys) + entry}
    assert set(engine.root.memo) == want


def test_too_deep_formula_is_a_dam_error():
    mech = referral_chain()
    form = TRUE
    for _ in range(5000):
        form = Not(form)
    for query in (check, check_strategic):
        with pytest.raises(DamError):
            query(CheckQuery(mech, at(mech, "a"), form))
    with pytest.raises(DamError):
        strategy_exists(StrategyQuery(mech, form))


def test_check_strategic_matches_reference_evaluator():
    # several sellers, non-zero incentives and non-integer money, against the
    # recursion over Mechanism values
    rng = random.Random(2718)
    for _ in range(100):
        mech = random_rational_market(rng, n_sellers=rng.randint(2, 3))
        form = desugar(random_formula(rng, mech, depth=2, coalition=True))
        for agent in mech.network.agents():
            assert check_strategic(CheckQuery(mech, agent, form)) == reference_check(
                mech, agent, form
            )


def _stack_negations(rng, node):
    """The formula with a stack of 0 to 4 negations put on each node."""
    kind = type(node)
    if kind is Not or kind is Box:
        node = kind(_stack_negations(rng, node.child))
    elif kind is And:
        node = And(_stack_negations(rng, node.left), _stack_negations(rng, node.right))
    elif kind is Diffuse:
        node = Diffuse(node.bindings, _stack_negations(rng, node.child))
    elif kind is CoalitionBox:
        node = CoalitionBox(node.coalition, _stack_negations(rng, node.child))
    for _ in range(rng.choice([0, 0, 1, 2, 3, 4])):
        node = Not(node)
    return node


def test_stacked_negations_match_reference_evaluator():
    # `!!f` compiles to f's closure: odd and even stacks of `!` on every
    # kind of node, under friendship boxes, diffusions and coalitions
    rng = random.Random(1313)
    for _ in range(60):
        mech = random_rational_market(rng, n_sellers=rng.randint(1, 3))
        coalition = rng.random() < 0.5
        form = _stack_negations(rng, random_formula(rng, mech, depth=2, coalition=coalition))
        query = check_strategic if coalition else check
        for agent in mech.network.agents():
            assert query(CheckQuery(mech, agent, form)) == reference_check(mech, agent, form)
    chain = referral_chain()
    for text, holds in [
        ("!!!! [] !! wins(@self) | !!! <sigma:alpha> !! wins(gamma)", False),
        ("!! <> !!! <> !! delta", True),
        ("!!! [sigma:alpha] !! ut[sigma] = 9", False),
        ("!! <[sigma]> !!! ! [] !!!! ut[@self] >= 0", True),
    ]:
        form = parse_formula(text)
        assert run_strategic(chain, "a", form) == reference_check(chain, at(chain, "a"), form) == holds


def test_labelling_merges_partly_known_memos():
    # one engine asked about agents in shuffled order and in random groups
    # reuses memo entries that decide only some agents; every answer must
    # hold the bits of a fresh engine per agent, which `check_strategic`
    # gives and the reference confirms
    from damcheck.checker import _Engine

    rng = random.Random(8086)
    for _ in range(150):
        mech = random_rational_market(rng, n_sellers=rng.randint(2, 3))
        form = desugar(random_formula(rng, mech, depth=2, coalition=True))
        shared = _Engine(mech)
        want = 0
        for agent in mech.network.agents():
            holds = check_strategic(CheckQuery(mech, agent, form))
            assert holds == reference_check(mech, agent, form)
            want |= holds << shared.arena.index[agent]
        compiled = shared.compile(form)
        everyone = (1 << shared.width) - 1
        asks = [1 << i for i in range(shared.width)]
        rng.shuffle(asks)
        asks += [rng.randrange(everyone + 1) for _ in range(4)] + [everyone]
        for need in asks:
            assert compiled(shared.root, need) == want & need


def test_formulas_compiled_on_one_engine_share_its_memos_safely():
    # three formulas compiled on one engine share its serial numbering, so
    # a memo one of them leaves in a state is never read by another under a
    # colliding serial; every answer, asked in shuffled order, must be the
    # reference's
    from damcheck.checker import _Engine

    rng = random.Random(12)
    for _ in range(60):
        mech = random_rational_market(rng, n_sellers=rng.randint(2, 3))
        forms = [random_formula(rng, mech, depth=2, coalition=True) for _ in range(3)]
        engine = _Engine(mech)
        compiled = [engine.compile(form) for form in forms]
        asks = [
            (k, agent) for k in range(len(forms)) for agent in mech.network.agents()
        ]
        rng.shuffle(asks)
        for k, agent in asks:
            got = compiled[k](engine.root, 1 << engine.arena.index[agent]) != 0
            assert got == reference_check(mech, agent, forms[k])


def test_registered_rule_drives_wins_and_utility_atoms():
    from damcheck import Mechanism, auction

    auction.register_rule("odd-degree", odd_degree_rule)
    try:
        rng = random.Random(1729)
        fixed = parse_formula(
            "[] (wins(@self) | ut[@self] >= 2) & [sig1:bet1] (wins(@self) -> <> true)"
        )
        for _ in range(30):
            plain = random_rational_market(rng, n_sellers=rng.randint(1, 3))
            mech = Mechanism(plain.network, "odd-degree")
            forms = [fixed, desugar(random_formula(rng, mech, depth=2))]
            for form in forms:
                for agent in mech.network.agents():
                    assert check(CheckQuery(mech, agent, form)) == reference_check(
                        mech, agent, form
                    )
    finally:
        auction._RULES.pop("odd-degree", None)


def test_constant_atoms_run_no_auction():
    from damcheck import Mechanism, auction

    calls = []

    def counting(net):
        calls.append(net)
        return auction.smf_evaluate(net)

    auction.register_rule("counting", counting)
    try:
        mech = Mechanism(referral_chain().network, "counting")
        for text in ("true", "<sigma:alpha> true", "[] [] true", "!false"):
            assert run(mech, "a", text)
        assert calls == []
        assert not run(mech, "a", "[] false")
        assert calls == []
    finally:
        auction._RULES.pop("counting", None)


def _queries():
    """One call of each entry point that makes an engine."""
    chain = referral_chain()
    alpha = chain.network.names["alpha"]
    gadget, qbf = gen_qbf_gadget(read_qdimacs("p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n"))
    s = gadget.network.agent_by_id("s")
    modal = parse_formula("wins(@self) & <sigma:alpha> ut[sigma] > 7 & [] <> alpha")
    profile = (joint_action(chain.network, {"s": "alpha"}),)
    return {
        "check": lambda: check(CheckQuery(chain, alpha, modal)),
        "check_strategic": lambda: check_strategic(CheckQuery(gadget, s, qbf)),
        "strategy_exists": lambda: strategy_exists(StrategyQuery(chain, parse_formula("wins(gamma)"))),
        "check_ne_direct": lambda: check_ne_direct(NeQuery(chain, profile)),
        "translate": lambda: translate(gadget, qbf),
    }


@pytest.mark.parametrize("entry", sorted(_queries()))
def test_a_query_frees_its_engine_by_reference_counting(entry, monkeypatch):
    # the compiled closures hold the engine's space, not the engine, so no
    # query is a reference cycle that waits for the cyclic collector
    engines = []
    made = _Engine.__init__

    def recording_init(self, mechanism):
        made(self, mechanism)
        engines.append(weakref.ref(self))

    monkeypatch.setattr(_Engine, "__init__", recording_init)
    run = _queries()[entry]
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        assert engines and all(engine() is None for engine in engines)
    finally:
        if enabled:
            gc.enable()
