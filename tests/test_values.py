"""The value layer: AgentId keys, validation against its reference, and the
mechanism file format."""

import json
import os
import random
import re
import stat
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from damcheck import (
    SKIP,
    AgentId,
    CheckQuery,
    JointAction,
    MarketNetwork,
    Mechanism,
    NeQuery,
    StrategyQuery,
    action_precondition,
    apply_joint_action,
    check,
    check_ne_direct,
    check_strategic,
    joint_action,
    load_mechanism,
    ne_formula,
    save_mechanism,
    strategy_exists,
    translate,
    validate_mechanism,
)
from damcheck import model
from damcheck.errors import MechanismError
from damcheck.formula import TRUE, Diamond, Heart, Nominal
from damcheck.mechjson import mechanism_from_dict, mechanism_to_dict
from damcheck.model import RESERVED_WORDS, buyer, seller

from helpers import random_mechanism, random_rational_market, referral_chain
from reference import (
    reference_mechanism_from_dict,
    reference_mechanism_to_dict,
    reference_validate,
)


def test_agent_id_is_a_type_strict_named_tuple():
    x = seller("x")
    assert hash(x) == hash(("x", "seller"))
    assert seller("a") == seller("a") and not seller("a") != seller("a")
    assert seller("a") != ("a", "seller") and not seller("a") == ("a", "seller")
    assert ("a", "seller") != seller("a") and not ("a", "seller") == seller("a")
    assert seller("a") != buyer("a")
    assert len({seller("a"), ("a", "seller"), seller("a")}) == 2
    agents = [seller("b"), buyer("b"), seller("a"), buyer("a"), buyer("ab")]
    assert sorted(agents) == [buyer("a"), seller("a"), buyer("ab"), buyer("b"), seller("b")]
    assert sorted(agents) == sorted(agents, key=lambda a: (a.id, a.kind))
    assert repr(seller("a")) == "s:a" and repr(buyer("a")) == "b:a"
    for attribute in ("id", "kind", "other"):
        with pytest.raises(AttributeError):
            setattr(x, attribute, "y")
    assert x == AgentId("x", "seller")


_STRANGERS = (buyer("zz"), seller("zz"), AgentId("b1", "seller"), AgentId("s1", "buyer"))


def _faulty_mechanism(rng: random.Random) -> Mechanism:
    """A random rational market with one to six faults. Half the faults fall
    on one agent, so its friendship row often holds several at once."""
    mech = random_rational_market(rng, rng.randint(1, 3), rng.randint(1, 4))
    net, rule = mech.network, mech.rule
    sellers, buyers = list(net.sellers), list(net.buyers)
    agents = sellers + buyers
    friends = {a: set(nbrs) for a, nbrs in net.friends.items()}
    budget, valuation = dict(net.budget), dict(net.valuation)
    incentive, names = dict(net.incentive), dict(net.names)
    focus = rng.choice(agents)
    for _ in range(rng.randint(1, 6)):
        who = focus if rng.random() < 0.5 else rng.choice(agents)
        some_buyer = rng.choice(net.buyers)
        fault = rng.randrange(17)
        if fault == 0:  # unknown agent in a row
            friends.setdefault(who, set()).add(rng.choice(_STRANGERS))
        elif fault == 1:  # a row of an unknown agent
            friends[rng.choice(_STRANGERS)] = {who}
        elif fault == 2:  # self-loop
            friends.setdefault(who, set()).add(who)
        elif fault == 3:  # one direction only
            friends.setdefault(who, set()).add(rng.choice(agents))
        elif fault == 4:  # seller-seller edge, one or both directions
            a, b = rng.choice(net.sellers), rng.choice(net.sellers)
            friends.setdefault(a, set()).add(b)
            if rng.random() < 0.7:
                friends.setdefault(b, set()).add(a)
        elif fault == 5:
            budget[who] = Fraction(-rng.randint(1, 5), rng.randint(1, 3))
        elif fault == 6:
            budget.pop(who, None)
        elif fault == 7:  # over budget
            valuation[some_buyer] = budget.get(some_buyer, 0) + Fraction(1, 3)
        elif fault == 8:
            valuation[some_buyer] = Fraction(-1, rng.randint(1, 3))
        elif fault == 9:
            valuation.pop(some_buyer, None)
        elif fault == 10:  # unusable nominal
            names[rng.choice(("skip", "wins", "1x", "a-b", "", "true"))] = who
        elif fault == 11:  # an agent without a nominal
            names = {nom: a for nom, a in names.items() if a != who}
        elif fault == 12:
            names[f"ghost{rng.randint(1, 3)}"] = rng.choice(_STRANGERS)
        elif fault == 13:  # incentive keys that are not a (buyer, seller) pair
            key = rng.choice(
                ((rng.choice(net.sellers), some_buyer), (some_buyer, some_buyer),
                 (rng.choice(_STRANGERS), rng.choice(net.sellers)),
                 (some_buyer, rng.choice(_STRANGERS)))
            )
            incentive[key] = Fraction(rng.randint(-2, 3), 2)
        elif fault == 14:
            incentive[(some_buyer, rng.choice(net.sellers))] = Fraction(-1, 2)
        elif fault == 15:  # an agent in the wrong list, or an id twice
            (sellers if rng.random() < 0.5 else buyers).append(rng.choice(agents))
        else:
            rule = rng.choice(("vickrey", "smf"))
    network = MarketNetwork(
        sellers=tuple(sellers),
        buyers=tuple(buyers),
        friends={a: frozenset(nbrs) for a, nbrs in friends.items()},
        budget=budget,
        valuation=valuation,
        incentive=incentive,
        names=names,
    )
    return Mechanism(network, rule)


def test_validate_agrees_with_reference_on_faulty_networks():
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(600):
        mech = _faulty_mechanism(rng)
        violations = validate_mechanism(mech)
        assert violations == reference_validate(mech), mech
        kinds.update(re.sub(r"'[^']*'", "_", v) for v in violations)
    # every violation but "no sellers" and "no buyers" occurred
    assert len(kinds) == 20, sorted(kinds)


def test_money_that_is_not_rational_is_a_violation_and_a_dam_error():
    chain = referral_chain()
    net = chain.network
    sig, alpha = net.sellers[0], net.buyers[0]
    cases = [
        (replace(net, budget={**net.budget, sig: 2.5}),
         "budget of agent 's' is not rational: 2.5"),
        (replace(net, valuation={**net.valuation, alpha: 0.5}),
         "valuation of buyer 'a' is not rational: 0.5"),
        (replace(net, incentive={**net.incentive, (alpha, sig): True}),
         "incentive for ('a', 's') is not rational: True"),
    ]
    for network, violation in cases:
        bad = Mechanism(network, chain.rule)
        assert validate_mechanism(bad) == [violation]
        with pytest.raises(MechanismError) as err:
            check(CheckQuery(bad, sig, TRUE))
        assert str(err.value) == "invalid mechanism: " + violation


def _refused_as_validate_refuses(run, mech: Mechanism) -> None:
    """`run()` raises MechanismError with exactly the text every entry point
    gives on `mech`: `validate_mechanism`'s violations, after a prefix."""
    violations = validate_mechanism(mech)
    assert violations
    with pytest.raises(MechanismError) as err:
        run()
    assert str(err.value) == "invalid mechanism: " + "; ".join(violations)


def _save_refused(mech: Mechanism, path: Path) -> None:
    """Saving `mech` is refused as loading it would be, and writes nothing."""
    _refused_as_validate_refuses(lambda: save_mechanism(mech, path), mech)
    assert not path.exists()


def test_network_no_file_holds_is_a_violation_and_a_mechanism_error(tmp_path):
    chain = referral_chain()
    net = chain.network
    sig = net.sellers[0]
    five = seller(5)

    def renumbered(agent):
        return five if agent == sig else agent

    numbered = replace(
        net,
        sellers=(five,),
        friends={renumbered(a): frozenset(map(renumbered, f)) for a, f in net.friends.items()},
        budget={renumbered(a): v for a, v in net.budget.items()},
        incentive={(b, renumbered(s)): v for (b, s), v in net.incentive.items()},
        names={nom: renumbered(a) for nom, a in net.names.items()},
    )
    assert validate_mechanism(Mechanism(numbered, chain.rule)) == [
        "agent id 5 is not a string"
    ]
    _save_refused(Mechanism(numbered, chain.rule), tmp_path / "numbered.json")
    numeric = replace(net, names={**net.names, 5: net.buyers[0]})
    assert validate_mechanism(Mechanism(numeric, chain.rule)) == [
        "nominal 5 is not a usable identifier"
    ]
    _save_refused(Mechanism(numeric, chain.rule), tmp_path / "numeric.json")
    outsider = replace(net, names={**net.names, "zeta": buyer("zz")})
    _save_refused(Mechanism(outsider, chain.rule), tmp_path / "outsider.json")
    alpha = net.buyers[0]
    unpriced = replace(net, valuation={b: v for b, v in net.valuation.items() if b != alpha})
    _save_refused(Mechanism(unpriced, chain.rule), tmp_path / "unpriced.json")


def _unindexable_networks():
    """Hand-built referral chains that no query could index, each with the
    violations `validate_mechanism` reports on it."""
    net = referral_chain().network
    sig, alpha = net.sellers[0], net.buyers[0]
    return [
        (replace(net, friends={**net.friends, alpha: net.friends[alpha] | {buyer("zz")}}),
         "friendship of 'a' mentions unknown agent 'zz'"),
        (replace(net, names={**net.names, "zeta": buyer("zz")}),
         "nominal 'zeta' names unknown agent 'zz'"),
        (replace(net, budget={a: v for a, v in net.budget.items() if a != alpha}),
         "no budget for agent 'a'"),
        (replace(net, incentive={**net.incentive, (sig, alpha): Fraction(1)}),
         "incentive keyed by non-buyer 's'; incentive keyed by non-seller 'a'"),
        (replace(net, names={**net.names, "zeta": "a"}),
         "nominal 'zeta' names 'a', which is not an agent"),
        # the resolvers tell a seller by her kind, so the lists must agree
        (replace(net, sellers=(sig, alpha)),
         "duplicate agent id 'a'; agent 'a' listed as seller but has kind 'buyer'"),
        # a witness and the unfolding of a coalition box name every buyer
        (replace(net, names={n: a for n, a in net.names.items() if n != "delta"}),
         "agent 'd' has no name"),
    ]


def _entry_points(mech: Mechanism, path: Path) -> list:
    """Each public entry point that takes a hand-built mechanism, called with
    arguments it accepts on any valid one; saving writes to `path`."""
    net = mech.network
    # built by hand: joint_action sorts the sellers, and ids may not compare
    skip = JointAction(tuple((s, SKIP) for s in net.sellers))
    at = net.sellers[0]
    return [
        lambda: save_mechanism(mech, path),
        lambda: translate(mech, TRUE),
        lambda: ne_formula(mech, (skip,), [0] * len(net.sellers)),
        lambda: check(CheckQuery(mech, at, TRUE)),
        lambda: check_strategic(CheckQuery(mech, at, TRUE)),
        lambda: strategy_exists(StrategyQuery(mech, TRUE)),
        lambda: check_ne_direct(NeQuery(mech, (skip,))),
        lambda: action_precondition(mech, skip),
        lambda: apply_joint_action(mech, skip),
    ]


@pytest.mark.parametrize("network, violations", _unindexable_networks())
def test_network_the_arena_cannot_index_is_a_mechanism_error(network, violations, tmp_path):
    mech = Mechanism(network, "smf")
    assert "; ".join(validate_mechanism(mech)) == violations
    for query in _entry_points(mech, tmp_path / "m.json"):
        with pytest.raises(MechanismError, match=re.escape("invalid mechanism: " + violations)):
            query()
    assert not (tmp_path / "m.json").exists()


def _incomparable_networks() -> list[Mechanism]:
    """Hand-built referral chains on which `validate_mechanism` once raised
    TypeError: a seller-seller edge between the ids 5 and 'x', a seller id
    that does not hash, and a rule that does not hash."""
    net = referral_chain().network
    five, x = seller(5), seller("x")
    paired = replace(
        net,
        sellers=(*net.sellers, five, x),
        friends={**net.friends, five: frozenset({x}), x: frozenset({five})},
        budget={**net.budget, five: 1, x: 1},
        names={**net.names, "five": five, "ex": x},
    )
    listed = replace(net, sellers=(*net.sellers, seller(["x"])))
    return [Mechanism(paired, "smf"), Mechanism(listed, "smf"), Mechanism(net, ["smf"])]


def test_validate_reports_ids_and_rules_that_do_not_compare_or_hash():
    paired, listed_id, listed_rule = _incomparable_networks()
    assert validate_mechanism(paired) == [
        "agent id 5 is not a string",
        "seller-seller edge forbidden: 5-'x'",
    ]
    assert validate_mechanism(listed_id) == ["agent id ['x'] is not a string"]
    assert validate_mechanism(listed_rule) == ["unknown auction rule ['smf']"]


def _listed_rows(twice: bool) -> Mechanism:
    """The referral chain with every friendship row a list; with `twice`,
    sigma's row lists alpha a second time."""
    net = referral_chain().network
    sig, alpha = net.sellers[0], net.buyers[0]
    rows = {a: sorted(nbrs) for a, nbrs in net.friends.items()}
    if twice:
        rows[sig].append(alpha)
    return Mechanism(replace(net, friends=rows), "smf")


def test_a_row_that_lists_a_friend_twice_is_a_violation(tmp_path):
    listed, twice = _listed_rows(False), _listed_rows(True)
    sig = listed.network.sellers[0]
    diamond = Diamond(Nominal("beta"))
    assert validate_mechanism(listed) == []
    assert check(CheckQuery(listed, sig, diamond)) is True
    violation = "friendship of 's' lists 'a' more than once"
    assert validate_mechanism(twice) == reference_validate(twice) == [violation]
    with pytest.raises(MechanismError, match=f"^invalid mechanism: {violation}$"):
        check(CheckQuery(twice, sig, diamond))
    _save_refused(twice, tmp_path / "twice.json")


def test_every_entry_point_refuses_exactly_what_validate_refuses(tmp_path):
    rng = random.Random(20261021)
    mechs = [_faulty_mechanism(rng) for _ in range(300)]
    # the same markets with no fault, on a network the loader did not build
    for _ in range(100):
        mech = random_rational_market(rng, rng.randint(1, 3), rng.randint(1, 4))
        mechs.append(Mechanism(replace(mech.network), mech.rule))
    accepted = 0
    path = tmp_path / "m.json"
    for mech in [*mechs, *_incomparable_networks(), _listed_rows(False), _listed_rows(True)]:
        valid = not validate_mechanism(mech)
        for run in _entry_points(mech, path):
            if valid:
                run()
            else:
                _refused_as_validate_refuses(run, mech)
        if valid:
            accepted += 1
            load_mechanism(path)  # a saved file loads
            path.unlink()
        assert not path.exists()
    assert 100 <= accepted < len(mechs)


def test_buyer_without_a_valuation_is_a_mechanism_error():
    # the arena reads no valuation, but the auction reads every buyer's
    net = referral_chain().network
    alpha = net.buyers[0]
    unpriced = replace(net, valuation={b: v for b, v in net.valuation.items() if b != alpha})
    mech = Mechanism(unpriced, "smf")
    assert validate_mechanism(mech) == ["no valuation for buyer 'a'"]
    queries = [
        lambda: check(CheckQuery(mech, unpriced.sellers[0], Heart("alpha"))),
        lambda: strategy_exists(StrategyQuery(mech, Heart("gamma"))),
        lambda: check_ne_direct(NeQuery(mech, (joint_action(unpriced, {}),))),
    ]
    for query in queries:
        with pytest.raises(MechanismError, match="invalid mechanism: no valuation for buyer 'a'"):
            query()


def test_incentive_not_keyed_buyer_then_seller_cannot_be_saved(tmp_path):
    net = referral_chain().network
    sig, alpha = net.sellers[0], net.buyers[0]
    swapped = replace(net, incentive={**net.incentive, (sig, alpha): Fraction(1)})
    assert len(validate_mechanism(Mechanism(swapped, "smf"))) == 2
    _save_refused(Mechanism(swapped, "smf"), tmp_path / "swapped.json")
    # a zero amount is not written either, and is no error
    zero = replace(net, incentive={**net.incentive, (alpha, sig): Fraction(0)})
    save_mechanism(Mechanism(zero, "smf"), tmp_path / "zero.json")
    assert load_mechanism(tmp_path / "zero.json").network.incentive_for(alpha, sig) == 0


@pytest.mark.parametrize("stray", [buyer("zz"), buyer(7)])
def test_friendship_outside_the_agents_cannot_be_saved(stray, tmp_path):
    net = referral_chain().network
    alpha = net.buyers[0]
    for friends in (
        {**net.friends, alpha: net.friends[alpha] | {stray}},
        {**net.friends, stray: frozenset({alpha})},
    ):
        mech = Mechanism(replace(net, friends=friends), "smf")
        _save_refused(mech, tmp_path / "stray.json")


SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.mark.parametrize("name", ["referral-chain.json", "two-sellers.json"])
def test_samples_save_byte_for_byte(name, tmp_path):
    copy = tmp_path / name
    save_mechanism(load_mechanism(SAMPLES / name), copy)
    assert copy.read_bytes() == (SAMPLES / name).read_bytes()


def test_saved_file_is_the_indented_dict_and_reloads_equal(tmp_path):
    rng = random.Random(4242)
    for i in range(30):
        mech = random_rational_market(rng, rng.randint(1, 3), rng.randint(1, 5))
        path = tmp_path / f"market{i}.json"
        save_mechanism(mech, path)
        expected = json.dumps(mechanism_to_dict(mech), indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        assert load_mechanism(path) == mech
        _saved_as_the_reference_dict(mech, path)


def _saved_as_the_reference_dict(mech: Mechanism, path: Path) -> None:
    """`mechanism_to_dict` equals the dict that `reference_mechanism_to_dict`
    builds from the network, with the same value types and order (repr tells
    1 from 1.0 and True, and a list from a tuple), and the file saved at
    `path` is that dict's indent=2 rendering. The layout assertions alone
    would pass a writer that drops or reorders a field, since
    `mechanism_to_dict` parses the saved text."""
    want = reference_mechanism_to_dict(mech)
    got = mechanism_to_dict(mech)
    assert got == want
    assert repr(got) == repr(want)
    assert path.read_bytes() == (json.dumps(want, indent=2) + "\n").encode("utf-8")


def _saves_as_json_dumps(mech: Mechanism, path: Path) -> None:
    save_mechanism(mech, path)
    expected = json.dumps(mechanism_to_dict(mech), indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    _saved_as_the_reference_dict(mech, path)


# st.text draws quotes, backslashes, control, non-ASCII and astral characters
_TEXT = st.text(max_size=5)
_NOMINAL = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True).filter(
    lambda nominal: nominal not in RESERVED_WORDS
)
_AMOUNT = st.one_of(
    st.integers(0, 10**40),
    st.builds(Fraction, st.integers(0, 10**30), st.integers(1, 10**12)),
).map(Fraction)


@st.composite
def _markets(draw) -> Mechanism:
    """Valid hand-built networks with awkward ids and extreme amounts."""
    ids = draw(st.lists(_TEXT, unique=True, min_size=2, max_size=7))
    cut = draw(st.integers(1, len(ids) - 1))
    sellers = [seller(i) for i in ids[:cut]]
    buyers = [buyer(i) for i in ids[cut:]]
    agents = sellers + buyers
    friends = {a: set() for a in agents}
    pairs = st.tuples(st.sampled_from(agents), st.sampled_from(buyers))
    for a, b in draw(st.lists(pairs, max_size=10)):
        if a != b:
            friends[a].add(b)
            friends[b].add(a)
    # one nominal for each agent, and a few more for any of them
    nominals = draw(st.lists(_NOMINAL, unique=True, min_size=len(agents), max_size=len(agents) + 4))
    names = {nom: agents[i] if i < len(agents) else draw(st.sampled_from(agents))
             for i, nom in enumerate(nominals)}
    valuation = {b: draw(_AMOUNT) for b in buyers}
    incentive = {
        (b, s): draw(_AMOUNT | st.just(Fraction(0)))
        for b in buyers
        for s in sellers
        if draw(st.booleans())
    }
    network = MarketNetwork(
        sellers=tuple(sellers),
        buyers=tuple(buyers),
        friends={a: frozenset(nbrs) for a, nbrs in friends.items()},
        budget={a: draw(_AMOUNT) + valuation.get(a, 0) for a in agents},
        valuation=valuation,
        incentive=incentive,
        names=names,
    )
    return Mechanism(network, "smf")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_markets())
def test_saved_bytes_equal_json_dumps_on_random_networks(tmp_path, mech):
    # every valid network saves, and its file loads back equal up to the
    # zero incentives that saving leaves out
    path = tmp_path / "m.json"
    _saves_as_json_dumps(mech, path)
    net = mech.network
    nonzero = {key: amount for key, amount in net.incentive.items() if amount}
    assert load_mechanism(path) == Mechanism(replace(net, incentive=nonzero), mech.rule)


def test_saved_bytes_equal_json_dumps_on_awkward_networks(tmp_path):
    quote, ctl = seller('q"uo\\te'), seller("ctl\x00\x1f\x7f\u2028\ud800")
    naive, astral, plain = buyer("na\u00efve"), buyer("\U0001d11e clef"), buyer("plain")
    net = MarketNetwork(
        sellers=(quote, ctl),
        buyers=(naive, astral, plain),
        friends={quote: frozenset({naive}), naive: frozenset({quote, plain}),
                 plain: frozenset({naive})},
        budget={quote: Fraction(10**40 + 1, 7), ctl: Fraction(10**60),
                naive: Fraction(0), astral: Fraction(3, 2), plain: Fraction(10**25)},
        valuation={naive: Fraction(0), astral: Fraction(1, 3), plain: Fraction(10**25)},
        incentive={(naive, quote): Fraction(5, 2), (naive, ctl): Fraction(0),
                   (astral, ctl): Fraction(10**30)},
        names={"sigma": quote, "c": ctl, "nu": naive, "n_2": naive, "z": naive,
               "A": astral, "p": plain},
    )  # names: one for each agent, three for naive
    _saves_as_json_dumps(Mechanism(net, "smf"), tmp_path / "awkward.json")
    # what the loader refuses is not written: negative amounts, a valuation
    # above its budget, nominals that are no identifiers and agents with
    # none, no buyers, and an id or a rule that is not a string (null; a
    # number as an incentive key)
    unusable = replace(
        net,
        budget={**net.budget, ctl: Fraction(-(10**60)), plain: Fraction(1)},
        valuation={**net.valuation, astral: Fraction(-1, 3)},
        names={"sigma": quote, "\u00e9t\u00e9": naive, "a\tb": naive, "z": naive},
    )
    no_buyers = replace(net, buyers=(), friends={}, valuation={}, incentive={},
                        names={"sigma": quote, "c": ctl})
    nameless, five = seller(None), seller(5)
    unnamed = replace(no_buyers, sellers=(nameless,), budget={nameless: Fraction(1)}, names={})
    numbered = MarketNetwork(
        sellers=(five,), buyers=(plain,), friends={}, budget={five: 1, plain: 1},
        valuation={plain: 1}, incentive={(plain, five): 1}, names={},
    )
    for refused in (Mechanism(unusable, "smf"), Mechanism(no_buyers, "smf"),
                    Mechanism(unnamed, "smf"), Mechanism(no_buyers, None),
                    Mechanism(numbered, "smf"), Mechanism(no_buyers, 5)):
        _save_refused(refused, tmp_path / "refused.json")


@pytest.mark.parametrize("budget", ["7", None, 2.5, True])
def test_save_refuses_money_that_is_not_an_int_or_a_fraction(tmp_path, budget):
    net = referral_chain().network
    sigma = net.names["sigma"]
    mech = Mechanism(replace(net, budget={**net.budget, sigma: budget}))
    path = tmp_path / "m.json"
    _save_refused(mech, path)
    # the same amount as a valuation or an incentive, written after an equal
    # valid amount: alpha's valuation and gamma's incentive are 1
    alpha, gamma, delta = net.names["alpha"], net.names["gamma"], net.names["delta"]
    assert net.valuation[alpha] == 1 and net.incentive[(gamma, sigma)] == 1
    for bad in (
        replace(net, valuation={**net.valuation, delta: budget}),
        replace(net, incentive={**net.incentive, (delta, sigma): budget}),
    ):
        _save_refused(Mechanism(bad), path)


def test_save_refuses_an_amount_too_long_to_print(tmp_path):
    # a valid network whose amount has more digits than Python prints: no
    # file can carry it, since loading refuses it, so saving and
    # mechanism_to_dict refuse it, say where it is, and write nothing
    net = referral_chain().network
    sigma, alpha, delta = net.names["sigma"], net.names["alpha"], net.names["delta"]
    huge = Fraction(10**5000)
    path = tmp_path / "m.json"
    for bad, where in (
        (replace(net, budget={**net.budget, sigma: huge}), "budget of 's'"),
        (replace(net, valuation={**net.valuation, alpha: 1 / huge}), "valuation of 'a'"),
        (replace(net, incentive={**net.incentive, (delta, sigma): huge}),
         "incentive of ('d', 's')"),
    ):
        mech = Mechanism(bad)
        assert validate_mechanism(mech) == []
        for attempt in (lambda: save_mechanism(mech, path), lambda: mechanism_to_dict(mech)):
            with pytest.raises(MechanismError) as err:
                attempt()
            assert str(err.value) == f"{where} has too many digits to print"
            assert not path.exists()


def test_save_refuses_an_unnamed_agent_as_load_does(tmp_path):
    net = referral_chain().network
    names = {nom: agent for nom, agent in net.names.items() if nom != "delta"}
    path = tmp_path / "m.json"
    with pytest.raises(MechanismError) as err:
        save_mechanism(Mechanism(replace(net, names=names)), path)
    assert str(err.value) == "invalid mechanism: agent 'd' has no name"
    assert not path.exists()
    # the referral chain's file without the name delta is refused alike
    doc = mechanism_to_dict(referral_chain())
    for entry in doc["buyers"]:
        entry["names"] = [nom for nom in entry["names"] if nom != "delta"]
    with pytest.raises(MechanismError) as err:
        mechanism_from_dict(doc)
    assert str(err.value) == "invalid mechanism: agent 'd' has no name"


def _saved_bytes(mech: Mechanism) -> bytes:
    """The file a save of `mech` writes, built from the reference dict."""
    return (json.dumps(reference_mechanism_to_dict(mech), indent=2) + "\n").encode("utf-8")


def _one_digit_more(mech: Mechanism) -> Mechanism:
    """`mech` with its first seller's integer budget one off, so that its
    file has other bytes of the same length."""
    net = mech.network
    first = net.sellers[0]
    budget = net.budget[first]
    assert budget.denominator == 1
    other = budget + 1 if budget % 10 != 9 else budget - 1
    return Mechanism(replace(net, budget={**net.budget, first: other}), mech.rule)


def test_save_rewrites_an_existing_file_in_place(tmp_path):
    # a longer, an equal and a shorter text over one file: each time it
    # holds what a save to a new path holds, and keeps its inode and mode
    large = random_rational_market(random.Random(3434), 3, 6)
    small = referral_chain()
    twin = _one_digit_more(small)
    assert len(_saved_bytes(small)) < len(_saved_bytes(large))
    assert len(_saved_bytes(twin)) == len(_saved_bytes(small))
    assert _saved_bytes(twin) != _saved_bytes(small)
    path = tmp_path / "m.json"
    save_mechanism(large, path)
    path.chmod(0o604)
    inode = path.stat().st_ino
    for i, mech in enumerate((small, twin, large)):  # shorter, equal, longer
        save_mechanism(mech, path)
        fresh = tmp_path / f"fresh{i}.json"
        save_mechanism(mech, fresh)
        assert path.read_bytes() == fresh.read_bytes() == _saved_bytes(mech)
        assert path.stat().st_ino == inode
        assert stat.S_IMODE(path.stat().st_mode) == 0o604


def test_save_gives_a_new_file_the_mode_open_gives_it(tmp_path):
    old = os.umask(0o027)
    try:
        save_mechanism(referral_chain(), tmp_path / "saved.json")
        with open(tmp_path / "opened.json", "w", encoding="utf-8"):
            pass
    finally:
        os.umask(old)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("saved.json", "opened.json")}
    assert modes == {0o640}


def test_save_through_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "target.json"
    save_mechanism(random_rational_market(random.Random(3435), 2, 5), target)
    inode = target.stat().st_ino
    link = tmp_path / "link.json"
    link.symlink_to("target.json")
    save_mechanism(referral_chain(), link)
    assert link.is_symlink() and os.readlink(link) == "target.json"
    assert target.read_bytes() == _saved_bytes(referral_chain())
    assert target.stat().st_ino == inode


def test_save_to_the_null_device_succeeds():
    # a character device cannot be cut to a length: the writer leaves it be
    save_mechanism(referral_chain(), os.devnull)


def test_a_refused_save_leaves_an_existing_file_as_it_was(tmp_path):
    # the text is rendered whole before the file is opened
    net = referral_chain().network
    path = tmp_path / "m.json"
    save_mechanism(random_rational_market(random.Random(3436), 2, 4), path)
    before = path.read_bytes()
    sigma = net.names["sigma"]
    nameless = {nom: agent for nom, agent in net.names.items() if nom != "delta"}
    for refused in (
        Mechanism(replace(net, names=nameless)),  # invalid
        Mechanism(replace(net, budget={**net.budget, sigma: Fraction(10**5000)})),
    ):
        with pytest.raises(MechanismError):
            save_mechanism(refused, path)
        assert path.read_bytes() == before


def _faulty_document(rng: random.Random) -> tuple[dict, list[int]]:
    """A saved random market, as a JSON document, with zero to three faults:
    faults 0-9 break a rule `validate_mechanism` judges, 10-23 the shape the
    loader reads. The rule faults go in first, and at most one shape fault
    after them, anywhere in the document. Returns the document and the
    faults made."""
    if rng.random() < 0.5:
        mech = random_mechanism(rng, max_sellers=3)
    else:
        mech = random_rational_market(rng, rng.randint(1, 3), rng.randint(1, 4))
    doc = json.loads(json.dumps(mechanism_to_dict(mech)))
    sellers, buyers, edges = doc["sellers"], doc["buyers"], doc["edges"]
    made = []
    for fault in sorted(rng.randrange(24) for _ in range(rng.randint(0, 3))):
        if not sellers or not buyers or (made and made[-1] >= 10):
            break
        made.append(fault)
        agents = sellers + buyers
        who, some_buyer = rng.choice(agents), rng.choice(buyers)
        names = who.get("names")
        if not isinstance(names, list):
            names = []
        if fault == 0:  # no sellers, and nothing that names one
            seller_ids = {s["id"] for s in sellers}
            sellers.clear()
            for b in buyers:
                b["incentives"] = {}
            edges[:] = [e for e in edges if not seller_ids.intersection(e)]
        elif fault == 1:  # no buyers, and no edges
            buyers.clear()
            edges.clear()
        elif fault == 2:  # a negative budget, valuation or incentive
            amount = rng.choice((-1, "-1/2", "-3"))
            kind = rng.choice(("budget", "valuation", "incentive"))
            if kind == "budget":
                who["budget"] = amount
            elif kind == "valuation":
                some_buyer["valuation"] = amount
            else:
                some_buyer["incentives"][rng.choice(sellers)["id"]] = amount
        elif fault == 3:  # valuation above budget
            over = Fraction(some_buyer["budget"]) + Fraction(1, 3)
            some_buyer["valuation"] = f"{over.numerator}/{over.denominator}"
        elif fault == 4:
            names.append(rng.choice(("1x", "a-b", "", "été", "a b", "x\n")))
        elif fault == 5:
            names.append(rng.choice(("skip", "wins", "true", "false", "ut")))
        elif fault == 6:  # an agent without a name
            if rng.random() < 0.5:
                who["names"] = []
            else:
                del who["names"]
        elif fault == 7:
            edges.append([who.get("id"), who.get("id")])
        elif fault == 8:  # seller-seller edge, or a seller's self-loop
            edges.append([rng.choice(sellers)["id"], rng.choice(sellers)["id"]])
        elif fault == 9:
            doc["rule"] = rng.choice(("vcg", 5, None))
        elif fault == 10:
            doc[rng.choice(("sellers", "buyers", "edges"))] = {}
        elif fault == 11:
            del who["id"]
        elif fault == 12:
            who["id"] = rng.choice((5, None, ["s1"]))
        elif fault == 13:
            who["names"] = rng.choice(("sigma", [5], None))
        elif fault == 14:  # a nominal of two agents
            other = rng.choice(agents)
            if other is not who and isinstance(other.get("names"), list) and other["names"]:
                names.append(other["names"][0])
        elif fault == 15:
            some_buyer["incentives"] = [1]
        elif fault == 16:
            some_buyer["incentives"]["zz"] = 1
        elif fault == 17:  # an amount that is no rational, after a valid 1
            sellers[0]["budget"] = 1  # True == 1.0 == 1, but only 1 is a rational
            bad = rng.choice((1.5, True, 1.0, "1e3", None, "1/0", "+2"))
            field = rng.choice(("budget", "valuation", "incentive"))
            if field == "budget":
                rng.choice(agents[1:])["budget"] = bad
            elif field == "valuation":
                some_buyer["valuation"] = bad
            else:
                some_buyer["incentives"][rng.choice(sellers)["id"]] = bad
        elif fault == 18:
            edges.append(rng.choice((["s1"], ["s1", "b1", "b2"], "ab")))
        elif fault == 19:
            edges.append([who.get("id"), 5])
        elif fault == 20:
            edges.append([who.get("id"), "zz"])
        elif fault == 21:  # an edge twice, or reversed
            if edges:
                edge = rng.choice(edges)
                edges.append(rng.choice((list(edge), edge[::-1])))
        elif fault == 22:  # a buyer with an id already taken
            buyers.append({"id": who.get("id"), "names": ["twin"], "budget": 1, "valuation": 0})
        else:  # a section left out
            del doc[rng.choice(("sellers", "buyers", "edges"))]
    return doc, made


def _outcome(load, doc: dict):
    try:
        return load(json.loads(json.dumps(doc)))
    except Exception as exc:  # the type and text of a refusal
        return type(exc), str(exc)


def test_loader_agrees_with_the_two_walk_loader_on_faulty_documents():
    rng = random.Random(20261020)
    accepted = refused_by_rule = rule_fault_then_shape_error = 0
    drawn = set()
    for _ in range(800):
        doc, faults = _faulty_document(rng)
        drawn.update(faults)
        got = _outcome(mechanism_from_dict, doc)
        assert got == _outcome(reference_mechanism_from_dict, doc), (doc, got)
        if isinstance(got, Mechanism):
            accepted += 1
        elif got[1].startswith("invalid mechanism: "):
            refused_by_rule += 1
        elif any(f < 10 for f in faults):
            rule_fault_then_shape_error += 1
    assert drawn == set(range(24))
    assert min(accepted, refused_by_rule, rule_fault_then_shape_error) >= 50, (
        accepted, refused_by_rule, rule_fault_then_shape_error)


def _long_chain_document(n_buyers: int) -> dict:
    """A valid two-seller document of the size the load benchmark reads: a
    buyer path, rational budgets and incentives, and some aliases."""
    buyers = [
        {
            "id": f"b{j}",
            "names": [f"bet{j}"] + ([f"alias{j}"] if j % 5 == 0 else []),
            "budget": f"{2 * (j % 7) + 1}/2",
            "valuation": j % 7,
            "incentives": {"s0": f"{j % 9 + 1}/{j % 3 + 2}"} if j % 2 else {},
        }
        for j in range(n_buyers)
    ]
    edges = [[f"b{j}", f"b{j + 1}"] for j in range(n_buyers - 1)]
    return {
        "sellers": [{"id": "s0", "names": ["sig0"], "budget": 9},
                    {"id": "s1", "names": ["sig1"], "budget": "7/2"}],
        "buyers": buyers,
        "edges": edges + [["s0", "b0"], ["s1", "b1"]],
        "rule": "smf",
    }


def test_a_valid_document_is_not_walked_a_second_time(monkeypatch, tmp_path):
    def second_walk(mechanism):
        raise AssertionError("validate_mechanism walked a valid document")

    monkeypatch.setattr(model, "validate_mechanism", second_walk)
    for name in ("referral-chain.json", "two-sellers.json"):
        loaded = load_mechanism(SAMPLES / name)
        assert loaded == reference_mechanism_from_dict(
            json.loads((SAMPLES / name).read_text(encoding="utf-8"))
        )
        # nor by the gate of save, translate or a query
        save_mechanism(loaded, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (SAMPLES / name).read_bytes()
        assert translate(loaded, TRUE) is TRUE
        assert check(CheckQuery(loaded, loaded.network.sellers[0], TRUE))
    # nor is the network an update returns: sigma incentivises alpha
    chain = load_mechanism(SAMPLES / "referral-chain.json")
    step = apply_joint_action(chain, joint_action(chain.network, {"s": "alpha"}))
    assert step.network is not chain.network
    assert action_precondition(step, joint_action(step.network, {}))
    doc = _long_chain_document(4000)
    assert mechanism_from_dict(doc) == reference_mechanism_from_dict(doc)
    # an invalid document is still refused with every violation
    bad = json.loads((SAMPLES / "referral-chain.json").read_text(encoding="utf-8"))
    bad["sellers"][0]["budget"] = -1
    bad["sellers"][0]["names"].append("wins")
    with pytest.raises(AssertionError):
        mechanism_from_dict(bad)
    monkeypatch.undo()
    with pytest.raises(MechanismError) as err:
        mechanism_from_dict(bad)
    assert str(err.value) == (
        "invalid mechanism: negative budget for agent 's';"
        " nominal 'wins' is not a usable identifier"
    )
