"""Reduction gadgets against their brute-force oracles."""

import random

import pytest

from damcheck import (
    CnfInstance,
    QbfInstance,
    check,
    check_strategic,
    expressivity_pair,
    gen_qbf_gadget,
    gen_sat_gadget,
    qbf_oracle,
    read_dimacs,
    read_qdimacs,
    sat_oracle,
    strategy_exists,
    translate,
)
from damcheck.analysis import StrategyQuery
from damcheck.checker import CheckQuery, CheckStats
from damcheck.cli import main
from damcheck.errors import DamError, MechanismError, OracleLimitError
from damcheck.formula import And, Nominal, format_formula
from damcheck.gadgets import (
    EXISTS,
    FORALL,
    PAnd,
    PConst,
    PIff,
    PImplies,
    PNot,
    POr,
    PVar,
    prop_eval,
    prop_to_formula,
)
from damcheck.model import action_precondition, apply_joint_action, joint_action

from helpers import time_limit

WORKED_CNF = CnfInstance(num_vars=4, clauses=((1, 2, 3), (-1, 3, -4)))


def seller_of(mechanism):
    return mechanism.network.sellers[0]


# --- oracles -----------------------------------------------------------------------


def test_sat_oracle_basics():
    assert sat_oracle(CnfInstance(1, ((1, 1, 1),)))
    assert not sat_oracle(CnfInstance(1, ((1, 1, 1), (-1, -1, -1))))
    assert sat_oracle(CnfInstance(0, ()))
    assert sat_oracle(WORKED_CNF)
    with pytest.raises(OracleLimitError):
        sat_oracle(CnfInstance(21, ()))


def test_cnf_validation():
    with pytest.raises(MechanismError):
        CnfInstance(1, ((1, 2, 3),))  # variable out of range
    with pytest.raises(MechanismError):
        CnfInstance(1, ((1, 0, 1),))  # zero literal


def test_qbf_oracle_basics():
    p, q = PVar(1), PVar(2)
    assert qbf_oracle(QbfInstance((EXISTS,), PVar(1)))
    assert not qbf_oracle(QbfInstance((FORALL,), PVar(1)))
    assert qbf_oracle(QbfInstance((EXISTS, FORALL), POr(p, q)))
    assert qbf_oracle(QbfInstance((FORALL, EXISTS), PIff(p, q)))
    assert not qbf_oracle(QbfInstance((FORALL, EXISTS), PAnd(p, PNot(p))))
    with pytest.raises(MechanismError):
        QbfInstance((EXISTS,), PVar(2))  # free variable


def test_qbf_oracle_is_capped_at_20_variables():
    with pytest.raises(OracleLimitError) as err:
        qbf_oracle(QbfInstance((EXISTS,) * 21, PConst(True)))
    assert str(err.value) == "oracle capped at 20 variables, got 21"


def test_prop_eval_operators():
    env = {1: True, 2: False}
    assert prop_eval(PImplies(PVar(2), PVar(1)), env)
    assert not prop_eval(PImplies(PVar(1), PVar(2)), env)
    assert prop_eval(PConst(True), env)


# --- the 3-SAT gadget -----------------------------------------------------------------


def test_sat_gadget_shape_matches_layer_counts():
    mech, goal = gen_sat_gadget(WORKED_CNF)
    k, n = 2, 4
    assert len(mech.network.agents()) == 1 + 4 * k + 5 * n
    rng = random.Random(5)
    for _ in range(10):
        nv = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        clauses = tuple(
            tuple(rng.choice([-1, 1]) * rng.randint(1, nv) for _ in range(3))
            for _ in range(nc)
        )
        m, _ = gen_sat_gadget(CnfInstance(nv, clauses))
        assert len(m.network.agents()) == 1 + 4 * nc + 5 * nv


def test_sat_gadget_worked_instance_and_known_witness():
    mech, goal = gen_sat_gadget(WORKED_CNF)
    outcome = strategy_exists(StrategyQuery(mech, goal))
    assert outcome.found
    # replay the returned witness independently
    state = mech
    for action in outcome.witness:
        assert action_precondition(state, action)
        state = apply_joint_action(state, action)
    assert check(CheckQuery(state, seller_of(state), goal))

    # the four-step referral chain that sets atom 3 true also works
    state = mech
    for target in ("beta1", "gamma1_3_3", "delta3", "epsilon3_1"):
        action = joint_action(state.network, {"s": target})
        assert action_precondition(state, action)
        state = apply_joint_action(state, action)
    assert check(CheckQuery(state, seller_of(state), goal))


def test_generated_goal_survives_print_parse_roundtrip():
    from damcheck import format_formula, parse_formula

    _, goal = gen_sat_gadget(WORKED_CNF)
    assert parse_formula(format_formula(goal)) == goal
    _, form = gen_qbf_gadget(QbfInstance((FORALL, EXISTS), PIff(PVar(1), PVar(2))))
    assert parse_formula(format_formula(form)) == form


def test_sat_gadget_unsatisfiable_padded_contradiction():
    instance = CnfInstance(1, ((1, 1, 1), (-1, -1, -1)))
    assert not sat_oracle(instance)
    mech, goal = gen_sat_gadget(instance)
    assert not strategy_exists(StrategyQuery(mech, goal)).found


def test_sat_gadget_oracle_equivalence_small_random():
    rng = random.Random(99)
    for _ in range(12):
        nv = rng.randint(1, 3)
        nc = rng.randint(1, 3)
        clauses = tuple(
            tuple(rng.choice([-1, 1]) * rng.randint(1, nv) for _ in range(3))
            for _ in range(nc)
        )
        instance = CnfInstance(nv, clauses)
        mech, goal = gen_sat_gadget(instance)
        assert strategy_exists(StrategyQuery(mech, goal)).found == sat_oracle(instance)


_EMPTY_SAT = "a 3-CNF with no variable and no clause has a gadget with no buyer"
_EMPTY_QBF = "a QBF with no quantified variable has a gadget with no buyer"


def test_gadgets_refuse_an_instance_that_would_have_no_buyer():
    # the gadgets' buyers stand for variables and clauses: with neither,
    # the instance is refused as such, not as a mechanism nobody wrote
    for instance in (CnfInstance(0, ()), read_dimacs("p cnf 0 0\n")):
        with pytest.raises(MechanismError) as err:
            gen_sat_gadget(instance)
        assert str(err.value) == _EMPTY_SAT
    for instance in (QbfInstance((), PConst(True)), QbfInstance((), PConst(False)),
                     read_qdimacs("p cnf 0 0\n"), read_qdimacs("p cnf 2 0\n")):
        with pytest.raises(MechanismError) as err:
            gen_qbf_gadget(instance)
        assert str(err.value) == _EMPTY_QBF


@pytest.mark.parametrize(
    "kind, flag, text_flag, message",
    [("sat", "--dimacs", "--out-goal", _EMPTY_SAT),
     ("qbf", "--qdimacs", "--out-formula", _EMPTY_QBF)],
    ids=["sat", "qbf"],
)
def test_gen_on_an_empty_instance_exits_two_and_writes_nothing(
    kind, flag, text_flag, message, tmp_path, capsys
):
    source, model, text = (tmp_path / name for name in ("empty.cnf", "m.json", "f.txt"))
    source.write_text("p cnf 0 0\n", encoding="utf-8")
    argv = ["gen", kind, flag, str(source), "--out-model", str(model), text_flag, str(text)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert not model.exists() and not text.exists()


# --- the QBF gadget ---------------------------------------------------------------------


def test_qbf_gadget_shape_and_simple_instances():
    mech, form = gen_qbf_gadget(QbfInstance((EXISTS,), PVar(1)))
    assert len(mech.network.agents()) == 1 + 4 * 1
    assert check_strategic(CheckQuery(mech, seller_of(mech), form))

    mech, form = gen_qbf_gadget(QbfInstance((FORALL,), PVar(1)))
    assert not check_strategic(CheckQuery(mech, seller_of(mech), form))

    mech, form = gen_qbf_gadget(
        QbfInstance((FORALL, EXISTS), PIff(PVar(1), PVar(2)))
    )
    assert check_strategic(CheckQuery(mech, seller_of(mech), form))

    mech, form = gen_qbf_gadget(
        QbfInstance((EXISTS, FORALL), PIff(PVar(1), PVar(2)))
    )
    assert not check_strategic(CheckQuery(mech, seller_of(mech), form))


def test_qbf_gadget_oracle_equivalence_random():
    rng = random.Random(7)

    def random_prop(depth, n):
        if depth == 0 or rng.random() < 0.3:
            return PVar(rng.randint(1, n))
        ctor = rng.choice([PAnd, POr, PImplies, PIff])
        if rng.random() < 0.25:
            return PNot(random_prop(depth - 1, n))
        return ctor(random_prop(depth - 1, n), random_prop(depth - 1, n))

    for _ in range(15):
        n = rng.randint(1, 2)
        prefix = tuple(rng.choice([FORALL, EXISTS]) for _ in range(n))
        instance = QbfInstance(prefix, random_prop(2, n))
        mech, form = gen_qbf_gadget(instance)
        got = check_strategic(CheckQuery(mech, seller_of(mech), form))
        assert got == qbf_oracle(instance)


# --- the expressivity pair ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n, states, holds",
    [(1, 3, True), (2, 8, True), (3, 19, True), (4, 37, False), (5, 70, False)],
)
def test_qbf_gadget_states_are_pinned(n, states, holds):
    # the prefix exists-forall-exists-forall-exists cut to n variables, and
    # the matrix x1 or, for n > 1, the conjunction over i < n of
    # (x_i | !x_{i+1}); the states the coalition path builds are exact, so
    # a change to its work fails here with no timing
    prefix = (EXISTS, FORALL, EXISTS, FORALL, EXISTS)[:n]
    matrix = PVar(1)
    for i in range(1, n):
        clause = POr(PVar(i), PNot(PVar(i + 1)))
        matrix = clause if i == 1 else PAnd(matrix, clause)
    instance = QbfInstance(prefix, matrix)
    mech, form = gen_qbf_gadget(instance)
    stats = CheckStats()
    got = check_strategic(CheckQuery(mech, seller_of(mech), form), stats)
    assert got == qbf_oracle(instance) == holds
    assert stats.states_explored == states


# the family above at n = 6, folded balanced: translated, it is a DAG of
# about 2,100 nodes whose text would take gigabytes
QBF6 = (
    "p cnf 6 6\ne 1 0\na 2 0\ne 3 0\na 4 0\ne 5 0\na 6 0\n"
    "1 0\n1 -2 0\n2 -3 0\n3 -4 0\n4 -5 0\n5 -6 0\n"
)


def test_translation_too_long_to_print_is_a_data_error(tmp_path, capsys):
    mech, form = gen_qbf_gadget(read_qdimacs(QBF6))
    with pytest.raises(DamError, match="formula text longer than"):
        format_formula(translate(mech, form))
    source, model, formula = (tmp_path / name for name in ("q.qdimacs", "m.json", "f.txt"))
    source.write_text(QBF6, encoding="utf-8")
    argv = ["gen", "qbf", "--qdimacs", str(source), "--out-model", str(model),
            "--out-formula", str(formula)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["translate", "--model", str(model), "--formula", f"@{formula}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expressivity_pair_tells_models_apart(n):
    m1, m2, form = expressivity_pair(n)
    assert not check_strategic(CheckQuery(m1, seller_of(m1), form))
    assert check_strategic(CheckQuery(m2, seller_of(m2), form))


def test_expressivity_pair_needs_a_spur():
    with pytest.raises(MechanismError) as err:
        expressivity_pair(0)
    assert str(err.value) == "need at least one spur buyer"


def test_expressivity_pair_leaf_budgets_zero_and_valid():
    m1, m2, _ = expressivity_pair(2)
    for mech in (m1, m2):
        net = mech.network
        for b in net.buyers:
            assert net.budget[b] == 0 and net.valuation[b] == 0


# --- file formats -----------------------------------------------------------------------


def test_read_dimacs_with_comments_and_padding():
    text = """c sample instance
p cnf 4 2
1 2 3 0
-1 3
-4 0
"""
    instance = read_dimacs(text)
    assert instance == WORKED_CNF
    unit = read_dimacs("p cnf 1 1\n1 0\n")
    assert unit.clauses == ((1, 1, 1),)
    with pytest.raises(MechanismError):
        read_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    with pytest.raises(MechanismError):
        read_dimacs("1 0\n")  # missing header


def test_read_qdimacs_renumbers_by_prefix_order():
    text = """c toy
p cnf 2 2
e 2 0
a 1 0
2 0
-1 2 0
"""
    instance = read_qdimacs(text)
    assert instance.prefix == (EXISTS, FORALL)
    # old variable 2 is now p1 (existential), old 1 is p2 (universal)
    assert qbf_oracle(instance) == qbf_oracle(
        QbfInstance((EXISTS, FORALL), PAnd(PVar(1), POr(PNot(PVar(2)), PVar(1))))
    )


@pytest.mark.parametrize("last", ["1 2 0", "-1 2 0"], ids=["true", "false"])
def test_qbf_gadget_from_a_long_qdimacs_matrix(last, tmp_path):
    # 2,000 clauses: folded left-deep, the matrix nests too deep to walk
    text = "p cnf 2 2000\ne 1 0\na 2 0\n" + "1 2 0\n" * 1999 + last + "\n"
    instance = read_qdimacs(text)
    mech, form = gen_qbf_gadget(instance)
    got = check_strategic(CheckQuery(mech, seller_of(mech), form))
    assert got == qbf_oracle(instance) == (last == "1 2 0")
    source = tmp_path / "long.qdimacs"
    source.write_text(text, encoding="utf-8")
    argv = ["gen", "qbf", "--qdimacs", str(source), "--out-model",
            str(tmp_path / "m.json"), "--out-formula", str(tmp_path / "f.txt")]
    assert main(argv) == 0


def test_prop_walks_take_a_left_deep_matrix():
    matrix = PVar(1)
    for _ in range(1999):
        matrix = PAnd(matrix, PVar(1))
    assert qbf_oracle(QbfInstance((EXISTS,), matrix)) is True
    form = prop_to_formula(matrix, lambda i: Nominal(f"p{i}"))
    # walked, not compared with ==: dataclass equality recurses per level
    depth = 0
    while type(form) is And:
        assert form.right == Nominal("p1")
        form, depth = form.left, depth + 1
    assert (depth, form) == (1999, Nominal("p1"))


def test_read_qdimacs_rejects_free_variables():
    with pytest.raises(MechanismError):
        read_qdimacs("p cnf 2 1\ne 1 0\n1 2 0\n")


def test_readers_reject_garbage_tokens():
    with pytest.raises(MechanismError):
        read_dimacs("p cnf 2 1\n1 two 0\n")
    with pytest.raises(MechanismError):
        read_qdimacs("p cnf 1 1\ne x 0\n1 0\n")
    with pytest.raises(MechanismError):
        read_qdimacs("p cnf 2 2\ne 1 0\n1 0\na 2 0\n-2 0\n")  # prefix after matrix


@pytest.mark.parametrize(
    "read, text",
    [
        (read_qdimacs, "p cnf 1 0\ne -1 0\n"),  # a negative quantified variable
        (read_qdimacs, "p cnf 1 1\ne 7 0\n7 0\n"),  # above the header's count
        (read_qdimacs, "p cnf 2 1\na 1 0\ne 2 3 0\n1 0\n"),
        (read_dimacs, "p cnf 3 9\n1 0\n"),  # fewer clauses than declared
        (read_dimacs, "p cnf 1 1\n1 0\n-1 0\n"),  # more clauses than declared
        (read_qdimacs, "p cnf 1 2\ne 1 0\n1 0\n"),
        (read_qdimacs, "p cnf 1 0\ne 1 0\n1 0\n"),
        (read_dimacs, "p cnf 1 x\n1 0\n"),
        (read_dimacs, "p cnf 2 1\n1 2 0\np cnf 3 1\n"),  # a second header
        (read_qdimacs, "p cnf 1 1\np cnf 1 1\ne 1 0\n1 0\n"),
        (read_dimacs, "1 2 0\np cnf 2 1\n"),  # a header after a clause
        (read_qdimacs, "e 1 0\np cnf 1 1\n1 0\n"),  # after a prefix line
        (read_dimacs, "p cnf 2 1 junk\n1 2 0\n"),  # a header of five fields
        (read_qdimacs, "p cnf 1 1 0\ne 1 0\n1 0\n"),
    ],
)
def test_readers_hold_input_to_its_header(read, text):
    with pytest.raises(MechanismError):
        read(text)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: read_dimacs("p dnf 1 1\n1 0\n"), "bad DIMACS header 'p dnf 1 1'"),
        (lambda: read_dimacs("p cnf 1 1\n0\n"), "empty clause in DIMACS input"),
        (lambda: read_dimacs("p cnf 1 1\n1\n"), "unterminated clause in DIMACS input"),
        (lambda: read_dimacs("p cnf 1 1\ne 1 0\n1 0\n"), "quantifier line in DIMACS input"),
        (lambda: read_qdimacs("p cnf 1 1\ne 1 0\na 1 0\n1 0\n"), "variable 1 quantified twice"),
        (lambda: CnfInstance(-1, ()), "negative variable count"),
        (lambda: CnfInstance(2, ((1, 2),)), "clause (1, 2) does not have 3 literals"),
        (lambda: QbfInstance(("some",), PVar(1)), "bad quantifier 'some'"),
    ],
    ids=[
        "dimacs-header-not-cnf",
        "dimacs-empty-clause",
        "dimacs-unterminated-clause",
        "dimacs-quantifier-line",
        "qdimacs-variable-quantified-twice",
        "cnf-negative-variable-count",
        "cnf-two-literal-clause",
        "qbf-bad-quantifier",
    ],
)
def test_gadget_refusals_name_their_cause(make, message):
    with pytest.raises(MechanismError) as err:
        make()
    assert str(err.value) == message


def test_readers_accept_unused_declared_variables():
    assert read_dimacs("p cnf 5 1\n1 -3 0\n").num_vars == 5
    instance = read_qdimacs("p cnf 3 1\na 3 0\ne 1 0\n-3 1 0\n")
    assert instance.prefix == (FORALL, EXISTS)
    assert read_qdimacs("p cnf 1 0\n").prefix == ()


# unsatisfiable cores, as clauses of one to three literals over variables 1..3
_UNSAT_CORES = [
    ((1, 2), (1, -2), (-1, 2), (-1, -2)),
    ((1, 2), (1, -2), (-1, 3), (-1, -3)),
    ((1,), (-1, 2), (-2, 3), (-3,)),
    ((1,), (-1, 2), (-2,), (1, 2)),
    ((1, 2), (-1, 2), (-2, 3), (-2, -3)),
]


def test_sat_gadget_on_unsatisfiable_cores():
    # criterion 5's draw is almost all satisfiable, so the search rarely has
    # to exhaust every reachable state; here every instance is a core under
    # a seeded renaming, polarity flip and reordering
    rng = random.Random(6174)
    for draw in range(15):
        core = _UNSAT_CORES[draw % len(_UNSAT_CORES)]
        num_vars = max(abs(lit) for clause in core for lit in clause)
        renamed = rng.sample(range(1, num_vars + 1), num_vars)
        image = {v: rng.choice([-1, 1]) * w for v, w in enumerate(renamed, start=1)}
        clauses = []
        for clause in core:
            lits = [image[l] if l > 0 else -image[-l] for l in clause]
            lits += [rng.choice(lits) for _ in range(3 - len(lits))]
            rng.shuffle(lits)
            clauses.append(tuple(lits))
        rng.shuffle(clauses)
        instance = CnfInstance(num_vars, tuple(clauses))
        expected = sat_oracle(instance)
        assert not expected
        mech, goal = gen_sat_gadget(instance)
        assert strategy_exists(StrategyQuery(mech, goal)).found == expected


@pytest.mark.parametrize(
    "instance, truth",
    [
        (read_qdimacs("p cnf 1 0\ne 1 0\n"), True),
        (read_qdimacs("p cnf 2 0\na 1 0\ne 2 0\n"), True),
        (QbfInstance((EXISTS,), PConst(False)), False),
    ],
    ids=["empty-matrix", "empty-matrix-two-variables", "false-matrix"],
)
def test_qbf_gadget_of_a_constant_matrix(instance, truth):
    # an empty QDIMACS matrix is the constant true, and prop_to_formula
    # writes a constant as `true` or `false`
    assert qbf_oracle(instance) is truth
    mech, form = gen_qbf_gadget(instance)
    at = seller_of(mech)
    assert check_strategic(CheckQuery(mech, at, form)) is truth
    assert check(CheckQuery(mech, at, translate(mech, form))) is truth


# --- SATLIB files -------------------------------------------------------------------------

# SATLIB's uf/uuf benchmark files end with a `%` line, a `0` line and a blank line
_SATLIB = "c x\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n"


def test_a_percent_line_ends_the_input():
    assert read_dimacs(_SATLIB) == CnfInstance(3, ((1, -2, 3), (-1, 2, 2)))
    instance = read_qdimacs("p cnf 2 1\ne 1 0\na 2 0\n1 2 0\n%\n0\n\n")
    assert instance.prefix == (EXISTS, FORALL) and qbf_oracle(instance)
    # the clause count is held to the clauses before the `%` line
    with pytest.raises(MechanismError) as err:
        read_dimacs("p cnf 3 2\n1 -2 3 0\n%\n-1 2 0\n")
    assert str(err.value) == "DIMACS header declares 2 clauses, found 1"
    with pytest.raises(MechanismError) as err:
        read_qdimacs("p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n%\n-1 2 0\n")
    assert str(err.value) == "QDIMACS header declares 2 clauses, found 1"


def test_gen_sat_reads_a_satlib_file(tmp_path, capsys):
    source, model, goal = (tmp_path / name for name in ("uf.cnf", "m.json", "g.txt"))
    source.write_text(_SATLIB, encoding="utf-8")
    argv = ["gen", "sat", "--dimacs", str(source), "--out-model", str(model),
            "--out-goal", str(goal)]
    assert main(argv) == 0
    assert capsys.readouterr() == ("", "")
    assert model.exists() and goal.exists()


# --- the gadget bound ---------------------------------------------------------------------

_BOUND = "the gadget would have {} buyers, more than the 100000 allowed"


@pytest.mark.parametrize(
    "make, buyers",
    [
        # 4 buyers per clause and 5 per variable
        (lambda: gen_sat_gadget(CnfInstance(1, ((1, 1, 1),) * 24999)), 100001),
        (lambda: gen_sat_gadget(CnfInstance(10**20, ((1, 1, 1),))), 5 * 10**20 + 4),
        # 4 buyers per quantified variable
        (lambda: gen_qbf_gadget(QbfInstance((EXISTS,) * 25001, PConst(True))), 100004),
        # 2 buyers per spur, and 2 more
        (lambda: expressivity_pair(50000), 100002),
        (lambda: expressivity_pair(10**10), 2 * 10**10 + 2),
    ],
    ids=["sat", "sat-huge-header", "qbf", "expressivity", "expressivity-huge"],
)
def test_gadget_generators_refuse_a_gadget_past_the_bound(make, buyers):
    with time_limit(5, "a gadget past the bound was built before it was refused"):
        with pytest.raises(MechanismError) as err:
            make()
    assert str(err.value) == _BOUND.format(buyers)


def test_gen_past_the_gadget_bound_exits_two_and_writes_nothing(tmp_path, capsys):
    source, model, goal = (tmp_path / name for name in ("huge.cnf", "m.json", "g.txt"))
    source.write_text("p cnf 99999999999999999999 1\n1 0\n", encoding="utf-8")
    argv = ["gen", "sat", "--dimacs", str(source), "--out-model", str(model),
            "--out-goal", str(goal)]
    with time_limit(5, "gen sat built a gadget past the bound"):
        assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: " + _BOUND.format(5 * 99999999999999999999 + 4) + "\n"
    assert not model.exists() and not goal.exists()
    out_dir = tmp_path / "ex"
    with time_limit(5, "gen expressivity built a gadget past the bound"):
        assert main(["gen", "expressivity", "--n", "10000000000", "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr() == ("", "error: " + _BOUND.format(2 * 10**10 + 2) + "\n")
    assert not out_dir.exists()
