"""Formula layer: parsing, printing, desugaring, nominal collection."""

import functools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damcheck import SKIP, desugar, format_formula, names_of, parse_formula, translate
from damcheck.errors import ActionError, FormulaSyntaxError
from damcheck.formula import (
    FALSE,
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
    Falsity,
    Heart,
    Iff,
    Implies,
    LinearGeq,
    Nominal,
    Not,
    Or,
    Truth,
    UtilityTerm,
    big_and,
    big_or,
    contains_coalition,
)
from damcheck.gadgets import (
    EXISTS,
    FORALL,
    PAnd,
    PIff,
    PNot,
    POr,
    PVar,
    QbfInstance,
    gen_qbf_gadget,
)
from damcheck.parser import _Parser

from helpers import distinct_nodes, random_formula, random_mechanism, referral_chain, time_limit
from reference import reference_format
from reference_parser import parse_formula as reference_parse


def ut(subject, coeff=1):
    return (coeff, UtilityTerm(subject))


def test_parse_referral_check_formula():
    parsed = parse_formula(
        "ut[sigma] = 7 & wins(beta) & <sigma:alpha>(ut[sigma] = 9 & wins(gamma))"
    )
    expected = desugar(
        And(
            And(
                Compare("=", (ut("sigma", Fraction(1)),), Fraction(7)),
                Heart("beta"),
            ),
            DiffuseDiamond(
                (("sigma", "alpha"),),
                And(
                    Compare("=", (ut("sigma", Fraction(1)),), Fraction(9)),
                    Heart("gamma"),
                ),
            ),
        )
    )
    assert parsed == expected


def test_parse_box_self_utility():
    assert parse_formula("[] (ut[@self] >= 5)") == Box(
        LinearGeq((ut(SELF),), 5)
    )


def test_parse_rational_bound_clears_denominator():
    assert parse_formula("ut[alpha] >= 1/2") == LinearGeq((ut("alpha", 2),), 1)


def test_parse_term_comparison_moves_rhs_left():
    assert parse_formula("ut[x] >= ut[y]") == LinearGeq(
        (ut("x"), ut("y", -1)), 0
    )


def test_parse_strict_and_reversed_comparisons():
    assert parse_formula("ut[x] < 3") == Not(LinearGeq((ut("x"),), 3))
    assert parse_formula("ut[x] <= 3") == LinearGeq((ut("x", -1),), -3)
    assert parse_formula("ut[x] > 3") == Not(LinearGeq((ut("x", -1),), -3))
    assert parse_formula("ut[x]>2") == Not(LinearGeq((ut("x", -1),), -2))


def test_parse_constants_fold_into_bound():
    assert parse_formula("ut[x] + 1 >= 2") == LinearGeq((ut("x"),), 1)
    assert parse_formula("0 >= 5") == LinearGeq((), 5)
    assert parse_formula("true") == TRUE
    assert parse_formula("false") == FALSE


def test_parse_coalitions_and_actions():
    f = parse_formula("[< s1, s2 >] wins(x)")
    assert f == CoalitionBox(frozenset({"s1", "s2"}), Heart("x"))
    g = parse_formula("<[ s1 ]> wins(@self)")
    assert g == desugar(CoalitionDiamond(frozenset({"s1"}), Heart(SELF)))
    h = parse_formula("[< >] true")
    assert h == CoalitionBox(frozenset(), TRUE)
    k = parse_formula("[s1:b1, s2:skip] wins(x)")
    assert k == Diffuse((("s1", "b1"), ("s2", SKIP)), Heart("x"))


def test_desugar_duals_and_equality():
    a = Nominal("a")
    assert desugar(Diamond(a)) == Not(Box(Not(a)))
    assert desugar(
        Compare("=", (ut("a", Fraction(1)),), Fraction(3))
    ) == And(LinearGeq((ut("a"),), 3), LinearGeq((ut("a", -1),), -3))
    assert desugar(CoalitionDiamond(frozenset({"c"}), a)) == Not(
        CoalitionBox(frozenset({"c"}), Not(a))
    )


def test_names_of_examples():
    chain_formula = parse_formula(
        "ut[sigma] = 7 & wins(beta) & <sigma:alpha>(ut[sigma] = 9 & wins(gamma))"
    )
    assert names_of(chain_formula) == {"sigma", "alpha", "beta", "gamma"}
    assert names_of(parse_formula("[]( ut[@self] >= 0 )")) == set()
    assert names_of(parse_formula("[<sigma1>] wins(gamma)")) == {"sigma1", "gamma"}


def test_parser_reports_positions():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("wins(")
    assert err.value.line == 1
    with pytest.raises(FormulaSyntaxError):
        parse_formula("[s1:b1, s1:b2] true")  # duplicate seller
    with pytest.raises(FormulaSyntaxError):
        parse_formula("wins(a) wins(b)")  # trailing input
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ut[x] ? 3")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("skip")


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("wins(", 1, 6, "expected agent name or '@self'"),
        ("wins(a) &\n  wins(", 2, 8, "expected agent name or '@self'"),
        ("wins(a) &\n\n  !(b |\n    c", 4, 6, "expected ')'"),
        ("\twins(a) ?", 1, 10, "unexpected character '?'"),
        ("a &\t\tb\t)", 1, 8, "unexpected trailing input ')'"),
        ("[ <s1>] true", 1, 3, "expected seller name, found '<'"),
        ("[<s1> ] true", 1, 7, "expected '>]' to close the coalition"),
        ("<\n[s1]> true", 2, 1, "expected seller name, found '['"),
        ("[<s1>\n] true", 2, 1, "expected '>]' to close the coalition"),
        ("ut[x]>2)", 1, 8, "unexpected trailing input ')'"),
        ("ut[x]> >2", 1, 8, "expected a number or ut[...]"),
        ("wins(a) wins(b)", 1, 9, "unexpected trailing input 'wins'"),
        ("a & #", 1, 5, "unexpected character '#'"),
        ("ut[a] >= 1/0 & b", 1, 14, "zero denominator"),
        ("ut[a] >= 1/x", 1, 12, "expected 'INT', found 'x'"),
        ("[s1:b1, s1:b2] true", 1, 9, "seller 's1' listed twice"),
        ("a &\n", 2, 1, "expected a formula, found 'end of input'"),
        ("ut[a] >= 2/" + "9" * 5000, 1, 10, "number too long"),
    ],
)
def test_syntax_errors_report_line_and_column(text, line, column, message):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).startswith(f"line {line}, column {column}: {message}")


@pytest.mark.parametrize(
    "bindings, message",
    [
        ((), "an action must bind at least one seller (use skip)"),
        ((("s1", "b1"), ("s1", SKIP)), "seller bound twice in one action: ['s1', 's1']"),
    ],
    ids=["no-binding", "seller-bound-twice"],
)
def test_hand_built_bad_action_is_an_action_error(bindings, message):
    # with no binding the action would print as `[] x`, a friendship box
    with pytest.raises(ActionError) as err:
        Diffuse(bindings, TRUE)
    assert str(err.value) == message


def test_precedence_binds_as_documented():
    a, b, c = Nominal("a"), Nominal("b"), Nominal("c")
    assert parse_formula("!a & b") == And(Not(a), b)
    assert parse_formula("[] a & b") == And(Box(a), b)
    assert parse_formula("a & b | c") == desugar(Or(And(a, b), c))
    assert parse_formula("a | b -> c") == desugar(Implies(Or(a, b), c))
    assert parse_formula("a -> b -> c") == desugar(Implies(a, Implies(b, c)))
    assert parse_formula("a <-> b <-> c") == desugar(Iff(Iff(a, b), c))
    assert parse_formula("a & b & c") == And(And(a, b), c)
    assert parse_formula("[s:x] a & b") == And(Diffuse((("s", "x"),), a), b)


def test_deeply_nested_boxes_roundtrip():
    text = "[] " * 60 + "wins(@self)"
    f = parse_formula(text)
    assert parse_formula(format_formula(f)) == f


def test_big_and_big_or_fold_balanced():
    parts = [Nominal(n) for n in "abcde"]
    conj = big_and(parts)
    assert names_of(conj) == set("abcde")
    assert big_and([]) == Truth()
    assert big_or([]) == Falsity()


# --- property tests --------------------------------------------------------------

_names = st.sampled_from(["a", "b2", "sig", "x_1", "gamma"])
_subjects = st.one_of(_names, st.just(SELF))
_ut_terms = st.builds(UtilityTerm, _subjects)
_core_atoms = st.one_of(
    st.builds(Nominal, _names),
    st.builds(Heart, _subjects),
    st.builds(
        LinearGeq,
        st.lists(st.tuples(st.integers(-3, 3), _ut_terms), max_size=3).map(tuple),
        st.integers(-6, 6),
    ),
)
_bindings = st.dictionaries(
    _names, st.one_of(_names, st.just(SKIP)), min_size=1, max_size=2
).map(lambda d: tuple(d.items()))
_coalitions = st.frozensets(_names, max_size=2)

_core_formulas = st.recursive(
    _core_atoms,
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(Box, kids),
        st.builds(Diffuse, _bindings, kids),
        st.builds(CoalitionBox, _coalitions, kids),
    ),
    max_leaves=12,
)

_sugar_formulas = st.recursive(
    st.one_of(
        _core_atoms,
        st.just(Truth()),
        st.just(Falsity()),
        st.builds(
            Compare,
            st.sampled_from([">=", "<=", "<", ">", "="]),
            st.lists(
                st.tuples(
                    st.fractions(min_value=-2, max_value=2, max_denominator=3),
                    _ut_terms,
                ),
                max_size=2,
            ).map(tuple),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
        ),
    ),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(Iff, kids, kids),
        st.builds(Box, kids),
        st.builds(Diamond, kids),
        st.builds(Diffuse, _bindings, kids),
        st.builds(DiffuseDiamond, _bindings, kids),
        st.builds(CoalitionBox, _coalitions, kids),
        st.builds(CoalitionDiamond, _coalitions, kids),
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(_core_formulas)
def test_parse_format_roundtrip(f):
    assert parse_formula(format_formula(f)) == f


@settings(max_examples=200, deadline=None)
@given(_sugar_formulas)
def test_desugar_idempotent_and_name_preserving(f):
    once = desugar(f)
    assert desugar(once) == once
    assert names_of(once) == names_of(f)


@settings(max_examples=300, deadline=None)
@given(_core_formulas)
def test_desugar_returns_core_formulas_unchanged(f):
    assert desugar(f) is f


_CORE_KINDS = (Nominal, LinearGeq, Not, And, Box, Diffuse, CoalitionBox, Heart)


@settings(max_examples=300, deadline=None)
@given(_sugar_formulas)
def test_sugar_constructors_build_core_nodes_only(f):
    todo = [f]
    while todo:
        node = todo.pop()
        assert type(node) in _CORE_KINDS
        todo.extend(getattr(node, part) for part in ("child", "left", "right") if hasattr(node, part))
    assert parse_formula(format_formula(f)) == f


# --- biconditionals ----------------------------------------------------------------


def _expanded(node):
    """Desugaring that rebuilds each operand once per use, as a reference."""
    if type(node) is Iff:
        return desugar(
            And(
                Implies(_expanded(node.left), _expanded(node.right)),
                Implies(_expanded(node.right), _expanded(node.left)),
            )
        )
    return desugar(node)


def test_iff_halves_share_their_operands():
    left = Or(Nominal("a"), Nominal("b"))
    right = Diamond(Nominal("c"))
    out = desugar(Iff(left, right))
    # And(Not(And(l, Not(r))), Not(And(r, Not(l))))
    forward, backward = out.left.child, out.right.child
    assert forward.left is backward.right.child
    assert forward.right.child is backward.left
    assert forward.left == desugar(left) and backward.left == desugar(right)


def test_iff_chains_desugar_in_linear_time():
    chain = Nominal("a")
    for level in range(1, 9):
        chain = Iff(chain, Nominal("b") if level % 2 else Or(Nominal("c"), Nominal("d")))
        assert desugar(chain) == _expanded(chain)
    assert parse_formula("a" + " <-> b" * 8) == _expanded(
        functools.reduce(lambda acc, _: Iff(acc, Nominal("b")), range(8), Nominal("a"))
    )
    began = time.perf_counter()
    chain = Nominal("a")
    for _ in range(40):
        chain = Iff(chain, Nominal("b"))
    # compared by value these would be walked as trees of 2**40 nodes
    assert distinct_nodes(desugar(chain)) < 10 * 40
    assert distinct_nodes(parse_formula("a" + " <-> b" * 40)) < 10 * 40
    assert time.perf_counter() - began < 5


# --- the one-pass parser against the parser it replaced ----------------------------


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except FormulaSyntaxError as err:
        return (err.line, err.column)


def _agree(text):
    assert _parse_outcome(parse_formula, text) == _parse_outcome(reference_parse, text)


_EDIT_CHARS = "()[]<>!&|-:,=+*/@_ \n\t#?aσ0129"
_edits = st.lists(
    st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(("", *_EDIT_CHARS))),
    max_size=4,
)


def _edited(text: str, edits) -> str:
    """Each edit at a relative position: "" deletes a character, any other
    character is inserted."""
    for where, char in edits:
        at = int(where * (len(text) + 1))
        text = text[:at] + char + text[at + 1 :] if char == "" else text[:at] + char + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(_sugar_formulas, _edits)
def test_parser_agrees_with_reference_on_printed_and_edited_formulas(f, edits):
    text = format_formula(f)
    _agree(text)
    _agree(_edited(text, edits))


# Surface text straight from the README grammar, so that every operator the
# printer no longer writes (|, ->, <->, the diamonds, <=, <, >, =, rationals,
# true and false) still reaches both parsers.
_subject_texts = st.one_of(_names, st.just("@self"))
_ut_texts = _subject_texts.map(lambda s: f"ut[{s}]")
_rational_texts = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(1, 6)).map(lambda p: f"{p[0]}/{p[1]}"),
)
_addend_texts = st.one_of(
    _rational_texts, _ut_texts, st.tuples(_rational_texts, _ut_texts).map("*".join)
)
_sum_texts = st.tuples(
    st.sampled_from(["", "-"]),
    _addend_texts,
    st.lists(st.tuples(st.sampled_from([" + ", " - "]), _addend_texts).map("".join), max_size=2),
).map(lambda p: p[0] + p[1] + "".join(p[2]))
_comparison_texts = st.tuples(
    _sum_texts, st.sampled_from([" >= ", " <= ", " < ", " > ", " = "]), _sum_texts
).map("".join)
_binding_texts = st.lists(
    st.tuples(_names, st.one_of(_names, st.just("skip"))).map(":".join), min_size=1, max_size=2
).map(", ".join)
_member_texts = st.lists(_names, max_size=2).map(", ".join)
_atom_texts = st.one_of(
    _names,
    st.sampled_from(["true", "false"]),
    _subject_texts.map(lambda s: f"wins({s})"),
    _comparison_texts,
)
_surface_texts = st.recursive(
    _atom_texts,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["!", "[] ", "<> "]), kids).map("".join),
        st.tuples(_binding_texts, kids).map(lambda p: f"[{p[0]}] {p[1]}"),
        st.tuples(_binding_texts, kids).map(lambda p: f"<{p[0]}> {p[1]}"),
        st.tuples(_member_texts, kids).map(lambda p: f"[< {p[0]} >] {p[1]}"),
        st.tuples(_member_texts, kids).map(lambda p: f"<[ {p[0]} ]> {p[1]}"),
        st.tuples(kids, st.sampled_from([" & ", " | ", " -> ", " <-> "]), kids).map("".join),
        kids.map(lambda text: f"({text})"),
    ),
    max_leaves=10,
)


@settings(max_examples=400, deadline=None)
@given(_surface_texts, _edits)
def test_parser_agrees_with_reference_on_surface_text_from_the_grammar(text, edits):
    _agree(text)
    _agree(_edited(text, edits))


def _translate_outputs():
    rng = random.Random(4242)
    texts = []
    for _ in range(20):
        mech = random_mechanism(rng, max_sellers=2, max_buyers=3)
        texts.append(format_formula(translate(mech, random_formula(rng, mech, 2, coalition=True))))
    instance = QbfInstance((FORALL, EXISTS), PIff(PVar(1), POr(PVar(2), PNot(PVar(1)))))
    mech, form = gen_qbf_gadget(instance)
    texts.append(format_formula(translate(mech, form)))
    return texts


def test_parser_agrees_with_reference_on_translate_outputs():
    rng = random.Random(77)
    for text in _translate_outputs():
        _agree(text)
        for _ in range(4):
            edits = [
                (rng.random(), rng.choice(("", *_EDIT_CHARS))) for _ in range(rng.randint(1, 3))
            ]
            _agree(_edited(text, edits))


def _groups(text: str) -> dict[str, list[int]]:
    """Each parenthesised group's text -> the offsets where it starts, in order."""
    opened: list[int] = []
    out: dict[str, list[int]] = {}
    for at, char in enumerate(text):
        if char == "(":
            opened.append(at)
        elif char == ")" and opened:
            start = opened.pop()
            out.setdefault(text[start : at + 1], []).append(start)
    return out


def test_repeated_groups_parse_to_one_node():
    out = parse_formula("(a & b) & (a & b)")
    assert out.left is out.right and out.left == And(Nominal("a"), Nominal("b"))
    # the same text spaced differently is another group, parsed on its own
    out = parse_formula("(a & b) & (a  &  b)")
    assert out.left is not out.right and out.left == out.right
    # translate prints a small DAG as a large tree; parsed, it is that DAG
    text = _translate_outputs()[-1]
    assert len(text) > 20000
    assert distinct_nodes(parse_formula(text)) < 1000


def test_parser_agrees_with_reference_after_an_edit_to_the_last_copy_of_a_group():
    # the first copies of a group are parsed and remembered; an edit to the
    # last copy must not be answered with the node of the first ones
    rng = random.Random(1515)
    edited = 0
    for text in _translate_outputs():
        repeated = [(g, starts[-1]) for g, starts in _groups(text).items() if len(starts) > 1]
        for group, last in rng.sample(repeated, min(4, len(repeated))):
            at = last + rng.randrange(1, len(group) - 1)
            for char in ("", rng.choice(_EDIT_CHARS), rng.choice("xyz09")):
                _agree(text[:at] + char + text[at + 1 :])
                edited += 1
    assert edited > 60
    # spacing inside a group can change its parse, so it tells groups apart
    for text in (
        "([<s>] p) & ([ <s>] p)",
        "([ <s>] p) & ([<s>] p)",
        "(<[s]> p) | (<[s] > p) | (<[s]> p)",
        "(<s:a> p) & (< s:a> p) & (<s:a>p)",
        "(ut[a]>2 | p) -> (ut[a] >2 | p) -> (ut[a]> 2 | p)",
        "((a)) & ((a) ) & (( a))",
    ):
        _agree(text)


# the parentheses of wins(...) neither start a repeat nor are one: "2wins" is
# the number 2 and the word wins, "xwins" one word
_WINS_AND_REPEATS = (
    "(gamma) & wins(gamma)",
    "wins(gamma) & (gamma)",
    "wins (a) | (a)",
    "(x) & 2wins(x)",
    "(x) & xwins(x)",
    # a syntax error in the first token after a repeat, and at the repeat
    "(b | c) & (b | c) d",
    "(b) & a (b)",
)


def test_parser_agrees_with_reference_around_wins_and_repeats():
    assert parse_formula("(gamma) & wins(gamma)") == And(Nominal("gamma"), Heart("gamma"))
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("(b) & a (b)")
    assert str(err.value) == "line 1, column 9: unexpected trailing input '('"
    edits = 0
    for text in _WINS_AND_REPEATS:
        _agree(text)
        for at in range(len(text) + 1):
            _agree(text[:at] + text[at + 1 :])
            for char in "()w2 x":
                _agree(text[:at] + char + text[at:])
                _agree(text[:at] + char + text[at + 1 :])
            edits += 13
    assert edits > 1000


def test_shared_chain_text_is_read_in_tokens_linear_in_its_levels():
    # translate prints the chain's shared coalition diamond once per use, so
    # each level doubles the text, while the tokens read grow by a constant
    chain = referral_chain()
    sizes, tokens = [], []
    for levels in (8, 10, 12):
        text = "(<[sigma]> wins(gamma))" + " <-> (<[sigma]> wins(gamma))" * levels
        flat = format_formula(translate(chain, parse_formula(text)))
        sizes.append(len(flat))
        tokens.append(len(_Parser(flat).tokens))
        assert distinct_nodes(parse_formula(flat)) < 300
    assert sizes[1] > 3.9 * sizes[0] and sizes[2] > 3.9 * sizes[1]
    assert tokens[2] - tokens[1] == tokens[1] - tokens[0] < 100


def test_non_ascii_characters_are_reported_where_they_stand():
    for text, column in (("ut[a] >= ²", 10), ("ut[a] >= 1²", 11), ("a &\n ½", 2)):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert str(err.value).endswith(f"unexpected character {text.strip()[-1]!r}")
        assert err.value.column == column
    # letters and decimal digits of other scripts still lex as before
    assert parse_formula("σ & ut[a²] >= ٣") == And(
        Nominal("σ"), LinearGeq((ut("a²"),), 3)
    )


def test_format_prints_formulas_of_any_depth():
    deep = TRUE
    for _ in range(5000):
        deep = Not(deep)
    assert format_formula(deep) == "!" * 5000 + "0 >= 0"


def test_names_and_coalition_scan_answer_at_any_depth():
    # the parser reads a chain of binary operators in a loop, so it returns
    # trees deeper than Python's stack; these two walks keep their own stack
    deep = parse_formula("a -> " * 1500 + "a")
    assert names_of(deep) == {"a"}
    assert contains_coalition(deep) is False
    assert contains_coalition(parse_formula("a -> " * 1500 + "<[s]> a")) is True


def test_names_and_coalition_scan_visit_a_shared_chain_once_per_node():
    # each level of a parsed <-> chain uses the level below twice, so 40
    # levels have 2**40 paths: a walk as a tree would never end, and the
    # timer turns that into a failure
    chain = parse_formula("alpha" + " <-> beta" * 40)
    last = parse_formula("alpha" + " <-> beta" * 40 + " <-> <[sigma]> wins(gamma)")
    with time_limit(5, "a scan walked the shared chain as a tree"):
        assert names_of(chain) == {"alpha", "beta"}
        assert contains_coalition(chain) is False
        assert names_of(last) == {"alpha", "beta", "sigma", "gamma"}
        assert contains_coalition(last) is True


# --- the printer against the tree printer it replaced --------------------------


@st.composite
def _shared_dags(draw):
    """Formulas built bottom-up from a pool, each new node taking its
    children from the whole pool, so that a node is often reached from
    several parents, at different precedence levels."""
    pool = draw(st.lists(_core_atoms, min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 10))):
        pick = st.sampled_from(tuple(pool))
        pool.append(
            draw(
                st.one_of(
                    st.builds(Not, pick),
                    st.builds(And, pick, pick),
                    st.builds(Box, pick),
                    st.builds(Diffuse, _bindings, pick),
                    st.builds(CoalitionBox, _coalitions, pick),
                )
            )
        )
    return pool[-1]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_core_formulas, _sugar_formulas, _shared_dags()))
def test_format_prints_the_bytes_of_the_tree_printer(f):
    assert format_formula(f) == reference_format(f)


def test_format_parenthesises_each_use_of_a_shared_node_on_its_own():
    shared = And(Nominal("a"), Not(Nominal("b")))
    for form, text in (
        # first met as the left operand of &, then under !
        (And(shared, Not(shared)), "a & !b & !(a & !b)"),
        # first met under !, then as the left operand of &
        (And(Not(shared), And(shared, Nominal("c"))), "!(a & !b) & (a & !b & c)"),
        (And(shared, shared), "a & !b & (a & !b)"),
        (Box(And(Not(shared), Diffuse((("s", SKIP),), shared))), "[] (!(a & !b) & [s:skip] (a & !b))"),
        # a shared node inside a shared node
        (And(Not(And(shared, shared)), And(shared, shared)), "!(a & !b & (a & !b)) & (a & !b & (a & !b))"),
        (And(Not(Nominal("a")), Not(Nominal("a"))), "!a & !a"),
    ):
        assert format_formula(form) == reference_format(form) == text
        assert parse_formula(text) == form


def test_format_prints_the_bytes_of_the_tree_printer_on_translate_outputs():
    from pathlib import Path

    from damcheck import load_mechanism

    # QBF gadgets with 2 and 3 variables, then formulas on both samples
    two = QbfInstance((FORALL, EXISTS), PIff(PVar(1), POr(PVar(2), PNot(PVar(1)))))
    three = QbfInstance(
        (EXISTS, FORALL, EXISTS),
        PAnd(POr(PVar(1), PVar(3)), PIff(PVar(2), POr(PVar(3), PNot(PVar(1))))),
    )
    flats = [translate(*gen_qbf_gadget(instance)) for instance in (two, three)]
    samples = Path(__file__).resolve().parent.parent / "samples"
    chain = load_mechanism(samples / "referral-chain.json")
    pair = load_mechanism(samples / "two-sellers.json")
    for mech, text in (
        (chain, "(<[sigma]> (wins(gamma) | ut[sigma] <= 8)) & (alpha -> <> beta) & <sigma:alpha> ut[sigma] > 7"),
        (chain, "(<[sigma]> wins(delta)) | false"),
        (chain, "(<[sigma]> wins(gamma))" + " <-> (<[sigma]> wins(gamma))" * 6),
        (pair, "<[sigma1]> (wins(beta) <-> <[sigma2]> ut[sigma1] >= 1)"),
        (pair, "[< >] <[sigma1, sigma2]> !wins(alpha)"),
    ):
        flats.append(translate(mech, parse_formula(text)))
    assert len(format_formula(flats[1])) > 900_000
    for flat in flats:
        assert format_formula(flat) == reference_format(flat)
