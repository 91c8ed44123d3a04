"""Command-line interface: subcommands, exit codes, file round trips."""

import json

import pytest

from damcheck import (
    check,
    check_strategic,
    load_mechanism,
    parse_formula,
    sat_oracle,
    save_mechanism,
    strategy_exists,
    translate,
)
from damcheck.analysis import StrategyQuery
from damcheck.checker import CheckQuery
from damcheck.cli import main
from damcheck.errors import DamError, FormulaSyntaxError
from damcheck.formula import TRUE, Box, CoalitionBox, Not
from damcheck.gadgets import read_dimacs

from helpers import referral_chain, two_seller_market


@pytest.fixture()
def chain_path(tmp_path):
    path = tmp_path / "referral_chain.json"
    save_mechanism(referral_chain(), path)
    return str(path)


@pytest.fixture()
def market_path(tmp_path):
    path = tmp_path / "two_seller_market.json"
    save_mechanism(two_seller_market(), path)
    return str(path)


def test_shipped_samples_load_and_answer():
    from pathlib import Path

    base = Path(__file__).resolve().parent.parent / "samples"
    chain = base / "referral-chain.json"
    pair = base / "two-sellers.json"
    assert main(["check", "--model", str(chain), "--at", "a",
                 "--formula", "<sigma:alpha> wins(gamma)"]) == 0
    assert main(["ne", "--model", str(pair), "--profile", "s1:d,s2:c"]) == 1


def test_check_true_exit_zero(chain_path, capsys):
    rc = main(["check", "--model", chain_path, "--at", "a", "--formula", "ut[sigma]=7"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "true"


def test_check_false_exit_one(chain_path, capsys):
    rc = main(["check", "--model", chain_path, "--at", "a", "--formula", "ut[sigma]=8"])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "false"


def test_check_formula_from_file(chain_path, tmp_path, capsys):
    spec = tmp_path / "query.txt"
    spec.write_text("<sigma:alpha> wins(gamma)\n", encoding="utf-8")
    rc = main(["check", "--model", chain_path, "--at", "a", "--formula", f"@{spec}"])
    assert rc == 0


def test_check_strategic_flag_and_json(chain_path, capsys):
    rc = main(
        ["check", "--model", chain_path, "--at", "a",
         "--formula", "<[sigma]> wins(gamma)", "--strategic", "--json"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] is True
    assert doc["stats"]["agents"] == 5
    assert "elapsed_ms" in doc["stats"]


def test_check_coalition_without_strategic_is_data_error(chain_path, capsys):
    rc = main(
        ["check", "--model", chain_path, "--at", "a", "--formula", "<[sigma]> true"]
    )
    assert rc == 2


def test_check_unknown_agent_and_missing_file(chain_path, capsys):
    assert main(["check", "--model", chain_path, "--at", "zz", "--formula", "true"]) == 2
    assert main(["check", "--model", "/nope.json", "--at", "a", "--formula", "true"]) == 2
    assert main(["check", "--model", chain_path, "--at", "a", "--formula", "wins("]) == 2


def test_strategy_witness_and_exit_codes(chain_path, capsys):
    rc = main(["strategy", "--model", chain_path, "--goal", "wins(gamma)"])
    assert rc == 0
    steps = json.loads(capsys.readouterr().out)
    assert steps == [{"s": "a"}] or steps == [{"s": "alpha"}]

    rc = main(["strategy", "--model", chain_path, "--goal", "wins(delta)", "--max-depth", "4"])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "false"


def test_strategy_json_report(chain_path, capsys):
    rc = main(["strategy", "--model", chain_path, "--goal", "wins(gamma)", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] is True
    assert doc["witness"] == [{"s": "alpha"}]
    assert doc["stats"]["states_explored"] >= 1


def test_ne_subcommand(market_path, capsys):
    rc = main(["ne", "--model", market_path, "--profile", "s1:d,s2:c"])
    assert rc == 1
    witness = json.loads(capsys.readouterr().out)
    assert witness["seller"] == "s1" and witness["target"] == "a"

    rc = main(["ne", "--model", market_path, "--profile", "s1:skip,s2:skip;s1:d"])
    assert rc in (0, 1)  # multi-step profiles parse and run


def test_ne_json_reports_what_it_did(market_path, capsys):
    rc = main(["ne", "--model", market_path, "--profile", "s1:d,s2:c", "--json"])
    assert rc == 1
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["agents"] == 8
    assert stats["states_explored"] >= 1


def test_ne_emit_formula(market_path, capsys):
    rc = main(["ne", "--model", market_path, "--profile", "s1:d,s2:c", "--emit-formula"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "sigma1" in text and "<=" not in text  # desugared output
    from damcheck import parse_formula

    parse_formula(text)  # the emitted schema is valid concrete syntax


def test_translate_prints_formula(chain_path, capsys):
    rc = main(["translate", "--model", chain_path, "--formula", "<[sigma]> wins(gamma)"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sigma:" in out  # unfolded into concrete actions


def test_gen_sat_roundtrip(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n", encoding="utf-8")
    model = tmp_path / "m.json"
    goal = tmp_path / "g.txt"
    rc = main(["gen", "sat", "--dimacs", str(cnf), "--out-model", str(model),
               "--out-goal", str(goal)])
    assert rc == 0
    load_mechanism(model)  # reloads without validation errors

    rc = main(["strategy", "--model", str(model), "--goal", f"@{goal}"])
    expected = sat_oracle(read_dimacs(cnf.read_text(encoding="utf-8")))
    assert (rc == 0) == expected


def test_gen_qbf_roundtrip(tmp_path, capsys):
    qdimacs = tmp_path / "psi.qdimacs"
    qdimacs.write_text("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n", encoding="utf-8")
    model = tmp_path / "m.json"
    formula = tmp_path / "f.txt"
    rc = main(["gen", "qbf", "--qdimacs", str(qdimacs), "--out-model", str(model),
               "--out-formula", str(formula)])
    assert rc == 0
    load_mechanism(model)
    rc = main(["check", "--model", str(model), "--at", "s",
               "--formula", f"@{formula}", "--strategic"])
    assert rc == 0  # forall p exists q: (p or q) and (!p or !q) is true


def test_exit_code_contract_randomized(tmp_path, capsys):
    import random

    from damcheck import format_formula
    from damcheck.formula import desugar

    from helpers import random_formula, random_mechanism

    rng = random.Random(321)
    for index in range(25):
        mech = random_mechanism(rng)
        path = tmp_path / f"m{index}.json"
        save_mechanism(mech, path)
        anyone = rng.choice(mech.network.agents())
        form = format_formula(desugar(random_formula(rng, mech, depth=1)))
        rc = main(["check", "--model", str(path), "--at", anyone.id,
                   "--formula", form])
        out = capsys.readouterr().out.strip()
        assert (rc, out) in ((0, "true"), (1, "false"))
        # invalid inputs of three different kinds all exit 2
        assert main(["check", "--model", str(path), "--at", anyone.id,
                     "--formula", form + " &"]) == 2
        assert main(["check", "--model", str(path), "--at", "no_such_agent",
                     "--formula", form]) == 2
        assert main(["strategy", "--model", str(path) + ".missing",
                     "--goal", "true"]) == 2
        capsys.readouterr()


def test_gen_expressivity(tmp_path, capsys):
    out = tmp_path / "pair"
    rc = main(["gen", "expressivity", "--n", "2", "--out-dir", str(out)])
    assert rc == 0
    m1 = load_mechanism(out / "m1.json")
    m2 = load_mechanism(out / "m2.json")
    formula = (out / "formula.txt").read_text(encoding="utf-8").strip()
    assert main(["check", "--model", str(out / "m1.json"), "--at", "s",
                 "--formula", formula, "--strategic"]) == 1
    assert main(["check", "--model", str(out / "m2.json"), "--at", "s",
                 "--formula", formula, "--strategic"]) == 0


@pytest.mark.parametrize(
    "formula", ["!" * 2000 + "true", "(" * 200 + "true" + ")" * 200]
)
def test_too_deep_formula_exits_two(formula, capsys):
    from pathlib import Path

    chain = Path(__file__).resolve().parent.parent / "samples" / "referral-chain.json"
    rc = main(["check", "--model", str(chain), "--at", "a", "--formula", formula])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_translate_prints_a_deep_formula_that_parses_back(chain_path, capsys):
    text = "!" * 900 + "true"
    assert main(["translate", "--model", chain_path, "--formula", text]) == 0
    node = parse_formula(capsys.readouterr().out)
    # walked, not compared with ==: dataclass equality recurses per level
    for _ in range(900):
        assert type(node) is Not
        node = node.child
    assert node == TRUE


def test_translate_of_a_formula_too_deep_to_translate_exits_two(chain_path, capsys):
    # the parser reads a chain of implications in a loop, but the parsed
    # tree nests three levels per implication
    text = "alpha -> " * 1500 + "alpha"
    assert main(["translate", "--model", chain_path, "--formula", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_formula_too_deep_to_translate_names_translate(chain_path, capsys):
    # translate evaluates nothing, so its message must not say it does
    text = "alpha -> " * 1500 + "alpha"
    assert main(["translate", "--model", chain_path, "--formula", text]) == 2
    err = capsys.readouterr().err
    assert "translate" in err
    assert "evaluate" not in err


def _box_chain(levels: int):
    form = TRUE
    for _ in range(levels):
        form = Box(form)
    return form


_TOO_DEEP = {
    "check": lambda m, f: check(CheckQuery(m, m.network.sellers[0], f)),
    "check_strategic": lambda m, f: check_strategic(CheckQuery(m, m.network.sellers[0], f)),
    "strategy_exists": lambda m, f: strategy_exists(StrategyQuery(m, f)),
    # a coalition box, so that translate must walk the chain to unfold it
    "translate": lambda m, f: translate(m, CoalitionBox(frozenset({"sigma"}), f)),
}


@pytest.mark.parametrize("entry", [*_TOO_DEEP, "parse_formula", "cli"])
def test_formula_nested_too_deeply_is_refused_by_name(entry, chain_path, tmp_path, capsys):
    if entry == "parse_formula":
        # the column depends on the stack, so only the line is pinned
        message = "^line 1, column [0-9]+: formula nests too deeply$"
        with pytest.raises(FormulaSyntaxError, match=message):
            parse_formula("!" * 5000 + "a")
    elif entry == "cli":
        text = tmp_path / "deep.txt"
        text.write_text("alpha -> " * 1500 + "alpha", encoding="utf-8")
        argv = ["check", "--model", chain_path, "--at", "a", "--formula", f"@{text}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: formula nests too deeply for check\n"
    else:
        with pytest.raises(DamError, match=f"^formula nests too deeply for {entry}$"):
            _TOO_DEEP[entry](referral_chain(), _box_chain(5000))


@pytest.mark.parametrize(
    "content, argv",
    [
        (b"\xff{}", ["check", "--model", "{bad}", "--at", "a", "--formula", "true"]),
        (b"\xfftrue", ["check", "--model", "{chain}", "--at", "a", "--formula", "@{bad}"]),
        (
            b"p cnf 1 1\n\xff1 0\n",
            ["gen", "sat", "--dimacs", "{bad}", "--out-model", "{out}", "--out-goal", "{out}"],
        ),
        (
            b"[" * 100_000 + b"]" * 100_000,
            ["check", "--model", "{bad}", "--at", "a", "--formula", "true"],
        ),
        (
            b'{"sellers": [{"id": "s", "budget": ' + b"9" * 5000 + b"}]}",
            ["check", "--model", "{bad}", "--at", "a", "--formula", "true"],
        ),
        (
            b"",
            ["check", "--model", "{chain}", "--at", "a", "--formula", "ut[sigma] >= " + "9" * 5000],
        ),
        (
            b'{"sellers": [{"id": "s1", "names": ["sig1"], "budget": "1e5000"}], '
            b'"buyers": [{"id": "a", "names": ["alpha"], "budget": 3, "valuation": 1}, '
            b'{"id": "b", "names": ["beta"], "budget": 3, "valuation": 2}], '
            b'"edges": [["s1", "a"], ["a", "b"]], "rule": "smf"}',
            ["ne", "--model", "{bad}", "--profile", "s1:skip"],
        ),
        (b"", ["ne", "--model", "{chain}", "--profile", "s:b,s:a"]),
        (b"", ["strategy", "--model", "{chain}", "--goal", "true", "--max-depth", "-1"]),
    ],
    ids=[
        "mechanism-not-utf8",
        "formula-file-not-utf8",
        "dimacs-not-utf8",
        "mechanism-nested-too-deep",
        "mechanism-integer-too-long",
        "formula-integer-too-long",
        "rational-with-exponent",
        "seller-twice-in-profile-step",
        "negative-max-depth",
    ],
)
def test_bad_input_exits_two(content, argv, chain_path, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    args = [a.format(bad=bad, chain=chain_path, out=tmp_path / "out") for a in argv]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")


_TWO_NAMES = {
    "sellers": [{"id": "s", "names": ["sigma", "sig"], "budget": 5}],
    "buyers": [{"id": "a", "names": ["alpha"], "budget": 1, "valuation": 1},
               {"id": "b", "names": ["beta"], "budget": 1, "valuation": 1}],
    "edges": [["s", "a"], ["s", "b"]],
    "rule": "smf",
}
_ONE_ID_TWICE = {
    "sellers": [{"id": "s", "names": ["sigma"], "budget": 5}],
    "buyers": [{"id": "s", "names": ["alpha"], "budget": 1, "valuation": 1}],
    "edges": [["s", "s"]],
    "rule": "smf",
}


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (None, ["translate", "--model", "{chain}", "--formula", "<[alpha]> true"],
         "coalition member 'alpha' does not name a seller"),
        (None, ["check", "--model", "{chain}", "--at", "a", "--strategic",
                "--formula", "<[alpha]> true"],
         "coalition member 'alpha' does not name a seller"),
        (_TWO_NAMES, ["check", "--model", "{doc}", "--at", "a",
                      "--formula", "[sigma:alpha, sig:beta] true"],
         "seller 'sig' bound twice in one action"),
        (_ONE_ID_TWICE, ["check", "--model", "{doc}", "--at", "s", "--formula", "true"],
         "duplicate agent ids"),
        (None, ["ne", "--model", "{market}", "--profile", "s1"],
         "profile entry 's1' is not sellerId:target"),
        (None, ["ne", "--model", "{market}", "--profile", "s1:zz"],
         "unknown agent id 'zz' in --profile"),
        (None, ["ne", "--model", "{market}", "--profile", ""], "empty step in --profile"),
        (None, ["translate", "--model", "{chain}", "--formula", "zz"],
         "nominal 'zz' names no agent of the mechanism"),
        (None, ["translate", "--model", "{chain}", "--formula", "[sigma:zz] true"],
         "nominal 'zz' names no agent of the mechanism"),
        (None, ["translate", "--model", "{chain}", "--formula", "wins(zz) & ut[yy] >= 1"],
         "nominal 'zz' names no agent of the mechanism"),
        (None, ["translate", "--model", "{chain}", "--formula", "<[sigma]> zz"],
         "nominal 'zz' names no agent of the mechanism"),
        (None, ["translate", "--model", "{chain}", "--formula", "[alpha:beta] true"],
         "'alpha' does not name a seller"),
        (None, ["translate", "--model", "{chain}", "--formula", "[sigma:sigma] true"],
         "action target 'sigma' names a non-buyer"),
        (_TWO_NAMES, ["translate", "--model", "{doc}",
                      "--formula", "[sigma:alpha, sig:beta] true"],
         "seller 'sig' bound twice in one action"),
        (None, ["ne", "--model", "{market}", "--profile", "s1:s2"],
         "profile target 's2' is not a buyer"),
    ],
    ids=[
        "translate-coalition-of-a-buyer",
        "strategic-coalition-of-a-buyer",
        "seller-bound-twice-by-two-names",
        "duplicate-agent-ids",
        "profile-entry-without-target",
        "profile-unknown-target",
        "profile-empty",
        "translate-unknown-nominal",
        "translate-unknown-action-target",
        "translate-unknown-subjects",
        "translate-unknown-nominal-under-a-coalition",
        "translate-action-of-a-buyer",
        "translate-action-targets-a-seller",
        "translate-seller-bound-twice-by-two-names",
        "profile-target-not-a-buyer",
    ],
)
def test_refusal_exits_two_and_names_its_cause(
    doc, argv, message, chain_path, market_path, tmp_path, capsys
):
    path = tmp_path / "m.json"
    if doc is not None:
        path.write_text(json.dumps(doc), encoding="utf-8")
    args = [a.format(chain=chain_path, market=market_path, doc=path) for a in argv]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ne_formula_with_a_number_too_long_to_print_exits_two(tmp_path, capsys):
    # the seller's utility, budget plus price, has 4,301 digits
    amount = "9" * 4300
    buyer = {"budget": amount, "valuation": amount, "incentives": {"s1": amount}}
    doc = {
        "sellers": [{"id": "s1", "names": ["sig1"], "budget": amount}],
        "buyers": [{"id": "a", "names": ["alpha"], **buyer},
                   {"id": "b", "names": ["beta"], **buyer}],
        "edges": [["s1", "a"], ["a", "b"]],
        "rule": "smf",
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["ne", "--model", str(path), "--profile", "s1:skip", "--emit-formula"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "kind, flag, text",
    [
        ("qbf", "--qdimacs", "p cnf 1 1\ne 7 0\n7 0\n"),
        ("sat", "--dimacs", "p cnf 2 3\n1 2 0\n"),
    ],
    ids=["quantified-variable-above-header", "clause-count-off-header"],
)
def test_gen_rejects_input_that_contradicts_its_header(kind, flag, text, tmp_path, capsys):
    source = tmp_path / "instance"
    source.write_text(text, encoding="utf-8")
    out = str(tmp_path / "out")
    rc = main(["gen", kind, flag, str(source), "--out-model", out,
               f"--out-{'goal' if kind == 'sat' else 'formula'}", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


_ONE_PAIR = {
    "sellers": [{"id": "sig", "names": ["sigma"], "budget": 1}],
    "buyers": [{"id": "b", "names": ["beta"], "budget": 1, "valuation": 1}],
    "edges": [["sig", "b"]],
    "rule": "smf",
}


@pytest.mark.parametrize(
    "doc",
    [{"sellers": None}, {"sellers": 5, "buyers": []}, {**_ONE_PAIR, "edges": None}],
    ids=["sellers-null", "sellers-number", "edges-null"],
)
def test_document_section_that_is_not_a_list_exits_two(doc, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", "--model", str(path), "--at", "sig", "--formula", "true"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "must be a list" in captured.err
    # the same document with the section as a list loads
    if "edges" in doc:
        path.write_text(json.dumps(_ONE_PAIR), encoding="utf-8")
        assert main(["check", "--model", str(path), "--at", "sig", "--formula", "true"]) == 0


_BETA = {"id": "b", "names": ["beta"], "budget": 1, "valuation": 1}
_FIVE = {"names": ["five"], "budget": 1, "valuation": 1}


@pytest.mark.parametrize(
    "doc",
    [
        {"sellers": [{"id": None, "names": ["sigma"], "budget": 1}],
         "buyers": [_BETA], "edges": [["None", "b"]]},
        {"sellers": [{"id": "sig", "names": ["sigma"], "budget": 1}],
         "buyers": [{"id": 5, **_FIVE}, _BETA], "edges": [["sig", "b"], ["5", "b"]]},
        {"sellers": [{"id": "None", "names": ["sigma"], "budget": 1}],
         "buyers": [{"id": "5", **_FIVE}, _BETA], "edges": [["None", 5], ["None", "b"]]},
    ],
    ids=["seller-id-null", "buyer-id-number", "edge-endpoint-number"],
)
def test_agent_id_that_is_not_a_string_exits_two(doc, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", "--model", str(path), "--at", "b", "--formula", "true"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "string" in captured.err
