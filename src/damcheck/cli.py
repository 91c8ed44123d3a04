"""Command-line front end: load mechanisms, check formulas, search strategies,
test equilibria, and generate reduction gadgets.

Exit codes: 0 = query answered true / witness found, 1 = answered false /
nothing found, 2 = usage or data error."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, checker, gadgets, mechjson
from .errors import DamError, UnknownAgentError
from .formula import format_formula
from .model import BUYER, SKIP, JointAction, Mechanism, joint_action
from .parser import parse_formula


def _read(path) -> str:
    """A text file's contents; undecodable bytes are a data error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DamError(f"{path} is not UTF-8 text: {exc}") from None


def _formula_arg(text: str) -> str:
    """Inline formula text, or @path to read it from a file."""
    if text.startswith("@"):
        return _read(text[1:]).strip()
    return text


def _agent_arg(mechanism: Mechanism, ident: str):
    agent = mechanism.network.agent_by_id(ident)
    if agent is None:
        raise UnknownAgentError(f"no agent with id {ident!r} in the mechanism")
    return agent


def _parse_profile(mechanism: Mechanism, text: str) -> tuple[JointAction, ...]:
    """Profile syntax: steps separated by ';', entries 'sellerId:buyerId' or
    'sellerId:skip' separated by ','; sellers omitted from a step SKIP, a
    seller may appear at most once in a step, and a target must be a buyer."""
    net = mechanism.network
    steps = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise DamError("empty step in --profile")
        targets: dict = {}
        for entry in chunk.split(","):
            entry = entry.strip()
            if ":" not in entry:
                raise DamError(f"profile entry {entry!r} is not sellerId:target")
            sid, tid = (part.strip() for part in entry.split(":", 1))
            if sid in targets:
                raise DamError(f"seller {sid!r} twice in --profile step {chunk!r}")
            if tid == "skip":
                targets[sid] = SKIP
            else:
                agent = net.agent_by_id(tid)
                if agent is None:
                    raise DamError(f"unknown agent id {tid!r} in --profile")
                if agent.kind != BUYER:
                    raise DamError(f"profile target {tid!r} is not a buyer")
                targets[sid] = net.canonical_name(agent)
        steps.append(joint_action(net, targets))
    return tuple(steps)


def _action_doc(action: JointAction) -> dict:
    return {
        sell.id: ("skip" if target is SKIP else target)
        for sell, target in action.entries
    }


def _report(result: bool, witness, stats: checker.CheckStats, as_json: bool) -> None:
    if as_json:
        doc = {
            "result": result,
            "stats": {
                "agents": stats.agents,
                "states_explored": stats.states_explored,
                "elapsed_ms": round(stats.elapsed_ms, 3),
            },
        }
        if witness is not None or not result:
            doc["witness"] = witness
        print(json.dumps(doc))
    elif witness is not None:
        print(json.dumps(witness))
    else:
        print("true" if result else "false")


def _cmd_check(args) -> int:
    mechanism = mechjson.load_mechanism(args.model)
    agent = _agent_arg(mechanism, args.at)
    formula = parse_formula(_formula_arg(args.formula))
    stats = checker.CheckStats()
    query = checker.CheckQuery(mechanism, agent, formula)
    if args.strategic:
        result = checker.check_strategic(query, stats)
    else:
        result = checker.check(query, stats)
    _report(result, None, stats, args.json)
    return 0 if result else 1


def _cmd_strategy(args) -> int:
    mechanism = mechjson.load_mechanism(args.model)
    goal = parse_formula(_formula_arg(args.goal))
    stats = checker.CheckStats()
    outcome = analysis.strategy_exists(
        analysis.StrategyQuery(mechanism, goal, args.max_depth), stats
    )
    witness = (
        [_action_doc(a) for a in outcome.witness] if outcome.found else None
    )
    _report(outcome.found, witness, stats, args.json)
    return 0 if outcome.found else 1


def _cmd_ne(args) -> int:
    mechanism = mechjson.load_mechanism(args.model)
    profile = _parse_profile(mechanism, args.profile)
    stats = checker.CheckStats()
    outcome = analysis.check_ne_direct(analysis.NeQuery(mechanism, profile), stats)
    if args.emit_formula:
        print(format_formula(analysis.ne_formula(mechanism, profile, outcome.utilities)))
        return 0
    witness = None
    if outcome.violation is not None:
        v = outcome.violation
        witness = {
            "seller": v.seller.id,
            "position": v.position,
            "target": "skip" if v.target is SKIP else v.target.id,
            "baseline": str(v.baseline),
            "achieved": str(v.achieved),
        }
    _report(outcome.is_ne, witness, stats, args.json)
    return 0 if outcome.is_ne else 1


def _cmd_translate(args) -> int:
    mechanism = mechjson.load_mechanism(args.model)
    formula = parse_formula(_formula_arg(args.formula))
    print(format_formula(analysis.translate(mechanism, formula)))
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "sat":
        instance = gadgets.read_dimacs(_read(args.dimacs))
        mechanism, goal = gadgets.gen_sat_gadget(instance)
        mechjson.save_mechanism(mechanism, args.out_model)
        mechjson._write_text(args.out_goal, format_formula(goal) + "\n")
        return 0
    if args.kind == "qbf":
        instance = gadgets.read_qdimacs(_read(args.qdimacs))
        mechanism, formula = gadgets.gen_qbf_gadget(instance)
        mechjson.save_mechanism(mechanism, args.out_model)
        mechjson._write_text(args.out_formula, format_formula(formula) + "\n")
        return 0
    m1, m2, formula = gadgets.expressivity_pair(args.n)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mechjson.save_mechanism(m1, out / "m1.json")
    mechjson.save_mechanism(m2, out / "m2.json")
    mechjson._write_text(out / "formula.txt", format_formula(formula) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="damcheck",
        description="Model checking and strategy analysis for diffusion auctions.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula at an agent")
    p.add_argument("--model", required=True)
    p.add_argument("--at", required=True, metavar="AGENTID")
    p.add_argument("--formula", required=True)
    p.add_argument("--strategic", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("strategy", help="search for a goal-reaching action sequence")
    p.add_argument("--model", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_strategy)

    p = sub.add_parser("ne", help="test a profile for Nash equilibrium")
    p.add_argument("--model", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--emit-formula", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_ne)

    p = sub.add_parser("translate", help="eliminate coalition operators")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(handler=_cmd_translate)

    p = sub.add_parser("gen", help="generate reduction gadgets")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("sat")
    g.add_argument("--dimacs", required=True)
    g.add_argument("--out-model", required=True)
    g.add_argument("--out-goal", required=True)
    g.set_defaults(handler=_cmd_gen)
    g = gen_sub.add_parser("qbf")
    g.add_argument("--qdimacs", required=True)
    g.add_argument("--out-model", required=True)
    g.add_argument("--out-formula", required=True)
    g.set_defaults(handler=_cmd_gen)
    g = gen_sub.add_parser("expressivity")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out-dir", required=True)
    g.set_defaults(handler=_cmd_gen)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
