#!/usr/bin/env python3
"""Record the golden verdicts for the inputs that have no oracle.

    python3 perfbench/make_golden.py

Run once, at the commit whose answers define the reference; writes
perfbench/golden.json. Pools are generated by workloads.py from fixed seeds,
so the file stores only a digest of each mechanism, the formula or profile
text, and the verdict. Two-seller nested coalitions of depth two are also
checked through translate + check before their verdict is recorded."""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import damcheck as dc  # noqa: E402
import workloads as wl  # noqa: E402


def feasible(mech, actions) -> bool:
    for action in actions:
        if not dc.action_precondition(mech, action):
            return False
        mech = dc.apply_joint_action(mech, action)
    return True


def main() -> int:
    doc = wl.modal_network()
    formulas = wl.modal_formulas(doc)
    mech = dc.mechanism_from_dict(doc)
    verdicts = [
        "".join("1" if dc.check(dc.CheckQuery(mech, a, dc.parse_formula(text))) else "0"
                for a in mech.network.agents())
        for text in formulas
    ]
    golden = {
        "modal": {"digest": wl.doc_digest(doc), "formulas": formulas, "verdicts": verdicts},
        "nested": [], "ne_sweep": [], "ne_random": [],
    }
    print(f"modal: {sum(v.count('1') for v in verdicts)} of {32 * len(formulas)} true", flush=True)

    # the renaming argument behind modal-check: a renamed network answers alike
    renamed, rename = wl.relabel_buyers(random.Random(1), doc)
    moved = dc.mechanism_from_dict(renamed)
    for text, bits in zip(formulas, verdicts):
        form = dc.parse_formula(re.sub(r"bet\d+", lambda m: rename[m.group()], text))
        for a, bit in zip(mech.network.agents(), bits):
            if dc.check(dc.CheckQuery(moved, moved.network.agent_by_id(rename.get(a.id, a.id)), form)) != (bit == "1"):
                raise SystemExit(f"renaming changed the verdict of {text!r} at {a.id}")

    crosschecked = 0
    for i in range(wl.NESTED_POOL):
        doc, text, agent_id = wl.nested_pool_entry(i)
        mech = dc.mechanism_from_dict(doc)
        agent = mech.network.agent_by_id(agent_id)
        form = dc.parse_formula(text)
        verdict = dc.check_strategic(dc.CheckQuery(mech, agent, form))
        if len(mech.network.sellers) == 2:
            flat = dc.translate(mech, form)
            if dc.check(dc.CheckQuery(mech, agent, flat)) != verdict:
                raise SystemExit(f"nested entry {i}: translate + check disagrees")
            crosschecked += 1
        golden["nested"].append(
            {"digest": wl.doc_digest(doc), "formula": text, "agent": agent_id, "verdict": verdict})
    print(f"nested: {crosschecked} cross-checked through translate", flush=True)

    for i in range(wl.NE_SWEEP_POOL):
        doc, profile = wl.ne_sweep_entry(i)
        mech = dc.mechanism_from_dict(doc)
        result = dc.check_ne_direct(dc.NeQuery(mech, wl.parse_profile(dc, mech.network, profile)))
        if not result.is_ne:
            raise SystemExit(f"sweep entry {i} is not an equilibrium")
        golden["ne_sweep"].append(
            {"digest": wl.doc_digest(doc), "profile": profile, "verdict": wl.ne_verdict(result)})

    for i in range(wl.NE_RANDOM_POOL):
        doc, candidates = wl.ne_random_entry(i)
        mech = dc.mechanism_from_dict(doc)
        profile = next(
            c for c in candidates if feasible(mech, wl.parse_profile(dc, mech.network, c)))
        result = dc.check_ne_direct(dc.NeQuery(mech, wl.parse_profile(dc, mech.network, profile)))
        golden["ne_random"].append(
            {"digest": wl.doc_digest(doc), "profile": profile, "verdict": wl.ne_verdict(result)})
    print(f"ne: {sum(e['verdict'][0] for e in golden['ne_random'])} of "
          f"{wl.NE_RANDOM_POOL} random profiles are equilibria", flush=True)

    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
