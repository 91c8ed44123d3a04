"""Seeded inputs, query tasks and reference verdicts for the four workloads.

Nothing here imports damcheck at module level: `run.py` imports the package
during the timed set-up and passes it in, so set-up time includes the import.

A task is one verdict. Its `run` performs the damcheck calls through a
recorder (which times each call and enforces the per-query limit) and returns
the verdict. Its `reference` computes the expected verdict without the code
under test: a brute-force oracle, a property that holds by construction, the
generated document, or a golden verdict recorded at the seed commit."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("sat-search", "modal-check", "strategic", "load-ne")

# Golden pools: inputs without an oracle come from fixed pools whose verdicts
# were recorded once (make_golden.py). modal-check asks one network under a
# seeded renaming of its buyers; the full scale uses every nested coalition
# and NE entry, in seeded order.
MODAL_POOL_FORMULAS = 12
NESTED_POOL = 40
NE_SWEEP_POOL = 24
NE_RANDOM_POOL = 72

# Sizes per scale. "full" is what the benchmark measures; "tiny" runs every
# workload in a second or two for the self-test.
SCALES = {
    "full": {
        # (variables, clauses) of each satisfiable-or-not draw: every shape
        # up to 3 variables and 5 clauses, the cheap ones twice, and a few
        # wider ones; a pass stays near two seconds, so a run has ten
        "sat_shapes": [(v, c) for v in (1, 2, 3) for c in range(1, 6)]
        + [(v, c) for v in (1, 2, 3) for c in range(1, 4)]
        + [(4, 1), (4, 2), (4, 3), (5, 1), (5, 2)],
        "sat_unsat": (2, 3),  # variables of each unsatisfiable draw
        "box_depths": (1, 2, 3),
        "modal_formulas": MODAL_POOL_FORMULAS,
        "qbf_sizes": (3, 4, 5),
        "qbf_per_size": 8,
        "nested": NESTED_POOL,
        "roundtrips": 6,
        "load_buyers": (2000, 3000, 4000),
        "ne_sweep": NE_SWEEP_POOL,
        "ne_random": NE_RANDOM_POOL,
    },
    "tiny": {
        "sat_shapes": [(1, 1), (1, 2), (2, 1), (2, 2), (4, 1)],
        "sat_unsat": (2,),
        "box_depths": (1, 2),
        "modal_formulas": 3,
        "qbf_sizes": (3,),
        "qbf_per_size": 2,
        "nested": 2,
        "roundtrips": 1,
        "load_buyers": (40,),
        "ne_sweep": 1,
        "ne_random": 2,
    },
}

# SAT instances come from one fixed draw (seeded like the criterion-5 test
# suite), which the run seed relabels: every seed poses isomorphic problems
# of nearly equal cost.
SAT_BASE_SEED = 20250810
# QBF draws likewise come from one fixed draw, with seeded operand swaps.
QBF_BASE_SEED = 606


@dataclass
class Task:
    kind: str
    run: Callable[[Any], Any]
    reference: Callable[[], Any]
    matches: Callable[[Any, Any], bool] = field(default=lambda got, want: got == want)


def doc_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# --- mechanism documents --------------------------------------------------------


def market_doc(
    rng: random.Random,
    n_sellers: int,
    n_buyers: int,
    density: float,
    incentive_range=(0, 2),
    seller_budget=(1, 3),
    rational: bool = False,
    regular: int | None = None,
    distinct: bool = False,
) -> dict:
    """A canonical mechanism document, in the exact form save_mechanism
    writes: names sorted, zero incentives omitted, edges as sorted id pairs in
    sorted order. `density` is the share of allowed pairs that become edges;
    the edge count is fixed by it, only the choice of pairs is random. With
    `regular`, every buyer has that many buyer-friends instead and each
    seller `density` of the buyers, spread evenly. With `distinct`, buyers'
    valuations are pairwise distinct, so no auction outcome depends on how
    buyers are named (see relabel_buyers).

    Every buyer's budget exceeds her valuation and every seller's budget is at
    least 1, so `ut[@self] >= 1 | wins(@self)` holds at every agent."""
    width = max(2, len(str(n_buyers - 1)))
    sellers = [f"s{i}" for i in range(n_sellers)]
    buyers = [f"b{j:0{width}d}" for j in range(n_buyers)]

    def amount(lo: int, hi: int):
        if rational and rng.random() < 0.3:
            return f"{rng.randint(2 * lo + 1, 2 * hi + 1)}/2"
        return rng.randint(lo, hi)

    seller_entries = [
        {"id": s, "names": [f"sig{s[1:]}"], "budget": rng.randint(*seller_budget)}
        for s in sellers
    ]
    valuations = rng.sample(range(n_buyers), n_buyers) if distinct else None
    buyer_entries = []
    for j, b in enumerate(buyers):
        valuation = valuations[j] if distinct else rng.randint(0, 3)
        incentives = {}
        for s in sellers:
            if rng.random() < 0.7:
                value = amount(*incentive_range)
                if value != 0:
                    incentives[s] = value
        buyer_entries.append(
            {
                "id": b,
                "names": [f"bet{b[1:]}"],
                "budget": valuation + rng.randint(1, 3),
                "valuation": valuation,
                "incentives": incentives,
            }
        )
    if regular is None:
        pairs = [(s, b) for s in sellers for b in buyers]
        pairs += list(itertools.combinations(buyers, 2))
        edges = rng.sample(pairs, round(density * len(pairs)))
    else:
        edges = _regular_edges(rng, sellers, buyers, regular, round(density * n_buyers))
    return {
        "sellers": seller_entries,
        "buyers": buyer_entries,
        "edges": sorted(sorted(e) for e in edges),
        "rule": "smf",
    }


def _regular_edges(rng, sellers, buyers, degree: int, per_seller: int):
    """A random degree-regular buyer graph (a circulant shuffled by
    degree-preserving edge swaps) plus evenly spread seller edges."""
    n = len(buyers)
    edges = [(j, (j + k) % n) for j in range(n) for k in range(1, degree // 2 + 1)]
    present = {frozenset(e) for e in edges}
    for _ in range(20 * len(edges)):
        i, k = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[k]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or {a, d} in present or {c, b} in present:
            continue
        present -= {frozenset((a, b)), frozenset((c, d))}
        present |= {frozenset((a, d)), frozenset((c, b))}
        edges[i], edges[k] = (a, d), (c, b)
    out = [(buyers[a], buyers[b]) for a, b in edges]
    order = rng.sample(buyers, n)
    for i, s in enumerate(sellers):
        out += [(s, order[(i * per_seller + j) % n]) for j in range(per_seller)]
    return out


def chain_doc(rng: random.Random, n_buyers: int) -> dict:
    """A large two-seller mechanism for the JSON layer: a buyer path with
    random chords, aliases, and rational budgets and incentives, canonical
    in the same sense as market_doc."""
    width = len(str(n_buyers - 1))
    buyers = [f"b{j:0{width}d}" for j in range(n_buyers)]
    entries = []
    for b in buyers:
        valuation = rng.randint(0, 6)
        names = [f"bet{b[1:]}"] + ([f"alias{b[1:]}"] if rng.random() < 0.2 else [])
        incentives = {
            s: _rational(Fraction(rng.randint(1, 9), rng.randint(2, 4)))
            for s in ("s0", "s1")
            if rng.random() < 0.5
        }
        entries.append(
            {
                "id": b,
                "names": sorted(names),
                "budget": _rational(Fraction(2 * valuation + rng.randint(1, 5), 2)),
                "valuation": valuation,
                "incentives": incentives,
            }
        )
    edges = {(buyers[j], buyers[j + 1]) for j in range(n_buyers - 1)}
    edges |= {tuple(sorted(rng.sample(buyers, 2))) for _ in range(n_buyers // 2)}
    edges |= {tuple(sorted((s, rng.choice(buyers)))) for s in ("s0", "s1") for _ in range(3)}
    return {
        "sellers": [
            {"id": f"s{i}", "names": [f"sig{i}"], "budget": rng.randint(1, 9)}
            for i in range(2)
        ],
        "buyers": entries,
        "edges": [list(e) for e in sorted(edges)],
        "rule": "smf",
    }


def _rational(value: Fraction):
    """A rational as save_mechanism prints it: integers bare, else "p/q"."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


# --- formula text ---------------------------------------------------------------


def _atom(rng: random.Random, seller_noms, buyer_noms) -> str:
    names = seller_noms + buyer_noms
    subject = "@self" if rng.random() < 0.4 else rng.choice(names)
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(names)
    if roll < 0.4:
        return f"wins({subject})"
    if roll < 0.75:
        op = rng.choice([">=", "<=", "<", ">", "="])
        bound = rng.choice(["0", "1", "2", "3", "5", "3/2"])
        return f"ut[{subject}] {op} {bound}"
    other = rng.choice(names)
    return f"2*ut[{subject}] - ut[{other}] {rng.choice(['>=', '<'])} {rng.randint(-2, 4)}"


def _bindings(rng: random.Random, targets: dict[str, list[str]]) -> str:
    sellers = sorted(targets)
    chosen = [s for s in sellers if rng.random() < 0.7] or sellers[:1]
    return ", ".join(
        f"{s}:{rng.choice(targets[s]) if rng.random() < 0.8 else 'skip'}"
        for s in chosen
    )


def modal_formula(rng: random.Random, targets: dict[str, list[str]], depth: int) -> str:
    """A random coalition-free formula of modal depth `depth` (2 or 3): one
    or two friendship boxes or diamonds, the rest diffusion boxes or
    diamonds whose sellers target buyers from `targets` (seller name -> buyer
    names) or skip."""
    seller_noms = sorted(targets)
    buyer_noms = sorted({b for bs in targets.values() for b in bs})
    friendly = rng.randint(1, depth - 1)
    chain = ["friend"] * friendly + ["diffuse"] * (depth - friendly)
    rng.shuffle(chain)

    def go(ops) -> str:
        if not ops:
            return _atom(rng, seller_noms, buyer_noms)
        body = go(ops[1:])
        if rng.random() < 0.4:
            side = _atom(rng, seller_noms, buyer_noms)
            body = f"{body} {rng.choice(['&', '|', '->'])} {side}"
        if ops[0] == "friend":
            prefix = rng.choice(["[]", "<>"])
        else:
            binds = _bindings(rng, targets)
            prefix = f"[{binds}]" if rng.random() < 0.5 else f"<{binds}>"
        text = f"{prefix} ({body})"
        return f"!{text}" if rng.random() < 0.2 else text

    return go(chain)


def box_family(k: int) -> str:
    """True at every agent of a market_doc network, by construction."""
    return "[] " * k + "(ut[@self] >= 1 | wins(@self))"


# --- golden pools -----------------------------------------------------------------


def modal_network() -> dict:
    return market_doc(random.Random(10_000), 3, 29, 0.5, regular=14, distinct=True)


def relabel_buyers(rng: random.Random, doc: dict) -> tuple[dict, dict[str, str]]:
    """The same market with buyers renamed by a random permutation, and the
    old-to-new map of ids and names. Sellers keep their names: ties between
    sellers go to the least id. Buyer valuations are distinct, so every
    verdict carries over along the renaming."""
    ids = [b["id"] for b in doc["buyers"]]
    perm = dict(zip(ids, rng.sample(ids, len(ids))))
    rename = dict(perm)
    for b in doc["buyers"]:
        rename[b["names"][0]] = "bet" + perm[b["id"]][1:]
    buyers = sorted(
        ({**b, "id": perm[b["id"]], "names": [rename[b["names"][0]]]} for b in doc["buyers"]),
        key=lambda b: b["id"],
    )
    edges = sorted(sorted(rename.get(x, x) for x in e) for e in doc["edges"])
    return {**doc, "buyers": buyers, "edges": edges}, rename


def modal_formulas(doc: dict) -> list[str]:
    """One fixed draw of formulas for the modal-check network. Diffusions
    target the seller's own buyer-friends, so most of them are feasible and
    compute an update."""
    rng = random.Random(20_000)
    name = {a["id"]: a["names"][0] for a in doc["sellers"] + doc["buyers"]}
    targets = {name[s["id"]]: [] for s in doc["sellers"]}
    for a, b in doc["edges"]:
        if name[b] in targets:
            a, b = b, a
        if name[a] in targets:
            targets[name[a]].append(name[b])
    return [modal_formula(rng, targets, rng.choice((2, 3))) for _ in range(MODAL_POOL_FORMULAS)]


def nested_pool_entry(i: int) -> tuple[dict, str, str]:
    """(document, formula, agent id). Even entries nest three coalition
    operators over three sellers; odd entries nest two over two sellers, small
    enough for make_golden.py to cross-check through translate."""
    rng = random.Random(30_000 + i)
    if i % 2 == 0:
        doc = market_doc(rng, 3, 3, 0.6, incentive_range=(0, 1))
        order = ["sig0", "sig1", "sig2"]
    else:
        doc = market_doc(rng, 2, 4, 0.5, incentive_range=(0, 1))
        order = ["sig0", "sig1"]
    rng.shuffle(order)
    sellers = [s["names"][0] for s in doc["sellers"]]
    buyers = [b["names"][0] for b in doc["buyers"]]
    text = f"({_atom(rng, sellers, buyers)} | {_atom(rng, sellers, buyers)})"
    for nom in reversed(order):
        text = (f"<[{nom}]> " if rng.random() < 0.6 else f"[<{nom}>] ") + text
    agent = rng.choice([a["id"] for a in doc["sellers"] + doc["buyers"]])
    return doc, text, agent


def ne_sweep_entry(i: int) -> tuple[dict, str]:
    """All-skip profiles where every incentive exceeds every valuation: no
    deviation can pay for itself, so the test sweeps every deviation."""
    rng = random.Random(40_000 + i)
    doc = market_doc(rng, 3, 12, 0.4, incentive_range=(4, 6), seller_budget=(5, 9))
    for entry in doc["buyers"]:
        entry["incentives"] = {s["id"]: rng.randint(4, 6) for s in doc["sellers"]}
    steps = rng.randint(1, 3)
    return doc, ";".join(["s0:skip"] * steps)


def ne_random_entry(i: int) -> tuple[dict, list[str]]:
    """A mechanism and candidate profiles of 1-3 steps, each seller targeting
    one of her initial buyer-friends or skipping; make_golden.py keeps the
    first feasible one."""
    rng = random.Random(50_000 + i)
    doc = market_doc(rng, 3, 10, 0.45, rational=True)
    name = {b["id"]: b["names"][0] for b in doc["buyers"]}
    friends = {s["id"]: sorted(name[x] for e in doc["edges"] if s["id"] in e for x in e if x in name)
               for s in doc["sellers"]}
    candidates = []
    for _ in range(40):
        steps = []
        for _ in range(rng.randint(1, 3)):
            steps.append(",".join(
                f"{s}:{rng.choice(f) if f and rng.random() < 0.7 else 'skip'}"
                for s, f in friends.items()
            ))
        candidates.append(";".join(steps))
    return doc, candidates


def parse_profile(dc, net, text: str):
    """'s0:bet01,s1:skip;...' -> tuple of JointActions."""
    actions = []
    for step in text.split(";"):
        targets = {}
        for item in step.split(","):
            sid, target = item.split(":")
            targets[sid] = dc.SKIP if target == "skip" else target
        actions.append(dc.joint_action(net, targets))
    return tuple(actions)


def ne_verdict(result) -> list:
    """What the reference pins down: equilibrium or not, and the sellers'
    final utilities. The violation found first depends on search order."""
    return [result.is_ne, [str(u) for u in result.utilities]]


# --- random SAT / QBF instances ----------------------------------------------------


def relabel_cnf(rng: random.Random, nv: int, clauses):
    """The same instance under a random renaming of variables and order of
    literals within each clause. Negating variables or reordering clauses
    would change the search's cost by up to a fifth per instance (the goal
    tests clauses, and the gadget offers values, in a fixed order); renaming
    and literal order change it by under 6%."""
    names = list(range(1, nv + 1))
    rng.shuffle(names)
    return tuple(
        tuple(rng.sample([names[abs(l) - 1] * (1 if l > 0 else -1) for l in cl], 3))
        for cl in clauses
    )


def random_cnf(rng: random.Random, nv: int, nc: int):
    return tuple(
        tuple(rng.choice([-1, 1]) * rng.randint(1, nv) for _ in range(3))
        for _ in range(nc)
    )


def unsat_cnf(rng: random.Random, nv: int):
    """An unsatisfiable 3-CNF over nv (2 or 3) variables: a two-variable core
    (every sign pattern of a, b) or a three-variable one (a forces b and !b
    unless !a, which forces c and !c), padded to three literals, shuffled."""
    variables = list(range(1, nv + 1))
    rng.shuffle(variables)
    sign = {v: rng.choice([-1, 1]) for v in variables}
    a, b = sign[variables[0]] * variables[0], sign[variables[1]] * variables[1]
    if nv == 2:
        core = [(a, b), (a, -b), (-a, b), (-a, -b)]
    else:
        c = sign[variables[2]] * variables[2]
        core = [(a, b), (a, -b), (-a, c), (-a, -c)]
    clauses = [pair + (rng.choice(pair),) for pair in core]
    rng.shuffle(clauses)
    return tuple(tuple(rng.sample(cl, 3)) for cl in clauses)


def random_matrix(g, rng: random.Random, depth: int, n: int):
    if depth == 0 or rng.random() < 0.3:
        return g.PVar(rng.randint(1, n))
    if rng.random() < 0.25:
        return g.PNot(random_matrix(g, rng, depth - 1, n))
    ctor = rng.choice([g.PAnd, g.POr, g.PImplies, g.PIff])
    return ctor(random_matrix(g, rng, depth - 1, n), random_matrix(g, rng, depth - 1, n))


def commute_qbf(g, rng: random.Random, instance):
    """The same instance with the operands of a random set of conjunctions,
    disjunctions and biconditionals swapped. The truth value and the number
    of states check_strategic explores stay the same; negating variables
    instead would change that number up to fourfold."""

    def go(node):
        kind = type(node)
        if kind is g.PVar or kind is g.PConst:
            return node
        if kind is g.PNot:
            return g.PNot(go(node.child))
        left, right = go(node.left), go(node.right)
        if kind is not g.PImplies and rng.random() < 0.5:
            left, right = right, left
        return kind(left, right)

    return g.QbfInstance(instance.prefix, go(instance.matrix))


def random_qbf(g, rng: random.Random, n: int):
    prefix = tuple(rng.choice([g.FORALL, g.EXISTS]) for _ in range(n))
    matrix = random_matrix(g, rng, 3, n)
    # every variable occurs, so no quantifier is vacuous
    for v in range(1, n + 1):
        if v not in g.prop_vars(matrix):
            matrix = rng.choice([g.PAnd, g.POr, g.PIff])(matrix, g.PVar(v))
    return g.QbfInstance(prefix, matrix)


# --- the four workloads -------------------------------------------------------------


def fresh(dc, mech):
    """A new Mechanism over the same network: damcheck caches allocations and
    updates on Mechanism instances, so every query starts uncached."""
    return dc.Mechanism(mech.network, mech.rule)


def build(name: str, seed: int, scale: str, dc, golden: dict, tmpdir: Path) -> list[Task]:
    size = SCALES[scale]
    rng = random.Random(f"{name}:{seed}")
    return {
        "sat-search": _sat_search,
        "modal-check": _modal_check,
        "strategic": _strategic,
        "load-ne": _load_ne,
    }[name](rng, size, dc, golden, tmpdir)


def _sat_search(rng, size, dc, golden, tmpdir) -> list[Task]:
    base = random.Random(SAT_BASE_SEED)
    instances = [
        dc.CnfInstance(nv, relabel_cnf(rng, nv, random_cnf(base, nv, nc)))
        for nv, nc in size["sat_shapes"]
    ]
    instances += [
        dc.CnfInstance(nv, relabel_cnf(rng, nv, unsat_cnf(base, nv)))
        for nv in size["sat_unsat"]
    ]
    rng.shuffle(instances)

    tasks = []
    for instance in instances:
        mech, goal = dc.gen_sat_gadget(instance)

        def run(rec, mech=mech, goal=goal):
            stats = dc.CheckStats()
            query = dc.StrategyQuery(fresh(dc, mech), goal)
            found = rec.query("query", dc.strategy_exists, query, stats).found
            rec.count("analysis.states", stats.states_explored)
            return found

        tasks.append(Task("strategy_exists", run, lambda i=instance: dc.sat_oracle(i)))
    return tasks


def _check_golden(matches: bool) -> None:
    if not matches:
        raise ValueError("golden file does not match the generated inputs; rerun make_golden.py")


def _golden_mechanism(dc, doc: dict, digest: str):
    _check_golden(doc_digest(doc) == digest)
    return dc.mechanism_from_dict(doc)


def _check_task(dc, kind: str, span: str, mech, agent, text: str, reference, strategic=False):
    checker = dc.check_strategic if strategic else dc.check

    def run(rec):
        formula = rec.step("parse", dc.parse_formula, text, size=len(text))
        stats = dc.CheckStats()
        query = dc.CheckQuery(fresh(dc, mech), agent, formula)
        verdict = rec.query(span, checker, query, stats)
        rec.count("checker.states", stats.states_explored)
        return verdict

    return Task(kind, run, reference)


def _modal_check(rng, size, dc, golden, tmpdir) -> list[Task]:
    entry = golden["modal"]
    base = modal_network()
    _check_golden(doc_digest(base) == entry["digest"] and modal_formulas(base) == entry["formulas"])
    doc, rename = relabel_buyers(rng, base)
    mech = dc.mechanism_from_dict(doc)
    base_ids = [a["id"] for a in base["sellers"] + base["buyers"]]
    agents = [mech.network.agent_by_id(rename.get(a, a)) for a in base_ids]
    tasks = []
    for k in size["box_depths"]:
        for agent in agents:
            tasks.append(_check_task(dc, "check", "query", mech, agent, box_family(k), lambda: True))
    for f in rng.sample(range(len(entry["formulas"])), size["modal_formulas"]):
        text = re.sub(r"bet\d+", lambda m: rename[m.group()], entry["formulas"][f])
        bits = entry["verdicts"][f]
        for a, agent in enumerate(agents):
            tasks.append(
                _check_task(dc, "check", "query", mech, agent, text, lambda bit=bits[a]: bit == "1")
            )
    rng.shuffle(tasks)
    return tasks


def _strategic(rng, size, dc, golden, tmpdir) -> list[Task]:
    g = dc.gadgets
    base = random.Random(QBF_BASE_SEED)
    tasks = []
    for n in size["qbf_sizes"]:
        for _ in range(size["qbf_per_size"]):
            instance = commute_qbf(g, rng, random_qbf(g, base, n))
            mech, form = dc.gen_qbf_gadget(instance)

            def run(rec, mech=mech, form=form):
                stats = dc.CheckStats()
                query = dc.CheckQuery(fresh(dc, mech), mech.network.sellers[0], form)
                verdict = rec.query("query", dc.check_strategic, query, stats)
                rec.count("checker.states", stats.states_explored)
                return verdict

            tasks.append(Task("check_strategic", run, lambda i=instance: dc.qbf_oracle(i)))

    for index in rng.sample(range(NESTED_POOL), size["nested"]):
        doc, text, agent_id = nested_pool_entry(index)
        entry = golden["nested"][index]
        _check_golden(entry["formula"] == text and entry["agent"] == agent_id)
        mech = _golden_mechanism(dc, doc, entry["digest"])
        agent = mech.network.agent_by_id(agent_id)
        tasks.append(
            _check_task(dc, "check_strategic", "query", mech, agent, text,
                        lambda v=entry["verdict"]: v, strategic=True)
        )

    for _ in range(size["roundtrips"]):
        instance = commute_qbf(g, rng, random_qbf(g, base, 2))
        mech, form = dc.gen_qbf_gadget(instance)

        def run(rec, mech=mech, form=form):
            flat = rec.query("translate", dc.translate, fresh(dc, mech), form)
            text = rec.step("format", dc.format_formula, flat)
            rec.count("translate.output_bytes", len(text))
            back = rec.step("parse", dc.parse_formula, text, size=len(text))
            stats = dc.CheckStats()
            query = dc.CheckQuery(fresh(dc, mech), mech.network.sellers[0], back)
            verdict = rec.query("query", dc.check, query, stats)
            rec.count("checker.states", stats.states_explored)
            return verdict

        tasks.append(Task("translate+check", run, lambda i=instance: dc.qbf_oracle(i)))
    rng.shuffle(tasks)
    return tasks


def _load_ne(rng, size, dc, golden, tmpdir) -> list[Task]:
    tasks = []
    for n, buyers in enumerate(size["load_buyers"]):
        doc = chain_doc(rng, buyers)
        source = tmpdir / f"mech{n}.json"
        copy = tmpdir / f"mech{n}.saved.json"
        text = json.dumps(doc, indent=2) + "\n"
        source.write_text(text, encoding="utf-8")

        def run(rec, source=source, copy=copy, nbytes=len(text)):
            loaded = rec.query("load", dc.load_mechanism, source, size=nbytes)
            rec.query("save", dc.save_mechanism, loaded, copy, size=nbytes)
            reloaded = rec.query("load", dc.load_mechanism, copy, size=nbytes)
            return loaded, reloaded

        def matches(got, doc, copy=copy):
            loaded, reloaded = got
            saved = json.loads(copy.read_text(encoding="utf-8"))
            return saved == doc and loaded == reloaded

        tasks.append(Task("load/save/reload", run, lambda d=doc: d, matches))

    picks = [("sweep", i) for i in rng.sample(range(NE_SWEEP_POOL), size["ne_sweep"])]
    picks += [("random", i) for i in rng.sample(range(NE_RANDOM_POOL), size["ne_random"])]
    for kind, index in picks:
        entry = golden["ne_" + kind][index]
        if kind == "sweep":
            doc, profile = ne_sweep_entry(index)
            _check_golden(entry["profile"] == profile)
        else:
            doc, candidates = ne_random_entry(index)
            _check_golden(entry["profile"] in candidates)
        mech = _golden_mechanism(dc, doc, entry["digest"])
        actions = parse_profile(dc, mech.network, entry["profile"])

        def run(rec, mech=mech, actions=actions):
            query = dc.NeQuery(fresh(dc, mech), actions)
            return ne_verdict(rec.query("query", dc.check_ne_direct, query))

        tasks.append(Task("check_ne_direct", run, lambda v=entry["verdict"]: v))
    rng.shuffle(tasks)
    return tasks
