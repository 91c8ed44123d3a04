"""Reference semantics over Mechanism values, kept apart from the engine.

`reference_check` evaluates a formula by direct recursion, materialising each
successor through `model.apply_joint_action`; `reference_ne` is the
equilibrium test as a loop over whole deviated profiles. Neither memoises
anything, so both are exponential and meant for small instances only: they
are the oracles the engine's answers are compared against. `reference_validate`
is the invariant check as it stood before `AgentId` became a named tuple: one
generic `==` or lookup per friendship entry, money compared as Fractions."""

from __future__ import annotations

import itertools

from damcheck import auction
from damcheck.errors import ActionError
from damcheck.formula import (
    SELF,
    And,
    Box,
    CoalitionBox,
    Diffuse,
    Heart,
    LinearGeq,
    Nominal,
    Not,
    desugar,
)
from damcheck.model import (
    _IDENT_RE,
    BUYER,
    RESERVED_WORDS,
    SELLER,
    SKIP,
    AgentId,
    JointAction,
    Mechanism,
    action_precondition,
    apply_joint_action,
    joint_action,
    resolve_name,
)


def reference_check(mechanism: Mechanism, at: AgentId, formula) -> bool:
    """Truth of a formula (coalition operators allowed) at an agent."""
    return _eval(mechanism, at, desugar(formula))


def action_from_bindings(mechanism: Mechanism, bindings) -> JointAction:
    """JointAction for formula-level bindings; unlisted sellers SKIP."""
    partial: dict[AgentId, object] = {}
    for nominal, target in bindings:
        agent = resolve_name(mechanism, nominal)
        if agent.kind != SELLER:
            raise ActionError(f"{nominal!r} does not name a seller")
        if agent in partial:
            raise ActionError(f"seller {agent.id!r} bound twice in one action")
        partial[agent] = target
    return joint_action(mechanism.network, partial)


def _eval(m: Mechanism, at: AgentId, node) -> bool:
    kind = type(node)
    if kind is Nominal:
        return resolve_name(m, node.name) == at
    if kind is Not:
        return not _eval(m, at, node.child)
    if kind is And:
        return _eval(m, at, node.left) and _eval(m, at, node.right)
    if kind is Box:
        return all(_eval(m, b, node.child) for b in m.network.friends_of(at))
    if kind is Heart:
        alloc = auction.evaluate(m)
        who = at if node.target is SELF else resolve_name(m, node.target)
        return alloc.placement[who] == 1
    if kind is LinearGeq:
        alloc = auction.evaluate(m)
        total = 0
        for coeff, term in node.terms:
            who = at if term.subject is SELF else resolve_name(m, term.subject)
            total += coeff * alloc.utility[who]
        return total >= node.bound
    if kind is Diffuse:
        action = action_from_bindings(m, node.bindings)
        if not action_precondition(m, action):
            return True
        return _eval(apply_joint_action(m, action), at, node.child)
    if kind is CoalitionBox:
        return _eval_coalition(m, at, node)
    raise TypeError(f"cannot evaluate node {node!r}")


def _eval_coalition(m: Mechanism, at: AgentId, node) -> bool:
    """For every feasible coalition choice there is a counter-choice of the
    remaining sellers whose combined action realises the body."""
    net = m.network
    members: set[AgentId] = set()
    for nominal in node.coalition:
        agent = resolve_name(m, nominal)
        if agent.kind != SELLER:
            raise ActionError(f"coalition member {nominal!r} does not name a seller")
        members.add(agent)
    coalition = sorted(members)
    others = [s for s in sorted(net.sellers) if s not in members]
    choices: list[object] = [net.canonical_name(b) for b in net.buyers]
    choices.append(SKIP)

    for picked in itertools.product(choices, repeat=len(coalition)):
        c_action = joint_action(net, dict(zip(coalition, picked)))
        if not action_precondition(m, c_action):
            continue  # infeasible coalition choice: the implication is vacuous
        answered = False
        for counter in itertools.product(choices, repeat=len(others)):
            assignment = dict(zip(coalition, picked))
            assignment.update(zip(others, counter))
            full = joint_action(net, assignment)
            if not action_precondition(m, full):
                continue
            if _eval(apply_joint_action(m, full), at, node.child):
                answered = True
                break
        if not answered:
            return False
    return True


def _final_state(mechanism: Mechanism, profile) -> Mechanism | None:
    current = mechanism
    for action in profile:
        if not action_precondition(current, action):
            return None
        current = apply_joint_action(current, action)
    return current


def reference_ne(mechanism: Mechanism, profile):
    """(is_ne, violation, utilities) for a feasible profile, where violation
    is (seller, position, target, baseline, achieved) of the first improving
    deviation in (position, seller, target) order, or None."""
    net = mechanism.network
    profile = tuple(profile)
    final = _final_state(mechanism, profile)
    assert final is not None, "the profile itself must be feasible"
    sellers = sorted(net.sellers)
    baseline = {s: auction.evaluate(final).utility[s] for s in sellers}
    utilities = tuple(baseline[s] for s in sellers)
    options: list[object] = [net.canonical_name(b) for b in sorted(net.buyers)]
    options.append(SKIP)
    for position, action in enumerate(profile):
        for sell in sellers:
            original = action.target_of(sell)
            original_agent = SKIP if original is SKIP else resolve_name(mechanism, original)
            for candidate in options:
                candidate_agent = (
                    SKIP if candidate is SKIP else resolve_name(mechanism, candidate)
                )
                if candidate_agent == original_agent:
                    continue
                targets = action.targets()
                targets[sell] = candidate
                deviated = list(profile)
                deviated[position] = joint_action(net, targets)
                outcome = _final_state(mechanism, deviated)
                if outcome is None:
                    continue
                achieved = auction.evaluate(outcome).utility[sell]
                if achieved > baseline[sell]:
                    violation = (sell, position, candidate_agent, baseline[sell], achieved)
                    return False, violation, utilities
    return True, None, utilities


def reference_validate(mechanism: Mechanism) -> list[str]:
    """The invariant violations of `model.validate_mechanism`, in its order."""
    net = mechanism.network
    out: list[str] = []
    if not net.sellers:
        out.append("no sellers: at least one seller is required")
    if not net.buyers:
        out.append("no buyers: at least one buyer is required")

    seen_ids: set[str] = set()
    for agent in net.agents():
        if type(agent.id) is not str:
            out.append(f"agent id {agent.id!r} is not a string")
        if agent.id in seen_ids:
            out.append(f"duplicate agent id {agent.id!r}")
        seen_ids.add(agent.id)
    for s in net.sellers:
        if s.kind != SELLER:
            out.append(f"agent {s.id!r} listed as seller but has kind {s.kind!r}")
    for b in net.buyers:
        if b.kind != BUYER:
            out.append(f"agent {b.id!r} listed as buyer but has kind {b.kind!r}")

    agents = set(net.agents())
    for agent, nbrs in net.friends.items():
        if agent not in agents:
            out.append(f"friendship mentions unknown agent {agent.id!r}")
            continue
        for other in nbrs:
            if other not in agents:
                out.append(
                    f"friendship of {agent.id!r} mentions unknown agent {other.id!r}"
                )
                continue
            if other == agent:
                out.append(f"friendship irreflexivity violated at {agent.id!r}")
                continue
            if agent not in net.friends_of(other):
                out.append(
                    f"friendship not symmetric: {agent.id!r}-{other.id!r}"
                )
            if agent.kind == SELLER and other.kind == SELLER:
                # report each unordered seller-seller edge once
                if agent.id < other.id:
                    out.append(
                        f"seller-seller edge forbidden: {agent.id!r}-{other.id!r}"
                    )

    for agent in net.agents():
        bdg = net.budget.get(agent)
        if bdg is None:
            out.append(f"no budget for agent {agent.id!r}")
        elif bdg < 0:
            out.append(f"negative budget for agent {agent.id!r}")
    for b in net.buyers:
        val = net.valuation.get(b)
        if val is None:
            out.append(f"no valuation for buyer {b.id!r}")
            continue
        if val < 0:
            out.append(f"negative valuation for buyer {b.id!r}")
        bdg = net.budget.get(b)
        if bdg is not None and val > bdg:
            out.append(f"valuation exceeds budget for buyer {b.id!r}")

    for (buy, sell), amount in net.incentive.items():
        if buy not in agents or buy.kind != BUYER:
            out.append(f"incentive keyed by non-buyer {buy.id!r}")
        if sell not in agents or sell.kind != SELLER:
            out.append(f"incentive keyed by non-seller {sell.id!r}")
        if amount < 0:
            out.append(f"negative incentive for ({buy.id!r}, {sell.id!r})")

    named = set()
    for nominal, agent in net.names.items():
        if not _IDENT_RE.match(nominal) or nominal in RESERVED_WORDS:
            out.append(f"nominal {nominal!r} is not a usable identifier")
        if agent not in agents:
            out.append(f"nominal {nominal!r} names unknown agent {agent.id!r}")
        named.add(agent)
    for agent in net.agents():
        if agent not in named:
            out.append(f"agent {agent.id!r} has no name")

    if not auction.has_rule(mechanism.rule):
        out.append(f"unknown auction rule {mechanism.rule!r}")
    return out
