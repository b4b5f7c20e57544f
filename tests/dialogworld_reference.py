"""Reference forms of the dialog-world turn for the equality tests.

The package encodes states and matches entities through lookup tables that
``WorldSchema`` builds once (feature offsets, slot positions, per-value entity
bitmasks) and sorts action sets with an attribute key. This module keeps the
forms those tables replace: the encoder that loops over every slot and scans
the last user acts for each one, entity matching by comparing every entity's
slot values, and the agent-turn and user-turn updates that sort whole
``AtomicAction`` sets and rebuild the agenda once per answered request, the
expert that builds its turn as an ``AtomicAction`` set, and the user's opening
turn as its own agenda loop (``user_open``), which the package replaced with
``user_step`` on an empty agent turn. The user builds a new ``UserAct`` for
every answer and every re-queued need (``_refill_agenda``), where the package
reuses one per dialog. Its ``UserState`` keeps the requests and bookings
uttered but not yet seen met, and it checks the goal's needs every turn
(``_needs_met``), where the package walks the goal for its unmet needs only
when the agenda runs dry. The goal sampler draws its weighted counts with
``rng.choice(p=...)``, where the package searches a cached CDF, and it
checks the database and every goal it draws (``_check_satisfiable``), where
the package relies on ``WorldSchema``'s load-time check. Tests require
the package to produce equal states, match lists, openings, goals, generator
states and episode metrics, and agent turns whose actions are these sets in
sorted order. ``enumerate_goals`` lists every satisfiable goal of a small
world for the exhaustive expert checks.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from banditmatch import dialogworld
from banditmatch.dialogworld import (
    ACTIVE_DOMAIN_WEIGHTS,
    BOOK,
    BOOKING_PROB,
    BYE,
    CONSTRAINT_COUNT_WEIGHTS,
    DONTCARE,
    GENERAL,
    INFORM,
    MATCH_BUCKETS,
    MAX_INITIATIVE,
    NOOFFER,
    OFFER,
    REQUEST,
    REQUEST_COUNT_WEIGHTS,
    TURN_BUCKETS,
    AtomicAction,
    DialogContext,
    UserAct,
    UserGoal,
    WorldError,
    WorldSchema,
    _most_discriminative_slot,
)


def _weighted_count(rng: np.random.Generator, weights, limit: int) -> int:
    w = np.array(weights[: limit + 1], dtype=float)
    w /= w.sum()
    return int(rng.choice(len(w), p=w))


def sample_goal(schema: WorldSchema, rng: np.random.Generator) -> UserGoal:
    """Draw a satisfiable goal: constraints are copied from a database entity."""
    for dom in schema.domains:
        if not dom.entities:
            raise WorldError(f"domain {dom.name!r} has an empty database")
    n_dom = len(schema.domains)
    weights = np.array(ACTIVE_DOMAIN_WEIGHTS[:n_dom], dtype=float)
    weights /= weights.sum()
    n_active = int(rng.choice(np.arange(1, len(weights) + 1), p=weights))
    picked = rng.choice(n_dom, size=n_active, replace=False)
    active = [schema.domains[i] for i in sorted(picked)]

    constraints: dict[str, dict[str, str]] = {}
    requests: dict[str, list[str]] = {}
    booking: dict[str, bool] = {}
    for dom in active:
        seed_entity = dom.entities[int(rng.integers(len(dom.entities)))]
        inf_slots = list(dom.informable)
        k_c = _weighted_count(rng, CONSTRAINT_COUNT_WEIGHTS, len(inf_slots))
        chosen_c = sorted(rng.choice(len(inf_slots), size=k_c, replace=False).tolist())
        constraints[dom.name] = {inf_slots[i]: seed_entity[inf_slots[i]] for i in chosen_c}
        req_slots = list(dom.requestable)
        k_r = _weighted_count(rng, REQUEST_COUNT_WEIGHTS, len(req_slots))
        chosen_r = sorted(rng.choice(len(req_slots), size=k_r, replace=False).tolist())
        requests[dom.name] = [req_slots[i] for i in chosen_r]
        booking[dom.name] = bool(rng.random() < BOOKING_PROB)
    if all(len(r) == 0 for r in requests.values()):
        # every goal must want at least one piece of information
        dom = active[0]
        requests[dom.name] = [dom.requestable[int(rng.integers(len(dom.requestable)))]]
    goal = UserGoal(constraints, requests, booking)
    _check_satisfiable(schema, goal)
    return goal


def _check_satisfiable(schema: WorldSchema, goal: UserGoal) -> None:
    for name, cons in goal.constraints.items():
        if not entities_matching(schema.domain(name), cons):
            raise WorldError(f"goal constraints for {name!r} are unsatisfiable: {cons}")


def entities_matching(dom, cons: dict) -> list[int]:
    return [
        i
        for i, ent in enumerate(dom.entities)
        if all(ent[s] == v for s, v in cons.items())
    ]


def db_matches(schema: WorldSchema, ctx: DialogContext, domain: str) -> list[int]:
    """Entity indices consistent with the constraints expressed so far."""
    dom = schema.domain(domain)
    cons = {
        s: v
        for s, v in ctx.domains[domain].expressed.items()
        if v != DONTCARE and s in dom.informable
    }
    return [
        i
        for i, ent in enumerate(dom.entities)
        if all(ent[s] == v for s, v in cons.items())
    ]


def apply_agent_actions(ctx: DialogContext, actions: set[AtomicAction]) -> None:
    schema = ctx.schema
    for action in sorted(actions):
        if action.act_type == BYE:
            continue
        if action.domain not in ctx.domains:
            continue
        dctx = ctx.domains[action.domain]
        if action.act_type == INFORM:
            ctx.total_informs += 1
            if action.slot in dctx.pending_requests:
                ctx.useful_informs += 1
                dctx.pending_requests.remove(action.slot)
                ctx.answered.add((action.domain, action.slot))
            dctx.informed.add(action.slot)
        elif action.act_type in (OFFER, BOOK):
            if dctx.booked:
                continue
            matches = db_matches(schema, ctx, action.domain)
            if matches:
                dctx.selected_entity = matches[0]
            if action.act_type == BOOK:
                dctx.booked = True


def encode_state(schema: WorldSchema, ctx: DialogContext) -> np.ndarray:
    feats: list[float] = []
    last = ctx.last_user_acts
    for dom in schema.domains:
        dctx = ctx.domains[dom.name]
        slots = dom.all_slots()
        feats.extend(1.0 if s in dctx.expressed else 0.0 for s in slots)
        feats.extend(1.0 if s in dctx.pending_requests else 0.0 for s in slots)
        feats.extend(1.0 if s in dctx.informed else 0.0 for s in slots)
        if dctx.active:
            n = len(db_matches(schema, ctx, dom.name))
            bucket = 0 if n == 0 else 1 if n == 1 else 2 if n <= 3 else 3
            feats.extend(1.0 if bucket == b else 0.0 for b in range(MATCH_BUCKETS))
        else:
            feats.extend(0.0 for _ in range(MATCH_BUCKETS))
        feats.append(1.0 if dctx.booking_requested else 0.0)
        feats.append(1.0 if dctx.booked else 0.0)
        feats.append(1.0 if dctx.active else 0.0)
        feats.extend(
            1.0
            if any(
                a.domain == dom.name and a.act_type == INFORM and a.slot == s
                for a in last
            )
            else 0.0
            for s in dom.informable
        )
        feats.extend(
            1.0
            if any(
                a.domain == dom.name and a.act_type == REQUEST and a.slot == s
                for a in last
            )
            else 0.0
            for s in dom.requestable
        )
        feats.append(
            1.0
            if any(a.domain == dom.name and a.act_type == BOOK for a in last)
            else 0.0
        )
    feats.append(1.0 if ctx.user_said_bye else 0.0)
    bucket = min(ctx.turn, TURN_BUCKETS - 1)
    feats.extend(1.0 if bucket == b else 0.0 for b in range(TURN_BUCKETS))
    return np.array(feats, dtype=np.float64)


@dataclass
class UserState(dialogworld.UserState):
    """The package's user state plus the requests and bookings uttered but
    not yet seen met, which the reference refill re-queues."""

    uttered_requests: set[tuple[str, str]] = field(default_factory=set)
    uttered_book: set[str] = field(default_factory=set)


def _needs_met(ustate: UserState, ctx: DialogContext) -> bool:
    goal = ustate.goal
    for name in goal.domains:
        for slot in goal.requests[name]:
            if (name, slot) not in ctx.answered:
                return False
        if goal.booking[name] and not ctx.domains[name].booked:
            return False
    return True


def _refill_agenda(ustate: UserState, ctx: DialogContext) -> None:
    """Re-issue unmet needs (retry behavior when the agent stalls)."""
    goal = ustate.goal
    for name in goal.domains:
        for slot in goal.requests[name]:
            if (name, slot) not in ctx.answered and (name, slot) in ustate.uttered_requests:
                ustate.agenda.append(UserAct(name, REQUEST, slot))
                ustate.uttered_requests.discard((name, slot))
        if goal.booking[name] and not ctx.domains[name].booked and name in ustate.uttered_book:
            ustate.agenda.append(UserAct(name, BOOK))
            ustate.uttered_book.discard(name)


def user_step(
    ustate: UserState, ctx: DialogContext, agent_actions: set[AtomicAction]
) -> tuple[list[UserAct], bool]:
    acts: list[UserAct] = []
    goal = ustate.goal
    for action in sorted(agent_actions):
        if action.act_type != REQUEST or action.domain not in ctx.domains:
            continue
        value = goal.constraints.get(action.domain, {}).get(action.slot, DONTCARE)
        acts.append(UserAct(action.domain, INFORM, action.slot, value))
        ustate.agenda = [
            a
            for a in ustate.agenda
            if not (a.domain == action.domain and a.act_type == INFORM and a.slot == action.slot)
        ]
    if _needs_met(ustate, ctx) and not ustate.agenda:
        acts.append(UserAct(GENERAL, BYE))
        return acts, True
    if not ustate.agenda:
        _refill_agenda(ustate, ctx)
    budget = MAX_INITIATIVE
    while ustate.agenda and budget > 0:
        act = ustate.agenda.pop(0)
        if act.act_type == REQUEST:
            if (act.domain, act.slot) in ctx.answered:
                continue  # answered proactively while queued
            ustate.uttered_requests.add((act.domain, act.slot))
        elif act.act_type == BOOK:
            if ctx.domains[act.domain].booked:
                continue
            ustate.uttered_book.add(act.domain)
        acts.append(act)
        budget -= 1
    return acts, False


def user_open(ustate: UserState) -> list[UserAct]:
    """The opening user turn (no agent actions to react to yet)."""
    acts: list[UserAct] = []
    budget = MAX_INITIATIVE
    while ustate.agenda and budget > 0:
        act = ustate.agenda.pop(0)
        if act.act_type == REQUEST:
            ustate.uttered_requests.add((act.domain, act.slot))
        elif act.act_type == BOOK:
            ustate.uttered_book.add(act.domain)
        acts.append(act)
        budget -= 1
    return acts


def expert_respond(schema: WorldSchema, ctx: DialogContext) -> set[AtomicAction]:
    if ctx.user_said_bye:
        return {AtomicAction(GENERAL, BYE)}
    actions: set[AtomicAction] = set()
    for dom in schema.domains:
        dctx = ctx.domains[dom.name]
        if not dctx.active:
            continue
        matches = db_matches(schema, ctx, dom.name)
        if not matches:
            actions.add(AtomicAction(dom.name, NOOFFER))
            continue
        domain_acts: set[AtomicAction] = {
            AtomicAction(dom.name, INFORM, slot) for slot in dctx.pending_requests
        }
        askable = [s for s in dom.informable if s not in dctx.expressed]
        if len(matches) > 1 and askable:
            slot = _most_discriminative_slot(dom, matches, askable)
            domain_acts.add(AtomicAction(dom.name, REQUEST, slot))
        if dctx.booking_requested and not dctx.booked and (len(matches) == 1 or not askable):
            domain_acts.add(AtomicAction(dom.name, OFFER))
            domain_acts.add(AtomicAction(dom.name, BOOK))
        if not domain_acts:
            domain_acts.add(AtomicAction(dom.name, OFFER))
        actions |= domain_acts
    if not actions:
        actions.add(AtomicAction(GENERAL, BYE))
    return actions


def enumerate_goals(schema: WorldSchema) -> list[UserGoal]:
    """Every satisfiable single-assignment goal; tractable for tiny schemas."""
    goals = []
    for dom in schema.domains:
        inf_slots = list(dom.informable)
        req_slots = list(dom.requestable)
        constraint_options = []
        for k in range(len(inf_slots) + 1):
            for combo in itertools.combinations(inf_slots, k):
                for values in itertools.product(*(dom.informable[s] for s in combo)):
                    constraint_options.append(dict(zip(combo, values)))
        request_options = [
            list(combo)
            for k in range(1, len(req_slots) + 1)
            for combo in itertools.combinations(req_slots, k)
        ]
        for cons in constraint_options:
            if not entities_matching(dom, cons):
                continue
            for reqs in request_options:
                for book in (False, True):
                    goals.append(
                        UserGoal({dom.name: dict(cons)}, {dom.name: list(reqs)}, {dom.name: book})
                    )
    return goals
