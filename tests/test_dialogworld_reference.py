"""The table-driven dialog turn against its reference forms.

Each dialog is rolled twice from the same goal: once with the package's
encoder, database lookup, agent-turn and user-turn updates, once with the
forms kept in ``dialogworld_reference``, whose user state also carries the
uttered-but-unmet sets its refill reads. Every turn's state must be equal
(``np.array_equal``), every domain's match list must be equal, and so must
the episode metrics. The package plays each agent turn as the index list it
was given, which must be in application order; the reference plays the same
turn as a set of ``AtomicAction``. The package's opening must equal the
reference ``user_open``. The package's expert must give the
reference expert's set as such a list, and the package's own episode runners
must agree with the package rollout.
"""

import json
import types
import zlib

import numpy as np
import pytest

import dialogworld_reference as ref
from banditmatch import dialogworld as dw
from banditmatch.policy import ActionSetPolicy, PolicyNet, policy_spec_for

PACKAGE = types.SimpleNamespace(
    encode_state=dw.encode_state,
    db_matches=dw.db_matches,
    apply_agent_actions=dw.apply_agent_actions,
    user_step=dw.user_step,
)


def as_actions(schema, turn):
    """The AtomicActions of an index turn, in the order listed."""
    return [schema.actions[i] for i in turn]


def assert_application_order(schema, turn):
    # listed as the old whole-set sort would apply them, without repeats
    assert as_actions(schema, turn) == sorted(set(as_actions(schema, turn)))


def rollout(world, schema, goal, respond, max_turns=20):
    """One dialog through ``world``'s turn functions; returns per-turn
    (state, match lists, agent turn) and the episode metrics. ``respond``
    gives index turns; the reference world receives them as action sets."""
    if world is PACKAGE:
        ctx, ustate, _ = dw.open_dialog(schema, goal)
    else:
        ctx, ustate = dw.DialogContext(schema), ref.UserState(goal)
        dw.apply_user_acts(ctx, ref.user_open(ustate))
    turns = []
    n = 0
    while n < max_turns:
        state = world.encode_state(schema, ctx)
        matches = [world.db_matches(schema, ctx, d.name) for d in schema.domains]
        actions = respond(schema, ctx, state)
        assert_application_order(schema, actions)
        turns.append((state, matches, actions))
        n += 1
        if world is not PACKAGE:
            actions = set(as_actions(schema, actions))
        world.apply_agent_actions(ctx, actions)
        user_acts, terminated = world.user_step(ustate, ctx, actions)
        dw.apply_user_acts(ctx, user_acts)
        ctx.turn += 1
        if terminated:
            break
    return turns, dw.finish_metrics(ctx, goal, n)


def expert(schema, ctx, state):
    turn = dw.expert_respond(schema, ctx)
    assert set(as_actions(schema, turn)) == ref.expert_respond(schema, ctx)
    return turn


def assert_same_rollouts(schema, goals, respond):
    for goal in goals:
        got_turns, got = rollout(PACKAGE, schema, goal, respond)
        want_turns, want = rollout(ref, schema, goal, respond)
        assert got == want
        assert len(got_turns) == len(want_turns)
        for (s1, m1, a1), (s2, m2, a2) in zip(got_turns, want_turns):
            assert s1.dtype == np.uint8 and np.array_equal(s1, s2)
            assert m1 == m2
            assert a1 == a2


def goals_for(schema, n, seed):
    rng = np.random.default_rng(seed)
    return [dw.sample_goal(schema, rng) for _ in range(n)]


def random_policy(schema, seed, hidden=(32,)):
    net = PolicyNet(policy_spec_for(schema, hidden), rng=np.random.default_rng(seed))
    return ActionSetPolicy(net.clone_frozen(), schema)


def reordered_schema():
    """The default world loaded from JSON with every informable map, its
    value lists, the requestable lists and the domains in reverse order."""
    payload = dw.default_schema().to_dict()
    for d in payload["domains"]:
        d["informable"] = {s: d["informable"][s][::-1] for s in reversed(list(d["informable"]))}
        d["requestable"] = d["requestable"][::-1]
    payload["domains"] = payload["domains"][::-1]
    return dw.WorldSchema.from_dict(json.loads(json.dumps(payload)))


SCHEMAS = {
    "default": dw.default_schema,
    "tiny": dw.tiny_schema,
    "reordered": reordered_schema,
}


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_expert_episodes_match_reference(name):
    schema = SCHEMAS[name]()
    goals = ref.enumerate_goals(schema) if name == "tiny" else goals_for(schema, 60, 11)
    assert_same_rollouts(schema, goals, expert)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_policy_episodes_match_reference(name, seed):
    schema = SCHEMAS[name]()
    policy = random_policy(schema, seed)
    assert_same_rollouts(schema, goals_for(schema, 25, 100 + seed),
                         lambda schema, ctx, state: policy.act(state))


def random_subsets(seed):
    """Agent turns the size a random policy plays: a random subset of every
    action index, from none to all of them. The draw is seeded by the turn
    and the state's bytes, so both worlds receive the same turns while their
    states agree."""
    def respond(schema, ctx, state):
        n = schema.num_actions
        key = zlib.crc32(np.asarray(state, dtype=np.uint8).tobytes())
        rng = np.random.default_rng([seed, ctx.turn, key])
        size = n if rng.random() < 0.25 else int(rng.integers(0, n + 1))
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=size, replace=False)] = True
        order = schema.application_order
        return order[mask[order]].tolist()
    return respond


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@pytest.mark.parametrize("seed", [0, 1])
def test_large_random_turns_match_reference(name, seed):
    schema = SCHEMAS[name]()
    assert_same_rollouts(schema, goals_for(schema, 40, 200 + seed), random_subsets(seed))


@pytest.mark.parametrize("name", ["default", "tiny"])
def test_effect_table_agrees_with_the_vocabulary(name):
    # informs, offers and books change the context; requests, nooffers and
    # bye have no effect entry
    schema = SCHEMAS[name]()
    assert len(schema._effects) == schema.num_actions
    for action, effect in zip(schema.actions, schema._effects):
        if action.act_type in (dw.INFORM, dw.OFFER, dw.BOOK):
            assert effect == (action.act_type, action.domain, action.slot)
        else:
            assert effect is None


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_act_lists_predicted_set_in_application_order(name):
    # the turn act gives is the old set {c : p_c > 0.5} sorted by ACTION_ORDER
    # (a fresh adapter per vector: an adapter keeps the turn of each state it saw)
    schema = SCHEMAS[name]()
    rng = np.random.default_rng(21)
    n = schema.num_actions
    for k in range(200):
        p = rng.random(n)
        if k % 4 == 0:
            p[rng.random(n) < 0.3] = 0.5  # on the threshold: not predicted
        elif k % 4 == 1:
            p = np.full(n, 0.9 if k % 8 == 1 else 0.1)  # every action, none
        policy = random_policy(schema, 0)
        policy.policy.probs = lambda state, p=p: p
        got = policy.act(np.zeros(schema.state_dim))
        want = sorted({schema.actions[c] for c in range(n) if p[c] > 0.5}, key=dw.ACTION_ORDER)
        assert all(type(i) is int for i in got)
        assert as_actions(schema, got) == want


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_goal_draws_match_reference(name):
    # the cached-CDF draws take the values rng.choice(p=...) took, from the
    # same generator stream, and leave the generator in the same state
    schema = SCHEMAS[name]()
    got_rng, want_rng = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(5000):
        assert dw.sample_goal(schema, got_rng) == ref.sample_goal(schema, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_reordered_schema_changes_layout():
    # the reordered world really is a different layout, not the same one again
    default, reordered = dw.default_schema(), reordered_schema()
    assert default.state_dim == reordered.state_dim
    assert default.actions != reordered.actions


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_package_runners_agree_with_rollout(name):
    schema = SCHEMAS[name]()
    policy = random_policy(schema, 5)
    for goal in goals_for(schema, 10, 7):
        _, metrics = rollout(ref, schema, goal, lambda schema, ctx, state: policy.act(state))
        assert dw.run_episode(policy, schema, goal) == metrics
        collected = []
        expert_turns, expert_metrics = rollout(ref, schema, goal, expert)
        assert dw.run_expert_episode(schema, goal, collect=collected).match == expert_metrics.match
        # the package runner adds one closing turn after the user's bye
        assert len(collected) in (len(expert_turns), len(expert_turns) + 1)
        for (state, actions), (want_state, _, want_actions) in zip(collected, expert_turns):
            assert np.array_equal(state, want_state) and actions == want_actions


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_opening_turn_matches_reference(name):
    # the opening is the user's reply to an empty agent turn; for every goal
    # the samplers make, it utters what the reference user_open does and
    # leaves the same agenda and context
    schema = SCHEMAS[name]()
    goals = goals_for(schema, 200, 13)
    if name == "tiny":
        goals += ref.enumerate_goals(schema)
    for goal in goals:
        ctx, ustate, acts = dw.open_dialog(schema, goal)
        want_ctx, want_ustate = dw.DialogContext(schema), ref.UserState(goal)
        want_acts = ref.user_open(want_ustate)
        dw.apply_user_acts(want_ctx, want_acts)
        assert acts == want_acts
        assert ustate.agenda == want_ustate.agenda
        assert ctx == want_ctx


def test_entity_matching_agrees_with_scan():
    schema = dw.default_schema()
    rng = np.random.default_rng(3)
    for dom in schema.domains:
        tables = schema._tables_for(dom.name)
        for _ in range(200):
            k = int(rng.integers(0, len(dom.informable) + 1))
            slots = rng.choice(list(dom.informable), size=k, replace=False)
            cons = {str(s): str(rng.choice(dom.informable[s] + ["absent"])) for s in slots}
            got = dw._mask_indices(dw._constraint_mask(tables, cons))
            assert got == ref.entities_matching(dom, cons)


def test_enumerated_goals_are_exactly_the_satisfiable_ones():
    schema = dw.tiny_schema()
    dom = schema.domains[0]
    goals = ref.enumerate_goals(schema)
    constraint_sets = {tuple(sorted(g.constraints["hotel"].items())) for g in goals}
    assert constraint_sets == {(), (("area", "north"),), (("area", "south"),)}
    for g in goals:
        assert ref.entities_matching(dom, g.constraints["hotel"])


def test_unusual_contexts_encode_like_reference():
    # acts the simulator never utters still encode exactly as the slot scan did
    schema = dw.default_schema()
    ctx = dw.DialogContext(schema)
    dw.apply_user_acts(ctx, [
        dw.UserAct("hotel", dw.INFORM, "area", "north"),
        dw.UserAct("hotel", dw.INFORM, "price", dw.DONTCARE),
        dw.UserAct("hotel", dw.INFORM, "phone", "hotel_phone_1"),
        dw.UserAct("train", dw.REQUEST, "area"),
        dw.UserAct("train", dw.REQUEST, "hours"),
        dw.UserAct("train", dw.BOOK, "phone"),
        dw.UserAct(dw.GENERAL, dw.BYE),
    ])
    ctx.domains["hotel"].expressed["unknown"] = "x"
    ctx.domains["hotel"].informed.update({"address", "unknown"})
    ctx.domains["restaurant"].booked = True
    for turn in (0, 3, 5, 9):
        ctx.turn = turn
        assert np.array_equal(dw.encode_state(schema, ctx), ref.encode_state(schema, ctx))
        for dom in schema.domains:
            assert dw.db_matches(schema, ctx, dom.name) == ref.db_matches(schema, ctx, dom.name)


def test_unknown_domain_raises_world_error():
    schema = dw.default_schema()
    ctx = dw.DialogContext(schema)
    with pytest.raises(dw.WorldError):
        schema.domain("spa")
    with pytest.raises(dw.WorldError):
        dw.db_matches(schema, ctx, "spa")
