import json
from types import SimpleNamespace

import numpy as np
import pytest

import dialogworld_reference as ref
from banditmatch import cli
from banditmatch import dialogworld as dw


@pytest.fixture(scope="module")
def schema():
    return dw.default_schema()


@pytest.fixture(scope="module")
def tiny():
    return dw.tiny_schema()


def turn(schema, *actions):
    """The agent turn that plays ``actions``: their indices in application order."""
    wanted = set(actions)
    return [i for i in schema.application_order.tolist() if schema.actions[i] in wanted]


class TestSchema:
    def test_vocab_is_bijective_and_stable(self, schema):
        actions = schema.actions
        assert len(set(actions)) == len(actions) == schema.num_actions
        for i, action in enumerate(actions):
            assert schema.actions.index(action) == i
        again = dw.default_schema()
        assert again.actions == actions

    def test_state_dim_matches_encoder(self, schema):
        ctx = dw.DialogContext(schema)
        assert dw.encode_state(schema, ctx).shape == (schema.state_dim,)

    def test_entities_cover_all_slots(self, schema):
        for dom in schema.domains:
            for ent in dom.entities:
                assert set(dom.all_slots()) <= set(ent)

    def test_save_load_round_trip(self, schema, tmp_path):
        path = tmp_path / "world.json"
        schema.save(path)
        loaded = dw.WorldSchema.load(path)
        assert loaded.to_dict() == schema.to_dict()
        assert loaded.actions == schema.actions

    def test_version_mismatch_rejected(self, schema, tmp_path):
        import json

        payload = schema.to_dict()
        payload["schema_version"] = "v9"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(dw.WorldError):
            dw.WorldSchema.load(path)

    def test_entity_value_outside_informable_list_refused(self, tmp_path, capsys):
        payload = dw.tiny_schema().to_dict()
        payload["domains"][0]["entities"][0]["area"] = "west"
        with pytest.raises(dw.WorldError, match="entity value 'west' of slot 'area'"):
            dw.WorldSchema.from_dict(payload)
        world = tmp_path / "west.json"
        world.write_text(json.dumps(payload))
        out = tmp_path / "out"
        # every command that loads the world stops with one line, before it writes anything
        for argv in (["gen-world", "--schema-config", world, "--out", out / "w.json"],
                     ["gen-corpus", "--world", world, "--n-dialogs", 2, "--out", out / "c.jsonl"],
                     ["evaluate", "--world", world, "--expert", "--n-dialogs", 2, "--n-runs", 1,
                      "--out", out / "r.csv"]):
            capsys.readouterr()
            assert cli.main([str(a) for a in argv]) == cli.EXIT_INVALID
            assert capsys.readouterr().err == (
                f"error: {world}: domain 'hotel': entity value 'west' of slot 'area' "
                "is not in its informable list ['north', 'south']\n")
        assert not out.exists()

    def test_informable_dontcare_refused(self, tmp_path, capsys):
        # the user informs dontcare to lift a constraint, so no world may list it
        # as a value: every command that loads the world stops with one line
        payload = dw.tiny_schema().to_dict()
        payload["domains"][0]["informable"]["area"].append(dw.DONTCARE)
        with pytest.raises(dw.WorldError, match="lists the reserved value 'dontcare'"):
            dw.WorldSchema.from_dict(payload)
        world = tmp_path / "dontcare.json"
        world.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert cli.main(["gen-world", "--schema-config", str(world),
                         "--out", str(out / "w.json")]) == cli.EXIT_INVALID
        assert capsys.readouterr().err == (
            f"error: {world}: domain 'hotel': informable slot 'area' lists the reserved "
            "value 'dontcare'\n")
        assert not out.exists()

    def test_to_dict_payload_is_a_copy(self, tmp_path):
        # edits at every level of the payload leave the schema and its file as they were
        schema = dw.tiny_schema()
        before = json.dumps(schema.to_dict())
        schema.save(tmp_path / "before.json")
        payload = schema.to_dict()
        domain = payload["domains"][0]
        domain["informable"]["area"].append("west")
        domain["informable"]["stars"] = ["5"]
        domain["requestable"].append("postcode")
        domain["entities"][0]["area"] = "west"
        domain["entities"].append({"area": "west"})
        domain["name"] = "taxi"
        payload["domains"].append(domain)
        assert json.dumps(schema.to_dict()) == before
        schema.save(tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()
        # the world still reads north and south in its entities and its masks
        assert [e["area"] for e in schema.domains[0].entities] == ["north", "south"]

    def test_missing_entity_slot_rejected(self):
        dom = dw.DomainSchema(
            name="hotel",
            informable={"area": ["north"]},
            requestable=["phone"],
            entities=[{"area": "north"}],  # phone missing
        )
        with pytest.raises(dw.WorldError):
            dw.WorldSchema([dom])


class TestGoals:
    def test_same_seed_identical(self, schema):
        a = dw.sample_goal(schema, np.random.default_rng(7))
        b = dw.sample_goal(schema, np.random.default_rng(7))
        assert a == b

    def test_single_entity_schema_constraints_consistent(self):
        dom = dw.DomainSchema(
            name="hotel",
            informable={"area": ["north", "south"], "price": ["cheap", "dear"]},
            requestable=["phone"],
            entities=[{"area": "north", "price": "cheap", "phone": "p0"}],
        )
        schema = dw.WorldSchema([dom])
        rng = np.random.default_rng(0)
        for _ in range(50):
            goal = dw.sample_goal(schema, rng)
            ent = dom.entities[0]
            for slot, value in goal.constraints["hotel"].items():
                assert ent[slot] == value

    def test_domain_coverage_over_many_samples(self, schema):
        rng = np.random.default_rng(1)
        counts = {d.name: 0 for d in schema.domains}
        n = 10_000
        for _ in range(n):
            goal = dw.sample_goal(schema, rng)
            for name in goal.domains:
                counts[name] += 1
        for name, count in counts.items():
            assert count / n >= 0.01, name

    def test_goals_always_want_something(self, schema):
        rng = np.random.default_rng(2)
        for _ in range(300):
            assert dw.sample_goal(schema, rng).total_requests() >= 1

    def test_empty_database_rejected(self):
        # refused when the schema is built, so goal sampling checks nothing
        dom = dw.DomainSchema("hotel", {"area": ["north"]}, ["phone"], [])
        with pytest.raises(dw.WorldError, match="entities must be a non-empty list"):
            dw.WorldSchema([dom])


class TestEncoder:
    def test_fresh_context_all_zero_except_turn_bucket(self, schema):
        vec = dw.encode_state(schema, dw.DialogContext(schema))
        bucket_start = schema.state_dim - dw.TURN_BUCKETS
        assert vec[bucket_start] == 1.0
        rest = np.delete(vec, bucket_start)
        assert not rest.any()

    def test_same_context_same_vector(self, schema):
        ctx = dw.DialogContext(schema)
        dw.apply_user_acts(ctx, [dw.UserAct("hotel", dw.INFORM, "area", "north")])
        assert np.array_equal(dw.encode_state(schema, ctx), dw.encode_state(schema, ctx))

    def test_constraint_flag_set_exactly(self, schema):
        ctx = dw.DialogContext(schema)
        dw.apply_user_acts(ctx, [dw.UserAct("hotel", dw.INFORM, "kind", "modern")])
        vec = dw.encode_state(schema, ctx)
        fresh = dw.encode_state(schema, dw.DialogContext(schema))
        dom = schema.domain("hotel")
        slots = dom.all_slots()
        # constraint-expressed flags are the first block of the first domain
        block = vec[: len(slots)]
        expected = [1.0 if s == "kind" else 0.0 for s in slots]
        assert block.tolist() == expected
        # nothing outside the hotel feature block plus the last-act flags moved
        assert vec.shape == fresh.shape

    def test_binary_valued(self, schema):
        rng = np.random.default_rng(3)
        goal = dw.sample_goal(schema, rng)
        collected = []
        dw.run_expert_episode(schema, goal, collect=collected)
        for state, _ in collected:
            assert set(np.unique(state)) <= {0.0, 1.0}

    def test_uint8_one_byte_per_entry(self, schema):
        # policy and expert episodes both see uint8 states
        seen = []
        policy = SimpleNamespace(act=lambda state: seen.append(state) or [])
        goal = dw.sample_goal(schema, np.random.default_rng(4))
        dw.run_episode(policy, schema, goal)
        collected = []
        dw.run_expert_episode(schema, goal, collect=collected)
        states = seen + [state for state, _ in collected]
        assert seen and collected
        for state in states:
            assert state.dtype == np.uint8 and state.shape == (schema.state_dim,)


class TestExpert:
    def test_pending_requests_answered_with_unique_match(self, schema):
        ctx = dw.DialogContext(schema)
        dom = schema.domain("hotel")
        ent = dom.entities[0]
        acts = [
            dw.UserAct("hotel", dw.INFORM, s, ent[s]) for s in dom.informable
        ] + [
            dw.UserAct("hotel", dw.REQUEST, "phone"),
            dw.UserAct("hotel", dw.REQUEST, "address"),
        ]
        dw.apply_user_acts(ctx, acts)
        if len(dw.db_matches(schema, ctx, "hotel")) == 1:
            actions = dw.expert_respond(schema, ctx)
            informs = [i for i in actions if schema.actions[i].act_type == dw.INFORM]
            assert informs == turn(
                schema,
                dw.AtomicAction("hotel", dw.INFORM, "phone"),
                dw.AtomicAction("hotel", dw.INFORM, "address"),
            )

    def test_no_match_yields_nooffer(self, schema):
        ctx = dw.DialogContext(schema)
        # contradictory constraints: pick values never co-occurring
        dom = schema.domain("hotel")
        target = None
        for area in dom.informable["area"]:
            for price in dom.informable["price"]:
                if not any(e["area"] == area and e["price"] == price for e in dom.entities):
                    target = (area, price)
        assert target is not None, "schema has every area/price pair; pick another"
        dw.apply_user_acts(
            ctx,
            [
                dw.UserAct("hotel", dw.INFORM, "area", target[0]),
                dw.UserAct("hotel", dw.INFORM, "price", target[1]),
            ],
        )
        assert dw.expert_respond(schema, ctx) == turn(schema, dw.AtomicAction("hotel", dw.NOOFFER))

    def test_many_matches_one_request(self, schema):
        ctx = dw.DialogContext(schema)
        dw.apply_user_acts(ctx, [dw.UserAct("hotel", dw.REQUEST, "phone")])
        # answer the request first so only narrowing remains
        actions = dw.expert_respond(schema, ctx)
        requests = [i for i in actions if schema.actions[i].act_type == dw.REQUEST]
        assert len(requests) == 1

    def test_discriminative_slot_prefers_splitting_values(self):
        dom = dw.DomainSchema(
            name="hotel",
            informable={"area": ["n", "s"], "price": ["c", "d"]},
            requestable=["phone"],
            entities=[
                {"area": "n", "price": "c", "phone": "p0"},
                {"area": "n", "price": "d", "phone": "p1"},
            ],
        )
        # area is constant across entities, price splits them
        assert dw._most_discriminative_slot(dom, [0, 1], ["area", "price"]) == "price"

    def test_bye_after_user_bye(self, schema):
        ctx = dw.DialogContext(schema)
        dw.apply_user_acts(ctx, [dw.UserAct(dw.GENERAL, dw.BYE)])
        assert dw.expert_respond(schema, ctx) == turn(schema, dw.AtomicAction(dw.GENERAL, dw.BYE))

    def test_deterministic_function_of_context(self, schema):
        rng = np.random.default_rng(4)
        goal = dw.sample_goal(schema, rng)
        a, b = [], []
        dw.run_expert_episode(schema, goal, collect=a)
        dw.run_expert_episode(schema, goal, collect=b)
        assert len(a) == len(b)
        for (sa, aa), (sb, ab) in zip(a, b):
            assert np.array_equal(sa, sb) and aa == ab


class TestUser:
    def test_agent_request_answered_next_turn(self, schema):
        goal = dw.UserGoal(
            constraints={"hotel": {"area": "north"}},
            requests={"hotel": ["phone"]},
            booking={"hotel": False},
        )
        ctx, ustate, _ = dw.open_dialog(schema, goal)
        acts, terminated = dw.user_step(
            ustate, ctx, turn(schema, dw.AtomicAction("hotel", dw.REQUEST, "price"))
        )
        informs = [a for a in acts if a.act_type == dw.INFORM and a.slot == "price"]
        assert len(informs) == 1
        assert informs[0].value == dw.DONTCARE  # not in the goal constraints

    def test_terminates_when_needs_met(self, schema):
        goal = dw.UserGoal(
            constraints={"hotel": {}},
            requests={"hotel": ["phone"]},
            booking={"hotel": False},
        )
        ctx, ustate, _ = dw.open_dialog(schema, goal)
        dw.apply_agent_actions(ctx, turn(schema, dw.AtomicAction("hotel", dw.INFORM, "phone")))
        acts, terminated = dw.user_step(ustate, ctx, [])
        assert terminated and any(a.act_type == dw.BYE for a in acts)

    def test_empty_agent_turn_triggers_retry(self, schema):
        goal = dw.UserGoal(
            constraints={"hotel": {}},
            requests={"hotel": ["phone"]},
            booking={"hotel": False},
        )
        ctx, ustate, _ = dw.open_dialog(schema, goal)
        # agent does nothing twice; the user re-issues the pending request
        acts1, t1 = dw.user_step(ustate, ctx, [])
        dw.apply_user_acts(ctx, acts1)
        acts2, t2 = dw.user_step(ustate, ctx, [])
        assert not t1 and not t2
        assert any(a.act_type == dw.REQUEST and a.slot == "phone" for a in acts1 + acts2)

    def test_dry_agenda_reissues_unmet_needs_in_goal_order(self, schema):
        # two requests (not in the world's slot order) and a booking; the agent
        # stalls, answers one request, stalls again, books, then answers the other
        goal = dw.UserGoal(
            constraints={"hotel": {"area": "north"}},
            requests={"hotel": ["postcode", "phone"]},
            booking={"hotel": True},
        )
        postcode, phone = (dw.UserAct("hotel", dw.REQUEST, slot) for slot in ("postcode", "phone"))
        book = dw.UserAct("hotel", dw.BOOK)
        ctx, ustate, opening = dw.open_dialog(schema, goal)
        assert opening == [dw.UserAct("hotel", dw.INFORM, "area", "north"), postcode, phone]

        def step(*actions):
            agent = turn(schema, *actions)
            dw.apply_agent_actions(ctx, agent)
            acts, terminated = dw.user_step(ustate, ctx, agent)
            dw.apply_user_acts(ctx, acts)
            return acts, terminated

        assert step() == ([book], False)  # the last item of the first agenda
        assert step() == ([postcode, phone, book], False)  # dry: every need again
        assert step(dw.AtomicAction("hotel", dw.INFORM, "phone")) == ([postcode, book], False)
        assert step() == ([postcode, book], False)
        assert step(dw.AtomicAction("hotel", dw.BOOK)) == ([postcode], False)
        assert step(dw.AtomicAction("hotel", dw.INFORM, "postcode")) == (
            [dw.UserAct(dw.GENERAL, dw.BYE)], True)

    def test_request_listed_twice_is_requeued_once(self, schema):
        goal = dw.UserGoal(
            constraints={"hotel": {}},
            requests={"hotel": ["phone", "address", "phone"]},
            booking={"hotel": False},
        )
        phone, address = (dw.UserAct("hotel", dw.REQUEST, slot) for slot in ("phone", "address"))
        ctx, ustate, opening = dw.open_dialog(schema, goal)
        assert opening == [phone, address, phone]  # the first agenda lists it twice
        assert dw.user_step(ustate, ctx, []) == ([phone, address], False)


class TestEpisodes:
    def test_expert_succeeds_on_sampled_goals(self, schema):
        rng = np.random.default_rng(5)
        for _ in range(100):
            metrics = dw.run_expert_episode(schema, dw.sample_goal(schema, rng))
            assert metrics.success == 1 and metrics.inform_f1 == 1.0

    def test_bye_only_agent_fails(self, schema):
        rng = np.random.default_rng(6)
        goal = dw.sample_goal(schema, rng)
        bye = turn(schema, dw.AtomicAction(dw.GENERAL, dw.BYE))
        metrics = dw.run_episode(SimpleNamespace(act=lambda state: bye), schema, goal)
        assert metrics.success == 0 and metrics.inform_recall == 0.0

    def test_metric_arithmetic(self, schema):
        # 3 informs total, 2 requested and answered: recall 1, precision 2/3
        goal = dw.UserGoal(
            constraints={"hotel": {}},
            requests={"hotel": ["phone", "address"]},
            booking={"hotel": False},
        )

        def agent(state):
            return turn(
                schema,
                dw.AtomicAction("hotel", dw.INFORM, "phone"),
                dw.AtomicAction("hotel", dw.INFORM, "address"),
                dw.AtomicAction("hotel", dw.INFORM, "postcode"),
            )

        metrics = dw.run_episode(SimpleNamespace(act=agent), schema, goal)
        assert metrics.inform_recall == 1.0
        assert abs(metrics.inform_precision - 2.0 / 3.0) < 1e-12
        assert abs(metrics.inform_f1 - 0.8) < 1e-12

    def test_turn_cap(self, schema):
        rng = np.random.default_rng(8)
        goal = dw.sample_goal(schema, rng)
        # an agent with empty turns never meets a goal, so only the cap ends the dialog
        metrics = dw.run_episode(SimpleNamespace(act=lambda s: []), schema, goal)
        assert metrics.turns == dw.MAX_TURNS and metrics.success == 0

    def test_expert_encodes_only_collected_states(self, schema, monkeypatch):
        calls = []
        encode = dw.encode_state
        monkeypatch.setattr(dw, "encode_state", lambda *args: calls.append(1) or encode(*args))
        rng = np.random.default_rng(12)
        for _ in range(20):
            goal = dw.sample_goal(schema, rng)
            calls.clear()
            dw.run_expert_episode(schema, goal)
            assert calls == []
            collected = []
            dw.run_expert_episode(schema, goal, collect=collected)
            assert len(calls) == len(collected) > 0

    def test_success_requires_recall_and_match(self, schema):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = dw.run_expert_episode(schema, dw.sample_goal(schema, rng))
            assert m.success == (1 if m.inform_recall == 1.0 and m.match == 1 else 0)

    def test_trace_records_turns(self, schema):
        rng = np.random.default_rng(10)
        goal = dw.sample_goal(schema, rng)
        trace = []
        bye = turn(schema, dw.AtomicAction(dw.GENERAL, dw.BYE))
        dw.run_episode(SimpleNamespace(act=lambda state: bye), schema, goal, trace=trace)
        assert len(trace) == dw.MAX_TURNS and all("agent" in row and "user" in row for row in trace)


class TestExpertOracleExhaustive:
    def test_tiny_schema_all_goals_perfect(self, tiny):
        goals = ref.enumerate_goals(tiny)
        assert len(goals) >= 12
        for goal in goals:
            metrics = dw.run_expert_episode(tiny, goal)
            assert metrics.success == 1, goal
            assert metrics.inform_f1 == 1.0, goal
            assert metrics.match == 1, goal


class TestAggregate:
    def test_means_with_success_in_percent(self):
        episodes = [
            dw.EpisodeMetrics(5, 1, 1.0, 1.0, 1.0, 1),
            dw.EpisodeMetrics(7, 0, 0.5, 0.5, 0.5, 0),
        ]
        agg = dw.compute_aggregate(episodes)
        assert agg["success"] == 50.0
        assert agg["turns"] == 6.0

    def test_empty_rejected(self):
        with pytest.raises(dw.WorldError):
            dw.compute_aggregate([])

    def test_report_format(self):
        import re

        assert re.fullmatch(r"\d+\.\d+ ± \d+\.\d+", dw.format_metric(76.7, 2.83))
        assert dw.format_metric(76.7, 2.83, digits=1) == "76.7 ± 2.8"


class TestSchemaTables:
    def test_duplicate_domain_rejected(self):
        dom = dw.DomainSchema("hotel", {"area": ["north"]}, ["phone"],
                              [{"area": "north", "phone": "p0"}])
        with pytest.raises(dw.WorldError, match="duplicate domain"):
            dw.WorldSchema([dom, dom])

    def test_slot_listed_twice_rejected(self):
        # a slot both informable and requestable would give the vocabulary
        # two identical inform actions
        dom = dw.DomainSchema("hotel", {"area": ["north"]}, ["area"], [{"area": "north"}])
        with pytest.raises(dw.WorldError, match="slot twice"):
            dw.WorldSchema([dom])
