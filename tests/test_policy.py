import json
import re

import numpy as np
import pytest

import oplevel_reference as ref
from banditmatch import datasets as ds
from banditmatch import dialogworld as dw, nncore
from banditmatch.nncore import LOGIT_CLAMP
from banditmatch.policy import (
    ActionSetPolicy,
    CheckpointError,
    ConfigurationError,
    MlpSpec,
    PolicyError,
    PolicyNet,
    policy_spec_for,
    predicted_mask,
)


@pytest.fixture(scope="module")
def schema():
    return dw.default_schema()


def small_policy(schema, seed=None):
    rng = None if seed is None else np.random.default_rng(seed)
    return PolicyNet(policy_spec_for(schema, hidden_dims=(8,)), rng=rng)


class TestProbs:
    def test_zero_initialized_net_all_half(self, schema):
        policy = small_policy(schema)
        p = policy.probs(np.zeros(schema.state_dim))
        assert np.allclose(p, 0.5)

    def test_clamped_into_open_interval(self, schema):
        policy = small_policy(schema, seed=0)
        for w in policy.parameters():
            w.data *= 50.0
        p = policy.probs(np.ones(schema.state_dim))
        assert np.all(p >= 1e-7) and np.all(p <= 1 - 1e-7)

    def test_batch_equals_per_example(self, schema):
        policy = small_policy(schema, seed=1)
        states = np.random.default_rng(2).random((6, schema.state_dim))
        batch = policy.probs(states)
        singles = np.stack([policy.probs(s) for s in states])
        # identical up to BLAS reduction order in the batched matmul
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-15)


class TestSingleStatePath:
    """A single state stays 1-d through the layers, each product a gemv: its
    ``probs`` has the bits of its row of an ``(n, 1, D)`` stack and of its
    row of the feedback log's ``rho``."""

    @staticmethod
    def binary_states(schema):
        d = schema.state_dim
        random = (np.random.default_rng(31).random((20, d)) < 0.3).astype(np.uint8)
        return np.concatenate([random, np.zeros((1, d), np.uint8), np.ones((1, d), np.uint8)])

    @pytest.mark.parametrize("scale", [1.0, 40.0], ids=["plain", "clamp-saturated"])
    def test_state_has_the_bits_of_its_stack_row_and_log_row(self, schema, scale):
        policy = PolicyNet(policy_spec_for(schema, hidden_dims=(32, 16)),
                           rng=np.random.default_rng(30)).clone_frozen()
        for p in policy.parameters():
            p.data *= scale
        states = self.binary_states(schema)
        logits = np.abs(policy._layers(states)[1])
        # the plain net stays inside the clamp; the scaled one passes it on
        # every state but the zero one, whose logits are the zero biases
        outside = (logits > LOGIT_CLAMP).any(axis=1)
        assert not outside.any() if scale == 1.0 else outside.tolist() == [True] * 20 + [False, True]
        n = len(states)
        rho = ds.log_bandit_data(policy, ds.Corpus(
            states, np.arange(n + 1, dtype=np.int64), np.zeros(n, np.int64))).rho
        floats = np.random.default_rng(32).random((8, schema.state_dim))
        for batch, logged in ((states, rho), (floats, None)):
            stack = policy.probs(batch[:, None])
            assert stack.shape == (len(batch), 1, schema.num_actions)
            for i, state in enumerate(batch):
                p = policy.probs(state)
                assert p.shape == (schema.num_actions,)
                assert p.tobytes() == stack[i, 0].tobytes()
                if logged is not None:
                    assert p.tobytes() == logged[i].tobytes()

    def test_forward_lifts_a_single_state_to_one_row(self, schema):
        policy = small_policy(schema, seed=33)
        state = self.binary_states(schema)[0]
        out = policy.forward(state).data
        assert out.shape == (1, schema.num_actions)
        assert out[0].tobytes() == policy.probs(state).tobytes()

    @pytest.mark.parametrize("shape", ["stack of 2", "one too wide"])
    def test_other_shapes_are_refused(self, schema, shape):
        policy = small_policy(schema)
        d = schema.state_dim
        size = (3, 2, d) if shape == "stack of 2" else (d + 1,)
        message = re.escape(f"state dim {size} incompatible with input_dim={d}")
        for call in (policy.probs, policy.forward):
            with pytest.raises(ConfigurationError, match=message):
                call(np.zeros(size))


class TestClampedLogits:
    """``all_logits_clamped``: every logit outside ±LOGIT_CLAMP, found by
    a walk over every row."""

    @staticmethod
    def linear_policy():
        # logit 20 on the state (0, 0), outside the clamp; 10 on (1, 0), inside
        policy = PolicyNet(MlpSpec(input_dim=2, hidden_dims=(), output_dim=1), rng=None)
        policy.weights[0].data[:] = [[-10.0], [0.0]]
        policy.biases[0].data[:] = 20.0
        return policy

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
    def test_one_row_inside_is_found_anywhere(self, n):
        policy = self.linear_policy()
        states = np.zeros((n + 1, 2), dtype=np.uint8)
        assert policy.all_logits_clamped(states[:n])
        states[n, 0] = 1  # the last row's logit lies inside
        assert not policy.all_logits_clamped(states)
        order = np.arange(n + 1)[::-1]
        assert not policy.all_logits_clamped(states, rows=order)
        assert policy.all_logits_clamped(states, rows=order[1:])

    def test_overflowing_logit_is_outside(self):
        policy = self.linear_policy()
        policy.weights[0].data[:] = 1e308
        with np.errstate(over="raise", invalid="raise"):
            assert policy.all_logits_clamped(np.ones((3, 2), dtype=np.uint8))


class TestFrozenClone:
    def test_probs_unchanged_after_source_training(self, schema):
        policy = small_policy(schema, seed=3)
        frozen = policy.clone_frozen()
        states = np.random.default_rng(4).random((4, schema.state_dim))
        before = frozen.probs(states).copy()
        opt = nncore.Adam(policy.trainable_parameters(), learning_rate=1e-2)
        targets = (np.random.default_rng(5).random((4, schema.num_actions)) > 0.5).astype(float)
        for _ in range(100):
            p = policy.forward(states)
            loss = ref.mean(ref.bce_elementwise(p, targets))
            policy.zero_grad()
            loss.backward()
            opt.step()
        assert np.array_equal(frozen.probs(states), before)
        assert not np.array_equal(policy.probs(states), before)

    def test_clone_of_clone_equal_parameters(self, schema):
        policy = small_policy(schema, seed=6)
        once = policy.clone_frozen()
        twice = once.clone_frozen()
        for a, b in zip(once.parameters(), twice.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_frozen_parameters_refuse_training(self, schema):
        frozen = small_policy(schema, seed=7).clone_frozen()
        with pytest.raises(PolicyError):
            frozen.trainable_parameters()

    def test_checkpoint_equality_at_clone_time(self, schema, tmp_path):
        policy = small_policy(schema, seed=8)
        frozen = policy.clone_frozen()
        policy.save(tmp_path / "pi.json")
        frozen.save(tmp_path / "pi0.json")
        a = (tmp_path / "pi.json").read_text()
        b = (tmp_path / "pi0.json").read_text()
        # identical tensors; only the role field differs
        assert a.replace('"trainable"', '"frozen"') == b


class TestCheckpointRoundTrip:
    def test_round_trip_outputs_bitwise(self, schema, tmp_path):
        policy = small_policy(schema, seed=9)
        path = tmp_path / "ckpt.json"
        policy.save(path)
        loaded = PolicyNet.load(path)
        states = np.random.default_rng(10).random((5, schema.state_dim))
        assert np.array_equal(policy.probs(states), loaded.probs(states))
        assert loaded.role == policy.role

    def test_role_preserved_for_frozen(self, schema, tmp_path):
        frozen = small_policy(schema, seed=11).clone_frozen()
        path = tmp_path / "pi0.json"
        frozen.save(path)
        assert PolicyNet.load(path).role == "frozen"

    def test_version_mismatch_raises(self, schema, tmp_path):
        policy = small_policy(schema)
        path = tmp_path / "ckpt.json"
        policy.save(path)
        payload = json.loads(path.read_text())
        payload["version"] = "v42"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            PolicyNet.load(path)

    def test_missing_extra_loads_trainable(self, schema, tmp_path):
        path = tmp_path / "pi0.json"
        small_policy(schema, seed=11).clone_frozen().save(path)
        payload = json.loads(path.read_text())
        del payload["extra"]
        path.write_text(json.dumps(payload))
        assert PolicyNet.load(path).role == "trainable"

    def test_integer_value_loads_and_resaves_as_float(self, schema, tmp_path):
        # a JSON integer is a JSON number, but re-saving writes the package's
        # own float text: only a file the package wrote re-saves to its bytes
        path = tmp_path / "ckpt.json"
        small_policy(schema, seed=12).save(path)
        payload = json.loads(path.read_text())
        payload["tensors"]["b0"]["values"][0] = 0
        path.write_text(json.dumps(payload))
        loaded = PolicyNet.load(path)
        assert loaded.biases[0].data[0] == 0.0
        again = tmp_path / "again.json"
        loaded.save(again)
        value = json.loads(again.read_text())["tensors"]["b0"]["values"][0]
        assert type(value) is float and value == 0.0
        assert '"b0": {"shape": [8], "values": [0.0, ' in again.read_text()


class TestUnallocatableLayer:
    # sizes past the address space fail at once; a smaller huge layer may be
    # granted as virtual memory and then touched
    @pytest.mark.parametrize("hidden", [10**12, 10**40], ids=["memory", "numpy-limit"])
    @pytest.mark.parametrize("seed", [None, 0], ids=["zeros", "random"])
    def test_is_a_policy_error_naming_the_shape(self, schema, hidden, seed):
        rng = None if seed is None else np.random.default_rng(seed)
        with pytest.raises(PolicyError, match=f"cannot allocate a {schema.state_dim} x {hidden} "):
            PolicyNet(policy_spec_for(schema, hidden_dims=(hidden,)), rng=rng)


class TestActionSetAdapter:
    def test_dimension_checked(self, schema):
        bad_spec = MlpSpec(input_dim=schema.state_dim, hidden_dims=(4,), output_dim=3)
        with pytest.raises(PolicyError):
            ActionSetPolicy(PolicyNet(bad_spec), schema)

    def test_act_returns_action_objects(self, schema):
        adapter = ActionSetPolicy(small_policy(schema, seed=12), schema)
        # a zero state gives all-0.5 outputs (an empty set); a non-zero one does not
        actions = adapter.act(np.ones(schema.state_dim))
        assert actions and all(type(i) is int for i in actions)
        assert all(isinstance(schema.actions[i], dw.AtomicAction) for i in actions)

    def test_probs_asked_once_per_distinct_state(self, schema):
        policy = small_policy(schema, seed=13)
        adapter = ActionSetPolicy(policy, schema)
        asked = []
        real = policy.probs
        policy.probs = lambda state: asked.append(state.tobytes()) or real(state)
        states = (np.random.default_rng(14).random((5, schema.state_dim)) < 0.3).astype(float)
        order = [0, 1, 0, 2, 1, 1, 3, 4, 0, 4]
        # a copy per call: a repeated state is equal bytes, not the same array
        turns = [adapter.act(states[i].copy()) for i in order]
        assert sorted(asked) == sorted(s.tobytes() for s in states)
        fresh = ActionSetPolicy(small_policy(schema, seed=13), schema)
        for i, turn in zip(order, turns):
            assert turn == fresh.act(states[i]) == turns[order.index(i)]
        assert len({tuple(t) for t in turns}) > 1

    def test_returned_turn_is_the_callers(self, schema):
        adapter = ActionSetPolicy(small_policy(schema, seed=12), schema)
        state = np.ones(schema.state_dim)
        first = adapter.act(state)
        assert first
        want = list(first)
        first.append(first[0])
        adapter.act(state).clear()
        assert adapter.act(state) == want

    def test_predict_set_strict_threshold(self, schema):
        policy = small_policy(schema)  # all-0.5 outputs
        assert not predicted_mask(policy.probs(np.zeros(schema.state_dim))).any()
        assert ActionSetPolicy(policy, schema).act(np.zeros(schema.state_dim)) == []
