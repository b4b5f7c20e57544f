import numpy as np
import pytest

from banditmatch import datasets as ds
from banditmatch import dialogworld as dw
from banditmatch.policy import PolicyNet, policy_spec_for, predicted_mask


@pytest.fixture(scope="module")
def schema():
    return dw.default_schema()


@pytest.fixture(scope="module")
def corpus(schema):
    return ds.generate_corpus(schema, 40, seed=11)


def zero_policy(schema):
    # all probabilities exactly 0.5
    return PolicyNet(policy_spec_for(schema, hidden_dims=(8,)), rng=None)


def random_policy(schema, seed=3):
    return PolicyNet(policy_spec_for(schema, hidden_dims=(8,)), rng=np.random.default_rng(seed))


class TestCorpus:
    def test_same_seed_identical(self, schema):
        a = ds.generate_corpus(schema, 10, seed=5)
        b = ds.generate_corpus(schema, 10, seed=5)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.state, y.state)
            assert np.array_equal(x.actions, y.actions)

    def test_zero_dialogs_rejected(self, schema):
        with pytest.raises(ds.DataError):
            ds.generate_corpus(schema, 0, seed=1)

    def test_contains_multi_action_examples(self, corpus):
        assert any(len(ex.actions) >= 2 for ex in corpus)

    def test_actions_nonempty_and_in_range(self, schema, corpus):
        for ex in corpus:
            assert len(ex.actions) >= 1
            assert ex.actions.min() >= 0 and ex.actions.max() < schema.num_actions


class TestSplit:
    def test_partition_property(self, corpus):
        labeled, pool = ds.split_corpus(corpus, ds.SplitConfig(0.3, seed=2))
        assert len(labeled) + len(pool) == len(corpus)
        seen = {id(ex) for ex in labeled} | {id(ex) for ex in pool}
        assert len(seen) == len(corpus)

    def test_round_half_up_sizing(self, corpus):
        labeled, _ = ds.split_corpus(corpus[:1000], ds.SplitConfig(0.1, seed=0))
        assert len(labeled) == round(0.1 * len(corpus[:1000]))

    def test_full_fraction_empties_pool(self, corpus):
        labeled, pool = ds.split_corpus(corpus, ds.SplitConfig(1.0, seed=0))
        assert pool == [] and len(labeled) == len(corpus)

    def test_same_seed_same_split(self, corpus):
        a = ds.split_corpus(corpus, ds.SplitConfig(0.25, seed=9))
        b = ds.split_corpus(corpus, ds.SplitConfig(0.25, seed=9))
        assert [id(x) for x in a[0]] == [id(x) for x in b[0]]

    def test_fraction_bounds(self):
        with pytest.raises(ds.DataError):
            ds.SplitConfig(0.0, seed=1)
        with pytest.raises(ds.DataError):
            ds.SplitConfig(1.2, seed=1)


class TestPredictSet:
    """The logged set is the policy's predicted set {c : rho_c > 0.5}."""

    @staticmethod
    def log_one(policy, state):
        example = ds.LabeledExample(state=state, actions=np.array([0], dtype=np.int64))
        (record,) = ds.log_bandit_data(policy, [example])
        return record

    def test_strictly_above_half(self, schema):
        assert predicted_mask(np.array([0.5, 0.5 + 1e-12, 0.5 - 1e-12])).tolist() == [
            False, True, False
        ]
        record = self.log_one(zero_policy(schema), np.zeros(schema.state_dim))
        assert record.logged_actions.size == 0  # exactly 0.5 everywhere is excluded
        assert np.allclose(record.propensities, 0.5)

    def test_threshold_rule(self, schema):
        policy = random_policy(schema)
        state = np.ones(schema.state_dim)
        record = self.log_one(policy, state)
        assert np.array_equal(record.propensities, policy.probs(state))
        logged = set(record.logged_actions.tolist())
        assert logged == set(np.flatnonzero(record.propensities > 0.5).tolist())

    def test_propensities_full_length(self, schema):
        record = self.log_one(random_policy(schema), np.zeros(schema.state_dim))
        assert record.propensities.shape == (schema.num_actions,)


class TestFeedback:
    def test_exact_match(self):
        assert ds.simulate_feedback({1, 3}, {1, 3}) == 1

    def test_superset_is_not_a_match(self):
        assert ds.simulate_feedback({1, 2, 3}, {1, 3}) == 0

    def test_empty_sets_match(self):
        assert ds.simulate_feedback(set(), set()) == 1

    def test_agrees_with_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(10_000):
            c = int(rng.integers(1, 8))
            a = set(np.flatnonzero(rng.random(c) < 0.4).tolist())
            b = set(np.flatnonzero(rng.random(c) < 0.4).tolist())
            brute = 1 if sorted(a) == sorted(b) else 0
            assert ds.simulate_feedback(a, b) == brute


class TestLogging:
    def test_record_invariants(self, schema, corpus):
        policy = random_policy(schema).clone_frozen()
        records = ds.log_bandit_data(policy, corpus)
        assert len(records) == len(corpus)
        for rec in records:
            assert set(rec.logged_actions.tolist()) == set(
                np.flatnonzero(rec.propensities > 0.5).tolist()
            )
            assert rec.feedback in (0, 1)
            assert np.all(rec.propensities > 0) and np.all(rec.propensities < 1)

    def test_uniform_half_policy_logs_empty_sets(self, schema, corpus):
        policy = zero_policy(schema).clone_frozen()
        records = ds.log_bandit_data(policy, corpus)
        for rec, ex in zip(records, corpus):
            assert len(rec.logged_actions) == 0
            assert rec.feedback == (1 if len(ex.actions) == 0 else 0)
        # expert actions are never empty, so every record is negative
        assert all(rec.feedback == 0 for rec in records)

    def test_feedback_against_expert_labels(self, schema, corpus):
        policy = random_policy(schema).clone_frozen()
        records = ds.log_bandit_data(policy, corpus)
        for rec, ex in zip(records, corpus):
            logged = set(rec.logged_actions.tolist())
            assert rec.feedback == ds.simulate_feedback(logged, ex.action_set())


class TestPersistence:
    def test_labeled_round_trip(self, corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        ds.write_labeled_jsonl(path, corpus)
        loaded = ds.read_labeled_jsonl(path)
        assert len(loaded) == len(corpus)
        for a, b in zip(corpus, loaded):
            assert np.array_equal(a.state, b.state)
            assert np.array_equal(a.actions, b.actions)

    def test_bandit_round_trip_full_precision(self, schema, corpus, tmp_path):
        policy = random_policy(schema).clone_frozen()
        records = ds.log_bandit_data(policy, corpus[:10])
        path = tmp_path / "bandit.jsonl"
        ds.write_bandit_jsonl(path, records)
        loaded = ds.read_bandit_jsonl(path)
        for a, b in zip(records, loaded):
            assert np.array_equal(a.state, b.state)
            assert np.array_equal(a.logged_actions, b.logged_actions)
            assert np.array_equal(a.propensities, b.propensities)  # bitwise
            assert a.feedback == b.feedback

    def test_malformed_line_reports_line_number(self, corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        ds.write_labeled_jsonl(path, corpus[:3])
        lines = path.read_text().splitlines()
        lines[2] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DataError, match=":3:"):
            ds.read_labeled_jsonl(path)

    def test_version_mismatch_rejected(self, corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        ds.write_labeled_jsonl(path, corpus[:1])
        lines = path.read_text().splitlines()
        lines[0] = '{"schema_version": "v999", "record": "labeled"}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DataError, match="v999"):
            ds.read_labeled_jsonl(path)

    def test_wrong_kind_rejected(self, schema, corpus, tmp_path):
        path = tmp_path / "x.jsonl"
        ds.write_labeled_jsonl(path, corpus[:1])
        with pytest.raises(ds.DataError, match="bandit"):
            ds.read_bandit_jsonl(path)


class TestStateBytes:
    def test_corpus_states_are_uint8(self, corpus):
        assert all(ex.state.dtype == np.uint8 for ex in corpus)
        assert set(np.unique(np.stack([ex.state for ex in corpus]))) == {0, 1}
