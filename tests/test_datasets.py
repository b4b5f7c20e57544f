import json
from dataclasses import replace

import numpy as np
import pytest

import jsonl_reference as ref
from banditmatch import datasets as ds
from banditmatch import dialogworld as dw
from banditmatch.policy import PROBS_BLOCK, PolicyNet, policy_spec_for, predicted_mask


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


def spy_probs(monkeypatch) -> list[int]:
    """The rows of each ``PolicyNet.probs`` call from now on."""
    calls = []
    real = PolicyNet.probs

    def probs(self, states):
        calls.append(len(states))
        return real(self, states)

    monkeypatch.setattr(PolicyNet, "probs", probs)
    return calls


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


def row_keys(corpus) -> list:
    """Each row's state and action bytes, in corpus order."""
    return [(ex.state.tobytes(), ex.actions.tobytes()) for ex in corpus]


def list_corpus(schema, n_dialogs, seed) -> list:
    """The corpus as a list of examples, rolled out as generate_corpus does."""
    rng = ds.derive_rng(seed, "corpus")
    examples = []
    for _ in range(n_dialogs):
        pairs = []
        dw.run_expert_episode(schema, dw.sample_goal(schema, rng), collect=pairs)
        examples += [ds.LabeledExample(state, np.array(sorted(actions), dtype=np.int64))
                     for state, actions in pairs]
    return examples


class TestCorpusArrays:
    """The array corpus against the list of examples it replaces."""

    def assert_rows(self, corpus, examples):
        assert len(corpus) == len(examples)
        for got in (list(corpus), [corpus[i] for i in range(len(corpus))]):
            for a, b in zip(got, examples, strict=True):
                for name in ("state", "actions"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert x.dtype == y.dtype and np.array_equal(x, y), name

    def test_generated_rows_and_arrays(self, schema, corpus):
        examples = list_corpus(schema, 40, seed=11)
        self.assert_rows(corpus, examples)
        assert corpus.states.dtype == np.uint8 and corpus.states.flags.c_contiguous
        assert corpus.offsets.dtype == corpus.indices.dtype == np.int64
        assert corpus.offsets[0] == 0 and corpus.offsets[-1] == len(corpus.indices)
        assert corpus[-1].actions.tolist() == examples[-1].actions.tolist()
        with pytest.raises(IndexError):
            corpus[len(corpus)]

    def test_take_equals_list_indexing(self, schema, corpus):
        examples = list_corpus(schema, 40, seed=11)
        order = ds.derive_rng(5, "split").permutation(len(corpus))
        for idx in (order, order[:7], order[:0], np.array([3, 3, 0])):
            self.assert_rows(corpus.take(idx), [examples[i] for i in idx])
        # the split is the list split's two index lists
        labeled, pool = ds.split_corpus(corpus, ds.SplitConfig(0.3, seed=2))
        order = ds.derive_rng(2, "split").permutation(len(corpus))
        cut = ds.labeled_size(len(corpus), 0.3)
        self.assert_rows(labeled, [examples[i] for i in order[:cut]])
        self.assert_rows(pool, [examples[i] for i in order[cut:]])

    def test_action_mask_equals_per_element_fill(self, schema, corpus):
        examples = list_corpus(schema, 40, seed=11)
        expected = np.zeros((len(examples), schema.num_actions), dtype=bool)
        for i, ex in enumerate(examples):
            for a in ex.actions:
                expected[i, a] = True
        got = corpus.action_mask(schema.num_actions)
        assert got.dtype == bool and np.array_equal(got, expected)
        assert corpus.take([]).action_mask(4).shape == (0, 4)

    def test_action_mask_of_small_sets(self):
        # rows {0, 2}, {1} and {0, 1, 2}
        corpus = ds.Corpus(np.zeros((3, 1), np.uint8), np.array([0, 2, 3, 6]),
                           np.array([0, 2, 1, 0, 1, 2]))
        assert corpus.action_mask(3).tolist() == [
            [True, False, True],
            [False, True, False],
            [True, True, True],
        ]


class TestSplit:
    def test_partition_property(self, corpus):
        labeled, pool = ds.split_corpus(corpus, ds.SplitConfig(0.3, seed=2))
        assert len(labeled) + len(pool) == len(corpus)
        assert sorted(row_keys(labeled) + row_keys(pool)) == sorted(row_keys(corpus))

    def test_round_half_up_sizing(self, corpus):
        labeled, _ = ds.split_corpus(corpus, ds.SplitConfig(0.1, seed=0))
        assert len(labeled) == round(0.1 * len(corpus))

    def test_full_fraction_empties_pool(self, corpus):
        labeled, pool = ds.split_corpus(corpus, ds.SplitConfig(1.0, seed=0))
        assert len(pool) == 0 and len(labeled) == len(corpus)

    def test_same_seed_same_split(self, corpus):
        a = ds.split_corpus(corpus, ds.SplitConfig(0.25, seed=9))
        b = ds.split_corpus(corpus, ds.SplitConfig(0.25, seed=9))
        assert row_keys(a[0]) == row_keys(b[0]) and row_keys(a[1]) == row_keys(b[1])

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
        (record,) = ds.log_bandit_data(policy, ref.corpus_of([example]))
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


def set_mask(members, num_classes=5):
    mask = np.zeros(num_classes, dtype=bool)
    mask[list(members)] = True
    return mask


class TestFeedback:
    def test_exact_match(self):
        assert ds.simulate_feedback(set_mask({1, 3}), set_mask({1, 3})) == 1

    def test_superset_is_not_a_match(self):
        assert ds.simulate_feedback(set_mask({1, 2, 3}), set_mask({1, 3})) == 0

    def test_empty_sets_match(self):
        assert ds.simulate_feedback(set_mask(()), set_mask(())) == 1

    def test_agrees_with_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(123)
        a, b = rng.random((2, 10_000, 7)) < 0.4
        brute = [1 if sorted(np.flatnonzero(x)) == sorted(np.flatnonzero(y)) else 0
                 for x, y in zip(a, b)]
        got = ds.simulate_feedback(a, b)
        assert got.dtype == np.int64 and got.tolist() == brute


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
            assert rec.feedback == int(set(rec.logged_actions.tolist()) == set(ex.actions.tolist()))

    def test_rows_are_the_per_state_records(self, schema, corpus):
        # each row, by index and by iteration, is the record one probs call
        # on its state gives, with the same dtypes
        policy = random_policy(schema).clone_frozen()
        log = ds.log_bandit_data(policy, corpus)
        expected = []
        for ex in corpus:
            rho = policy.probs(ex.state)
            logged = np.flatnonzero(predicted_mask(rho))
            feedback = 1 if set(logged.tolist()) == set(ex.actions.tolist()) else 0
            expected.append(ds.BanditRecord(ex.state, logged, rho, feedback))
        assert len(log) == len(expected)
        for got in (list(log), [log[i] for i in range(len(log))]):
            for a, b in zip(got, expected, strict=True):
                for name in ("state", "logged_actions", "propensities"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert x.dtype == y.dtype and np.array_equal(x, y), name
                assert type(a.feedback) is int and a.feedback == b.feedback

    @pytest.mark.parametrize("extra", [1 - PROBS_BLOCK, -1, 0, 1],
                             ids=["1", "B-1", "B", "B+1"])
    def test_one_probs_call_per_block(self, schema, monkeypatch, extra):
        n = PROBS_BLOCK + extra
        rng = np.random.default_rng(n)
        pool = ref.corpus_of([ds.LabeledExample(
            (rng.random(schema.state_dim) < 0.2).astype(np.uint8),
            np.array([0], dtype=np.int64)) for _ in range(n)])
        policy = random_policy(schema).clone_frozen()
        calls = spy_probs(monkeypatch)
        log = ds.log_bandit_data(policy, pool)
        # every row is stacked, so a 1-row tail is its own call with its row's bits
        assert calls == [min(PROBS_BLOCK, n - start) for start in range(0, n, PROBS_BLOCK)]
        assert log.rho.shape == (n, schema.num_actions)
        assert all(np.array_equal(row, policy.probs(ex.state)) for row, ex in zip(log.rho, pool))

    def test_default_world_pool_in_blocks(self, schema, monkeypatch):
        corpus = ds.generate_corpus(schema, 120, seed=4)
        policy = random_policy(schema).clone_frozen()
        calls = spy_probs(monkeypatch)
        log = ds.log_bandit_data(policy, corpus)
        n = len(corpus)
        assert n > 2 * PROBS_BLOCK + 1 and n % PROBS_BLOCK > 1
        assert calls == [PROBS_BLOCK] * (n // PROBS_BLOCK) + [n % PROBS_BLOCK]
        assert all(np.array_equal(row, policy.probs(ex.state)) for row, ex in zip(log.rho, corpus))


class TestContract:
    """A corpus or log is checked when it is built, and a bad row is named
    by its number counted from 1."""

    def test_positive_record_with_empty_set_rejected(self, schema, corpus):
        # a logging policy that predicts the empty set everywhere logs only
        # negative records: feedback 1 means the logged set is the expert's,
        # and no expert set is empty
        policy = random_policy(schema).clone_trainable()
        policy.biases[-1].data[:] = -20.0
        log = ds.log_bandit_data(policy.clone_frozen(), corpus)
        assert not predicted_mask(log.rho).any() and not log.delta.any()
        message = "a positive record must log a non-empty action set"
        with pytest.raises(ds.DataError, match=f"^record 1: {message}$"):
            replace(log, delta=np.ones_like(log.delta))
        delta = log.delta.copy()
        delta[5] = 1
        with pytest.raises(ds.DataError, match=f"^record 6: {message}$"):
            replace(log, delta=delta)

    def test_rows_numbered_across_blocks(self, schema):
        corpus = ds.generate_corpus(schema, 120, seed=4)
        assert len(corpus) > 2 * ds._BLOCK
        indices = corpus.indices.copy()
        row = 2 * ds._BLOCK + 3
        indices[corpus.offsets[row]] = -1
        with pytest.raises(ds.DataError, match=f"^record {row + 1}: actions \\[-1"):
            replace(corpus, indices=indices)

    @pytest.mark.parametrize("offsets, indices", [
        ([0, 1], [0]),  # one boundary short
        ([1, 1, 2], [0, 1]),  # not from 0
        ([0, 1, 3], [0, 1]),  # not to the index count
        ([0.0, 1.0, 2.0], [0, 1]),  # not integers
        ([0, 1, 2], [0.0, 1.0]),  # indices not integers
    ])
    def test_offsets_that_do_not_fit_refused(self, offsets, indices):
        with pytest.raises(ds.DataError, match="corpus offsets must be 3 integers from 0"):
            ds.Corpus(np.zeros((2, 1), np.uint8), np.array(offsets), np.array(indices))

    def test_decreasing_offsets_refused(self):
        # row 2 runs from index 2 back to 1: it has no actions
        with pytest.raises(ds.DataError, match="^record 2: actions must not be empty$"):
            ds.Corpus(np.zeros((3, 1), np.uint8), np.array([0, 2, 1, 2]), np.array([0, 1]))

    def test_built_checks_every_block_once(self, schema, tmp_path, row_checks):
        # the constructor and the reader check a block of rows at a time;
        # take and the split build from checked rows and check nothing
        big = ds.generate_corpus(schema, 120, seed=4)
        blocks = -(-len(big) // ds._BLOCK)
        ds.write_labeled_jsonl(tmp_path / "c.jsonl", big)
        assert row_checks == ["_corpus_fault"] * blocks  # generated, then written unchecked
        row_checks.clear()
        replace(big)
        assert row_checks == ["_corpus_fault"] * blocks
        row_checks.clear()
        ds.split_corpus(big, ds.SplitConfig(0.5, seed=1))
        big.take(np.arange(len(big)))
        assert row_checks == []
        ds.read_labeled_jsonl(tmp_path / "c.jsonl")  # the header shares the first block
        assert row_checks == ["_corpus_fault"] * -(-(len(big) + 1) // ds._BLOCK)


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
        log = ds.log_bandit_data(policy, corpus)
        path = tmp_path / "bandit.jsonl"
        ds.write_bandit_jsonl(path, log)
        loaded = ds.read_bandit_jsonl(path)
        for name in ("states", "rho", "delta"):  # rho bitwise
            a, b = getattr(log, name), getattr(loaded, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_log_holds_three_fields_and_writes_the_predicted_sets(self, schema, corpus,
                                                                  tmp_path):
        # a log holds states, rho and delta, however it was made; its logged
        # sets exist only as predicted_mask(rho), which the writer lists
        log = ds.log_bandit_data(random_policy(schema).clone_frozen(), corpus)
        path = tmp_path / "bandit.jsonl"
        ds.write_bandit_jsonl(path, log)
        for made in (log, ds.read_bandit_jsonl(path), log.take([3, 1])):
            assert list(vars(made)) == ["states", "rho", "delta"]
        _, *lines = path.read_text().splitlines()
        listed = [json.loads(line)["actions"] for line in lines]
        assert listed == [np.flatnonzero(row).tolist() for row in predicted_mask(log.rho)]

    def test_malformed_line_reports_line_number(self, corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        ds.write_labeled_jsonl(path, corpus.take(range(3)))
        lines = path.read_text().splitlines()
        lines[2] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DataError, match=":3:"):
            ds.read_labeled_jsonl(path)

    def test_version_mismatch_rejected(self, corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        ds.write_labeled_jsonl(path, corpus.take([0]))
        lines = path.read_text().splitlines()
        lines[0] = '{"schema_version": "v999", "record": "labeled"}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ds.DataError, match="v999"):
            ds.read_labeled_jsonl(path)

    def test_wrong_kind_rejected(self, schema, corpus, tmp_path):
        path = tmp_path / "x.jsonl"
        ds.write_labeled_jsonl(path, corpus.take([0]))
        with pytest.raises(ds.DataError, match="bandit"):
            ds.read_bandit_jsonl(path)


class TestStateBytes:
    def test_corpus_states_are_uint8(self, corpus):
        assert all(ex.state.dtype == np.uint8 for ex in corpus)
        assert set(np.unique(np.stack([ex.state for ex in corpus]))) == {0, 1}
