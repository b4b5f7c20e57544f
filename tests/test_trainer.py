import concurrent.futures
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import jsonl_reference as ref
from banditmatch import cli
from banditmatch import datasets as ds
from banditmatch import dialogworld as dw
from banditmatch import nncore
from banditmatch import objectives
from banditmatch import trainer as tr
from banditmatch.policy import PROBS_BLOCK, PolicyNet, policy_spec_for
from dataclasses import replace
from pathlib import Path


@pytest.fixture(scope="module")
def schema():
    return dw.default_schema()


@pytest.fixture(scope="module")
def spec(schema):
    return policy_spec_for(schema, hidden_dims=(32,))


@pytest.fixture(scope="module")
def corpus(schema):
    return ds.generate_corpus(schema, 60, seed=21)


@pytest.fixture(scope="module")
def setup(schema, spec, corpus):
    labeled, pool = ds.split_corpus(corpus, ds.SplitConfig(0.2, seed=3))
    cfg = tr.TrainConfig(seed=3, sl_epochs=60, epochs=3, hidden_dims=(32,))
    pi0 = tr.train_logging_policy(labeled, spec, cfg)
    records = ds.log_bandit_data(pi0, pool)
    return labeled, pool, cfg, pi0, records


def random_log(rng, n, d, c):
    """A log of ``n`` random rows: 0/1 states, sets of about a fifth of the
    ``c`` classes (``rho`` above 0.5 on them, below elsewhere), and feedback
    0 wherever a set is empty."""
    logged = rng.random((n, c)) < 0.2
    rho = np.where(logged, rng.uniform(0.55, 0.95, (n, c)), rng.uniform(0.05, 0.45, (n, c)))
    delta = rng.integers(0, 2, n) * logged.any(axis=1)
    return ds.BanditLog((rng.random((n, d)) < 0.2).astype(np.uint8), rho, delta.astype(np.int64))


def params_of(policy):
    return [p.data.copy() for p in policy.parameters()]


class TestConfig:
    def test_unknown_method_rejected(self):
        # "sl" is not a fine-tuning method: supervised training is train_supervised
        for method in ("dagger", "sl"):
            with pytest.raises(tr.TrainerError):
                tr.TrainConfig(method=method)

    def test_ablations_only_for_composite_method(self):
        with pytest.raises(tr.TrainerError):
            tr.TrainConfig(method="ips", no_cbl=True)

    def test_apply_ablation_switches(self):
        base = tr.TrainConfig()
        assert tr.apply_ablation(base, "no_fet").no_fet
        none_all = tr.apply_ablation(base, "none_all")
        assert none_all.no_fet and none_all.no_cbl and none_all.no_kl
        assert not tr.apply_ablation(base, "full").no_fet
        with pytest.raises(tr.TrainerError):
            tr.apply_ablation(base, "no_everything")

    def test_ablation_roster(self):
        assert tr.ABLATIONS == ("full", "no_mc_scale", "no_fet", "no_cbl", "no_kl", "none_all")

    def test_default_sweep_covers_ten_points(self):
        assert len(tr.DEFAULT_SWEEP_PERCENTAGES) == 10
        assert tr.DEFAULT_SWEEP_PERCENTAGES == (5, 10, 20, 30, 40, 50, 60, 70, 80, 90)


class TestLoggingPolicy:
    def test_full_label_training_reaches_high_exact_match(self, schema, corpus):
        spec_full = policy_spec_for(schema)
        cfg = tr.TrainConfig(seed=5, sl_epochs=240)
        policy = tr.train_supervised(corpus, spec_full, cfg)
        states = np.stack([ex.state for ex in corpus])
        from banditmatch import fet

        targets = corpus.action_mask(spec_full.output_dim)
        assert fet.exact_match_rows(policy.probs(states), targets).mean() > 0.95

    def test_returned_frozen(self, setup):
        *_, pi0, _ = setup
        assert setup[3].role == "frozen"

    def test_deterministic_under_seed(self, spec, setup):
        labeled = setup[0]
        cfg = tr.TrainConfig(seed=9, sl_epochs=5, hidden_dims=(32,))
        a = tr.train_logging_policy(labeled, spec, cfg)
        b = tr.train_logging_policy(labeled, spec, cfg)
        for x, y in zip(a.parameters(), b.parameters()):
            assert np.array_equal(x.data, y.data)

    def test_empty_corpus_rejected(self, spec):
        with pytest.raises(tr.TrainerError):
            tr.train_supervised([], spec, tr.TrainConfig())

    def test_sl_requires_full_labels(self, spec, setup):
        with pytest.raises(tr.TrainerError):
            tr.train_supervised(None, spec, setup[2])

    def test_sl_baseline_trains_on_corpus(self, spec, corpus, setup):
        cfg = replace(setup[2], sl_epochs=5)
        policy = tr.train_supervised(corpus, spec, cfg)
        assert policy.role == "trainable"


class TestFineTuning:
    def test_warm_start_matches_logging_policy_before_updates(self, setup, schema):
        *_, cfg, pi0, records = setup[1], setup[2], setup[3], setup[4]
        cfg = replace(setup[2], epochs=0)
        policy, history = tr.train_on_log(setup[3], setup[4], cfg)
        states = np.stack([r.state for r in setup[4]])
        assert np.array_equal(policy.probs(states), setup[3].probs(states))
        assert history == []

    def test_fixed_seed_reproducible(self, setup):
        cfg = replace(setup[2], epochs=2)
        a, _ = tr.train_on_log(setup[3], setup[4], cfg)
        b, _ = tr.train_on_log(setup[3], setup[4], cfg)
        for x, y in zip(a.parameters(), b.parameters()):
            assert np.array_equal(x.data, y.data)

    def test_logging_policy_left_unchanged(self, setup):
        # fine-tuning trains a copy of the logging policy's arrays, not the arrays
        pi0 = setup[3]
        before = params_of(pi0)
        trained = {m: tr.train_on_log(pi0, setup[4], replace(setup[2], epochs=2, method=m))[0]
                   for m in ("banditmatch", "ips")}
        # this log has no positive record, so only banditmatch moves its copy
        assert not all(np.array_equal(a, p.data)
                       for a, p in zip(before, trained["banditmatch"].parameters()))
        assert all(np.array_equal(a, p.data) for a, p in zip(before, pi0.parameters()))

    def test_forward_passes_per_step(self, setup, monkeypatch):
        # weak and strong passes always; the unaugmented pass only when FET,
        # CBL or KL reads it; fixmatch's split pass in its place
        calls = []
        forward = PolicyNet.forward
        monkeypatch.setattr(PolicyNet, "forward",
                            lambda self, states: calls.append(1) or forward(self, states))
        base = replace(setup[2], epochs=1)
        cases = {
            "banditmatch": (base, 3),
            "no_fet": (tr.apply_ablation(base, "no_fet"), 3),
            "no_cbl": (tr.apply_ablation(base, "no_cbl"), 3),
            "no_kl": (tr.apply_ablation(base, "no_kl"), 3),
            "none_all": (tr.apply_ablation(base, "none_all"), 2),
            "fixmatch": (replace(base, method="fixmatch"), 3),
        }
        for name, (cfg, per_step) in cases.items():
            calls.clear()
            _, history = tr.train_on_log(setup[3], setup[4], cfg, labeled_split=setup[0])
            assert history and len(calls) == per_step * len(history), name

    def test_fixmatch_baseline_requires_labeled_split(self, setup):
        cfg = replace(setup[2], epochs=1, method="fixmatch")
        with pytest.raises(tr.TrainerError):
            tr.train_on_log(setup[3], setup[4], cfg)

    @pytest.mark.parametrize("row", [name for name, _ in tr.ablation_rows(tr.TrainConfig())]
                             + ["ips", "banditnet"])
    def test_only_fixmatch_reads_labeled_split(self, setup, row):
        base = replace(setup[2], epochs=1)
        rows = dict(tr.ablation_rows(base))
        cfg = rows.get(row) or replace(base, method=row)
        traces = ({}, {})
        runs = [tr.train_on_log(setup[3], setup[4], cfg, labeled_split=split,
                                on_thresholds=trace.__setitem__)
                for split, trace in zip((setup[0], None), traces)]
        (with_split, log_a), (without, log_b) = runs
        for x, y in zip(with_split.parameters(), without.parameters()):
            assert np.array_equal(x.data, y.data)
        assert len(log_a) == len(log_b) > 0
        for a, b in zip(log_a, log_b):
            assert [getattr(a, c) for c in tr.TRAINING_LOG_COLUMNS] == \
                [getattr(b, c) for c in tr.TRAINING_LOG_COLUMNS]
        trace_a, trace_b = traces
        assert trace_a.keys() == trace_b.keys()
        for step, a in trace_a.items():
            assert np.array_equal(a.accept, trace_b[step].accept)
            assert np.array_equal(a.reject, trace_b[step].reject)

    def test_fixmatch_trains_on_split_action_sets(self, setup):
        cfg = replace(setup[2], epochs=1, method="fixmatch")
        labeled = setup[0]
        # the same states, each with the next example's action set
        shifted = ref.corpus_of([ds.LabeledExample(ex.state,
                                                   labeled[(i + 1) % len(labeled)].actions)
                                 for i, ex in enumerate(labeled)])
        assert any(not np.array_equal(a.actions, b.actions) for a, b in zip(labeled, shifted))
        a, _ = tr.train_on_log(setup[3], setup[4], cfg, labeled_split=labeled)
        b, _ = tr.train_on_log(setup[3], setup[4], cfg, labeled_split=shifted)
        assert any(not np.array_equal(x.data, y.data)
                   for x, y in zip(a.parameters(), b.parameters()))

    def test_crm_training_logs_bandit_loss_only(self, setup):
        cfg = replace(setup[2], epochs=1, method="ips")
        _, history = tr.train_on_log(setup[3], setup[4], cfg)
        assert history and all(r.loss_labeled == 0.0 and r.loss_pseudo == 0.0 for r in history)

    @pytest.mark.parametrize("method", ["ips", "banditnet"])
    def test_crm_kl_row_logs_each_term_once(self, setup, method):
        # the bandit column holds the CRM term alone, so a row's terms sum to
        # its total as in a composite row
        cfg = replace(setup[2], epochs=1, method=method, add_kl=True)
        _, history = tr.train_on_log(setup[3], setup[4], cfg)
        assert any(r.loss_kl != 0.0 for r in history)
        assert all(r.loss_bandit + r.loss_kl == r.total for r in history)

    @pytest.mark.parametrize("method", ["banditmatch", "ips"])
    def test_kl_reference_is_the_logged_rho(self, schema, spec, method):
        # a hand-built log whose rho no policy produced: fewer than ten rows
        # keep every row, and a batch larger than the log makes step 1 one
        # batch of all of them, taken before any update
        rng = np.random.default_rng(29)
        log = random_log(rng, 9, schema.state_dim, schema.num_actions)
        pi0 = PolicyNet(spec, rng=rng).clone_frozen()
        assert not np.allclose(pi0.probs_in_blocks(log.states), log.rho)
        cfg = tr.TrainConfig(method=method, add_kl=method == "ips", epochs=1,
                             hidden_dims=spec.hidden_dims)
        _, history = tr.train_on_log(pi0, log, cfg)
        expected = objectives.loss_kl_control(pi0.forward(log.states), log.rho).item()
        assert len(history) == 1
        assert history[0].loss_kl == pytest.approx(expected, rel=1e-12)

    def test_ips_with_zero_learning_rate_stays_at_logging_policy(self, setup, schema):
        cfg = replace(setup[2], epochs=2, method="ips", learning_rate=0.0)
        policy, _ = tr.train_on_log(setup[3], setup[4], cfg)
        states = np.stack([r.state for r in setup[4]])
        assert np.array_equal(policy.probs(states), setup[3].probs(states))

    def test_banditnet_add_kl_runs(self, setup):
        cfg = replace(setup[2], epochs=1, method="banditnet", add_kl=True)
        _, history = tr.train_on_log(setup[3], setup[4], cfg)
        assert any(r.loss_kl != 0.0 for r in history)

    def test_empty_log_rejected(self, setup):
        with pytest.raises(tr.TrainerError):
            tr.train_on_log(setup[3], ds.log_bandit_data(setup[3], setup[1].take([])), setup[2])

    def test_training_never_checks_rows_again(self, setup, row_checks):
        # the log and the split were checked when built: neither the batch
        # gathers nor the split's rows run a row check again
        labeled, _, cfg, pi0, log = setup
        for method in ("banditmatch", "fixmatch", "ips"):
            tr.train_on_log(pi0, log, replace(cfg, epochs=1, method=method), labeled_split=labeled)
        assert row_checks == []
        # building a log from outside always runs it
        replace(log)
        assert row_checks == ["_log_fault"] * -(-len(log) // ds._BLOCK)

    def test_stacks_only_the_training_rows(self, schema, spec):
        # the unread tenth of the log is never copied, and no copy of the
        # training rows is kept: a zero-epoch run peaks well under one copy
        # of their uint8 states, propensities and logged-set mask
        rng = np.random.default_rng(17)
        d, c, n = schema.state_dim, schema.num_actions, 3000
        log = random_log(rng, n, d, c)
        pi0 = PolicyNet(spec, rng=rng).clone_frozen()
        cfg = tr.TrainConfig(method="ips", epochs=0, hidden_dims=spec.hidden_dims)
        row_bytes = (n - n // 10) * (d + c * 8 + c)
        tracemalloc.start()
        try:
            tr.train_on_log(pi0, log, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * row_bytes, peak / row_bytes

    def test_batches_gather_from_the_log(self, schema, spec):
        # the kept rows are never copied: each batch takes its own rows from
        # the log, so a zero-epoch run allocates the policy copy, the
        # optimizer and the kept row indices, under a quarter of one copy
        rng = np.random.default_rng(23)
        d, c, n = schema.state_dim, schema.num_actions, 3000
        log = random_log(rng, n, d, c)
        pi0 = PolicyNet(spec, rng=rng).clone_frozen()
        cfg = tr.TrainConfig(method="ips", epochs=0, hidden_dims=spec.hidden_dims)
        row_bytes = (n - n // 10) * (d + c * 8 + c)
        tracemalloc.start()
        try:
            tr.train_on_log(pi0, log, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * row_bytes, peak / row_bytes

    def test_kl_reference_built_in_blocks(self, schema, spec):
        # the KL term reads each batch's logged rho, so a zero-epoch
        # banditmatch run holds no reference probabilities and stays under the
        # zero-epoch ips bound: a quarter of one copy of the training rows'
        # uint8 states, propensities and logged-set mask
        rng = np.random.default_rng(19)
        d, c, n = schema.state_dim, schema.num_actions, 3000
        log = random_log(rng, n, d, c)
        pi0 = PolicyNet(spec, rng=rng).clone_frozen()
        cfg = tr.TrainConfig(epochs=0, hidden_dims=spec.hidden_dims)
        row_bytes = (n - n // 10) * (d + c * 8 + c)
        tracemalloc.start()
        try:
            tr.train_on_log(pi0, log, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * row_bytes, peak / row_bytes

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (1, 2),
                                               (2, 1)],
                             ids=["1", "2", "B-1", "B", "B+1", "B+2", "2B+1"])
    def test_block_reference_equals_one_call(self, schema, spec, blocks, extra):
        # each row has the bits of one probs call on that row alone, at every
        # block edge: a batched product may differ from a row's gemv in the
        # last bit, so a block passed as one (k, D) batch would show here
        n = blocks * PROBS_BLOCK + extra
        rng = np.random.default_rng(n)
        states = (rng.random((n, schema.state_dim)) < 0.2).astype(np.uint8)
        policy = PolicyNet(spec, rng=rng).clone_frozen()
        got = policy.probs_in_blocks(states)
        assert got.shape == (n, schema.num_actions)
        assert all(np.array_equal(row, policy.probs(state)) for row, state in zip(got, states))

    def test_crm_kind_with_kl_variant(self, setup, schema):
        cfg = replace(setup[2], epochs=1, method="ips", add_kl=True)
        policy, _ = tr.train_on_log(setup[3], setup[4], cfg)
        states = np.stack([r.state for r in setup[4]])
        assert policy.probs(states).shape == (len(setup[4]), schema.num_actions)

    def test_fixmatch_kind_uses_labeled_split(self, setup):
        cfg = replace(setup[2], epochs=1, method="fixmatch")
        policy, _ = tr.train_on_log(setup[3], setup[4], cfg, labeled_split=setup[0])
        assert policy.role == "trainable"

    def test_training_log_csv_round_trip(self, setup, tmp_path):
        cfg = replace(setup[2], epochs=1)
        _, history = tr.train_on_log(setup[3], setup[4], cfg)
        path = tmp_path / "train_log.csv"
        tr.write_training_log(path, history)
        import csv

        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(history)
        assert float(rows[0]["total"]) == history[0].total


class TestGraphLifetime:
    def test_each_step_graph_freed_before_the_next_is_built(self, setup, spec, monkeypatch):
        # every forward node is tagged with the Adam steps taken before it was
        # built; when a later step runs its first forward pass, it must be gone
        steps, built = [0], []
        forward, adam_step = PolicyNet.forward, nncore.Adam.step

        def counting_step(opt):
            adam_step(opt)
            steps[0] += 1

        def tracked_forward(policy, states):
            alive = sorted({tag + 1 for tag, node in built
                            if tag < steps[0] and node() is not None})
            assert not alive, f"step {steps[0] + 1} builds while graphs of steps {alive} live"
            node = forward(policy, states)
            built.append((steps[0], weakref.ref(node)))
            return node

        monkeypatch.setattr(nncore.Adam, "step", counting_step)
        monkeypatch.setattr(PolicyNet, "forward", tracked_forward)
        cfg = replace(setup[2], epochs=1, sl_epochs=1)
        runs = {
            "sl": lambda: tr.train_logging_policy(setup[0], spec, cfg),
            "banditmatch": lambda: tr.train_on_log(setup[3], setup[4], cfg),
            "ips": lambda: tr.train_on_log(setup[3], setup[4], replace(cfg, method="ips")),
        }
        for name, run in runs.items():
            steps[0] = 0
            built.clear()
            run()
            assert steps[0] > 1, name
            assert all(node() is None for _, node in built), name


class TestGradientOrder:
    """The order in which one training step adds into each gradient: first the
    loss terms into each pass's probabilities, then each pass into the
    parameters. Float addition is not associative, so this order fixes the
    trained bits; a step that computes its gradients without the graph must
    make the same additions in the same order."""

    # the loss terms whose nodes add into a pass's probabilities
    LOSSES = ("loss_labeled", "loss_pseudo", "loss_bandit", "loss_kl_control",
              "loss_ips", "loss_banditnet")

    @staticmethod
    def record(monkeypatch, schema, make_step, passes):
        """Run one step of ``make_step(policy)`` and its backward, and return
        each ``_accumulate`` into a pass's probabilities or a parameter as
        ``"source -> target"``. The step's forward passes are named by
        ``passes`` in call order."""
        rng = np.random.default_rng(40)
        policy = PolicyNet(policy_spec_for(schema, hidden_dims=(16, 8)), rng=rng)
        # saturate some classes, so fixed-band confidence and the strong pass occur
        policy.biases[-1].data[:] = rng.choice([-5.0, 0.0, 5.0], policy.num_actions)
        batch = random_log(rng, 24, policy.spec.input_dim, policy.num_actions)
        targets, running, events = dict(policy.named_parameters()), [], []

        def named(node, name, into=None):
            # targets keeps each node, so no id is reused within the step
            if into is not None:
                into[name] = node
            inner = node._backward

            def backward(g):
                running.append(name)
                inner(g)
                running.pop()

            node._backward = backward
            return node

        forward, pass_names = policy.forward, iter(passes)
        monkeypatch.setattr(policy, "forward",
                            lambda states: named(forward(states), next(pass_names), targets))
        for loss in TestGradientOrder.LOSSES:
            monkeypatch.setattr(objectives, loss, lambda *args, _f=getattr(objectives, loss),
                                _n=loss: named(_f(*args), _n))
        total, _ = make_step(policy)(1, batch)
        by_id = {id(node): name for name, node in targets.items()}
        accumulate = nncore.Tensor._accumulate

        def recording(tensor, g):
            if id(tensor) in by_id:
                events.append(f"{running[-1]} -> {by_id[id(tensor)]}")
            accumulate(tensor, g)

        monkeypatch.setattr(nncore.Tensor, "_accumulate", recording)
        policy.zero_grad()
        total.backward()
        return events

    def test_banditmatch_step(self, monkeypatch, schema):
        # all four terms. KL and bandit add into the plain pass, the pseudo
        # term into the strong pass, the labeled term into the weak pass
        events = self.record(
            monkeypatch, schema,
            lambda policy: tr._composite_step(policy, np.random.default_rng(1),
                                              tr.TrainConfig(batch_size=24), None, None),
            ("plain", "weak", "strong"))
        assert events == [
            "loss_kl_control -> plain", "loss_kl_control -> plain",
            "loss_kl_control -> plain", "loss_kl_control -> plain",
            "loss_bandit -> plain",
            "plain -> w2", "plain -> b2", "plain -> w1", "plain -> b1",
            "plain -> w0", "plain -> b0",
            "loss_pseudo -> strong", "loss_pseudo -> strong",
            "strong -> w2", "strong -> b2", "strong -> w1", "strong -> b1",
            "strong -> w0", "strong -> b0",
            "loss_labeled -> weak", "loss_labeled -> weak",
            "weak -> w2", "weak -> b2", "weak -> w1", "weak -> b1",
            "weak -> w0", "weak -> b0",
        ]

    def test_fixmatch_step(self, monkeypatch, schema, setup):
        # the weak pass only sets the mask: the labeled term is on the split pass
        events = self.record(
            monkeypatch, schema,
            lambda policy: tr._composite_step(
                policy, np.random.default_rng(1),
                tr.TrainConfig(batch_size=24, method="fixmatch"), setup[0], None),
            ("weak", "split", "strong"))
        assert events == [
            "loss_pseudo -> strong", "loss_pseudo -> strong",
            "strong -> w2", "strong -> b2", "strong -> w1", "strong -> b1",
            "strong -> w0", "strong -> b0",
            "loss_labeled -> split", "loss_labeled -> split",
            "split -> w2", "split -> b2", "split -> w1", "split -> b1",
            "split -> w0", "split -> b0",
        ]

    def test_ips_step_with_kl(self, monkeypatch, schema):
        events = self.record(
            monkeypatch, schema,
            lambda policy: tr._crm_step(policy, tr.TrainConfig(method="ips", add_kl=True)),
            ("plain",))
        assert events == [
            "loss_kl_control -> plain", "loss_kl_control -> plain",
            "loss_kl_control -> plain", "loss_kl_control -> plain",
            "loss_ips -> plain", "loss_ips -> plain",
            "plain -> w2", "plain -> b2", "plain -> w1", "plain -> b1",
            "plain -> w0", "plain -> b0",
        ]


class TestDivergence:
    """A trained policy whose every logit on the training rows lies outside
    the clamp can never learn again, and training refuses it."""

    @staticmethod
    def clamped(policy, bias=20.0):
        # a zero last layer and a bias past the clamp: every logit is `bias`
        policy = policy.clone_trainable()
        policy.weights[-1].data[:] = 0.0
        policy.biases[-1].data[:] = bias
        return policy.clone_frozen()

    @pytest.mark.parametrize("method", ["banditmatch", "fixmatch", "ips", "banditnet"])
    def test_every_logit_clamped_refused(self, setup, method):
        labeled, _, cfg, pi0, log = setup
        kept = len(log) - len(log) // 10
        message = f"training diverged: every logit is outside ±15 on the {kept} training rows"
        with pytest.raises(tr.TrainerError, match=message):
            tr.train_on_log(self.clamped(pi0), log, replace(cfg, epochs=1, method=method),
                            labeled_split=labeled)
        # a logit at the clamp itself lies inside: such a policy may still learn
        tr.train_on_log(self.clamped(pi0, bias=-15.0), log, replace(cfg, epochs=0))

    def test_supervised_training_refused(self, setup, spec, monkeypatch):
        labeled, _, cfg, _, _ = setup
        monkeypatch.setattr(PolicyNet, "all_logits_clamped", lambda self, states, rows=None: True)
        with pytest.raises(tr.TrainerError, match=f"outside ±15 on the {len(labeled)} training"):
            tr.train_logging_policy(labeled, spec, replace(cfg, sl_epochs=1))


class TestEvaluate:
    def test_expert_skyline_perfect(self, schema):
        report = tr.evaluate_expert(schema, n_dialogs=40, n_runs=2, seed=17)
        assert report.metrics["success"] == (100.0, 0.0)
        assert report.metrics["inform_f1"][0] == 1.0

    def test_bye_only_policy_scores_zero(self, schema):
        spec_full = policy_spec_for(schema, hidden_dims=(8,))
        policy = PolicyNet(spec_full, rng=None)
        bye_index = schema.actions.index(dw.AtomicAction(dw.GENERAL, dw.BYE))
        policy.biases[-1].data[bye_index] = 10.0
        report = tr.evaluate(policy, schema, n_dialogs=30, n_runs=1, seed=18)
        assert report.metrics["success"][0] == 0.0

    def test_same_master_seed_identical_report(self, setup, schema):
        a = tr.evaluate(setup[3], schema, n_dialogs=25, n_runs=2, seed=19)
        b = tr.evaluate(setup[3], schema, n_dialogs=25, n_runs=2, seed=19)
        assert a == b

    def test_std_is_over_runs(self, setup, schema):
        report = tr.evaluate(setup[3], schema, n_dialogs=10, n_runs=1, seed=20)
        for mean_value, std_value in report.metrics.values():
            assert std_value == 0.0

    def test_invalid_sizes_rejected(self, setup, schema):
        with pytest.raises(tr.TrainerError):
            tr.evaluate(setup[3], schema, n_dialogs=0, n_runs=1, seed=0)


class TestGrids:
    def test_ablation_grid_rows_and_shared_seeds(self, setup, schema):
        cfg = replace(setup[2], epochs=1)
        [reports] = tr.run_grid([(None, setup[3], setup[4], 77, tr.ablation_rows(cfg))], schema,
                                n_dialogs=10, n_runs=1)
        assert len(reports) == 6
        assert reports[0].method == "banditmatch"
        assert {r.method for r in reports[1:]} == {
            "banditmatch-no_mc_scale",
            "banditmatch-no_fet",
            "banditmatch-no_cbl",
            "banditmatch-no_kl",
            "banditmatch-none_all",
        }
        assert all(r.seed == 77 for r in reports)

    def test_sweep_structure(self, schema, corpus):
        cfg = tr.TrainConfig(seed=4, sl_epochs=10, epochs=1, hidden_dims=(16,))
        results = tr.run_sl_sweep(
            corpus, schema, cfg,
            percentages=(20, 50),
            methods=("banditmatch",),
            n_dialogs=5, n_runs=1,
        )
        assert set(results) == {"banditmatch", "logging"}
        assert [p for p, _ in results["banditmatch"]] == [20, 50]
        # per-point seeds are deterministic
        again = tr.run_sl_sweep(
            corpus, schema, cfg,
            percentages=(20, 50),
            methods=("banditmatch",),
            n_dialogs=5, n_runs=1,
        )
        assert [r.metrics for _, r in again["banditmatch"]] == [
            r.metrics for _, r in results["banditmatch"]
        ]

    def test_sweep_rejects_unknown_method_before_training(self, schema, corpus, monkeypatch):
        trained = []
        real = tr.train_logging_policy
        monkeypatch.setattr(
            tr, "train_logging_policy", lambda *a, **k: trained.append(1) or real(*a, **k)
        )
        cfg = tr.TrainConfig(seed=4, sl_epochs=10, epochs=1, hidden_dims=(16,))
        with pytest.raises(tr.TrainerError, match="unknown method 'bogus'"):
            tr.run_sl_sweep(corpus, schema, cfg, percentages=(20, 50),
                            methods=("banditmatch", "bogus"), n_dialogs=5, n_runs=1)
        assert trained == []

    def test_sweep_stops_after_a_failed_point(self, schema, corpus, monkeypatch, tmp_path):
        # the second point's logging policy fails: no row of either point trains
        real, real_train = tr.train_logging_policy, tr.train_on_log

        def failing(labeled, spec, config):
            if len(labeled) == ds.labeled_size(len(corpus), 0.5):
                raise tr.TrainerError("the second point failed")
            return real(labeled, spec, config)

        def marking(*args, **kwargs):
            (tmp_path / f"trained_{os.getpid()}").touch()  # seen from a worker too
            return real_train(*args, **kwargs)

        monkeypatch.setattr(tr, "train_logging_policy", failing)
        monkeypatch.setattr(tr, "train_on_log", marking)
        _usable_cpus(monkeypatch, 2)
        cfg = tr.TrainConfig(seed=4, sl_epochs=10, epochs=1, hidden_dims=(16,))
        with pytest.raises(tr.TrainerError, match="^the second point failed$"):
            tr.run_sl_sweep(corpus, schema, cfg, percentages=(20, 50),
                            methods=("banditmatch",), n_dialogs=5, n_runs=1)
        assert list(tmp_path.iterdir()) == []


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(tr.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestMapJobs:
    """``map_jobs`` runs the points of a grid, then its (point, row) pairs,
    over a fork pool sized to the usable CPUs, with the results of one at a
    time."""

    def test_grid_in_input_order_matches_one_at_a_time(self, setup, schema, monkeypatch):
        labeled, _, cfg, pi0, records = setup
        rows = [("logging", None),
                ("ips", replace(cfg, method="ips", epochs=2)),
                ("banditmatch", replace(cfg, epochs=1)),
                ("fixmatch", replace(cfg, method="fixmatch", epochs=1))]
        points = [(labeled, pi0, records, 31, rows),
                  (labeled, pi0, records.take(np.arange(len(records) // 2)), 32, rows)]
        alone = [
            tr.evaluate(pi0 if row_cfg is None else
                        tr.train_on_log(pi0, log, row_cfg, labeled_split=split)[0],
                        schema, 6, 1, eval_seed, method=name)
            for split, _, log, eval_seed, point_rows in points for name, row_cfg in point_rows
        ]
        real = tr.evaluate
        monkeypatch.setattr(tr, "evaluate", lambda *a, **k: (os.getpid(), real(*a, **k)))
        _usable_cpus(monkeypatch, 3)
        pooled = tr.run_grid(points, schema, 6, 1)
        assert [len(reports) for reports in pooled] == [4, 4]
        assert [report for reports in pooled for _, report in reports] == alone
        assert os.getpid() not in {pid for reports in pooled for pid, _ in reports}

    def test_worker_failure_raised_as_is(self, setup, schema, monkeypatch, tmp_path, capsys):
        _, _, cfg, pi0, records = setup
        rows = [(m, replace(cfg, method=m, epochs=1)) for m in ("banditmatch", "fixmatch", "ips")]
        _usable_cpus(monkeypatch, 3)
        with pytest.raises(tr.TrainerError) as excinfo:
            tr.run_grid([(None, pi0, records, 0, rows)], schema, 4, 1)
        assert type(excinfo.value) is tr.TrainerError
        assert str(excinfo.value) == "the fixmatch baseline needs the labeled split"
        assert type(excinfo.value.__cause__).__name__ == "_RemoteTraceback"  # from a worker
        # the command-line form: ablate over the same rows exits 5 with one line
        schema.save(tmp_path / "world.json")
        ds.write_bandit_jsonl(tmp_path / "bandit.jsonl", records)
        pi0.save(tmp_path / "pi0.json")
        monkeypatch.setattr(cli.trainer, "ablation_rows", lambda config: rows)
        capsys.readouterr()
        code = cli.main([str(a) for a in (
            "ablate", "--world", tmp_path / "world.json", "--bandit", tmp_path / "bandit.jsonl",
            "--logging-policy", tmp_path / "pi0.json", "--n-dialogs", 4, "--n-runs", 1,
            "--out-dir", tmp_path / "ablate")])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err == "error: the fixmatch baseline needs the labeled split\n"
        assert not (tmp_path / "ablate").exists()

    def test_first_failure_in_input_order(self, monkeypatch):
        # item 2 fails at once and item 1 only later: item 1's error is raised
        def fn(i):
            if i == 1:
                time.sleep(0.3)
            if i in (1, 2):
                raise ValueError(f"item {i}")
            return i

        _usable_cpus(monkeypatch, 4)
        with pytest.raises(ValueError, match="^item 1$"):
            tr.map_jobs(fn, range(4))

    @pytest.mark.parametrize("items, affinity, cpu_count, workers", [
        (5, 3, 8, 3), (2, 3, 8, 2), (6, None, 4, 4), (6, None, None, None),
    ], ids=["capped", "below_cap", "cpu_count_fallback", "unknown_cores"])
    def test_pool_capped_at_usable_cpus(self, monkeypatch, items, affinity, cpu_count, workers):
        # a fake pool records the worker count and maps in process: no process starts
        asked = []

        class FakePool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                asked.append(max_workers)
                self.fn, self.items = initargs[0]["fn"], initargs[0]["items"]

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, worker, indices):
                return (self.fn(self.items[i]) for i in indices)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        if affinity is None:  # a platform without sched_getaffinity
            monkeypatch.delattr(tr.os, "sched_getaffinity", raising=False)
        else:
            _usable_cpus(monkeypatch, affinity)
        monkeypatch.setattr(tr.os, "cpu_count", lambda: cpu_count)
        assert tr.map_jobs(lambda i: i * i, range(items)) == [i * i for i in range(items)]
        assert asked == ([] if workers is None else [workers])

    @pytest.mark.parametrize("items, cpus, fork", [(4, 1, True), (1, 4, True), (4, 4, False)],
                             ids=["one_cpu", "one_item", "no_fork"])
    def test_inline_without_processes(self, monkeypatch, items, cpus, fork):
        _usable_cpus(monkeypatch, cpus)
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *a, **k: pytest.fail("a process pool was made"))
        assert tr.map_jobs(lambda i: (i, os.getpid()), range(items)) == [
            (i, os.getpid()) for i in range(items)]

    def test_killed_worker_fails_the_map(self, monkeypatch):
        def fn(i):
            if i == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        _usable_cpus(monkeypatch, 2)
        with pytest.raises(BrokenProcessPool):
            tr.map_jobs(fn, range(3))

    def test_no_map_inside_a_worker(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        inner = tr.map_jobs(lambda i: tr.map_jobs(lambda j: os.getpid(), range(3)), range(2))
        # each worker ran its inner map itself, in one process
        assert [len(set(pids)) for pids in inner] == [1, 1]
        assert os.getpid() not in {pids[0] for pids in inner}

    def test_pool_modules_load_only_for_a_pool(self, tmp_path):
        # a fresh interpreter, since this one has loaded them already
        script = """
import sys
from banditmatch import cli, dialogworld
out = sys.argv[1]
dialogworld.tiny_schema().save(out + "/world.json")
code = cli.main(["evaluate", "--world", out + "/world.json", "--expert", "--n-dialogs", "3",
                 "--n-runs", "1", "--out", out + "/expert.csv"])
assert code == 0, code
loaded = [m for m in ("multiprocessing", "concurrent.futures", "logging", "socket",
                      "selectors", "queue") if m in sys.modules]
assert not loaded, f"loaded {loaded}"
"""
        env = dict(os.environ, PYTHONPATH=str(Path(tr.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, f"child exited {out.returncode}; stderr:\n{out.stderr}"


class TestThresholdTrace:
    def test_trace_file_written_per_step_and_class(self, setup, schema, tmp_path):
        path = tmp_path / "thresholds.csv"
        cfg = replace(setup[2], epochs=1)
        thresholds = {}
        _, history = tr.train_on_log(setup[3], setup[4], cfg,
                                     on_thresholds=thresholds.__setitem__)
        tr.write_threshold_trace(path, history, thresholds)
        import csv

        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(history) * schema.num_actions
        assert 0.5 <= float(rows[0]["accept"]) <= 1.0

    @pytest.mark.parametrize("row, fires", [
        ("banditmatch", True), ("banditmatch-no_cbl", True), ("banditmatch-no_fet", False),
        ("fixmatch", False), ("ips", False), ("banditnet", False),
    ])
    def test_hook_gets_each_fet_step_thresholds(self, setup, monkeypatch, row, fires):
        base = replace(setup[2], epochs=1)
        cfg = dict(tr.ablation_rows(base)).get(row) or replace(base, method=row)
        returned = []
        update = tr.fet.FetTracker.update

        def recording_update(*args, **kwargs):
            returned.append(update(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(tr.fet.FetTracker, "update", recording_update)
        calls = []
        _, history = tr.train_on_log(setup[3], setup[4], cfg, labeled_split=setup[0],
                                     on_thresholds=lambda *args: calls.append(args))
        assert history
        if not fires:
            assert calls == [] and returned == []
            return
        # once per step, in step order, with the very set the tracker returned
        assert [step for step, _ in calls] == [r.step for r in history]
        assert len(returned) == len(calls)
        assert all(t is r for (_, t), r in zip(calls, returned))


class TestPlainStepLog:
    @pytest.mark.parametrize("row", ["banditmatch", "banditmatch-no_cbl", "banditmatch-no_fet",
                                     "fixmatch", "ips", "banditnet"])
    def test_history_rows_hold_plain_numbers(self, setup, row):
        base = replace(setup[2], epochs=1)
        cfg = dict(tr.ablation_rows(base)).get(row) or replace(base, method=row)
        _, history = tr.train_on_log(setup[3], setup[4], cfg, labeled_split=setup[0])
        assert history
        for r in history:
            assert tuple(vars(r)) == tr.TRAINING_LOG_COLUMNS
            # Python numbers only: no np.ndarray, numpy scalar or threshold set
            assert {type(v) for v in vars(r).values()} <= {int, float}, r

    def test_fine_tuning_never_imports_numpy_ma(self, tmp_path):
        # a fresh interpreter, since this one may have loaded numpy.ma already
        script = """
import sys
from banditmatch import cli, datasets, dialogworld, trainer
out = sys.argv[1]
schema = dialogworld.tiny_schema()
corpus = datasets.generate_corpus(schema, 20, seed=1)
cfg = trainer.TrainConfig(seed=1, sl_epochs=2, epochs=2, hidden_dims=(8,))
_, logging_policy, records = trainer.log_point(corpus, schema, 0.5, cfg)
_, history = trainer.train_on_log(logging_policy, records, cfg)
assert history, "no training step"
assert "numpy.ma" not in sys.modules, "fine-tuning imported numpy.ma"
datasets.write_bandit_jsonl(out + "/bandit.jsonl", records)
logging_policy.save(out + "/logging_policy.json")
with open(out + "/train.cfg", "w") as fh:
    fh.write("epochs = 2\\n")
code = cli.main(["train", "--method", "banditmatch", "--bandit", out + "/bandit.jsonl",
                 "--logging-policy", out + "/logging_policy.json", "--config", out + "/train.cfg",
                 "--out", out + "/bm.json", "--threshold-trace", out + "/thresholds.csv"])
assert code == 0, code
assert "numpy.ma" not in sys.modules, "train imported numpy.ma"
"""
        env = dict(os.environ, PYTHONPATH=str(Path(tr.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, f"child exited {out.returncode}; stderr:\n{out.stderr}"
        # the trace has rows, so FET ran in the command too
        assert len((tmp_path / "thresholds.csv").read_text().splitlines()) > 1
