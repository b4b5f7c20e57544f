import itertools
import math

import numpy as np
import pytest

from oplevel_reference import grad_check, mixup_pair, narrow_band
from banditmatch import fet
from banditmatch import objectives as obj
from banditmatch.nncore import Tensor
from banditmatch.policy import MlpSpec, PolicyNet


def toy_net(seed=0, d=8, c=4, hidden=(6,)):
    return PolicyNet(MlpSpec(input_dim=d, hidden_dims=hidden, output_dim=c),
                     rng=np.random.default_rng(seed))


def toy_batch(seed=1, b=5, d=8, c=4):
    rng = np.random.default_rng(seed)
    states = rng.random((b, d))
    logged = rng.random((b, c)) < 0.4
    rho = rng.uniform(0.1, 0.9, size=(b, c))
    delta = (rng.random(b) < 0.5).astype(int)
    return states, logged, rho, delta


class TestMixup:
    def test_lambda_one_reproduces_anchor(self):
        a, b = np.array([1.0, 0.0, 0.5]), np.array([0.0, 1.0, 0.25])
        assert np.array_equal(mixup_pair(a, b, 1.0), a)

    def test_forced_lambda_arithmetic(self):
        mixed = mixup_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.7)
        assert np.allclose(mixed, [0.7, 0.3])

    def test_lambda_never_below_half(self):
        rng = np.random.default_rng(0)
        for alpha in (0.2, 2.0):
            lam = obj.sample_mixup_lambda(alpha, rng, 10_000)
            assert lam.min() >= 0.5

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(obj.ObjectiveError):
            mixup_pair(np.ones(3), np.ones(4), 0.8)

    def test_alpha_must_be_positive(self):
        with pytest.raises(obj.ObjectiveError):
            obj.sample_mixup_lambda(0.0, np.random.default_rng(0), 1)

    def test_batch_mixup_excludes_self(self):
        rng = np.random.default_rng(3)
        states = np.eye(6)
        mixed, lam = obj.mixup_batch(states, 2.0, rng)
        # every row keeps the dominant share of its own one-hot coordinate
        for i in range(6):
            assert mixed[i, i] >= 0.5

    def test_single_row_batch_unchanged(self):
        states = np.array([[0.1, 0.9]])
        mixed, lam = obj.mixup_batch(states, 0.2, np.random.default_rng(0))
        assert np.array_equal(mixed, states) and lam[0] == 1.0


class TestLabeledLoss:
    def test_two_class_half_probability_example(self):
        probs = Tensor(np.array([[0.5, 0.5]]))
        targets = np.array([[0.0, 1.0]])
        loss = obj.loss_labeled(probs, targets, np.array([1]))
        assert abs(loss.item() - 2.0 * math.log(2.0)) < 1e-12

    def test_no_positives_contributes_zero(self):
        probs = Tensor(np.array([[0.5, 0.5]]))
        loss = obj.loss_labeled(probs, np.array([[0.0, 1.0]]), np.array([0]))
        assert loss.item() == 0.0

    def test_near_perfect_fit_is_near_zero(self):
        p = np.clip(np.array([[1.0, 0.0]]), 1e-7, 1 - 1e-7)
        loss = obj.loss_labeled(Tensor(p), np.array([[1.0, 0.0]]), np.array([1]))
        assert loss.item() < 1e-5

    def test_mean_over_positives_only(self):
        probs = Tensor(np.array([[0.5, 0.5], [0.9, 0.9], [0.5, 0.5]]))
        targets = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        loss = obj.loss_labeled(probs, targets, np.array([1, 0, 1]))
        assert abs(loss.item() - 2.0 * math.log(2.0)) < 1e-12


class TestPseudoLabels:
    def test_strict_threshold(self):
        assert obj.pseudo_labels(np.array([[0.6, 0.4]])).tolist() == [[1.0, 0.0]]
        assert obj.pseudo_labels(np.array([[0.5, 0.5]])).tolist() == [[0.0, 0.0]]

    def test_idempotent_for_fixed_input(self):
        p = np.random.default_rng(0).random((4, 3))
        assert np.array_equal(obj.pseudo_labels(p), obj.pseudo_labels(p))


class TestPseudoLoss:
    def test_empty_mask_returns_zero(self):
        probs = Tensor(np.full((2, 3), 0.5))
        loss = obj.loss_pseudo(probs, np.zeros((2, 3)), np.zeros((2, 3)))
        assert loss.item() == 0.0

    def test_single_confident_class_ln2(self):
        probs = Tensor(np.array([[0.5, 0.9]]))
        qhat = np.array([[1.0, 1.0]])
        conf = np.array([[1.0, 0.0]])
        assert abs(obj.loss_pseudo(probs, qhat, conf).item() - math.log(2.0)) < 1e-12

    def test_gradient_flows_only_through_strong_pass(self):
        # pseudo labels computed from a weak pass must act as constants:
        # gradients match an explicit constant-label run exactly
        net = toy_net(seed=5)
        states, logged, rho, delta = toy_batch(seed=6)
        weak = states + 0.01
        strong = states + 0.05
        qhat = obj.pseudo_labels(net.probs(weak))
        conf = fet.confidence_mask(net.probs(weak), np.zeros_like(delta), narrow_band(4))

        def grads(labels):
            net.zero_grad()
            loss = obj.loss_pseudo(net.forward(strong), labels, conf)
            loss.backward()
            return [p.grad.copy() for p in net.parameters()]

        g1 = grads(qhat)
        g2 = grads(qhat.copy())
        assert all(np.array_equal(a, b) for a, b in zip(g1, g2))


class TestUnconfidentPlusMask:
    def test_positive_rows_logged_classes(self):
        delta = np.array([1, 0])
        logged = np.array([[True, False, True], [True, True, False]])
        conf = np.array([[1, 1, 1], [1, 0, 0]])
        mask = obj.unconfident_plus_mask(delta, conf, logged)
        assert mask[0].tolist() == [1.0, 0.0, 1.0]
        # negative row: logged and unconfident only
        assert mask[1].tolist() == [0.0, 1.0, 0.0]

    def test_all_confident_negative_row_empty(self):
        mask = obj.unconfident_plus_mask(
            np.array([0]), np.ones((1, 3)), np.array([[True, True, True]])
        )
        assert not mask.any()

    def test_disjoint_from_confidence_on_negative_rows(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            b, c = rng.integers(1, 6), rng.integers(1, 6)
            delta = (rng.random(b) < 0.5).astype(int)
            conf = rng.random((b, c)) < 0.5
            logged = rng.random((b, c)) < 0.5
            mask = obj.unconfident_plus_mask(delta, conf, logged)
            neg = delta == 0
            assert not np.any(mask[neg].astype(bool) & conf[neg])


class TestBanditLoss:
    def test_worked_example(self):
        probs = Tensor(np.array([[0.75, 0.5, 0.5], [0.5, 0.5, 0.5]]))
        rho = np.full((2, 3), 0.5)
        delta = np.array([1, 0])
        mask = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        loss = obj.loss_bandit(probs, rho, delta, mask)
        assert abs(loss.item() - (-0.375)) < 1e-12

    def test_all_negative_feedback_zero(self):
        probs = Tensor(np.random.default_rng(0).uniform(0.2, 0.8, (3, 2)))
        rho = np.full((3, 2), 0.5)
        loss = obj.loss_bandit(probs, rho, np.zeros(3, dtype=int), np.ones((3, 2)))
        assert loss.item() == 0.0

    def test_matching_propensities_counts_positives(self):
        rho = np.array([[0.7, 0.3], [0.6, 0.4]])
        probs = Tensor(rho.copy())
        delta = np.array([1, 1])
        mask = np.array([[1.0, 0.0], [1.0, 1.0]])
        loss = obj.loss_bandit(probs, rho, delta, mask)
        assert abs(loss.item() - (-2.0 / 3.0)) < 1e-12

    def test_empty_mask_returns_zero(self):
        probs = Tensor(np.full((2, 2), 0.5))
        loss = obj.loss_bandit(probs, np.full((2, 2), 0.5), np.array([1, 1]), np.zeros((2, 2)))
        assert loss.item() == 0.0


class TestPiEstimatorOracle:
    """Exhaustive-log value estimate versus subset enumeration."""

    @staticmethod
    def build_instance():
        # 2 classes, 4 distinct states; per-state propensities in sixteenths
        # so probability-weighted replication is exact in binary floats
        rhos = np.array([[0.25, 0.5], [0.75, 0.25], [0.5, 0.5], [0.75, 0.75]])
        truths = [{0}, {0, 1}, {1}, set()]
        return rhos, truths

    @staticmethod
    def subset_prob(rho, subset):
        p = 1.0
        for c in range(len(rho)):
            p *= rho[c] if c in subset else 1.0 - rho[c]
        return p

    def test_value_estimate_matches_enumeration(self):
        rhos, truths = self.build_instance()
        subsets = [set(s) for k in range(3) for s in itertools.combinations(range(2), k)]

        # brute force: expected exact-match feedback of the logging policy
        expected = 0.0
        for rho, truth in zip(rhos, truths):
            for subset in subsets:
                expected += self.subset_prob(rho, subset) * (1.0 if subset == truth else 0.0)
        expected /= len(rhos)

        # exhaustive log: each (state, subset) replicated 16 * Pr(subset)
        rows_p, rows_rho, rows_delta, rows_mask = [], [], [], []
        for rho, truth in zip(rhos, truths):
            for subset in subsets:
                copies = round(16 * self.subset_prob(rho, subset))
                member = [1.0 if c in subset else 0.0 for c in range(2)]
                for _ in range(copies):
                    rows_p.append(rho)  # evaluated at pi = pi0
                    rows_rho.append(rho)
                    rows_delta.append(1 if subset == truth else 0)
                    rows_mask.append(member)
        estimate = obj.bandit_value_estimate(
            np.array(rows_p), np.array(rows_rho), np.array(rows_delta), np.array(rows_mask)
        )
        assert abs(estimate - expected) < 1e-9

    def test_loss_is_negative_normalized_value(self):
        rng = np.random.default_rng(5)
        probs = rng.uniform(0.2, 0.8, (6, 2))
        rho = rng.uniform(0.2, 0.8, (6, 2))
        delta = (rng.random(6) < 0.5).astype(int)
        mask = (rng.random((6, 2)) < 0.7).astype(float)
        loss = obj.loss_bandit(Tensor(probs), rho, delta, mask).item()
        value = obj.bandit_value_estimate(probs, rho, delta, mask)
        assert abs(loss + value * len(delta) / mask.sum()) < 1e-12


class TestKlControl:
    def test_zero_at_reference(self):
        p = np.random.default_rng(0).uniform(0.1, 0.9, (4, 3))
        assert obj.loss_kl_control(Tensor(p.copy()), p).item() < 1e-15

    def test_single_class_worked_example(self):
        loss = obj.loss_kl_control(Tensor(np.array([[0.8]])), np.array([[0.5]]))
        expected = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
        assert abs(loss.item() - expected) < 1e-12
        assert round(loss.item(), 4) == 0.1927

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.uniform(0.05, 0.95, (3, 4))
            q = rng.uniform(0.05, 0.95, (3, 4))
            assert obj.loss_kl_control(Tensor(p), q).item() >= 0.0


class TestTotalLoss:
    def test_default_weights_plain_sum(self):
        parts = [Tensor(float(v)) for v in (1.0, 2.0, 3.0, 4.0)]
        assert obj.total_loss(*parts).item() == 10.0

    def test_gradient_linearity(self):
        # the total's gradient is the sum of the four terms' gradients
        net = toy_net(seed=9)
        states, logged, rho, delta = toy_batch(seed=10)
        conf = fet.confidence_mask(net.probs(states), delta, narrow_band(4))
        qhat = obj.pseudo_labels(net.probs(states))
        mask = obj.unconfident_plus_mask(delta, conf, logged)
        ref = np.clip(np.random.default_rng(11).random((5, 4)), 0.1, 0.9)
        terms = (
            lambda: obj.loss_labeled(net.forward(states), logged, delta),
            lambda: obj.loss_pseudo(net.forward(states), qhat, conf),
            lambda: obj.loss_bandit(net.forward(states), rho, delta, mask),
            lambda: obj.loss_kl_control(net.forward(states), ref),
        )

        def grads(loss_fn):
            net.zero_grad()
            loss_fn().backward()
            return [g.grad.copy() for g in net.parameters()]

        g_all = grads(lambda: obj.total_loss(*(term() for term in terms)))
        g_terms = [grads(term) for term in terms]
        for a, *parts in zip(g_all, *g_terms):
            assert np.allclose(a, sum(parts), atol=1e-12)


class TestBaselines:
    def test_ips_at_logged_propensities(self):
        states, logged, rho, delta = toy_batch(seed=12)
        loss = obj.loss_ips(Tensor(rho.copy()), rho, delta, logged)
        assert abs(loss.item() + delta.mean()) < 1e-12

    def test_ips_all_negative_zero(self):
        states, logged, rho, delta = toy_batch(seed=13)
        loss = obj.loss_ips(Tensor(rho.copy()), rho, np.zeros_like(delta), logged)
        assert loss.item() == 0.0

    def test_ips_clip_engages(self):
        rho = np.array([[0.01, 0.01]])
        probs = np.array([[0.99, 0.99]])
        logged = np.array([[True, True]])
        delta = np.array([1])
        # the weight is 0.99**2 / 0.01**2 = 9801, clipped at DEFAULT_IPS_CLIP
        assert obj.DEFAULT_IPS_CLIP == 100.0
        loss = obj.loss_ips(Tensor(probs), rho, delta, logged)
        assert abs(loss.item() + 100.0) < 1e-9

    def test_banditnet_zero_translation_is_ips(self, monkeypatch):
        states, logged, rho, delta = toy_batch(seed=14)
        probs = np.random.default_rng(15).uniform(0.2, 0.8, rho.shape)
        monkeypatch.setattr(obj, "DEFAULT_TRANSLATION", 0.0)
        a = obj.loss_banditnet(Tensor(probs), rho, delta, logged)
        b = obj.loss_ips(Tensor(probs), rho, delta, logged)
        assert abs(a.item() - b.item()) < 1e-12

    def test_banditnet_translation_matching_rewards_zero(self, monkeypatch):
        states, logged, rho, delta = toy_batch(seed=16)
        probs = np.random.default_rng(17).uniform(0.2, 0.8, rho.shape)
        monkeypatch.setattr(obj, "DEFAULT_TRANSLATION", 1.0)
        loss = obj.loss_banditnet(Tensor(probs), rho, np.full_like(delta, 1), logged)
        assert abs(loss.item()) < 1e-12

    def test_fixmatch_mask_examples(self):
        # FET's fallback pair on every class: the edges themselves are not confident
        probs = np.array([[0.96], [0.95], [0.5], [0.05], [0.04]])
        delta = np.zeros(len(probs), dtype=int)
        mask = obj.fixmatch_mask(probs, delta)
        assert mask[:, 0].tolist() == [True, False, False, False, True]
        assert np.array_equal(
            mask, fet.confidence_mask(probs, delta, fet.fallback_thresholds(1)))
        assert not obj.fixmatch_mask(np.array([[0.99]]), np.array([1])).any()
        # several classes, each against the same pair
        rng = np.random.default_rng(18)
        probs = rng.choice([0.04, 0.05, 0.3, 0.95, 0.96], size=(40, 3))
        delta = rng.integers(0, 2, 40)
        assert np.array_equal(obj.fixmatch_mask(probs, delta),
                              fet.confidence_mask(probs, delta, fet.fallback_thresholds(3)))


class TestGradientSuite:
    """Finite-difference verification for every loss term."""

    def test_all_losses_match_finite_differences(self):
        net = toy_net(seed=20, d=6, c=3, hidden=(5,))
        rng = np.random.default_rng(21)
        states = rng.random((4, 6))
        logged = rng.random((4, 3)) < 0.5
        rho = rng.uniform(0.15, 0.85, (4, 3))
        delta = np.array([1, 0, 1, 0])
        conf = fet.confidence_mask(net.probs(states), delta, narrow_band(3))
        qhat = obj.pseudo_labels(net.probs(states))
        mask = obj.unconfident_plus_mask(delta, conf, logged)
        ref = rng.uniform(0.2, 0.8, (4, 3))

        cases = {
            "labeled": lambda: obj.loss_labeled(net.forward(states), logged, delta),
            "pseudo": lambda: obj.loss_pseudo(net.forward(states), qhat, conf),
            "bandit": lambda: obj.loss_bandit(net.forward(states), rho, delta, mask),
            "kl": lambda: obj.loss_kl_control(net.forward(states), ref),
            "ips": lambda: obj.loss_ips(net.forward(states), rho, delta, logged),
            "banditnet": lambda: obj.loss_banditnet(net.forward(states), rho, delta, logged),
            "total": lambda: obj.total_loss(
                obj.loss_labeled(net.forward(states), logged, delta),
                obj.loss_pseudo(net.forward(states), qhat, conf),
                obj.loss_bandit(net.forward(states), rho, delta, mask),
                obj.loss_kl_control(net.forward(states), ref),
            ),
        }
        for name, fn in cases.items():
            err = grad_check(fn, net.parameters(), fd_epsilon=1e-5)
            assert err < 1e-4, f"{name} gradient error {err}"


class TestEmptyMaskGradients:
    def test_pseudo_and_bandit_terms_are_inert_when_masks_empty(self):
        net = toy_net(seed=30)
        states, logged, rho, delta = toy_batch(seed=31)
        conf = np.zeros((5, 4))
        qhat = np.zeros((5, 4))
        umask = np.zeros((5, 4))

        net.zero_grad()
        total = obj.total_loss(
            Tensor(0.0),
            obj.loss_pseudo(net.forward(states), qhat, conf),
            obj.loss_bandit(net.forward(states), rho, delta, umask),
            Tensor(0.0),
        )
        total.backward()
        for p in net.parameters():
            assert not p.grad.any()
