import numpy as np
import pytest

from banditmatch import fet
from banditmatch.fet import (
    FALLBACK_ACCEPT,
    FALLBACK_REJECT,
    FetTracker,
    attribution_neg,
    attribution_pos,
    confidence_mask,
    exact_match_rows,
    fallback_thresholds,
    model_correctness_neg,
    model_correctness_pos,
    negative_thresholds,
    positive_thresholds,
)


class TestCorrectPositiveSet:
    """The correct positive set: rows whose thresholded prediction equals the set."""

    def test_matching_predictions_kept(self):
        probs = np.array([[0.9, 0.2], [0.4, 0.8]])
        sets = np.array([[True, False], [True, True]])
        assert exact_match_rows(probs, sets).tolist() == [True, False]

    def test_empty_input(self):
        mask = exact_match_rows(np.zeros((0, 3)), np.zeros((0, 3), dtype=bool))
        assert mask.shape == (0,)


class TestPositiveThresholds:
    def test_hand_worked_averages(self):
        # two correct positives over two classes: sets {a0} and {a0, a1}
        probs = np.array([[0.9, 0.2], [0.8, 0.7]])
        sets = np.array([[True, False], [True, True]])
        accept, reject, valid_a, valid_r = positive_thresholds(probs, sets)
        assert np.allclose(accept, [0.85, 0.7])
        assert valid_a.tolist() == [True, True]
        # class 0 appears in every set, so it has no reject statistic
        assert valid_r.tolist() == [False, True]
        assert np.isclose(reject[1], 0.2)

    def test_identical_predictions_reproduced(self):
        probs = np.tile(np.array([[0.7, 0.3]]), (4, 1))
        sets = np.tile(np.array([[True, False]]), (4, 1))
        accept, reject, _, _ = positive_thresholds(probs, sets)
        assert np.isclose(accept[0], 0.7) and np.isclose(reject[1], 0.3)

    def test_all_classes_in_set_invalidates_reject(self):
        probs = np.array([[0.9, 0.8]])
        sets = np.array([[True, True]])
        _, _, valid_a, valid_r = positive_thresholds(probs, sets)
        assert valid_a.all() and not valid_r.any()


class TestAttribution:
    def test_equal_split(self):
        assert attribution_pos(2) == 0.5
        assert attribution_pos(1) == 1.0

    def test_equal_split_sums_to_one(self):
        for k in range(1, 6):
            assert np.isclose(attribution_pos(k) * k, 1.0)

    def test_propensity_proportional(self):
        w = attribution_neg(np.array([0.9, 0.6]))
        assert np.allclose(w, [0.6, 0.4])

    def test_singleton(self):
        assert np.allclose(attribution_neg(np.array([0.42])), [1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rho = rng.uniform(0.05, 0.95, size=rng.integers(1, 6))
            assert abs(attribution_neg(rho).sum() - 1.0) < 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            attribution_pos(0)
        with pytest.raises(ValueError):
            attribution_neg(np.array([]))


class TestModelCorrectness:
    def test_ratio_one_clamps_to_ceiling(self):
        # pi equals rho on every logged action: the raw estimate is 1
        probs = np.array([[0.8, 0.6, 0.1]])
        sets = np.array([[True, True, False]])
        rho = probs.copy()
        assert model_correctness_pos(probs, sets, rho) == 1.0 - fet.CORRECTNESS_EPS

    def test_negative_example_exceeding_one_clamps(self):
        # (1 - 0.6) / (1 - 0.8) = 2 before the clamp
        probs = np.array([[0.6]])
        sets = np.array([[True]])
        rho = np.array([[0.8]])
        assert model_correctness_neg(probs, sets, rho) == 1.0 - fet.CORRECTNESS_EPS

    def test_negative_at_rho_clamps(self):
        probs = np.array([[0.7, 0.4]])
        sets = np.array([[True, True]])
        assert model_correctness_neg(probs, sets, probs.copy()) == 1.0 - fet.CORRECTNESS_EPS

    def test_unavailable_when_sides_empty(self):
        empty = np.zeros((0, 2))
        empty_sets = np.zeros((0, 2), dtype=bool)
        tracker = FetTracker(num_classes=2)
        tracker.update(empty, empty_sets, empty, np.zeros(0, dtype=int))
        assert not tracker.correctness().available

    def test_empty_logged_sets_skipped_on_negative_side(self):
        probs = np.array([[0.5, 0.5]])
        sets = np.array([[False, False]])
        with pytest.raises(ValueError):
            model_correctness_neg(probs, sets, probs.copy())


class TestNegativeThresholds:
    def test_identity_scale_reproduces_baselines(self):
        accept = np.array([0.8, 0.6])
        reject = np.array([0.1, 0.3])
        valid = np.ones(2, dtype=bool)
        out = negative_thresholds(accept, reject, valid, valid, 0.4, 0.4)
        assert np.all(np.abs(out.accept - np.clip(accept, 0.5, 1.0)) < 1e-12)
        assert np.all(np.abs(out.reject - reject) < 1e-12)

    def test_scale_two_clamps_accept_to_one(self):
        accept = np.array([0.8, 0.7])
        reject = np.array([0.0, 0.0])
        valid = np.ones(2, dtype=bool)
        out = negative_thresholds(accept, reject, valid, valid, mc_pos=0.6, mc_neg=0.2)
        assert np.allclose(out.accept, [1.0, 1.0])

    def test_scale_two_clamps_reject_to_zero(self):
        accept = np.array([0.9, 0.9])
        reject = np.array([0.2, 0.3])
        valid = np.ones(2, dtype=bool)
        out = negative_thresholds(accept, reject, valid, valid, mc_pos=0.6, mc_neg=0.2)
        # raw values 1 - (1 - reject) * 2 are negative for both classes
        assert np.allclose(out.reject, [0.0, 0.0])

    def test_invalid_classes_fall_back(self):
        accept = np.array([0.8, 0.0])
        reject = np.array([0.0, 0.1])
        out = negative_thresholds(
            accept, reject,
            np.array([True, False]), np.array([False, True]),
            0.5, 0.5,
        )
        assert out.accept[1] == FALLBACK_ACCEPT
        assert out.reject[0] == FALLBACK_REJECT

    def test_no_scale_variant(self):
        accept = np.array([0.7])
        reject = np.array([0.2])
        valid = np.ones(1, dtype=bool)
        out = negative_thresholds(accept, reject, valid, valid, 0.9, 0.1, apply_scale=False)
        assert np.isclose(out.accept[0], 0.7) and np.isclose(out.reject[0], 0.2)


class TestConfidenceMask:
    def test_positive_rows_never_confident(self):
        th = fallback_thresholds(2)
        probs = np.array([[0.99, 0.01], [0.99, 0.01]])
        conf = confidence_mask(probs, np.array([1, 0]), th)
        assert not conf[0].any() and conf[1].all()

    def test_outside_band_confident(self):
        th = fet.ThresholdSet(
            accept=np.array([0.9]), reject=np.array([0.1]),
            valid_accept=np.ones(1, bool), valid_reject=np.ones(1, bool),
        )
        probs = np.array([[0.95], [0.5], [0.05]])
        conf = confidence_mask(probs, np.zeros(3, dtype=int), th)
        assert conf[:, 0].tolist() == [True, False, True]

    def test_boundary_values_not_confident(self):
        th = fet.ThresholdSet(
            accept=np.array([0.9]), reject=np.array([0.1]),
            valid_accept=np.ones(1, bool), valid_reject=np.ones(1, bool),
        )
        probs = np.array([[0.9], [0.1]])
        conf = confidence_mask(probs, np.zeros(2, dtype=int), th)
        assert not conf.any()


class TestInvariantsRandomized:
    def test_threshold_and_attribution_invariants(self):
        # randomized sweep: band clamps, attribution normalization,
        # positive rows never confident, monotonicity in mc_neg
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            c = int(rng.integers(1, 6))
            n = int(rng.integers(1, 8))
            probs = rng.uniform(0.01, 0.99, size=(n, c))
            sets = rng.random((n, c)) < 0.4
            accept, reject, va, vr = positive_thresholds(probs, sets)
            mc_pos = float(rng.uniform(0.0, 1.2))
            mc_neg = float(rng.uniform(0.0, 1.2))
            out = negative_thresholds(accept, reject, va, vr, mc_pos, mc_neg)
            assert np.all(out.accept >= 0.5 - 1e-12) and np.all(out.accept <= 1.0 + 1e-12)
            assert np.all(out.reject >= -1e-12) and np.all(out.reject <= 0.5 + 1e-12)

            row = sets[0]
            if row.any():
                w = attribution_neg(probs[0][row])
                assert abs(w.sum() - 1.0) < 1e-12

            delta = (rng.random(n) < 0.5).astype(int)
            conf = confidence_mask(probs, delta, out)
            assert not np.any(conf[delta == 1])

            stricter = negative_thresholds(
                accept, reject, va, vr, mc_pos, max(mc_neg - 0.2, 0.0)
            )
            assert np.all(stricter.accept >= out.accept - 1e-12)
            assert np.all(stricter.reject <= out.reject + 1e-12)

    def test_equal_correctness_gives_equal_thresholds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = int(rng.integers(1, 5))
            accept = rng.uniform(0.5, 1.0, size=c)
            reject = rng.uniform(0.0, 0.5, size=c)
            valid = np.ones(c, dtype=bool)
            mc = float(rng.uniform(0.0, 0.99))
            out = negative_thresholds(accept, reject, valid, valid, mc, mc)
            assert np.all(np.abs(out.accept - accept) < 1e-12)
            assert np.all(np.abs(out.reject - reject) < 1e-12)


class TestOracleFixture:
    """Five records, three classes, against a direct loop transcription."""

    def setup_method(self):
        # three positives (delta=1) and two negatives, hand-built
        self.pos_probs = np.array(
            [
                [0.91, 0.12, 0.33],
                [0.76, 0.81, 0.44],
                [0.35, 0.90, 0.61],
            ]
        )
        self.pos_sets = np.array(
            [
                [True, False, False],
                [True, True, False],
                [False, True, True],
            ]
        )
        self.pos_rho = np.array(
            [
                [0.85, 0.20, 0.40],
                [0.70, 0.75, 0.30],
                [0.25, 0.80, 0.55],
            ]
        )
        self.neg_probs = np.array([[0.60, 0.20, 0.70], [0.30, 0.55, 0.80]])
        self.neg_sets = np.array([[True, False, True], [False, True, True]])
        self.neg_rho = np.array([[0.66, 0.10, 0.72], [0.20, 0.58, 0.90]])

    def reference(self):
        # direct transcription of the defining formulas, loops only
        correct = []
        for p, s in zip(self.pos_probs, self.pos_sets):
            pred = {c for c in range(3) if p[c] > 0.5}
            if pred == {c for c in range(3) if s[c]}:
                correct.append(True)
            else:
                correct.append(False)
        t_probs = self.pos_probs[np.array(correct)]
        t_sets = self.pos_sets[np.array(correct)]
        t_rho = self.pos_rho[np.array(correct)]

        accept, reject = np.zeros(3), np.zeros(3)
        va, vr = np.zeros(3, bool), np.zeros(3, bool)
        for c in range(3):
            ins = [p[c] for p, s in zip(t_probs, t_sets) if s[c]]
            outs = [p[c] for p, s in zip(t_probs, t_sets) if not s[c]]
            if ins:
                accept[c] = sum(ins) / len(ins)
                va[c] = True
            if outs:
                reject[c] = sum(outs) / len(outs)
                vr[c] = True

        mc_pos_terms = []
        for p, s, r in zip(t_probs, t_sets, t_rho):
            members = [c for c in range(3) if s[c]]
            mc_pos_terms.append(
                sum((1.0 / len(members)) * p[c] / r[c] for c in members)
            )
        mc_pos = min(max(np.mean(mc_pos_terms), 0.0), 1.0 - 1e-3)

        mc_neg_terms = []
        for p, s, r in zip(self.neg_probs, self.neg_sets, self.neg_rho):
            members = [c for c in range(3) if s[c]]
            total_rho = sum(r[c] for c in members)
            mc_neg_terms.append(
                sum((r[c] / total_rho) * (1.0 - p[c]) / (1.0 - r[c]) for c in members)
            )
        mc_neg = min(max(np.mean(mc_neg_terms), 0.0), 1.0 - 1e-3)

        scale = (1.0 - mc_neg) / (1.0 - mc_pos)
        acc_n = np.where(va, np.clip(accept * scale, 0.5, 1.0), FALLBACK_ACCEPT)
        rej_n = np.where(vr, np.clip(1.0 - (1.0 - reject) * scale, 0.0, 0.5), FALLBACK_REJECT)
        return np.array(correct), accept, reject, va, vr, mc_pos, mc_neg, acc_n, rej_n

    def test_all_outputs_match_direct_evaluation(self):
        ref_correct, ref_acc, ref_rej, ref_va, ref_vr, ref_mcp, ref_mcn, ref_acc_n, ref_rej_n = (
            self.reference()
        )
        correct = exact_match_rows(self.pos_probs, self.pos_sets)
        assert correct.tolist() == ref_correct.tolist()

        t = correct
        accept, reject, va, vr = positive_thresholds(self.pos_probs[t], self.pos_sets[t])
        assert np.all(np.abs(accept[ref_va] - ref_acc[ref_va]) < 1e-12)
        assert np.all(np.abs(reject[ref_vr] - ref_rej[ref_vr]) < 1e-12)
        assert va.tolist() == ref_va.tolist() and vr.tolist() == ref_vr.tolist()

        mc_pos = model_correctness_pos(self.pos_probs[t], self.pos_sets[t], self.pos_rho[t])
        mc_neg = model_correctness_neg(self.neg_probs, self.neg_sets, self.neg_rho)
        assert abs(mc_pos - ref_mcp) < 1e-12
        assert abs(mc_neg - ref_mcn) < 1e-12

        out = negative_thresholds(accept, reject, va, vr, mc_pos, mc_neg)
        assert np.all(np.abs(out.accept - ref_acc_n) < 1e-12)
        assert np.all(np.abs(out.reject - ref_rej_n) < 1e-12)


def update_apart(tracker, pos_probs, pos_sets, pos_rho, neg_probs, neg_sets, neg_rho):
    """``FetTracker.update`` with the positive and negative rows given apart:
    the six-array form the tracker took before it split its own batch."""
    correct = exact_match_rows(pos_probs, pos_sets)
    if correct.any():
        probs_t, sets_t, rho_t = pos_probs[correct], pos_sets[correct], pos_rho[correct]
        accept, reject, v_a, v_r = positive_thresholds(probs_t, sets_t)
        tracker._ema_update(tracker.accept_ema, tracker.accept_seen, accept, v_a)
        tracker._ema_update(tracker.reject_ema, tracker.reject_seen, reject, v_r)
        mc_pos = model_correctness_pos(probs_t, sets_t, rho_t)
        if tracker.mc_pos_ema is None:
            tracker.mc_pos_ema = mc_pos
        else:
            tracker.mc_pos_ema = (fet.EMA_DECAY * tracker.mc_pos_ema
                                  + (1.0 - fet.EMA_DECAY) * mc_pos)
    try:
        tracker.last_mc_neg = model_correctness_neg(neg_probs, neg_sets, neg_rho)
    except ValueError:
        tracker.last_mc_neg = None
    return tracker.thresholds()


class TestTracker:
    def test_fallback_before_any_statistics(self):
        tracker = FetTracker(num_classes=3)
        th = tracker.thresholds()
        assert np.all(th.accept == FALLBACK_ACCEPT)
        assert np.all(th.reject == FALLBACK_REJECT)
        assert not tracker.correctness().available

    def test_ema_moves_toward_new_batch(self):
        # row 0 is the positive, row 1 the negative
        tracker = FetTracker(num_classes=1)
        sets = np.array([[True], [True]])
        rho = np.array([[0.8], [0.5]])
        delta = np.array([1, 0])
        tracker.update(np.array([[0.8], [0.4]]), sets, rho, delta)
        assert np.isclose(tracker.accept_ema[0], 0.8)
        tracker.update(np.array([[0.6], [0.4]]), sets, rho, delta)
        assert np.isclose(tracker.accept_ema[0], 0.9 * 0.8 + 0.1 * 0.6)

    def test_no_positive_batch_keeps_state(self):
        tracker = FetTracker(num_classes=1)
        sets = np.array([[True], [True]])
        tracker.update(np.array([[0.8], [0.4]]), sets, np.array([[0.8], [0.5]]),
                       np.array([1, 0]))
        before = tracker.accept_ema.copy()
        tracker.update(np.array([[0.4]]), sets[:1], np.array([[0.5]]), np.array([0]))
        assert np.array_equal(tracker.accept_ema, before)

    @pytest.mark.parametrize("seed", range(5))
    def test_update_splits_the_batch_like_a_hand_split(self, seed):
        # the same state, thresholds and correctness as folding in the
        # positive and negative rows given apart, step after step
        rng = np.random.default_rng(300 + seed)
        n, c = 24, 5
        whole, apart = FetTracker(num_classes=c), FetTracker(num_classes=c)
        for _ in range(4):
            probs = rng.uniform(0.02, 0.98, (n, c))
            sets = rng.random((n, c)) < 0.3
            # most positives predicted exactly right, so the accept side has support
            fitted = rng.random(n) < 0.7
            probs[fitted] = np.where(sets[fitted], rng.uniform(0.55, 0.98, (fitted.sum(), c)),
                                     rng.uniform(0.02, 0.45, (fitted.sum(), c)))
            rho = rng.uniform(0.05, 0.95, (n, c))
            # a positive row logs a non-empty set, as a bandit log requires
            delta = ((rng.random(n) < 0.5) & sets.any(axis=1)).astype(np.int64)
            got = whole.update(probs, sets, rho, delta)
            pos = delta == 1
            want = update_apart(apart, probs[pos], sets[pos], rho[pos],
                                probs[~pos], sets[~pos], rho[~pos])
            for field in ("accept", "reject", "valid_accept", "valid_reject"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            for attr in ("accept_ema", "reject_ema", "accept_seen", "reject_seen"):
                assert getattr(whole, attr).tobytes() == getattr(apart, attr).tobytes()
            assert whole.mc_pos_ema == apart.mc_pos_ema
            assert whole.last_mc_neg == apart.last_mc_neg
            assert whole.correctness() == apart.correctness()
        assert whole.correctness().available
