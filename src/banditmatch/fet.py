"""Feedback-enhanced thresholding.

Per-class accept/reject confidence thresholds for pseudo-labeling negative
feedback examples. Baselines are averaged class probabilities on the
positive examples the current policy still predicts exactly right; the
thresholds applied to negatives are those baselines scaled by a model
correctness ratio estimated from the logged data with importance ratios
(per-class propensity weighting). Accept thresholds are clamped into
[0.5, 1] and reject thresholds into [0, 0.5] so a pseudo label can never
contradict its own confidence band; classes without supporting statistics
fall back to the conventional fixed pair (0.95 accept / 0.05 reject).

All functions here are pure over arrays: ``probs`` rows are the current
policy's class probabilities for each record, ``sets`` rows are boolean
membership masks of the logged action sets, ``rho`` rows are the logged
propensity vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FALLBACK_ACCEPT = 0.95
FALLBACK_REJECT = 0.05
CORRECTNESS_EPS = 1e-3


@dataclass
class ThresholdSet:
    accept: np.ndarray  # length C, in [0.5, 1]; select class when prob above
    reject: np.ndarray  # length C, in [0, 0.5]; ban class when prob below
    valid_accept: np.ndarray  # False where the accept baseline had no support
    valid_reject: np.ndarray


@dataclass
class CorrectnessStats:
    mc_pos: float
    mc_neg: float
    available: bool  # False when either side had no supporting records


def sets_to_mask(sets, num_classes: int) -> np.ndarray:
    """Rows of boolean class membership from index collections."""
    mask = np.zeros((len(sets), num_classes), dtype=bool)
    for i, members in enumerate(sets):
        for a in members:
            mask[i, int(a)] = True
    return mask


def exact_match_rows(probs: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Rows where the thresholded prediction {c : p > 0.5} equals the set."""
    return np.all((probs > 0.5) == sets, axis=1)


def correct_positive_set(probs: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Boolean row mask of the correctly re-predicted positive examples."""
    return exact_match_rows(probs, sets)


def positive_thresholds(
    probs_t: np.ndarray, sets_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-class mean probabilities over the correct positives.

    Accept baseline averages classes inside each logged set, reject
    baseline averages classes outside. Classes with zero support on a side
    are flagged invalid on that side.
    """
    in_counts = sets_t.sum(axis=0).astype(np.float64)
    out_counts = (~sets_t).sum(axis=0).astype(np.float64)
    accept = (probs_t * sets_t).sum(axis=0) / np.maximum(in_counts, 1.0)
    reject = (probs_t * ~sets_t).sum(axis=0) / np.maximum(out_counts, 1.0)
    return accept, reject, in_counts > 0, out_counts > 0


def attribution_pos(set_size: int) -> float:
    """Equal credit across the actions of a successful set."""
    if set_size <= 0:
        raise ValueError("attribution over an empty action set is undefined")
    return 1.0 / set_size


def attribution_neg(rho_in_set: np.ndarray) -> np.ndarray:
    """Blame shared proportionally to the logged propensities of the set.

    A 2-d argument holds one set per row (all of one size).
    """
    rho_in_set = np.asarray(rho_in_set, dtype=np.float64)
    if rho_in_set.size == 0:
        raise ValueError("attribution over an empty action set is undefined")
    total = rho_in_set.sum(axis=-1, keepdims=True)
    return rho_in_set / total


def clamp_correctness(value: float) -> float:
    return float(np.clip(value, 0.0, 1.0 - CORRECTNESS_EPS))


def _members_by_size(sets: np.ndarray):
    """Yield ``(k, rows, cols)`` for each set size ``k`` present: the rows
    whose set has ``k`` members, and a ``(len(rows), k)`` array of their
    member classes in ascending order.

    Reducing a gathered row with ``.sum(axis=1)`` adds in the same order as
    ``np.sum`` over that row's members alone (``np.add.reduceat`` does not).
    """
    sizes = np.count_nonzero(sets, axis=1)
    for k in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == k)
        yield k, rows, np.nonzero(sets[rows])[1].reshape(rows.size, k)


def model_correctness_pos(probs_t: np.ndarray, sets_t: np.ndarray, rho_t: np.ndarray) -> float:
    """Importance-weighted agreement with the correctly predicted positives."""
    if probs_t.shape[0] == 0:
        raise ValueError("no correct positives to estimate correctness from")
    per_record = np.empty(probs_t.shape[0])
    for k, rows, cols in _members_by_size(sets_t):
        w = attribution_pos(k)
        r = rows[:, None]
        per_record[rows] = (w * probs_t[r, cols] / rho_t[r, cols]).sum(axis=1)
    return clamp_correctness(float(np.mean(per_record)))


def model_correctness_neg(probs_n: np.ndarray, sets_n: np.ndarray, rho_n: np.ndarray) -> float:
    """Importance-weighted disagreement with the logged negative sets.

    Records whose logged set is empty carry no attributable blame and are
    skipped.
    """
    per_record = np.full(probs_n.shape[0], np.nan)
    for k, rows, cols in _members_by_size(sets_n):
        if k == 0:
            continue
        r = rows[:, None]
        rho = rho_n[r, cols]
        attr = attribution_neg(rho)
        per_record[rows] = (attr * (1.0 - probs_n[r, cols]) / (1.0 - rho)).sum(axis=1)
    per_record = per_record[sets_n.any(axis=1)]
    if per_record.size == 0:
        raise ValueError("no negative records with non-empty logged sets")
    return clamp_correctness(float(np.mean(per_record)))


def model_correctness(
    probs_t: np.ndarray,
    sets_t: np.ndarray,
    rho_t: np.ndarray,
    probs_n: np.ndarray,
    sets_n: np.ndarray,
    rho_n: np.ndarray,
) -> CorrectnessStats:
    try:
        mc_pos = model_correctness_pos(probs_t, sets_t, rho_t)
        mc_neg = model_correctness_neg(probs_n, sets_n, rho_n)
    except ValueError:
        return CorrectnessStats(mc_pos=0.0, mc_neg=0.0, available=False)
    return CorrectnessStats(mc_pos=mc_pos, mc_neg=mc_neg, available=True)


def negative_thresholds(
    accept_pos: np.ndarray,
    reject_pos: np.ndarray,
    valid_accept: np.ndarray,
    valid_reject: np.ndarray,
    mc_pos: float,
    mc_neg: float,
    apply_scale: bool = True,
) -> ThresholdSet:
    """Scale the positive baselines by relative model correctness and clamp.

    With ``apply_scale`` off (the no-MC-scale ablation) the baselines are
    used directly, still clamped into the legal bands.
    """
    mc_pos = clamp_correctness(mc_pos)
    mc_neg = clamp_correctness(mc_neg)
    scale = (1.0 - mc_neg) / (1.0 - mc_pos) if apply_scale else 1.0
    accept = np.clip(accept_pos * scale, 0.5, 1.0)
    reject = np.clip(1.0 - (1.0 - reject_pos) * scale, 0.0, 0.5)
    accept = np.where(valid_accept, accept, FALLBACK_ACCEPT)
    reject = np.where(valid_reject, reject, FALLBACK_REJECT)
    return ThresholdSet(accept, reject, valid_accept.copy(), valid_reject.copy())


def fallback_thresholds(num_classes: int) -> ThresholdSet:
    return ThresholdSet(
        accept=np.full(num_classes, FALLBACK_ACCEPT),
        reject=np.full(num_classes, FALLBACK_REJECT),
        valid_accept=np.zeros(num_classes, dtype=bool),
        valid_reject=np.zeros(num_classes, dtype=bool),
    )


def confidence_mask(
    weak_probs: np.ndarray, delta: np.ndarray, thresholds: ThresholdSet
) -> np.ndarray:
    """Confident classes of the negative examples.

    A class counts as confident when the weak-augmentation probability
    falls outside the [reject, accept] band; positive rows are never
    pseudo-labeled.
    """
    outside = (weak_probs > thresholds.accept) | (weak_probs < thresholds.reject)
    return outside & (np.asarray(delta).reshape(-1, 1) == 0)


# -- training-time tracker ------------------------------------------------------


class FetTracker:
    """Per-step FET state with exponential smoothing across batches.

    The baselines and positive-side correctness are recomputed on each
    batch's correct positives and smoothed with an EMA (decay 0.9) to tame
    small-batch variance; the negative-side correctness always comes from
    the current batch. Classes (or steps) without support fall back to the
    fixed threshold pair.
    """

    def __init__(self, num_classes: int, decay: float = 0.9, apply_scale: bool = True):
        self.num_classes = num_classes
        self.decay = decay
        self.apply_scale = apply_scale
        self.accept_ema = np.zeros(num_classes)
        self.reject_ema = np.zeros(num_classes)
        self.accept_seen = np.zeros(num_classes, dtype=bool)
        self.reject_seen = np.zeros(num_classes, dtype=bool)
        self.mc_pos_ema: float | None = None
        self.last_mc_neg: float | None = None

    def _ema_update(self, ema, seen, new, valid):
        ema[valid & ~seen] = new[valid & ~seen]
        both = valid & seen
        ema[both] = self.decay * ema[both] + (1.0 - self.decay) * new[both]
        seen |= valid

    def update(
        self,
        pos_probs: np.ndarray,
        pos_sets: np.ndarray,
        pos_rho: np.ndarray,
        neg_probs: np.ndarray,
        neg_sets: np.ndarray,
        neg_rho: np.ndarray,
    ) -> ThresholdSet:
        """Fold one batch into the tracker and return the thresholds to use."""
        correct = correct_positive_set(pos_probs, pos_sets)
        if correct.any():
            probs_t = pos_probs[correct]
            sets_t = pos_sets[correct]
            rho_t = pos_rho[correct]
            accept, reject, v_a, v_r = positive_thresholds(probs_t, sets_t)
            self._ema_update(self.accept_ema, self.accept_seen, accept, v_a)
            self._ema_update(self.reject_ema, self.reject_seen, reject, v_r)
            mc_pos = model_correctness_pos(probs_t, sets_t, rho_t)
            if self.mc_pos_ema is None:
                self.mc_pos_ema = mc_pos
            else:
                self.mc_pos_ema = self.decay * self.mc_pos_ema + (1.0 - self.decay) * mc_pos
        try:
            self.last_mc_neg = model_correctness_neg(neg_probs, neg_sets, neg_rho)
        except ValueError:
            self.last_mc_neg = None
        return self.thresholds()

    def correctness(self) -> CorrectnessStats:
        if self.mc_pos_ema is None or self.last_mc_neg is None:
            return CorrectnessStats(0.0, 0.0, available=False)
        return CorrectnessStats(
            clamp_correctness(self.mc_pos_ema), self.last_mc_neg, available=True
        )

    def thresholds(self) -> ThresholdSet:
        stats = self.correctness()
        if not stats.available:
            return fallback_thresholds(self.num_classes)
        return negative_thresholds(
            self.accept_ema,
            self.reject_ema,
            self.accept_seen,
            self.reject_seen,
            stats.mc_pos,
            stats.mc_neg,
            apply_scale=self.apply_scale,
        )
