"""Loss terms for policy fine-tuning on logged feedback.

The composite objective is the plain sum of four parts:
  * labeled loss: class-summed binary cross-entropy on the weakly
    augmented positive-feedback examples against their logged sets;
  * pseudo-label loss: cross-entropy between hard pseudo labels obtained
    from the weak pass and the strong-pass predictions, restricted to
    confident classes of negative examples;
  * bandit loss: negative expected-feedback estimate in pseudoinverse
    form, crediting per-class importance ratios pi/rho on the classes the
    confidence masks leave to bandit learning;
  * KL control: per-class Bernoulli KL divergence from the logging
    policy, keeping exploration near logged behavior; the reference is the
    logged propensities ``rho`` of each row.

Baselines: clipped joint-propensity inverse scoring (IPS), its
translated variant (BanditNet), and a fixed-threshold confidence mask
(FixMatch-style). The clip (``DEFAULT_IPS_CLIP``) and the translation
(``DEFAULT_TRANSLATION``) are fixed. The FixMatch mask is FET's confidence
mask under FET's fallback pair (``fet.FALLBACK_ACCEPT`` /
``fet.FALLBACK_REJECT``), the band that FixMatch and the ``no_fet``
ablation apply to every class. Masks and pseudo labels are plain numpy
arrays, so no gradient ever flows through them; only probability tensors
carry graph.
"""

from __future__ import annotations

import numpy as np

from . import fet, nncore
from .nncore import Tensor
from .policy import predicted_mask

DEFAULT_IPS_CLIP = 100.0
DEFAULT_TRANSLATION = 0.9


class ObjectiveError(Exception):
    pass


# -- augmentation ----------------------------------------------------------------


def sample_mixup_lambda(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    if alpha <= 0:
        raise ObjectiveError(f"alpha must be positive, got {alpha}")
    b = rng.beta(alpha, alpha, size=size)
    return np.maximum(b, 1.0 - b)


def mixup_batch(
    states: np.ndarray, alpha: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Mix every row with a uniformly drawn partner (never itself).

    A single-row batch is returned unchanged with lambda 1.
    """
    n = states.shape[0]
    if n <= 1:
        return states.copy(), np.ones(n)
    lam = sample_mixup_lambda(alpha, rng, n)
    partners = (np.arange(n) + 1 + rng.integers(0, n - 1, size=n)) % n
    mixed = lam[:, None] * states + (1.0 - lam[:, None]) * states[partners]
    return mixed, lam


# -- building blocks --------------------------------------------------------------


def pseudo_labels(weak_probs: np.ndarray) -> np.ndarray:
    """Hard labels from the weak pass: 1 on its predicted set."""
    return predicted_mask(np.asarray(weak_probs)).astype(np.float64)


def unconfident_plus_mask(
    delta: np.ndarray, conf: np.ndarray, logged_mask: np.ndarray
) -> np.ndarray:
    """Classes handled by bandit learning.

    Positive rows contribute their logged classes (the taken decision,
    which carries propensities); negative rows contribute logged classes
    the thresholds left unconfident.
    """
    delta_col = np.asarray(delta).reshape(-1, 1)
    positives = (delta_col == 1) & logged_mask
    negatives = (delta_col == 0) & logged_mask & ~conf.astype(bool)
    return (positives | negatives).astype(np.float64)


# -- composite loss terms ----------------------------------------------------------
#
# Each loss is one ``nncore.fused`` node. Its value and its backward replay
# the op-level graph the formula would build from ``nncore`` ops: the same
# expressions in the same order, and one ``probs._accumulate`` call per op
# that reads ``probs``, in the graph's reverse-topological order. Where the
# op graph computes ``1 - p`` as ``1 + (-p)`` or ``x - c`` as ``x + (-c)``,
# the subtraction here gives the same bits. Comments name each accumulation
# after the op path it replays.


def _masked_bce(probs: Tensor, targets: np.ndarray, weights: np.ndarray, scale) -> Tensor:
    """``sum(-(t log p + (1 - t) log(1 - p)) * weights) * scale``."""
    p = probs.data
    t = np.asarray(targets, dtype=np.float64)
    not_t = 1.0 - t
    q = 1.0 - p
    bce = -(np.log(p) * t + np.log(q) * not_t)

    def backward(g: np.ndarray) -> None:
        g_bce = -(g * scale * weights)
        probs._accumulate(-(g_bce * not_t / q))  # log(1 - p)
        probs._accumulate(g_bce * t / p)  # log(p)

    return nncore.fused((bce * weights).sum() * scale, (probs,), backward)


def loss_labeled(weak_probs: Tensor, target_mask: np.ndarray, delta: np.ndarray) -> Tensor:
    """Mean class-summed BCE over the positive-feedback rows."""
    pos = (np.asarray(delta) == 1).astype(np.float64)
    n_pos = pos.sum()
    if n_pos == 0:
        return Tensor(0.0)
    return _masked_bce(weak_probs, target_mask, pos[:, None], 1.0 / n_pos)


def loss_pseudo(strong_probs: Tensor, qhat: np.ndarray, conf: np.ndarray) -> Tensor:
    """Confidence-masked BCE against the hard pseudo labels."""
    conf = np.asarray(conf, dtype=np.float64)
    total = conf.sum()
    if total == 0:
        return Tensor(0.0)
    return _masked_bce(strong_probs, qhat, conf, 1.0 / total)


def loss_bandit(
    probs: Tensor, rho: np.ndarray, delta: np.ndarray, mask: np.ndarray
) -> Tensor:
    """Negative pseudoinverse estimate of expected positive feedback.

    Each positive record contributes 1 plus the masked per-class
    importance-ratio excess (pi/rho - 1); the sum is normalized by the
    total masked class count. States are unaugmented by construction.
    """
    mask = np.asarray(mask, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    total = mask.sum()
    if total == 0:
        return Tensor(0.0)
    rho = np.asarray(rho, dtype=np.float64)
    weights = delta[:, None] * mask
    scale = -1.0 / total
    excess = ((probs.data / rho - 1.0) * weights).sum()

    def backward(g: np.ndarray) -> None:
        probs._accumulate(g * scale * weights / rho)  # p / rho

    return nncore.fused((excess + float(delta.sum())) * scale, (probs,), backward)


def bandit_value_estimate(
    probs: np.ndarray, rho: np.ndarray, delta: np.ndarray, mask: np.ndarray
) -> float:
    """Pseudoinverse value estimate: mean per-record estimated feedback.

    This is the quantity the bandit loss descends (up to the mask-count
    normalization and sign); exposed separately so estimator tests can
    compare it against exhaustive enumeration.
    """
    delta = np.asarray(delta, dtype=np.float64)
    contrib = (np.asarray(mask) * (probs / rho - 1.0)).sum(axis=1)
    return float(np.mean(delta * (1.0 + contrib)))


def loss_kl_control(probs: Tensor, ref_probs: np.ndarray) -> Tensor:
    """Mean per-class Bernoulli KL divergence from the reference
    probabilities ``ref_probs``, the batch's logged ``rho`` in fine-tuning."""
    p0 = np.asarray(ref_probs, dtype=np.float64)
    p = probs.data
    q = 1.0 - p
    scale = 1.0 / p.shape[0]
    log_ratio_p = np.log(p) - np.log(p0)
    log_ratio_q = np.log(q) - np.log(1.0 - p0)
    kl = p * log_ratio_p + q * log_ratio_q

    def backward(g: np.ndarray) -> None:
        g_kl = g * scale
        probs._accumulate(-(g_kl * q / q))  # log(1 - p)
        probs._accumulate(-(g_kl * log_ratio_q))  # the (1 - p) factor
        probs._accumulate(g_kl * log_ratio_p)  # the p factor
        probs._accumulate(g_kl * p / p)  # log(p)

    return nncore.fused(kl.sum() * scale, (probs,), backward)


def total_loss(labeled: Tensor, pseudo: Tensor, bandit: Tensor, kl: Tensor) -> Tensor:
    """The composite objective: the plain sum of the four terms."""
    return labeled + pseudo + bandit + kl


# -- baseline objectives -------------------------------------------------------------


def _clipped_ips(
    probs: Tensor, rho: np.ndarray, logged_mask: np.ndarray, reward: np.ndarray
) -> Tensor:
    """``-mean(min(w, DEFAULT_IPS_CLIP) * reward)`` with ``w`` the joint
    per-class Bernoulli likelihood ratio of the logged set decision."""
    p = probs.data
    z = np.asarray(logged_mask, dtype=np.float64)
    not_z = 1.0 - z
    q = 1.0 - p
    log_num = np.log(p) * z + np.log(q) * not_z
    log_den = z * np.log(rho) + (1.0 - z) * np.log(1.0 - rho)
    w = np.exp((log_num - log_den).sum(axis=1))
    inside = (w >= 0.0) & (w <= DEFAULT_IPS_CLIP)
    scale = -1.0 / reward.shape[0]

    def backward(g: np.ndarray) -> None:
        g_row = (g * scale * reward * inside * w)[:, None]
        probs._accumulate(-(g_row * not_z / q))  # log(1 - p)
        probs._accumulate(g_row * z / p)  # log(p)

    value = (np.clip(w, 0.0, DEFAULT_IPS_CLIP) * reward).sum() * scale
    return nncore.fused(value, (probs,), backward)


def loss_ips(
    probs: Tensor, rho: np.ndarray, delta: np.ndarray, logged_mask: np.ndarray
) -> Tensor:
    """Clipped inverse-propensity objective on the joint set decision."""
    return _clipped_ips(probs, rho, logged_mask, np.asarray(delta, dtype=np.float64))


def loss_banditnet(
    probs: Tensor, rho: np.ndarray, delta: np.ndarray, logged_mask: np.ndarray
) -> Tensor:
    """Translated IPS: rewards are shifted by ``DEFAULT_TRANSLATION`` before
    weighting."""
    delta = np.asarray(delta, dtype=np.float64)
    return _clipped_ips(probs, rho, logged_mask, delta - DEFAULT_TRANSLATION)


def fixmatch_mask(weak_probs: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Fixed-threshold confidence mask on negative rows: FET's confidence
    mask under the fallback pair on every class."""
    weak_probs = np.asarray(weak_probs)
    return fet.confidence_mask(weak_probs, delta, fet.fallback_thresholds(weak_probs.shape[-1]))
