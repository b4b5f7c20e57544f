"""Op-level reference implementations for the bit-identity tests.

The package builds one graph node per forward pass and per loss term
(``nncore.fused``). This module keeps the per-op autodiff ops and the chains
those nodes replay, plus the per-record loop form of the FET correctness
estimates and the plain-expression Adam update. Tests require the package to
match these bit for bit, so every expression here keeps its original operand
order. ``mixup_pair`` is the one-pair form of the mix-up that
``objectives.mixup_batch`` applies to every row, for the mix-up property tests.
``grad_check`` compares any graph's gradients with central differences.
``narrow_band`` is the confidence band the gradient tests mask with.
"""

import math
from typing import Callable, Sequence

import numpy as np

from banditmatch import fet, objectives
from banditmatch.nncore import LOGIT_CLAMP, Tensor, add, fused
from banditmatch.objectives import ObjectiveError
from banditmatch.policy import PolicyNet

# -- ops ---------------------------------------------------------------------------
#
# One node per op. A one-parent op's backward runs only when its parent
# requires grad (``fused``); a two-parent op checks each parent.


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def sub(a, b) -> Tensor:
    """``a - b`` as ``a + (-b)``."""
    return add(a, -_wrap(b))


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / b.data)
        if b.requires_grad:
            b._accumulate(-g * a.data / (b.data * b.data))

    return fused(a.data / b.data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return fused(a.data @ b.data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    return fused(np.maximum(a.data, 0.0), (a,), lambda g: a._accumulate(g * (a.data > 0.0)))


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.data))
    return fused(s, (a,), lambda g: a._accumulate(g * s * (1.0 - s)))


def log(a: Tensor) -> Tensor:
    return fused(np.log(a.data), (a,), lambda g: a._accumulate(g / a.data))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return fused(e, (a,), lambda g: a._accumulate(g * e))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only where lo <= x <= hi."""
    inside = (a.data >= lo) & (a.data <= hi)
    return fused(np.clip(a.data, lo, hi), (a,), lambda g: a._accumulate(g * inside))


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return fused(a.data.sum(axis=axis), (a,), backward)


def mean(a: Tensor) -> Tensor:
    return tensor_sum(a) * (1.0 / a.data.size)


# -- gradient check -----------------------------------------------------------------


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    fd_epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must be a deterministic closure over ``params`` returning a
    scalar Tensor. Returns inf when the loss itself is non-finite, which
    callers treat as a failed check.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if not np.isfinite(loss.data).all():
        return float("inf")
    loss.backward()
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + fd_epsilon
            hi = loss_fn().item()
            flat[i] = orig - fd_epsilon
            lo = loss_fn().item()
            flat[i] = orig
            if not (math.isfinite(hi) and math.isfinite(lo)):
                return float("inf")
            fd = (hi - lo) / (2.0 * fd_epsilon)
            denom = max(abs(a_flat[i]), abs(fd), 1e-8)
            worst = max(worst, abs(a_flat[i] - fd) / denom)
    return worst


# -- network -----------------------------------------------------------------------


def mlp_logits(net: PolicyNet, states: np.ndarray) -> Tensor:
    x = np.asarray(states, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    h: Tensor = Tensor(x)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = matmul(h, w) + b
        if i < len(net.weights) - 1:
            h = relu(h)
    return clip(h, -LOGIT_CLAMP, LOGIT_CLAMP)


def mlp_forward(net: PolicyNet, states: np.ndarray) -> Tensor:
    return sigmoid(mlp_logits(net, states))


# -- losses ------------------------------------------------------------------------


def bce_elementwise(probs: Tensor, targets: np.ndarray) -> Tensor:
    t = np.asarray(targets, dtype=np.float64)
    return -(t * log(probs) + (1.0 - t) * log(sub(1.0, probs)))


def loss_labeled(weak_probs: Tensor, target_mask: np.ndarray, delta: np.ndarray) -> Tensor:
    pos = (np.asarray(delta) == 1).astype(np.float64)
    n_pos = pos.sum()
    if n_pos == 0:
        return Tensor(0.0)
    bce = bce_elementwise(weak_probs, target_mask.astype(np.float64))
    return tensor_sum(bce * pos[:, None]) * (1.0 / n_pos)


def loss_pseudo(strong_probs: Tensor, qhat: np.ndarray, conf: np.ndarray) -> Tensor:
    conf = np.asarray(conf, dtype=np.float64)
    total = conf.sum()
    if total == 0:
        return Tensor(0.0)
    bce = bce_elementwise(strong_probs, qhat)
    return tensor_sum(bce * conf) * (1.0 / total)


def loss_bandit(probs: Tensor, rho: np.ndarray, delta: np.ndarray, mask: np.ndarray) -> Tensor:
    mask = np.asarray(mask, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    total = mask.sum()
    if total == 0:
        return Tensor(0.0)
    weights = delta[:, None] * mask
    ratio_excess = sub(div(probs, rho), 1.0)
    numerator = float(delta.sum()) + tensor_sum(ratio_excess * weights)
    return numerator * (-1.0 / total)


def loss_kl_control(probs: Tensor, ref_probs: np.ndarray) -> Tensor:
    p0 = np.asarray(ref_probs, dtype=np.float64)
    n = probs.data.shape[0]
    kl = probs * sub(log(probs), np.log(p0)) + sub(1.0, probs) * sub(
        log(sub(1.0, probs)), np.log(1.0 - p0)
    )
    return tensor_sum(kl) * (1.0 / n)


def log_importance_weights(probs: Tensor, rho: np.ndarray, logged_mask: np.ndarray) -> Tensor:
    z = np.asarray(logged_mask, dtype=np.float64)
    log_num = z * log(probs) + (1.0 - z) * log(sub(1.0, probs))
    log_den = z * np.log(rho) + (1.0 - z) * np.log(1.0 - rho)
    return tensor_sum(sub(log_num, log_den), axis=1)


# The clip and the translation are the package's constants, read at call time
# as the package reads them, so a test that patches one patches both sides.
def loss_ips(probs, rho, delta, logged_mask):
    delta = np.asarray(delta, dtype=np.float64)
    n = delta.shape[0]
    w = exp(log_importance_weights(probs, rho, logged_mask))
    w = clip(w, 0.0, objectives.DEFAULT_IPS_CLIP)
    return tensor_sum(w * delta) * (-1.0 / n)


def loss_banditnet(probs, rho, delta, logged_mask):
    delta = np.asarray(delta, dtype=np.float64)
    n = delta.shape[0]
    w = exp(log_importance_weights(probs, rho, logged_mask))
    w = clip(w, 0.0, objectives.DEFAULT_IPS_CLIP)
    return tensor_sum(w * (delta - objectives.DEFAULT_TRANSLATION)) * (-1.0 / n)


def narrow_band(num_classes: int) -> fet.ThresholdSet:
    """Accept 0.6 and reject 0.4 on every class: narrower than FET's fallback
    pair, so a small random network has confident classes to mask."""
    return fet.ThresholdSet(np.full(num_classes, 0.6), np.full(num_classes, 0.4),
                            np.ones(num_classes, bool), np.ones(num_classes, bool))


# -- mix-up ----------------------------------------------------------------------------


def mixup_pair(state_a: np.ndarray, state_b: np.ndarray, lam: float) -> np.ndarray:
    if state_a.shape != state_b.shape:
        raise ObjectiveError("mix-up partners must have equal dimension")
    return lam * state_a + (1.0 - lam) * state_b


# -- FET correctness, one record at a time ------------------------------------------


def model_correctness_pos(probs_t, sets_t, rho_t) -> float:
    per_record = []
    for probs, members, rho in zip(probs_t, sets_t, rho_t):
        idx = np.flatnonzero(members)
        w = 1.0 / idx.size
        per_record.append(float(np.sum(w * probs[idx] / rho[idx])))
    return float(np.mean(per_record))


def model_correctness_neg(probs_n, sets_n, rho_n) -> float:
    per_record = []
    for probs, members, rho in zip(probs_n, sets_n, rho_n):
        idx = np.flatnonzero(members)
        if idx.size == 0:
            continue
        attr = rho[idx] / rho[idx].sum()
        per_record.append(float(np.sum(attr * (1.0 - probs[idx]) / (1.0 - rho[idx]))))
    return float(np.mean(per_record))


# -- optimizer ---------------------------------------------------------------------------


class Adam:
    """The Adam update written as plain array expressions."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
