"""Op-level reference implementations for the bit-identity tests.

The package builds one graph node per forward pass and per loss term
(``nncore.fused``). This module keeps the chains those nodes replay, built
from the per-op ``nncore`` autodiff ops, plus the per-record loop form of the
FET correctness estimates and the plain-expression Adam update. Tests require
the package to match these bit for bit, so every expression here keeps its
original operand order.
"""

import numpy as np

from banditmatch import nncore
from banditmatch.nncore import LOGIT_CLAMP, Tensor

# -- network -----------------------------------------------------------------------


def mlp_logits(net: nncore.Mlp, states: np.ndarray) -> Tensor:
    x = np.asarray(states, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    h: Tensor = Tensor(x)
    act = nncore.relu if net.spec.hidden_activation == "relu" else nncore.tanh
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = nncore.matmul(h, w) + b
        if i < len(net.weights) - 1:
            h = act(h)
    return nncore.clip(h, -LOGIT_CLAMP, LOGIT_CLAMP)


def mlp_forward(net: nncore.Mlp, states: np.ndarray) -> Tensor:
    return nncore.sigmoid(mlp_logits(net, states))


# -- losses ------------------------------------------------------------------------


def bce_elementwise(probs: Tensor, targets: np.ndarray) -> Tensor:
    t = np.asarray(targets, dtype=np.float64)
    return -(t * nncore.log(probs) + (1.0 - t) * nncore.log(1.0 - probs))


def loss_labeled(weak_probs: Tensor, target_mask: np.ndarray, delta: np.ndarray) -> Tensor:
    pos = (np.asarray(delta) == 1).astype(np.float64)
    n_pos = pos.sum()
    if n_pos == 0:
        return Tensor(0.0)
    bce = bce_elementwise(weak_probs, target_mask.astype(np.float64))
    return nncore.tensor_sum(bce * pos[:, None]) * (1.0 / n_pos)


def loss_pseudo(strong_probs: Tensor, qhat: np.ndarray, conf: np.ndarray) -> Tensor:
    conf = np.asarray(conf, dtype=np.float64)
    total = conf.sum()
    if total == 0:
        return Tensor(0.0)
    bce = bce_elementwise(strong_probs, qhat)
    return nncore.tensor_sum(bce * conf) * (1.0 / total)


def loss_bandit(probs: Tensor, rho: np.ndarray, delta: np.ndarray, mask: np.ndarray) -> Tensor:
    mask = np.asarray(mask, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    total = mask.sum()
    if total == 0:
        return Tensor(0.0)
    weights = delta[:, None] * mask
    ratio_excess = probs / rho - 1.0
    numerator = float(delta.sum()) + nncore.tensor_sum(ratio_excess * weights)
    return numerator * (-1.0 / total)


def loss_kl_control(probs: Tensor, ref_probs: np.ndarray) -> Tensor:
    p0 = np.asarray(ref_probs, dtype=np.float64)
    n = probs.data.shape[0]
    kl = probs * (nncore.log(probs) - np.log(p0)) + (1.0 - probs) * (
        nncore.log(1.0 - probs) - np.log(1.0 - p0)
    )
    return nncore.tensor_sum(kl) * (1.0 / n)


def log_importance_weights(probs: Tensor, rho: np.ndarray, logged_mask: np.ndarray) -> Tensor:
    z = np.asarray(logged_mask, dtype=np.float64)
    log_num = z * nncore.log(probs) + (1.0 - z) * nncore.log(1.0 - probs)
    log_den = z * np.log(rho) + (1.0 - z) * np.log(1.0 - rho)
    return nncore.tensor_sum(log_num - log_den, axis=1)


def loss_ips(probs, rho, delta, logged_mask, clip):
    delta = np.asarray(delta, dtype=np.float64)
    n = delta.shape[0]
    w = nncore.exp(log_importance_weights(probs, rho, logged_mask))
    w = nncore.clip(w, 0.0, clip)
    return nncore.tensor_sum(w * delta) * (-1.0 / n)


def loss_banditnet(probs, rho, delta, logged_mask, translation, clip):
    delta = np.asarray(delta, dtype=np.float64)
    n = delta.shape[0]
    w = nncore.exp(log_importance_weights(probs, rho, logged_mask))
    w = nncore.clip(w, 0.0, clip)
    return nncore.tensor_sum(w * (delta - translation)) * (-1.0 / n)


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

    def __init__(self, params, learning_rate, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
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
            if self.weight_decay:
                p.data -= self.learning_rate * self.weight_decay * p.data
            p.data -= self.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
