"""Minimal reverse-mode autodiff core for small MLP policies.

Everything runs on float64 numpy arrays. The op set is intentionally small:
exactly the elementwise / matmul / reduction ops the policy networks and
loss functions need, no general broadcasting beyond bias rows and scalars.

Gradient conventions:
  * ``Tensor.backward()`` accumulates into ``grad``; callers zero grads
    between steps (repeated backward without zeroing adds up).
  * Probabilities come from ``sigmoid`` applied to logits clamped to
    ``[-LOGIT_CLAMP, +LOGIT_CLAMP]``, which bounds every class probability
    away from 0 and 1 so all downstream logs stay finite.
  * A node's ``_backward(g)`` receives the node's own gradient and holds
    no reference to the node, so a graph is freed as soon as its last
    outside reference goes (no reference cycles, no wait for the cyclic
    collector).

Fused nodes: the training hot path (``Mlp.forward`` and every loss in
``objectives``) builds one ``fused`` node per forward pass or loss term
instead of one node per op. A fused node must reproduce the op-level graph
bit for bit: its value uses the op-level forward's expressions in the same
order, and its backward makes the same ``_accumulate`` calls, with the same
expressions, in the op graph's reverse-topological order. Float addition is
not associative, so contributions to a shared parent are never pre-summed.
The op-level ops below stay as the gradient oracle: tests rebuild each fused
node from them and require equal bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

LOGIT_CLAMP = 15.0
# sigmoid(-15) ~= 3.06e-7, so probabilities always lie in [1e-7, 1 - 1e-7].
PROB_FLOOR = 1e-7

CHECKPOINT_FORMAT = "banditmatch-checkpoint"
CHECKPOINT_VERSION = "v1"


class NncoreError(Exception):
    """Base error for the compute core."""


class ConfigurationError(NncoreError):
    """Shape or spec mismatch when building/running a network."""


class UsageError(NncoreError):
    """API misuse, e.g. backward on a non-scalar."""


class NonFiniteGradientError(NncoreError):
    """Raised by optimizers when a gradient is NaN or infinite."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A node in the backward graph wrapping a float64 array."""

    # Make `ndarray <op> Tensor` defer to our reflected operators instead of
    # numpy building an object array.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] = _no_backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError("item() requires a scalar tensor")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += _unbroadcast(g, self.data.shape)

    def backward(self) -> None:
        """Backpropagate from this scalar, accumulating into ``grad``."""
        if self.data.size != 1:
            raise UsageError("backward() only supported from a scalar loss")
        # Depth-first post-order over parents, in parent order: the order of
        # the accumulations into shared tensors (and so their low-order bits)
        # depends on it. Iterative, so no self-referencing closure keeps the
        # graph alive.
        topo: list[Tensor] = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    break
            else:
                stack.pop()
                topo.append(node)
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return mul(self, -1.0)

    def __sub__(self, other) -> "Tensor":
        return add(self, -_wrap(other))

    def __rsub__(self, other) -> "Tensor":
        return add(_wrap(other), -self)

    def __truediv__(self, other) -> "Tensor":
        return div(self, other)

    def __rtruediv__(self, other) -> "Tensor":
        return div(_wrap(other), self)

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, other)


def _no_backward(g) -> None:
    pass


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of the forward broadcast)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _node(data: np.ndarray, parents: Sequence[Tensor]) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    out._parents = tuple(parents)
    return out


def fused(data, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """One graph node with a caller-supplied backward.

    ``backward(g)`` receives the node's gradient and accumulates into the
    parents itself (``parent._accumulate``). It runs only when some parent
    requires grad, and it must not reference the returned node.
    """
    out = _node(_as_array(data), parents)
    if out.requires_grad:
        out._backward = backward
    return out


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _node(a.data + b.data, (a, b))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _node(a.data * b.data, (a, b))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    out._backward = backward
    return out


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _node(a.data / b.data, (a, b))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g / b.data)
        if b.requires_grad:
            b._accumulate(-g * a.data / (b.data * b.data))

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ConfigurationError("matmul expects 2-d operands")
    out = _node(a.data @ b.data, (a, b))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    out._backward = backward
    return out


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = _node(np.maximum(a.data, 0.0), (a,))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * (a.data > 0.0))

    out._backward = backward
    return out


def tanh(a: Tensor) -> Tensor:
    a = _wrap(a)
    t = np.tanh(a.data)
    out = _node(t, (a,))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * (1.0 - t * t))

    out._backward = backward
    return out


def sigmoid(a: Tensor) -> Tensor:
    a = _wrap(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = _node(s, (a,))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * s * (1.0 - s))

    out._backward = backward
    return out


def log(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = _node(np.log(a.data), (a,))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g / a.data)

    out._backward = backward
    return out


def exp(a: Tensor) -> Tensor:
    a = _wrap(a)
    e = np.exp(a.data)
    out = _node(e, (a,))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * e)

    out._backward = backward
    return out


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only where lo <= x <= hi."""
    a = _wrap(a)
    out = _node(np.clip(a.data, lo, hi), (a,))

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            inside = (a.data >= lo) & (a.data <= hi)
            a._accumulate(g * inside)

    out._backward = backward
    return out


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    a = _wrap(a)
    out = _node(a.data.sum(axis=axis), (a,))

    def backward(g: np.ndarray) -> None:
        if not a.requires_grad:
            return
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    out._backward = backward
    return out


def mean(a: Tensor) -> Tensor:
    a = _wrap(a)
    return tensor_sum(a) * (1.0 / a.data.size)


# -- networks ---------------------------------------------------------------


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of a multi-label policy head: per-class sigmoid outputs."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (128, 128)
    output_dim: int = 1
    hidden_activation: str = "relu"

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(int(d) <= 0 for d in dims):
            raise ConfigurationError(f"all layer dims must be positive, got {dims}")
        if self.hidden_activation not in ("relu", "tanh"):
            raise ConfigurationError(
                f"unknown hidden activation {self.hidden_activation!r}"
            )
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_dims": list(self.hidden_dims),
            "output_dim": self.output_dim,
            "hidden_activation": self.hidden_activation,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        return cls(
            input_dim=int(d["input_dim"]),
            hidden_dims=tuple(int(h) for h in d["hidden_dims"]),
            output_dim=int(d["output_dim"]),
            hidden_activation=str(d["hidden_activation"]),
        )


class Mlp:
    """Fully connected net with a clamped-sigmoid multi-label head."""

    def __init__(self, spec: MlpSpec, rng: np.random.Generator | None = None):
        self.spec = spec
        dims = (spec.input_dim, *spec.hidden_dims, spec.output_dim)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            if rng is None:
                w = np.zeros((fan_in, fan_out))
            else:
                w = rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in)
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        return params

    def named_parameters(self) -> dict[str, Tensor]:
        named = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            named[f"w{i}"] = w
            named[f"b{i}"] = b
        return named

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def _layers(self, states) -> tuple[list[np.ndarray], np.ndarray, bool]:
        """Layer inputs (the states, then each hidden activation), the
        unclamped output logits, and whether the states were a single row."""
        x = _as_array(states)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ConfigurationError(
                f"state dim {x.shape} incompatible with input_dim={self.spec.input_dim}"
            )
        act_fn = np.tanh if self.spec.hidden_activation == "tanh" else None
        inputs = [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.data + b.data
            if i < len(self.weights) - 1:
                h = np.tanh(h) if act_fn else np.maximum(h, 0.0)
                inputs.append(h)
        return inputs, h, squeeze

    def forward(self, states: np.ndarray) -> Tensor:
        """Class probabilities, each strictly inside (0, 1), as one graph node.

        Always 2-d (a single state gives one row). The backward replays the
        op chain matmul, bias add, activation, clip, sigmoid layer by layer.
        """
        inputs, z, _ = self._layers(states)
        s = 1.0 / (1.0 + np.exp(-np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)))
        weights, biases = self.weights, self.biases
        tanh_act = self.spec.hidden_activation == "tanh"

        def backward(g: np.ndarray) -> None:
            inside = (z >= -LOGIT_CLAMP) & (z <= LOGIT_CLAMP)
            dz = g * s * (1.0 - s) * inside
            for i in range(len(weights) - 1, -1, -1):
                h = inputs[i]
                weights[i]._accumulate(h.T @ dz)
                biases[i]._accumulate(dz)
                if i:
                    dh = dz @ weights[i].data.T
                    dz = dh * (1.0 - h * h) if tanh_act else dh * (h > 0.0)

        return fused(s, self.parameters(), backward)

    def probs(self, states: np.ndarray) -> np.ndarray:
        """Forward pass without building the backward graph."""
        _, z, squeeze = self._layers(states)
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)))
        return p[0] if squeeze else p

    def copy(self) -> "Mlp":
        clone = Mlp(self.spec, rng=None)
        for dst, src in zip(clone.parameters(), self.parameters()):
            dst.data = src.data.copy()
        return clone


# -- optimizers ---------------------------------------------------------------


def _check_finite(params: Sequence[Tensor]) -> None:
    for i, p in enumerate(params):
        g = p.grad
        if g is None:
            raise UsageError(f"parameter {i} has no gradient; run backward first")
        if not np.all(np.isfinite(g)):
            bad = int(np.size(g) - np.isfinite(g).sum())
            raise NonFiniteGradientError(
                f"parameter {i} (shape {p.shape}) has {bad} non-finite gradient entries"
            )


class Sgd:
    """Plain gradient descent, used for hand-checkable tests."""

    def __init__(
        self,
        params: Sequence[Tensor],
        learning_rate: float = 0.1,
        weight_decay: float = 0.0,
    ):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)

    def step(self) -> None:
        _check_finite(self.params)
        for p in self.params:
            if self.weight_decay:
                p.data -= self.learning_rate * self.weight_decay * p.data
            p.data -= self.learning_rate * p.grad


class Adam:
    """Adaptive-moment optimizer with decoupled weight decay.

    The decay keeps logits moderate (calibrated probabilities) instead of
    letting small-corpus fits saturate every sigmoid.
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [(np.empty_like(p.data), np.empty_like(p.data)) for p in self.params]

    def step(self) -> None:
        """One update, in place. Per parameter it computes, with the same
        operand order (and so the same bits) as the plain expressions::

            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + ((1 - beta2) * g) * g
            p -= (lr * wd) * p                      # when weight_decay
            p -= (lr * (m / b1t)) / (sqrt(v / b2t) + eps)
        """
        _check_finite(self.params)
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        lr = self.learning_rate
        for p, m, v, (a, b) in zip(self.params, self.m, self.v, self._scratch):
            g = p.grad
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
            if self.weight_decay:
                np.multiply(p.data, lr * self.weight_decay, out=a)
                p.data -= a
            np.divide(v, b2t, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, b1t, out=b)
            b *= lr
            b /= a
            p.data -= b


def make_optimizer(
    params: Sequence[Tensor],
    kind: str = "adam",
    learning_rate: float = 1e-3,
    weight_decay: float = 0.0,
):
    if kind == "adam":
        return Adam(params, learning_rate=learning_rate, weight_decay=weight_decay)
    if kind == "sgd":
        return Sgd(params, learning_rate=learning_rate, weight_decay=weight_decay)
    raise ConfigurationError(f"unknown optimizer kind {kind!r}")


# -- gradient verification ----------------------------------------------------


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


# -- checkpoints --------------------------------------------------------------


class CheckpointError(NncoreError):
    """Unreadable or version-mismatched checkpoint file."""


def save_checkpoint(path, spec: MlpSpec, named: dict[str, Tensor], extra: dict | None = None) -> None:
    """Write a JSON checkpoint: spec plus named tensors in row-major order.

    Floats are serialized via repr and round-trip bit-exactly.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "spec": spec.to_dict(),
        "tensors": {
            name: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
            for name, t in named.items()
        },
    }
    if extra:
        payload["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> tuple[MlpSpec, dict[str, np.ndarray], dict]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a policy checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {payload.get('version')!r} unsupported "
            f"(expected {CHECKPOINT_VERSION!r})"
        )
    spec = MlpSpec.from_dict(payload["spec"])
    tensors = {
        name: np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in payload["tensors"].items()
    }
    return spec, tensors, payload.get("extra", {})
