"""Minimal reverse-mode autodiff graph and optimizers for the policy network.

Everything runs on float64 numpy arrays. The graph has three kinds of
node: ``fused`` nodes with a caller-supplied backward (every forward pass
and loss term), ``add``, with which the package sums its loss terms, and
``mul``, which stays for the Tensor arithmetic of the op-level oracle. No
general broadcasting beyond bias rows and scalars.

Gradient conventions:
  * ``Tensor.backward()`` accumulates into ``grad``; callers zero grads
    between steps (repeated backward without zeroing adds up).
  * A node's ``_backward(g)`` receives the node's own gradient and holds
    no reference to the node, so a graph is freed as soon as its last
    outside reference goes (no reference cycles, no wait for the cyclic
    collector).

Fused nodes: the training hot path (``PolicyNet.forward`` and every loss in
``objectives``) builds one ``fused`` node per forward pass or loss term
instead of one node per op. A fused node must reproduce the op-level graph
bit for bit: its value uses the op-level forward's expressions in the same
order, and its backward makes the same ``_accumulate`` calls, with the same
expressions, in the op graph's reverse-topological order. Float addition is
not associative, so contributions to a shared parent are never pre-summed.
The op-level ops (``log``, ``sigmoid``, ``matmul`` and the rest) live in
``tests/oplevel_reference.py`` as the gradient oracle: tests rebuild each
fused node from them and require equal bits.

Optimizers: ``Adam`` updates in place and ``Sgd`` is plain gradient descent
for hand-checkable tests; both refuse a missing or non-finite gradient.

``LOGIT_CLAMP`` is the logit clamp of ``policy.PolicyNet``'s probability
head, which documents it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

LOGIT_CLAMP = 15.0


class NncoreError(Exception):
    """Base error for the compute core."""


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
        """Set ``grad`` to zeros: filled in place once it exists, so a training
        loop keeps one gradient array per parameter from step to step."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

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

    def __init__(self, params: Sequence[Tensor], learning_rate: float = 0.1):
        self.params = list(params)
        self.learning_rate = float(learning_rate)

    def step(self) -> None:
        _check_finite(self.params)
        for p in self.params:
            p.data -= self.learning_rate * p.grad


class Adam:
    """Adaptive-moment optimizer. Besides the two moments of each parameter it
    keeps one scratch pair, two buffers the size of its largest parameter,
    which every parameter's update uses through a view of its own shape."""

    # the moments' decay rates and the denominator's floor
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[Tensor], learning_rate: float = 1e-3):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        size = max((p.data.size for p in self.params), default=0)
        pair = (np.empty(size), np.empty(size))
        self._scratch = [tuple(buf[: p.data.size].reshape(p.shape) for buf in pair)
                         for p in self.params]

    def step(self) -> None:
        """One update, in place. Per parameter it computes, with the same
        operand order (and so the same bits) as the plain expressions::

            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + ((1 - beta2) * g) * g
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
            np.divide(v, b2t, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, b1t, out=b)
            b *= lr
            b /= a
            p.data -= b
