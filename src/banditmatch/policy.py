"""Multi-label dialog policy on top of the compute core.

A policy maps an encoded dialog state to per-class probabilities over the
atomic-action vocabulary; the predicted action set is every class with
probability strictly above 0.5. A frozen clone of a trained policy serves
as the logging/reference policy and never receives gradient updates.
"""

from __future__ import annotations

import math

import numpy as np

from . import nncore
from .nncore import LOGIT_CLAMP
from .dialogworld import WorldSchema

ROLE_TRAINABLE = "trainable"
ROLE_FROZEN = "frozen"


class PolicyError(Exception):
    pass


def predicted_mask(probs: np.ndarray) -> np.ndarray:
    """The predicted action set {c : p_c > 0.5} as a boolean mask."""
    return probs > 0.5


class PolicyNet:
    """Fully connected relu network with a clamped-sigmoid multi-label head."""

    def __init__(self, spec: nncore.MlpSpec, rng: np.random.Generator | None = None,
                 role: str = ROLE_TRAINABLE):
        if role not in (ROLE_TRAINABLE, ROLE_FROZEN):
            raise PolicyError(f"unknown role {role!r}")
        self.spec = spec
        self.role = role
        dims = (spec.input_dim, *spec.hidden_dims, spec.output_dim)
        self.weights: list[nncore.Tensor] = []
        self.biases: list[nncore.Tensor] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            if rng is None:
                w = np.zeros((fan_in, fan_out))
            else:
                w = rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in)
            self.weights.append(nncore.Tensor(w, requires_grad=True))
            self.biases.append(nncore.Tensor(np.zeros(fan_out), requires_grad=True))

    @property
    def num_actions(self) -> int:
        return self.spec.output_dim

    def parameters(self) -> list[nncore.Tensor]:
        params: list[nncore.Tensor] = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        return params

    def named_parameters(self) -> dict[str, nncore.Tensor]:
        named = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            named[f"w{i}"] = w
            named[f"b{i}"] = b
        return named

    def trainable_parameters(self) -> list[nncore.Tensor]:
        if self.role == ROLE_FROZEN:
            raise PolicyError("frozen policy parameters must not be trained")
        return self.parameters()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def _layers(self, states) -> tuple[list[np.ndarray], np.ndarray, bool]:
        """Layer inputs (the states, then each hidden activation), the
        unclamped output logits, and whether the states were a single row."""
        x = np.asarray(states, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise nncore.ConfigurationError(
                f"state dim {x.shape} incompatible with input_dim={self.spec.input_dim}"
            )
        inputs = [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.data + b.data
            if i < len(self.weights) - 1:
                h = np.maximum(h, 0.0)
                inputs.append(h)
        return inputs, h, squeeze

    def forward(self, states: np.ndarray) -> nncore.Tensor:
        """Class probabilities, each strictly inside (0, 1), as one graph node.

        Always 2-d (a single state gives one row). The backward replays the
        op chain matmul, bias add, relu, clip, sigmoid layer by layer.
        """
        inputs, z, _ = self._layers(states)
        s = 1.0 / (1.0 + np.exp(-np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)))
        weights, biases = self.weights, self.biases

        def backward(g: np.ndarray) -> None:
            inside = (z >= -LOGIT_CLAMP) & (z <= LOGIT_CLAMP)
            dz = g * s * (1.0 - s) * inside
            for i in range(len(weights) - 1, -1, -1):
                h = inputs[i]
                weights[i]._accumulate(h.T @ dz)
                biases[i]._accumulate(dz)
                if i:
                    dz = (dz @ weights[i].data.T) * (h > 0.0)

        return nncore.fused(s, self.parameters(), backward)

    def probs(self, states: np.ndarray) -> np.ndarray:
        """Per-class probabilities, clamped inside (0, 1); no gradient graph."""
        _, z, squeeze = self._layers(states)
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)))
        return p[0] if squeeze else p

    def _clone(self, role: str) -> "PolicyNet":
        clone = PolicyNet(self.spec, rng=None, role=role)
        for dst, src in zip(clone.parameters(), self.parameters()):
            dst.data = src.data.copy()
        return clone

    def clone_frozen(self) -> "PolicyNet":
        """Deep parameter copy with role=frozen; later training of the
        source leaves the clone bitwise unchanged."""
        return self._clone(ROLE_FROZEN)

    def clone_trainable(self) -> "PolicyNet":
        return self._clone(ROLE_TRAINABLE)

    def save(self, path) -> None:
        nncore.save_checkpoint(path, self.spec, self.named_parameters(), extra={"role": self.role})

    @classmethod
    def load(cls, path) -> "PolicyNet":
        spec, tensors, extra = nncore.load_checkpoint(path)
        # shapes are checked before the network is built, so a spec with huge
        # dims fails here rather than in the allocation of its zero layers
        dims = (spec.input_dim, *spec.hidden_dims, spec.output_dim)
        shapes = {}
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            shapes[f"w{i}"], shapes[f"b{i}"] = (fan_in, fan_out), (fan_out,)
        if set(shapes) != set(tensors):
            raise PolicyError(f"{path}: tensor names do not match the spec")
        for name, shape in shapes.items():
            if tensors[name].shape != shape:
                raise PolicyError(f"{path}: tensor {name} has wrong shape")
        try:
            policy = cls(spec, rng=None, role=extra.get("role", ROLE_TRAINABLE))
        except PolicyError as err:
            raise PolicyError(f"{path}: {err}") from err
        for name, tensor in policy.named_parameters().items():
            tensor.data = tensors[name]
        return policy


class ActionSetPolicy:
    """Adapter: evaluates a PolicyNet inside the dialog world.

    The adapter keeps the turn it computed for every state it has seen,
    keyed by the state's bytes, and asks the policy only about a state it
    has not seen. So an adapter answers for its policy's parameters as they
    were when it first saw a state: build one per evaluation, and a new one
    whenever the parameters change. Each call returns a fresh list, so a
    caller that edits a turn does not change a later answer.
    """

    def __init__(self, policy: PolicyNet, schema: WorldSchema):
        if policy.num_actions != schema.num_actions:
            raise PolicyError(
                f"policy emits {policy.num_actions} classes, world has {schema.num_actions}"
            )
        self.policy = policy
        self.schema = schema
        self._turns: dict[bytes, tuple[int, ...]] = {}

    def act(self, state: np.ndarray) -> list[int]:
        """The predicted action set of one state as an agent turn: action
        indices in the schema's application order."""
        key = state.tobytes()
        turn = self._turns.get(key)
        if turn is None:
            order = self.schema.application_order
            mask = predicted_mask(self.policy.probs(state))
            turn = self._turns[key] = tuple(order[mask[order]].tolist())
        return list(turn)


def policy_spec_for(schema: WorldSchema, hidden_dims: tuple[int, ...] = (128, 128)) -> nncore.MlpSpec:
    return nncore.MlpSpec(
        input_dim=schema.state_dim,
        hidden_dims=hidden_dims,
        output_dim=schema.num_actions,
    )
