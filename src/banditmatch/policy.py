"""Multi-label dialog policy on top of the compute core.

A policy maps an encoded dialog state to per-class probabilities over the
atomic-action vocabulary; the predicted action set is every class with
probability strictly above 0.5. A frozen clone of a trained policy serves
as the logging/reference policy and never receives gradient updates.
"""

from __future__ import annotations

import numpy as np

from . import nncore
from .dialogworld import WorldSchema

ROLE_TRAINABLE = "trainable"
ROLE_FROZEN = "frozen"


class PolicyError(Exception):
    pass


def predicted_mask(probs: np.ndarray) -> np.ndarray:
    """The predicted action set {c : p_c > 0.5} as a boolean mask."""
    return probs > 0.5


class PolicyNet:
    def __init__(self, spec: nncore.MlpSpec, rng: np.random.Generator | None = None,
                 role: str = ROLE_TRAINABLE):
        if role not in (ROLE_TRAINABLE, ROLE_FROZEN):
            raise PolicyError(f"unknown role {role!r}")
        self.net = nncore.Mlp(spec, rng=rng)
        self.role = role

    @property
    def spec(self) -> nncore.MlpSpec:
        return self.net.spec

    @property
    def num_actions(self) -> int:
        return self.net.spec.output_dim

    def parameters(self) -> list[nncore.Tensor]:
        return self.net.parameters()

    def trainable_parameters(self) -> list[nncore.Tensor]:
        if self.role == ROLE_FROZEN:
            raise PolicyError("frozen policy parameters must not be trained")
        return self.net.parameters()

    def probs(self, states: np.ndarray) -> np.ndarray:
        """Per-class probabilities, clamped inside (0, 1); no gradient graph."""
        return self.net.probs(states)

    def forward(self, states: np.ndarray) -> nncore.Tensor:
        """Differentiable forward pass for training."""
        return self.net.forward(states)

    def zero_grad(self) -> None:
        self.net.zero_grad()

    def clone_frozen(self) -> "PolicyNet":
        """Deep parameter copy with role=frozen; later training of the
        source leaves the clone bitwise unchanged."""
        clone = PolicyNet(self.spec, rng=None, role=ROLE_FROZEN)
        clone.net = self.net.copy()
        return clone

    def clone_trainable(self) -> "PolicyNet":
        clone = PolicyNet(self.spec, rng=None, role=ROLE_TRAINABLE)
        clone.net = self.net.copy()
        return clone

    def save(self, path) -> None:
        nncore.save_checkpoint(
            path, self.spec, self.net.named_parameters(), extra={"role": self.role}
        )

    @classmethod
    def load(cls, path) -> "PolicyNet":
        spec, tensors, extra = nncore.load_checkpoint(path)
        try:
            policy = cls(spec, rng=None, role=extra.get("role", ROLE_TRAINABLE))
        except PolicyError as err:
            raise PolicyError(f"{path}: {err}") from err
        named = policy.net.named_parameters()
        if set(named) != set(tensors):
            raise PolicyError(f"{path}: tensor names do not match the spec")
        for name, tensor in named.items():
            if tensor.data.shape != tensors[name].shape:
                raise PolicyError(f"{path}: tensor {name} has wrong shape")
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
