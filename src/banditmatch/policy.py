"""Multi-label dialog policy on top of the compute core.

A policy maps an encoded dialog state to per-class probabilities over the
atomic-action vocabulary; the predicted action set is every class with
probability strictly above 0.5. A frozen clone of a trained policy serves
as the logging policy and never receives gradient updates; what it gives
each pool state is logged as that row's ``rho``, which fine-tuning's KL
control reads as its reference. This module owns the network spec and the
checkpoint format (FORMATS.md).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import nncore
from .nncore import LOGIT_CLAMP
from .dialogworld import WorldSchema

ROLE_TRAINABLE = "trainable"
ROLE_FROZEN = "frozen"

CHECKPOINT_FORMAT = "banditmatch-checkpoint"
CHECKPOINT_VERSION = "v1"
# the only hidden activation, which checkpoints name
HIDDEN_ACTIVATION = "relu"
# rows per ``probs`` call of ``PolicyNet.probs_in_blocks``
PROBS_BLOCK = 256


class PolicyError(Exception):
    pass


class ConfigurationError(PolicyError):
    """Shape or spec mismatch when building/running a network."""


class CheckpointError(PolicyError):
    """Unreadable or malformed checkpoint file."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint names a version this reader does not support."""


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of a multi-label policy head: relu hidden layers and
    per-class sigmoid outputs."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (128, 128)
    output_dim: int = 1

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(int(d) <= 0 for d in dims):
            raise ConfigurationError(f"all layer dims must be positive, got {dims}")
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))

    def layers(self) -> list[tuple[int, int]]:
        """``(fan_in, fan_out)`` of each layer, input layer first."""
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        return list(zip(dims[:-1], dims[1:]))

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_dims": list(self.hidden_dims),
            "output_dim": self.output_dim,
            "hidden_activation": HIDDEN_ACTIVATION,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        """The spec a checkpoint names. Every dim must be a JSON integer and
        ``hidden_dims`` a list: a float, bool or string would be coerced."""
        if d["hidden_activation"] != HIDDEN_ACTIVATION:
            raise ConfigurationError(f"unknown hidden activation {d['hidden_activation']!r}")
        if not isinstance(d["hidden_dims"], list):
            raise ConfigurationError("hidden_dims must be a list")
        dims = [d["input_dim"], *d["hidden_dims"], d["output_dim"]]
        if not all(type(x) is int for x in dims):
            raise ConfigurationError(f"layer dims must be integers, got {json.dumps(dims)}")
        return cls(d["input_dim"], tuple(d["hidden_dims"]), d["output_dim"])


def _clamped_sigmoid(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)))``, with the same
    bits, computed in place in ``z`` and returned. The clamp is a maximum and
    a minimum, which is what ``np.clip`` computes, without its Python-level
    argument handling."""
    np.maximum(z, -LOGIT_CLAMP, out=z)
    np.minimum(z, LOGIT_CLAMP, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def predicted_mask(probs: np.ndarray) -> np.ndarray:
    """The predicted action set {c : p_c > 0.5} as a boolean mask."""
    return probs > 0.5


class PolicyNet:
    """Fully connected relu network with a clamped-sigmoid multi-label head.

    Probabilities are the sigmoid of logits clamped to
    ``[-LOGIT_CLAMP, +LOGIT_CLAMP]``, which bounds every class probability
    away from 0 and 1 so all downstream logs stay finite."""

    def __init__(self, spec: MlpSpec, rng: np.random.Generator | None = None,
                 role: str = ROLE_TRAINABLE):
        if role not in (ROLE_TRAINABLE, ROLE_FROZEN):
            raise PolicyError(f"unknown role {role!r}")
        self.spec = spec
        self.role = role
        self.weights: list[nncore.Tensor] = []
        self.biases: list[nncore.Tensor] = []
        for fan_in, fan_out in spec.layers():
            try:
                if rng is None:
                    w = np.zeros((fan_in, fan_out))
                else:
                    w = rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in)
                b = np.zeros(fan_out)
            except (MemoryError, ValueError) as err:
                # numpy raises ValueError for a shape past its maximum array size
                raise PolicyError(f"cannot allocate a {fan_in} x {fan_out} layer ({err})") from err
            self.weights.append(nncore.Tensor(w, requires_grad=True))
            self.biases.append(nncore.Tensor(b, requires_grad=True))

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

    def _layers(self, states) -> tuple[list[np.ndarray], np.ndarray]:
        """Layer inputs (the states, then each hidden activation) and the
        unclamped output logits of one state ``(D,)``, an ``(n, D)`` batch or
        an ``(n, 1, D)`` stack, all by one path. A single state stays 1-d: its
        products are gemv calls, and so is each row of a stack, so a state
        has the bits of its row of a stack. Bias adds and relus run in place."""
        x = np.asarray(states, dtype=np.float64)
        if x.shape[-1:] != (self.spec.input_dim,) or x.shape[1:-1] not in ((), (1,)):
            raise ConfigurationError(
                f"state dim {x.shape} incompatible with input_dim={self.spec.input_dim}"
            )
        inputs = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.data
            h += b.data
            if i < last:
                np.maximum(h, 0.0, out=h)
                inputs.append(h)
        return inputs, h

    def forward(self, states: np.ndarray) -> nncore.Tensor:
        """Class probabilities, each strictly inside (0, 1), as one graph node.

        Always 2-d: ``_layers`` keeps a single state 1-d, and its result is
        lifted to one row. The backward replays the op chain matmul, bias
        add, relu, clip, sigmoid layer by layer, and stops at the first layer
        whose gradient is zero everywhere: what it would add to each
        parameter gradient below is ±0, which leaves a gradient that starts
        at +0 (``zero_grad``, or a gradient not yet made) bitwise unchanged.
        """
        inputs, z = self._layers(states)
        if z.ndim == 1:
            inputs, z = [h[None, :] for h in inputs], z[None, :]
        s = _clamped_sigmoid(z.copy())
        weights, biases = self.weights, self.biases

        def backward(g: np.ndarray) -> None:
            inside = (z >= -LOGIT_CLAMP) & (z <= LOGIT_CLAMP)
            dz = g * s * (1.0 - s) * inside
            for i in range(len(weights) - 1, -1, -1):
                if not dz.any():
                    for p in (*weights[: i + 1], *biases[: i + 1]):
                        if p.grad is None:
                            p.zero_grad()
                    return
                h = inputs[i]
                weights[i]._accumulate(h.T @ dz)
                biases[i]._accumulate(dz)
                if i:
                    dz = (dz @ weights[i].data.T) * (h > 0.0)

        return nncore.fused(s, self.parameters(), backward)

    def probs(self, states: np.ndarray) -> np.ndarray:
        """Per-class probabilities, clamped inside (0, 1); no gradient graph.
        The shape follows ``_layers``: a single state gives ``(C,)`` and an
        ``(n, 1, D)`` stack ``(n, 1, C)``, each row by its own gemv, with the
        bits of ``probs`` on that row alone. The clamp and sigmoid run in
        place on the logits."""
        return _clamped_sigmoid(self._layers(states)[1])

    def probs_in_blocks(self, states: np.ndarray) -> np.ndarray:
        """``probs`` of each row of the (n, D) ``states`` as one (n, C) array,
        each row with the bits of ``probs(row)``: every ``PROBS_BLOCK`` rows
        are one call on their ``(k, 1, D)`` stack, so no float64 copy of all
        the states is held."""
        probs = np.empty((len(states), self.num_actions))
        for start in range(0, len(states), PROBS_BLOCK):
            block = states[start : start + PROBS_BLOCK]
            probs[start : start + len(block)] = self.probs(block[:, None])[:, 0]
        return probs

    def all_logits_clamped(self, states: np.ndarray, rows: np.ndarray | None = None) -> bool:
        """Whether every logit on the ``rows`` of ``states`` (all of them by
        default) lies outside ``±LOGIT_CLAMP``, where the clamped sigmoid
        passes no gradient (``forward``), so training can never move the
        policy again. The blocks grow from one row to ``PROBS_BLOCK``: a
        policy that can still learn is told apart on its first rows."""
        n = len(states) if rows is None else len(rows)
        start, stop = 0, 1
        while start < n:
            block = states[start:stop] if rows is None else states[rows[start:stop]]
            # a logit that overflows is outside too
            with np.errstate(over="ignore", invalid="ignore"):
                if (np.abs(self._layers(block)[1]) <= LOGIT_CLAMP).any():
                    return False
            start, stop = stop, stop + min(2 * (stop - start), PROBS_BLOCK)
        return True

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
        """Write the JSON checkpoint: the spec, each tensor's shape and
        row-major values, and the role. Floats go through repr, so they
        reload bit for bit."""
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "spec": self.spec.to_dict(),
            "tensors": {
                name: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
                for name, t in self.named_parameters().items()
            },
            "extra": {"role": self.role},
        }
        # one dumps, not dump: dump streams through json's pure-Python encoder
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))

    @classmethod
    def load(cls, path) -> "PolicyNet":
        """Read a checkpoint. Each tensor's name and shape come from the spec,
        before any layer is allocated, so a spec with huge dims fails on its
        first tensor. A ``shape`` must be a list of JSON integers equal to
        the spec's, and ``values`` a flat list of finite JSON numbers: a
        string, bool or nested entry would be coerced."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as err:
                raise CheckpointError(f"{path}: malformed JSON ({err})") from err
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"{path}: not a policy checkpoint")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"{path}: checkpoint version {payload.get('version')!r} unsupported "
                f"(expected {CHECKPOINT_VERSION!r})"
            )
        try:
            spec = MlpSpec.from_dict(payload["spec"])
            shapes = {}
            for i, (fan_in, fan_out) in enumerate(spec.layers()):
                shapes[f"w{i}"], shapes[f"b{i}"] = [fan_in, fan_out], [fan_out]
            entries = payload["tensors"]
            if not isinstance(entries, dict) or entries.keys() != shapes.keys():
                raise CheckpointError(f"{path}: tensor names do not match the spec")
            arrays = {}
            for name, shape in shapes.items():
                entry = entries[name]
                if entry["shape"] != shape or not all(type(n) is int for n in entry["shape"]):
                    raise CheckpointError(f"{path}: tensor {name} has wrong shape")
                values = entry["values"]
                if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
                    raise ValueError(f"tensor {name} values must be a flat list of numbers")
                arrays[name] = np.array(values, dtype=np.float64).reshape(shape)
                if not np.isfinite(arrays[name]).all():
                    raise CheckpointError(f"{path}: tensor values must be finite")
        except KeyError as err:
            raise CheckpointError(f"{path}: missing field {err}") from err
        except (TypeError, ValueError, OverflowError, ConfigurationError) as err:
            raise CheckpointError(f"{path}: malformed field value ({err})") from err
        extra = payload.get("extra", {})
        if not isinstance(extra, dict):
            raise CheckpointError(f"{path}: extra must be an object")
        try:
            policy = cls(spec, rng=None, role=extra.get("role", ROLE_TRAINABLE))
        except PolicyError as err:
            raise PolicyError(f"{path}: {err}") from err
        for name, tensor in policy.named_parameters().items():
            tensor.data = arrays[name]
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


def policy_spec_for(schema: WorldSchema, hidden_dims: tuple[int, ...] = (128, 128)) -> MlpSpec:
    return MlpSpec(
        input_dim=schema.state_dim,
        hidden_dims=hidden_dims,
        output_dim=schema.num_actions,
    )
