"""Span tracing of the package's layers, installed from outside the package.

The tracer replaces module attributes and class methods of ``banditmatch``
with wrappers that record a span per call (name, start, end, parent span,
unit id) and per-boundary counts, and puts every original back when it is
uninstalled. Nothing under ``src/`` knows it is being traced.

Self time of a span is its duration minus the durations of its child spans.
Calls on one thread nest, so children never overlap and the covered part is
the sum of their durations. Each traced unit runs under a root span whose
self time is the time spent outside every wrapped call, so the self times of
one unit add up to its wall time.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array
from dataclasses import dataclass

import numpy as np

from banditmatch import cli, datasets, dialogworld, fet, nncore, objectives, trainer
from banditmatch.policy import ActionSetPolicy, PolicyNet

PROTOCOL, WEAK_EVAL, CLI_PIPELINE = "protocol", "weak_eval", "cli_pipeline"
ALL = frozenset({PROTOCOL, WEAK_EVAL, CLI_PIPELINE})
TRAINING = frozenset({PROTOCOL, CLI_PIPELINE})
NONE = frozenset()

LAYERS = ("nncore", "objectives", "fet", "trainer", "policy", "dialogworld", "datasets", "cli")


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable: where it lives, which metric its self time feeds,
    and the workloads on which it must record at least one call."""

    owner: object
    attr: str
    time_metric: str
    required_on: frozenset = NONE
    count_metric: str | None = None

    @property
    def layer(self) -> str:
        return self.time_metric.split(".", 1)[0]

    @property
    def label(self) -> str:
        owner = getattr(self.owner, "__name__", repr(self.owner)).rsplit(".", 1)[-1]
        return f"{owner}.{self.attr}"


def _boundaries() -> list[Boundary]:
    B = Boundary
    dw = dialogworld
    loss_fns = ("loss_labeled", "loss_pseudo", "loss_bandit", "loss_kl_control",
                "loss_ips", "loss_banditnet", "total_loss")
    return [
        B(PolicyNet, "forward", "nncore.forward_s", TRAINING, "nncore.forward_calls"),
        B(nncore.Tensor, "backward", "nncore.backward_s", TRAINING),
        B(nncore.Adam, "step", "nncore.optim_s", TRAINING, "nncore.optim_steps"),
        # no workload trains with SGD; wrapped so an optimizer switch still shows
        B(nncore.Sgd, "step", "nncore.optim_s", NONE, "nncore.optim_steps"),
        B(PolicyNet, "probs", "nncore.probs_s", ALL, "nncore.probs_calls"),
        *(B(objectives, name, "objectives.loss_s", frozenset({PROTOCOL}),
            "objectives.loss_calls") for name in loss_fns),
        B(objectives, "mixup_batch", "objectives.mixup_s", TRAINING),
        B(objectives, "pseudo_labels", "objectives.mask_s", TRAINING),
        B(objectives, "unconfident_plus_mask", "objectives.mask_s", TRAINING),
        B(objectives, "fixmatch_mask", "objectives.mask_s", frozenset({PROTOCOL})),
        B(fet.FetTracker, "update", "fet.update_s", TRAINING, "fet.update_calls"),
        B(fet, "confidence_mask", "fet.confidence_mask_s", TRAINING),
        B(trainer, "train_on_log", "trainer.train_self_s", TRAINING),
        B(trainer, "train_supervised", "trainer.train_self_s", TRAINING),
        B(trainer, "evaluate", "trainer.evaluate_self_s", ALL),
        B(ActionSetPolicy, "act", "policy.act_s", ALL, "policy.act_calls"),
        # trainer and datasets bound these names at import: wrap every copy
        B(dw, "run_episode", "dialogworld.episode_self_s"),
        B(trainer, "run_episode", "dialogworld.episode_self_s", ALL),
        B(dw, "run_expert_episode", "dialogworld.episode_self_s"),
        B(trainer, "run_expert_episode", "dialogworld.episode_self_s"),
        B(datasets, "run_expert_episode", "dialogworld.episode_self_s",
          frozenset({CLI_PIPELINE})),
        B(dw, "sample_goal", "dialogworld.sample_goal_s"),
        B(trainer, "sample_goal", "dialogworld.sample_goal_s", ALL),
        B(datasets, "sample_goal", "dialogworld.sample_goal_s", frozenset({CLI_PIPELINE})),
        B(dw, "encode_state", "dialogworld.encode_state_s", ALL,
          "dialogworld.encode_state_calls"),
        B(dw, "db_matches", "dialogworld.db_matches_s", ALL, "dialogworld.db_matches_calls"),
        B(dw, "user_step", "dialogworld.user_step_s", ALL),
        B(dw, "apply_agent_actions", "dialogworld.apply_agent_actions_s", ALL),
        B(dw, "apply_user_acts", "dialogworld.apply_user_acts_s", ALL),
        B(dw, "expert_respond", "dialogworld.expert_respond_s", frozenset({CLI_PIPELINE})),
        B(datasets, "generate_corpus", "datasets.generate_corpus_s", frozenset({CLI_PIPELINE})),
        B(datasets, "log_bandit_data", "datasets.log_bandit_data_s", TRAINING),
        B(datasets, "write_labeled_jsonl", "datasets.write_s", frozenset({CLI_PIPELINE})),
        B(datasets, "write_bandit_jsonl", "datasets.write_s", frozenset({CLI_PIPELINE})),
        B(datasets, "read_labeled_jsonl", "datasets.read_s", frozenset({CLI_PIPELINE})),
        B(datasets, "read_bandit_jsonl", "datasets.read_s", frozenset({CLI_PIPELINE})),
        B(cli, "write_manifest", "cli.manifest_s", frozenset({CLI_PIPELINE})),
        B(cli, "main", "cli.command_self_s", frozenset({CLI_PIPELINE})),
    ]


BOUNDARIES = _boundaries()
TIME_METRICS = tuple(dict.fromkeys(b.time_metric for b in BOUNDARIES))
COUNT_METRICS = tuple(dict.fromkeys(b.count_metric for b in BOUNDARIES if b.count_metric))
# counts recorded by hooks rather than call counters
HOOK_COUNTS = ("dialogworld.turns", "trainer.steps", "nncore.tensor_nodes",
               "nncore.probs_rows", "fet.fallback_classes", "fet.classes",
               "datasets.write_bytes", "datasets.read_bytes", "datasets.records")
ROOT_SPAN = "unit"


class Tracer:
    """Installs the wrappers, records spans in memory and sums self times."""

    def __init__(self):
        self.names = [ROOT_SPAN] + [b.label for b in BOUNDARIES]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_unit = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts = dict.fromkeys(HOOK_COUNTS, 0)
        self.units: list[dict] = []  # per traced unit: wall, self times, calls, counts
        self._stack: list[list] = []
        self._train_depth = 0
        self.leftover_wrappers: list[str] = []  # attributes not restored after a unit

    # -- recording ---------------------------------------------------------------

    def _open(self, name_id: int, start: float) -> list:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_unit.append(len(self.units))
        self.span_start.append(start)
        self.span_end.append(start)
        frame = [index, start, 0.0]
        self._stack.append(frame)
        return frame

    def _wrap(self, original, name_id: int, post=None):
        stack = self._stack
        span_end = self.span_end
        self_time = self.self_time
        calls = self.calls
        clock = time.perf_counter
        open_span = self._open

        def traced(*args, **kwargs):
            frame = open_span(name_id, clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[frame[0]] = end
                duration = end - frame[1]
                self_time[name_id] += duration - frame[2]
                stack[-1][2] += duration
                calls[name_id] += 1
            if post is not None:
                post(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def unit(self):
        """Root span around one traced unit of a workload."""
        before = (list(self.self_time), list(self.calls), dict(self.counts))
        frame = self._open(0, time.perf_counter())
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.span_end[frame[0]] = end
            self.self_time[0] += end - frame[1] - frame[2]
            self.calls[0] += 1
            self.units.append({
                "wall": end - frame[1],
                "self": [a - b for a, b in zip(self.self_time, before[0])],
                "calls": [a - b for a, b in zip(self.calls, before[1])],
                "counts": {k: v - before[2][k] for k, v in self.counts.items()},
            })

    # -- hooks that turn call arguments and results into counts -------------------

    def _hooks(self) -> dict[str, object]:
        counts = self.counts

        def turns(args, episode):
            counts["dialogworld.turns"] += episode.turns

        def rows(args, probs):
            counts["nncore.probs_rows"] += 1 if np.ndim(probs) == 1 else len(probs)

        def fallback(args, thresholds):
            # accept and reject sides count separately: a class whose two
            # thresholds both fell back counts twice
            counts["fet.fallback_classes"] += int((~thresholds.valid_accept).sum()
                                                  + (~thresholds.valid_reject).sum())
            counts["fet.classes"] += 2 * len(thresholds.valid_accept)

        def wrote(args, _):
            counts["datasets.write_bytes"] += os.path.getsize(args[0])
            counts["datasets.records"] += len(args[1])

        def read(args, records):
            counts["datasets.read_bytes"] += os.path.getsize(args[0])
            counts["datasets.records"] += len(records)

        def optimizer_step(args, _):
            if self._train_depth:
                counts["trainer.steps"] += 1

        return {
            "trainer.run_episode": turns, "dialogworld.run_episode": turns,
            "PolicyNet.probs": rows, "FetTracker.update": fallback,
            "datasets.write_labeled_jsonl": wrote, "datasets.write_bandit_jsonl": wrote,
            "datasets.read_labeled_jsonl": read, "datasets.read_bandit_jsonl": read,
            "Adam.step": optimizer_step, "Sgd.step": optimizer_step,
        }

    def _training(self, original):
        def training(*args, **kwargs):
            self._train_depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                self._train_depth -= 1

        return training

    # -- install / uninstall -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore and
        check that every original is back in place."""
        hooks = self._hooks()
        counts = self.counts

        def count_nodes(init):
            def counting_init(tensor, *args, **kwargs):
                counts["nncore.tensor_nodes"] += 1
                init(tensor, *args, **kwargs)

            return counting_init

        targets = [(nncore.Tensor, "__init__", count_nodes)]
        for name_id, b in enumerate(BOUNDARIES, start=1):
            post = hooks.get(b.label)
            if b.attr in ("train_on_log", "train_supervised"):
                make = lambda f, i=name_id, p=post: self._wrap(self._training(f), i, p)
            else:
                make = lambda f, i=name_id, p=post: self._wrap(f, i, p)
            targets.append((b.owner, b.attr, make))
        replaced = []
        try:
            for owner, attr, make in targets:
                original = _current(owner, attr)
                replaced.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)
            self.leftover_wrappers += [
                f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in replaced if _current(owner, attr) is not original
            ]

    # -- results -------------------------------------------------------------------

    def calls_by_boundary(self) -> dict[str, int]:
        return {b.label: self.calls[i] for i, b in enumerate(BOUNDARIES, start=1)}

    def unit_exact_counts(self, unit: dict) -> dict[str, int]:
        """Counts of one traced unit that must repeat exactly for one seed."""
        c = unit["counts"]
        return {
            "dialogworld.turns": c["dialogworld.turns"],
            "dialogworld.db_matches_calls": unit["calls"][self.names.index("dialogworld.db_matches")],
            "trainer.steps": c["trainer.steps"],
            "nncore.tensor_nodes": c["nncore.tensor_nodes"],
            "datasets.records": c["datasets.records"],
            "datasets.write_bytes": c["datasets.write_bytes"],
            "datasets.read_bytes": c["datasets.read_bytes"],
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics as means per traced unit, so the times still add up:
        the layer.* self times plus trace.outside_s equal trace.wall_s."""
        n = len(self.units)
        out: dict[str, float] = dict.fromkeys(TIME_METRICS, 0.0)
        out.update(dict.fromkeys(COUNT_METRICS, 0.0))
        layer_time = dict.fromkeys(LAYERS, 0.0)
        for name_id, b in enumerate(BOUNDARIES, start=1):
            out[b.time_metric] += self.self_time[name_id] / n
            layer_time[b.layer] += self.self_time[name_id] / n
            if b.count_metric:
                out[b.count_metric] += self.calls[name_id] / n
        c = {k: v / n for k, v in self.counts.items()}

        def ratio(a, b):
            return a / b if b else 0.0

        out["nncore.tensor_nodes_per_step"] = ratio(c["nncore.tensor_nodes"], out["nncore.optim_steps"])
        out["nncore.probs_rows_per_call"] = ratio(c["nncore.probs_rows"], out["nncore.probs_calls"])
        out["fet.fallback_class_frac"] = ratio(c["fet.fallback_classes"], c["fet.classes"])
        for key in ("dialogworld.turns", "trainer.steps", "datasets.write_bytes",
                    "datasets.read_bytes", "datasets.records"):
            out[key] = c[key]
        for layer in LAYERS:
            out[f"layer.{layer}_self_s"] = layer_time[layer]
        out["trace.outside_s"] = self.self_time[0] / n
        out["trace.wall_s"] = sum(u["wall"] for u in self.units) / n
        return out

    def save_spans(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            unit=np.frombuffer(self.span_unit, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _current(owner, attr: str):
    """The attribute as stored, without binding methods of a class."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
