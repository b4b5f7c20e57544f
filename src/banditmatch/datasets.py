"""Corpus generation, labeled/bandit splitting, and feedback logging.

The logged-feedback pipeline: expert rollouts produce a labeled corpus of
(state, action set) pairs; a fraction p becomes the supervised split and
the rest is replayed through a frozen logging policy, recording its
thresholded action set, the full per-class probability vector, and binary
user feedback (1 iff the predicted set equals the expert set exactly).

Persistence is JSON-lines with a one-object header line carrying the
schema version; floats round-trip at full precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dialogworld import WorldSchema, run_expert_episode, sample_goal
from .seeding import derive_rng

JSONL_VERSION = "v1"
KIND_LABELED = "labeled"
KIND_BANDIT = "bandit"


class DataError(Exception):
    pass


class DataVersionError(DataError):
    """A JSONL header names a schema version this reader does not support."""


@dataclass
class LabeledExample:
    state: np.ndarray
    actions: np.ndarray  # sorted atomic-action indices, non-empty

    def action_set(self) -> set[int]:
        return set(int(a) for a in self.actions)


@dataclass
class BanditRecord:
    state: np.ndarray
    logged_actions: np.ndarray  # sorted indices of the logged set (may be empty)
    propensities: np.ndarray  # full length-C probability vector at logging time
    feedback: int  # 0 or 1

    def logged_set(self) -> set[int]:
        return set(int(a) for a in self.logged_actions)


@dataclass
class SplitConfig:
    labeled_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.labeled_fraction <= 1.0:
            raise DataError(
                f"labeled_fraction must be in (0, 1], got {self.labeled_fraction}"
            )


def generate_corpus(schema: WorldSchema, n_dialogs: int, seed: int) -> list[LabeledExample]:
    """One LabeledExample per expert turn over n_dialogs rollouts."""
    if n_dialogs <= 0:
        raise DataError(f"n_dialogs must be positive, got {n_dialogs}")
    rng = derive_rng(seed, "corpus")
    corpus: list[LabeledExample] = []
    for _ in range(n_dialogs):
        goal = sample_goal(schema, rng)
        pairs: list = []
        run_expert_episode(schema, goal, collect=pairs)
        for state, actions in pairs:
            idx = np.array(sorted(schema.action_index(a) for a in actions), dtype=np.int64)
            corpus.append(LabeledExample(state=state, actions=idx))
    return corpus


def split_corpus(
    corpus: list[LabeledExample], cfg: SplitConfig
) -> tuple[list[LabeledExample], list[LabeledExample]]:
    """Partition into (labeled split, bandit pool); round-half-up sizing."""
    n = len(corpus)
    n_labeled = int(np.floor(cfg.labeled_fraction * n + 0.5))
    order = derive_rng(cfg.seed, "split").permutation(n)
    labeled = [corpus[i] for i in order[:n_labeled]]
    pool = [corpus[i] for i in order[n_labeled:]]
    return labeled, pool


def predict_set(policy, state: np.ndarray) -> tuple[set[int], np.ndarray]:
    """Thresholded action set {c : p_c > 0.5} plus the full propensity vector."""
    probs = policy.probs(state)
    return set(np.flatnonzero(probs > 0.5).tolist()), probs


def simulate_feedback(predicted: set[int], truth: set[int]) -> int:
    """Binary feedback: 1 iff the prediction matches the ground truth exactly."""
    return 1 if predicted == truth else 0


def log_bandit_data(logging_policy, pool: list[LabeledExample]) -> list[BanditRecord]:
    """Replay the pool through the frozen logging policy, one record each."""
    records = []
    for ex in pool:
        pred, rho = predict_set(logging_policy, ex.state)
        delta = simulate_feedback(pred, ex.action_set())
        records.append(
            BanditRecord(
                state=ex.state,
                logged_actions=np.array(sorted(pred), dtype=np.int64),
                propensities=rho,
                feedback=delta,
            )
        )
    return records


# -- persistence ----------------------------------------------------------------


def _header(kind: str) -> dict:
    return {"schema_version": JSONL_VERSION, "record": kind}


def write_labeled_jsonl(path, corpus: list[LabeledExample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header(KIND_LABELED)) + "\n")
        for ex in corpus:
            fh.write(
                json.dumps({"state": ex.state.tolist(), "actions": ex.actions.tolist()})
                + "\n"
            )


def write_bandit_jsonl(path, records: list[BanditRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header(KIND_BANDIT)) + "\n")
        for rec in records:
            row = {
                "state": rec.state.tolist(),
                "actions": rec.logged_actions.tolist(),
                "rho": rec.propensities.tolist(),
                "delta": int(rec.feedback),
            }
            fh.write(json.dumps(row) + "\n")


def _read_lines(path, kind: str):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataError(f"{path}:{lineno}: malformed JSON line ({err.msg})") from err
            if lineno == 1:
                version = obj.get("schema_version")
                if version != JSONL_VERSION:
                    raise DataVersionError(
                        f"{path}:1: schema version {version!r} unsupported "
                        f"(expected {JSONL_VERSION!r})"
                    )
                if obj.get("record") != kind:
                    raise DataError(
                        f"{path}:1: expected a {kind!r} file, found {obj.get('record')!r}"
                    )
                continue
            yield lineno, obj


def read_labeled_jsonl(path) -> list[LabeledExample]:
    corpus = []
    for lineno, obj in _read_lines(path, KIND_LABELED):
        try:
            corpus.append(
                LabeledExample(
                    state=np.array(obj["state"], dtype=np.float64),
                    actions=np.array(obj["actions"], dtype=np.int64),
                )
            )
        except KeyError as err:
            raise DataError(f"{path}:{lineno}: missing field {err}") from err
    return corpus


def read_bandit_jsonl(path) -> list[BanditRecord]:
    """Read a bandit log and enforce the FORMATS.md record contract."""
    records = []
    linenos = []
    deltas = []
    for lineno, obj in _read_lines(path, KIND_BANDIT):
        try:
            deltas.append(float(obj["delta"]))
            records.append(
                BanditRecord(
                    state=np.array(obj["state"], dtype=np.float64),
                    logged_actions=np.array(obj["actions"], dtype=np.int64),
                    propensities=np.array(obj["rho"], dtype=np.float64),
                    feedback=int(obj["delta"]),
                )
            )
        except KeyError as err:
            raise DataError(f"{path}:{lineno}: missing field {err}") from err
        except (TypeError, ValueError) as err:
            raise DataError(f"{path}:{lineno}: malformed field value ({err})") from err
        linenos.append(lineno)
    if records:
        _check_bandit_records(path, records, linenos, np.array(deltas))
    return records


def _check_bandit_records(path, records: list[BanditRecord], linenos: list[int],
                          delta: np.ndarray) -> None:
    """One pass over the stacked log: equal state and rho lengths, delta in
    {0, 1}, rho strictly inside (0, 1), actions == {c : rho[c] > 0.5}."""

    def fail(i: int, message: str):
        raise DataError(f"{path}:{linenos[i]}: {message}")

    first = records[0]
    for i, r in enumerate(records):
        if r.state.ndim != 1 or r.state.shape != first.state.shape:
            fail(i, f"state has {r.state.size} entries, line {linenos[0]} has {first.state.size}")
        if r.propensities.ndim != 1 or r.propensities.shape != first.propensities.shape:
            fail(i, f"rho has {r.propensities.size} entries, "
                    f"line {linenos[0]} has {first.propensities.size}")
    bad = np.flatnonzero((delta != 0.0) & (delta != 1.0))
    if bad.size:
        fail(bad[0], f"delta must be 0 or 1, got {delta[bad[0]]:g}")
    rho = np.stack([r.propensities for r in records])
    bad = np.flatnonzero(~((rho > 0.0) & (rho < 1.0)).all(axis=1))
    if bad.size:
        fail(bad[0], "rho must lie strictly inside (0, 1)")
    n, num_classes = rho.shape
    sizes = np.array([r.logged_actions.size for r in records])
    actions = np.concatenate([r.logged_actions.reshape(-1) for r in records])
    rows = np.repeat(np.arange(n), sizes)
    in_range = (actions >= 0) & (actions < num_classes)
    logged = np.zeros((n, num_classes), dtype=bool)
    logged[rows[in_range], actions[in_range]] = True
    mismatch = (logged != (rho > 0.5)).any(axis=1)
    mismatch[rows[~in_range]] = True
    bad = np.flatnonzero(mismatch)
    if bad.size:
        i = bad[0]
        fail(i, f"actions {records[i].logged_actions.tolist()} differ from "
                f"{{c : rho[c] > 0.5}} = {np.flatnonzero(rho[i] > 0.5).tolist()}")
