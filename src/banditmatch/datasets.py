"""Corpus generation, labeled/bandit splitting, and feedback logging.

The logged-feedback pipeline: expert rollouts produce a labeled corpus of
(state, action set) pairs; a fraction p becomes the supervised split and
the rest is replayed through a frozen logging policy, recording its
thresholded action set, the full per-class probability vector, and binary
user feedback (1 iff the predicted set equals the expert set exactly).

This module owns the bandit log in memory and on disk: a ``BanditLog``
holds one array per field, from logging through the files to training.

Persistence is JSON-lines with a one-object header line carrying the
schema version; floats round-trip at full precision. The binary state
vectors are written and read as fixed-width ``0.0``/``1.0`` text, a block
of records per numpy pass (FORMATS.md gives the line layout), and held in
memory as ``uint8``, one byte per entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import fet
from .dialogworld import WorldSchema, run_expert_episode, sample_goal
from .policy import predicted_mask
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
    state: np.ndarray  # uint8 0/1 entries
    actions: np.ndarray  # sorted atomic-action indices, non-empty


@dataclass
class BanditRecord:  # one row of a BanditLog
    state: np.ndarray  # uint8 0/1 entries
    logged_actions: np.ndarray  # sorted indices of the logged set (empty only if feedback is 0)
    propensities: np.ndarray  # full length-C probability vector at logging time
    feedback: int  # 0 or 1


@dataclass
class BanditLog:
    """The bandit log, one array per field with a row per record: the
    (x, y, delta, p) table. ``log[i]``, and so iteration, gives a row as a
    ``BanditRecord`` whose arrays are views into the log."""

    states: np.ndarray  # (n, D) uint8 0/1 entries
    logged_mask: np.ndarray  # (n, C) bool, the logged sets
    rho: np.ndarray  # (n, C) float64 propensities at logging time
    delta: np.ndarray  # (n,) int64 feedback, 0 or 1

    def take(self, idx: np.ndarray) -> "BanditLog":
        return BanditLog(self.states[idx], self.logged_mask[idx], self.rho[idx], self.delta[idx])

    def __len__(self) -> int:
        return len(self.delta)

    def __getitem__(self, i: int) -> BanditRecord:
        return BanditRecord(self.states[i], np.flatnonzero(self.logged_mask[i]), self.rho[i],
                            int(self.delta[i]))


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
            idx = np.array(sorted(actions), dtype=np.int64)
            corpus.append(LabeledExample(state=state, actions=idx))
    return corpus


def labeled_size(n: int, fraction: float) -> int:
    """Size of the labeled split of ``n`` examples: ``fraction * n`` rounded half up."""
    return int(np.floor(fraction * n + 0.5))


def split_corpus(
    corpus: list[LabeledExample], cfg: SplitConfig
) -> tuple[list[LabeledExample], list[LabeledExample]]:
    """Partition into (labeled split, bandit pool) of ``labeled_size`` and the rest."""
    n = len(corpus)
    n_labeled = labeled_size(n, cfg.labeled_fraction)
    order = derive_rng(cfg.seed, "split").permutation(n)
    labeled = [corpus[i] for i in order[:n_labeled]]
    pool = [corpus[i] for i in order[n_labeled:]]
    return labeled, pool


def simulate_feedback(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Binary feedback per row of two boolean set masks: 1 iff they are equal."""
    return (predicted == truth).all(axis=-1).astype(np.int64)


def log_bandit_data(logging_policy, pool: list[LabeledExample]) -> BanditLog:
    """Replay the pool through the frozen logging policy: a log row per
    example, with the policy's probabilities, its predicted set and the
    feedback on that set. Each row gets the bits of ``logging_policy.probs``
    on its own state, from one call per block of states."""
    states = _binary_states([ex.state for ex in pool])
    rho = logging_policy.probs_in_blocks(states, rowwise=True)
    logged = predicted_mask(rho)
    truth = fet.sets_to_mask([ex.actions for ex in pool], rho.shape[1])
    return BanditLog(states, logged, rho, simulate_feedback(logged, truth))


# -- persistence ----------------------------------------------------------------


def _header(kind: str) -> dict:
    return {"schema_version": JSONL_VERSION, "record": kind}


def write_labeled_jsonl(path, corpus: list[LabeledExample]) -> None:
    states = _state_texts(_binary_states([ex.state for ex in corpus]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header(KIND_LABELED)) + "\n")
        for ex, state in zip(corpus, states):
            fh.write(f'{{"state": {state}, "actions": {json.dumps(ex.actions.tolist())}}}\n')


def write_bandit_jsonl(path, log: BanditLog) -> None:
    states = _state_texts(_binary_states(log.states))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header(KIND_BANDIT)) + "\n")
        for rec, state in zip(log, states):
            fh.write(
                f'{{"state": {state}, "actions": {json.dumps(rec.logged_actions.tolist())}, '
                f'"rho": {json.dumps(rec.propensities.tolist())}, "delta": {int(rec.feedback)}}}\n'
            )


# States are binary, so a writer emits each as fixed-width text ("0.0"/"1.0"
# entries) and a reader decodes such text as bytes; both work _BLOCK records
# at a time, so no whole-file copy is ever held.
_BLOCK = 1024
_STATE_OPEN = b'{"state": ['
_STATE_CLOSE = b"], "


def _binary_states(states) -> np.ndarray:
    """The states (uint8 or float; a list of rows or an (n, width) array) as
    one (n, width) uint8 array of 0s and 1s; DataError on unequal widths or
    an entry other than 0 or 1 (``-0.0`` counts as 0)."""
    width = states[0].size if len(states) else 0
    bits = np.empty((len(states), width), dtype=np.uint8)
    for start in range(0, len(states), _BLOCK):
        block = states[start : start + _BLOCK]
        if any(np.shape(s) != (width,) for s in block):
            raise DataError(f"states must be flat lists of {width} entries")
        block = np.stack(block)
        if not ((block == 0) | (block == 1)).all():
            raise DataError("state entries must be 0 or 1")
        bits[start : start + len(block)] = block == 1
    return bits


def _state_texts(bits: np.ndarray):
    """Yield each row's text as ``json.dumps`` writes it as a list of floats:
    a copy of the all-``0.0`` template row with the digit bytes set."""
    template = np.frombuffer(("[" + ", ".join(["0.0"] * bits.shape[1]) + "]").encode("ascii"),
                             dtype=np.uint8)
    digits = 1 + 5 * np.arange(bits.shape[1])
    size = template.size
    for start in range(0, len(bits), _BLOCK):
        block = bits[start : start + _BLOCK]
        rows = np.tile(template, (len(block), 1))
        rows[:, digits] += block
        text = rows.tobytes().decode("ascii")
        yield from (text[i : i + size] for i in range(0, len(text), size))


def _canonical_states(block: list[bytes]) -> list:
    """For each line that opens with ``{"state": [`` and canonical
    ``0.0``/``1.0`` entries, ``(uint8 state, rest of the line after "], ")``;
    None for every other line. The lines of one width, the first found in
    the block, are checked in one pass over their bytes."""
    found = [None] * len(block)
    n_open = len(_STATE_OPEN)
    closes = [raw.find(_STATE_CLOSE, n_open) if raw.startswith(_STATE_OPEN) else -1
              for raw in block]
    # n entries take 5n - 2 bytes ("0.0" each, ", " between)
    close = next((c for c in closes if c > n_open and (c - n_open) % 5 == 3), None)
    if close is None:
        return found
    picked = [i for i, c in enumerate(closes) if c == close]
    width = (close - n_open + 2) // 5
    text = b", ".join(block[i][n_open:close] for i in picked) + b", "
    # XOR with "0.0, 0.0, ...": a canonical entry leaves its digit (0 or 1) and zeros
    diff = np.frombuffer(text, dtype=np.uint8).reshape(len(picked), 5 * width)
    diff = diff ^ np.frombuffer(b"0.0, " * width, dtype=np.uint8)
    ok = (diff <= np.frombuffer(b"\x01\x00\x00\x00\x00" * width, dtype=np.uint8)).all(axis=1)
    rows = np.flatnonzero(ok)
    # the digits of the canonical rows, copied out so no state keeps diff alive
    for k, state in zip(rows, diff[rows, ::5]):
        i = picked[k]
        found[i] = (state, block[i][close + len(_STATE_CLOSE) :])
    return found


def _with_state(state: np.ndarray, rest: bytes) -> dict | None:
    """The object ``{"state": state, ...}`` whose other members are ``rest``,
    or None when the whole line must be parsed instead: ``rest`` is not UTF-8
    or not the tail of a JSON object, adds no member, or has its own "state"."""
    try:
        obj = json.loads("{" + rest.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError or JSONDecodeError
        return None
    if not obj or "state" in obj:
        return None
    obj["state"] = state
    return obj


def _read_lines(path, kind: str):
    """Yield ``(line number, object)`` for each record line after the header.
    Line 1 is the header whatever it holds, so an empty file or a blank
    first line is refused; later blank lines are skipped. A line that opens
    with canonical state text has only its rest parsed as JSON; every other
    line, and any line that path refuses, is decoded and parsed whole, which
    gives the same object or reports its error."""
    lineno = 0
    with open(path, "rb") as fh:
        while block := list(islice(fh, _BLOCK)):
            for raw, canonical in zip(block, _canonical_states(block)):
                lineno += 1
                if canonical and lineno > 1:
                    obj = _with_state(*canonical)
                    if obj is not None:
                        yield lineno, obj
                        continue
                # bytes, decoded line by line, so a non-UTF-8 byte is reported on its line
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError as err:
                    raise DataError(f"{path}:{lineno}: not UTF-8 text ({err})") from err
                if not line:
                    if lineno == 1:
                        _check_header(path, kind, None)
                    continue
                try:
                    obj = json.loads(line)
                except ValueError as err:  # JSONDecodeError, or an integer of too many digits
                    raise DataError(f"{path}:{lineno}: malformed JSON line "
                                    f"({getattr(err, 'msg', err)})") from err
                if lineno == 1:
                    _check_header(path, kind, obj)
                    continue
                yield lineno, obj
    if lineno == 0:
        _check_header(path, kind, None)


def _check_header(path, kind: str, obj) -> None:
    if not isinstance(obj, dict) or "schema_version" not in obj:
        raise DataError(f"{path}:1: not a {kind!r} file (no schema_version header)")
    version = obj["schema_version"]
    if version != JSONL_VERSION:
        raise DataVersionError(
            f"{path}:1: schema version {version!r} unsupported "
            f"(expected {JSONL_VERSION!r})"
        )
    if obj.get("record") != kind:
        raise DataError(
            f"{path}:1: expected a {kind!r} file, found {obj.get('record')!r}"
        )


class _FieldError(Exception):
    """A field value the record contract refuses; the reader names its line."""


def _numbers_field(value, name: str) -> np.ndarray:
    """``state`` or ``rho`` as float64. Only a JSON list of JSON numbers is
    one: a string or bool entry would be coerced."""
    if not isinstance(value, list):
        raise _FieldError(f"{name} must be a flat list of numbers")
    if not set(map(type, value)) <= {int, float}:
        bad = next(a for a in value if type(a) not in (int, float))
        raise _FieldError(f"{name} must be a flat list of numbers" if isinstance(bad, list)
                          else f"{name} entry {json.dumps(bad)} is not a number")
    return np.array(value, dtype=np.float64)


def _state_field(value) -> np.ndarray:
    """A canonical line's state arrives uint8; a state parsed with its whole
    line is read as float64 and made uint8 by the record checks."""
    return value if isinstance(value, np.ndarray) else _numbers_field(value, "state")


def _indices_field(value) -> np.ndarray:
    """``actions`` as int64 indices. Only a JSON list of JSON integers is
    one: a float, bool or string entry would be truncated or coerced."""
    if not isinstance(value, list):
        raise _FieldError("actions must be a flat list of indices")
    for a in value:
        if type(a) is not int:
            raise _FieldError("actions must be a flat list of indices" if isinstance(a, list)
                              else f"actions entry {json.dumps(a)} is not an integer")
    return np.array(value, dtype=np.int64)


def _delta_field(value) -> int:
    """``delta``: the JSON integer 0 or 1 (``true`` and ``1.0`` are not)."""
    if type(value) is not int or value not in (0, 1):
        raise _FieldError(f"delta must be 0 or 1, got {json.dumps(value)}")
    return value


def _labeled_example(obj) -> LabeledExample:
    return LabeledExample(state=_state_field(obj["state"]),
                          actions=_indices_field(obj["actions"]))


def _bandit_record(obj) -> BanditRecord:
    return BanditRecord(
        state=_state_field(obj["state"]),
        logged_actions=_indices_field(obj["actions"]),
        propensities=_numbers_field(obj["rho"], "rho"),
        feedback=_delta_field(obj["delta"]),
    )


def _build_records(path, lines, build) -> tuple[list, list[int]]:
    """``build(obj)`` for each ``(line number, object)`` of ``lines``, and the
    line numbers; the first field that fails stops with a ``path:line:`` error."""
    records, linenos = [], []
    for lineno, obj in lines:
        try:
            records.append(build(obj))
        except KeyError as err:
            raise DataError(f"{path}:{lineno}: missing field {err}") from err
        except _FieldError as err:
            raise DataError(f"{path}:{lineno}: {err}") from err
        except (TypeError, ValueError, OverflowError) as err:
            raise DataError(f"{path}:{lineno}: malformed field value ({err})") from err
        linenos.append(lineno)
    return records, linenos


def read_labeled_jsonl(path) -> list[LabeledExample]:
    """Read a labeled corpus and enforce the FORMATS.md record contract."""
    corpus, linenos = _build_records(path, _read_lines(path, KIND_LABELED), _labeled_example)
    if corpus:
        _check_labeled_records(path, corpus, linenos)
    return corpus


def _check_labeled_records(path, corpus: list[LabeledExample], linenos: list[int]) -> None:
    """One pass over the stacked corpus: equal state lengths, state entries
    0 or 1 (every state leaves uint8), and actions non-empty, sorted, unique
    and non-negative."""

    def fail(i: int, message: str):
        raise DataError(f"{path}:{linenos[i]}: {message}")

    for i, ex in enumerate(corpus):
        _check_width(fail, i, linenos[0], "state", ex.state, corpus[0].state)
    _check_binary_states(fail, corpus)
    sizes = np.array([ex.actions.size for ex in corpus])
    bad = np.flatnonzero(sizes == 0)
    if bad.size:
        fail(bad[0], "actions must not be empty")
    actions = np.concatenate([ex.actions for ex in corpus])
    rows = np.repeat(np.arange(len(corpus)), sizes)
    bad = rows[actions < 0]
    if bad.size:
        fail(bad[0], f"actions {corpus[bad[0]].actions.tolist()} include a negative index")
    # within a record each index must exceed the one before it
    bad = rows[1:][(rows[1:] == rows[:-1]) & (actions[1:] <= actions[:-1])]
    if bad.size:
        fail(bad[0], f"actions {corpus[bad[0]].actions.tolist()} are not sorted and unique")


def _check_width(fail, i: int, first_line: int, name: str, row: np.ndarray, first: np.ndarray):
    if row.ndim != 1 or row.shape != first.shape:
        fail(i, f"{name} has {row.size} entries, line {first_line} has {first.size}")


def _check_binary_states(fail, records: list) -> None:
    """Equal-length states: fail on the first record with an entry other
    than 0 or 1, then make every state uint8. Canonical lines arrive uint8
    and 0/1 already, so only the states parsed with their whole line are
    stacked, checked and converted."""
    parsed = [i for i, r in enumerate(records) if r.state.dtype != np.uint8]
    if not parsed:
        return
    stacked = np.stack([records[i].state for i in parsed])
    bad = np.flatnonzero(~((stacked == 0.0) | (stacked == 1.0)).all(axis=1))
    if bad.size:
        fail(parsed[bad[0]], "state entries must be 0 or 1")
    for i, bits in zip(parsed, stacked.astype(np.uint8)):
        records[i].state = bits


def read_bandit_jsonl(path) -> BanditLog:
    """Read a bandit log and enforce the FORMATS.md record contract."""
    records, linenos = _build_records(path, _read_lines(path, KIND_BANDIT), _bandit_record)
    return _bandit_log(path, records, linenos)


def _bandit_log(path, records: list[BanditRecord], linenos: list[int]) -> BanditLog:
    """The records as one log, checked in one pass over its arrays: equal
    state and rho lengths, state entries 0 or 1 (every state leaves uint8),
    rho strictly inside (0, 1), actions == {c : rho[c] > 0.5}, and no empty
    set with feedback 1."""

    def fail(i: int, message: str):
        raise DataError(f"{path}:{linenos[i]}: {message}")

    if not records:
        return BanditLog(*(np.zeros((0, 0), t) for t in (np.uint8, bool, float)),
                         np.zeros(0, np.int64))
    for i, r in enumerate(records):
        _check_width(fail, i, linenos[0], "state", r.state, records[0].state)
        _check_width(fail, i, linenos[0], "rho", r.propensities, records[0].propensities)
    _check_binary_states(fail, records)
    rho = np.stack([r.propensities for r in records])
    bad = np.flatnonzero(~((rho > 0.0) & (rho < 1.0)).all(axis=1))
    if bad.size:
        fail(bad[0], "rho must lie strictly inside (0, 1)")
    n, num_classes = rho.shape
    sizes = np.array([r.logged_actions.size for r in records])
    actions = np.concatenate([r.logged_actions for r in records])
    rows = np.repeat(np.arange(n), sizes)
    in_range = (actions >= 0) & (actions < num_classes)
    logged = np.zeros((n, num_classes), dtype=bool)
    logged[rows[in_range], actions[in_range]] = True
    predicted = predicted_mask(rho)
    mismatch = (logged != predicted).any(axis=1)
    mismatch[rows[~in_range]] = True
    bad = np.flatnonzero(mismatch)
    if bad.size:
        i = bad[0]
        fail(i, f"actions {records[i].logged_actions.tolist()} differ from "
                f"{{c : rho[c] > 0.5}} = {np.flatnonzero(predicted[i]).tolist()}")
    # feedback 1 means the logged set is the expert's, and no expert set is empty
    delta = np.array([r.feedback for r in records], dtype=np.int64)
    bad = np.flatnonzero((sizes == 0) & (delta == 1))
    if bad.size:
        fail(bad[0], "a positive record must log a non-empty action set")
    return BanditLog(np.stack([r.state for r in records]), predicted, rho, delta)
