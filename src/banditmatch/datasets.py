"""Corpus generation, labeled/bandit splitting, and feedback logging.

The logged-feedback pipeline: expert rollouts produce a labeled corpus of
(state, action set) pairs; a fraction p becomes the supervised split and
the rest is replayed through a frozen logging policy, recording its
thresholded action set, the full per-class probability vector, and binary
user feedback (1 iff the predicted set equals the expert set exactly).

This module owns the labeled corpus and the bandit log, in memory and on
disk. A ``Corpus`` holds the states and action sets in arrays, and a
``BanditLog`` one array per field, from rollout or logging through the
files to training. Indexing either gives one row as a record of views; no
record object is kept per row.

Persistence is JSON-lines with a one-object header line carrying the
schema version; floats round-trip at full precision. The binary state
vectors are written and read as fixed-width ``0.0``/``1.0`` text (FORMATS.md
gives the line layout) and held in memory as ``uint8``, one byte per entry.
Writers format, and readers parse and check, ``_BLOCK`` lines at a time; a
reader puts each block's rows straight into the arrays it returns, sized
from the file's newline count.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import islice

import numpy as np

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
class LabeledExample:  # one row of a Corpus
    state: np.ndarray  # uint8 0/1 entries
    actions: np.ndarray  # sorted atomic-action indices, non-empty


@dataclass
class Corpus:
    """A labeled corpus in arrays. Row ``i`` is the state ``states[i]`` with
    the sorted action indices ``indices[offsets[i]:offsets[i + 1]]`` (CSR
    form: a corpus read from a file does not know the action count).
    ``corpus[i]``, and so iteration, gives a row as a ``LabeledExample``
    whose arrays are views into the corpus."""

    states: np.ndarray  # (n, D) uint8 0/1 entries
    offsets: np.ndarray  # (n + 1,) int64, from 0 to len(indices)
    indices: np.ndarray  # int64 action indices, row after row

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> LabeledExample:
        i = range(len(self))[i]  # an IndexError past the end ends iteration
        return LabeledExample(self.states[i], self.indices[self.offsets[i] : self.offsets[i + 1]])

    def take(self, idx) -> "Corpus":
        """The rows ``idx`` (non-negative), in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        starts, sizes = self.offsets[idx], np.diff(self.offsets)[idx]
        offsets = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        # where each taken index sits in self.indices
        at = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], sizes)
        return Corpus(self.states[idx], offsets, self.indices[at])

    def action_mask(self, num_classes: int) -> np.ndarray:
        """The action sets as (n, num_classes) boolean rows."""
        mask = np.zeros((len(self), num_classes), dtype=bool)
        mask[np.repeat(np.arange(len(self)), np.diff(self.offsets)), self.indices] = True
        return mask


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

    def take(self, idx) -> "BanditLog":
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


def generate_corpus(schema: WorldSchema, n_dialogs: int, seed: int) -> Corpus:
    """A row per expert turn over ``n_dialogs`` rollouts, filled dialog by
    dialog: each turn's uint8 state and sorted action indices are appended to
    growing buffers, which the returned arrays then view."""
    if n_dialogs <= 0:
        raise DataError(f"n_dialogs must be positive, got {n_dialogs}")
    rng = derive_rng(seed, "corpus")
    states, offsets, indices = bytearray(), array("q", [0]), array("q")
    for _ in range(n_dialogs):
        goal = sample_goal(schema, rng)
        pairs: list = []
        run_expert_episode(schema, goal, collect=pairs)
        for state, actions in pairs:
            states.extend(state)
            indices.extend(sorted(actions))
            offsets.append(len(indices))
    return Corpus(np.frombuffer(states, dtype=np.uint8).reshape(-1, schema.state_dim),
                  np.frombuffer(offsets, dtype=np.int64), np.frombuffer(indices, dtype=np.int64))


def labeled_size(n: int, fraction: float) -> int:
    """Size of the labeled split of ``n`` examples: ``fraction * n`` rounded half up."""
    return int(np.floor(fraction * n + 0.5))


def split_corpus(corpus: Corpus, cfg: SplitConfig) -> tuple[Corpus, Corpus]:
    """Partition into (labeled split, bandit pool) of ``labeled_size`` and the rest."""
    n_labeled = labeled_size(len(corpus), cfg.labeled_fraction)
    order = derive_rng(cfg.seed, "split").permutation(len(corpus))
    return corpus.take(order[:n_labeled]), corpus.take(order[n_labeled:])


def simulate_feedback(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Binary feedback per row of two boolean set masks: 1 iff they are equal."""
    return (predicted == truth).all(axis=-1).astype(np.int64)


def log_bandit_data(logging_policy, pool: Corpus) -> BanditLog:
    """Replay the pool through the frozen logging policy: a log row per
    example, with the policy's probabilities, its predicted set and the
    feedback on that set. Each row gets the bits of ``logging_policy.probs``
    on its own state, from one call per block of states. The log shares the
    pool's state array."""
    rho = logging_policy.probs_in_blocks(pool.states, rowwise=True)
    logged = predicted_mask(rho)
    return BanditLog(pool.states, logged, rho,
                     simulate_feedback(logged, pool.action_mask(rho.shape[1])))


# -- persistence ----------------------------------------------------------------

# Writers format, and readers parse and check, _BLOCK lines at a time, so no
# whole-file text and no object per record is ever held.
_BLOCK = 256
_STATE_OPEN = b'{"state": ['
_STATE_CLOSE = b"], "


def _header(kind: str) -> dict:
    return {"schema_version": JSONL_VERSION, "record": kind}


def write_labeled_jsonl(path, corpus: Corpus) -> None:
    _check_states(corpus.states)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header(KIND_LABELED)) + "\n")
        for start, states in _state_texts(corpus.states):
            bounds = corpus.offsets[start : start + len(states) + 1]
            actions = corpus.indices[bounds[0] : bounds[-1]].tolist()
            bounds = (bounds - bounds[0]).tolist()
            fh.write("".join(
                f'{{"state": {state}, "actions": {json.dumps(actions[a:b])}}}\n'
                for state, a, b in zip(states, bounds, bounds[1:])))


def write_bandit_jsonl(path, log: BanditLog) -> None:
    _check_log(log)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header(KIND_BANDIT)) + "\n")
        for start, states in _state_texts(log.states):
            rows = slice(start, start + len(states))
            fh.write("".join(
                f'{{"state": {state}, "actions": {json.dumps(np.flatnonzero(logged).tolist())}, '
                f'"rho": {json.dumps(rho)}, "delta": {delta}}}\n'
                for state, logged, rho, delta in zip(states, log.logged_mask[rows],
                                                     log.rho[rows].tolist(),
                                                     log.delta[rows].astype(np.int64).tolist())))


def _refused(i: int, message: str) -> DataError:
    """A writer's refusal of its row ``i``, counted from 1 as records are."""
    return DataError(f"record {i + 1}: {message}")


def _check_states(states: np.ndarray) -> None:
    """Refuse a state entry other than 0 or 1 (``-0.0`` counts as 0), a block
    of rows at a time, before the writer opens its file."""
    for start in range(0, len(states), _BLOCK):
        block = states[start : start + _BLOCK]
        bad = np.flatnonzero(~((block == 0) | (block == 1)).all(axis=1))
        if bad.size:
            raise _refused(start + bad[0], "state entries must be 0 or 1")


def _check_log(log: BanditLog) -> None:
    """Refuse, with the reader's reason, a log the reader would refuse: fields
    of unequal lengths or widths, a state entry other than 0 or 1, a
    ``delta`` other than 0 or 1, ``rho`` not strictly inside (0, 1), a logged
    set other than ``rho > 0.5``, or a positive record with an empty set."""
    n = len(log.delta)
    if (log.delta.shape != (n,) or log.logged_mask.shape != log.rho.shape
            or len(log.states) != n or len(log.rho) != n):
        raise DataError(f"log fields of unequal shapes: states {log.states.shape}, logged_mask "
                        f"{log.logged_mask.shape}, rho {log.rho.shape}, delta {log.delta.shape}")
    bad = np.flatnonzero((log.delta != 0) & (log.delta != 1))
    if bad.size:
        raise _refused(bad[0], f"delta must be 0 or 1, got {log.delta[bad[0]]}")
    _check_states(log.states)
    bad = np.flatnonzero(~((log.rho > 0.0) & (log.rho < 1.0)).all(axis=1))
    if bad.size:
        raise _refused(bad[0], "rho must lie strictly inside (0, 1)")
    bad = np.flatnonzero((log.logged_mask != predicted_mask(log.rho)).any(axis=1))
    if bad.size:
        i = bad[0]
        raise _refused(i, f"actions {np.flatnonzero(log.logged_mask[i]).tolist()} differ from "
                          f"{{c : rho[c] > 0.5}} = {np.flatnonzero(log.rho[i] > 0.5).tolist()}")
    bad = np.flatnonzero((log.delta == 1) & ~log.logged_mask.any(axis=1))
    if bad.size:
        raise _refused(bad[0], "a positive record must log a non-empty action set")


def _state_texts(states: np.ndarray):
    """Yield ``(start, texts)`` per block of ``_BLOCK`` rows of the checked 0/1
    ``states``: each row's text as ``json.dumps`` writes it as a list of
    floats, a copy of the all-``0.0`` template row with the digit bytes set."""
    template = np.frombuffer(("[" + ", ".join(["0.0"] * states.shape[1]) + "]").encode("ascii"),
                             dtype=np.uint8)
    digits = 1 + 5 * np.arange(states.shape[1])
    size = template.size
    for start in range(0, len(states), _BLOCK):
        block = states[start : start + _BLOCK]
        rows = np.tile(template, (len(block), 1))
        rows[:, digits] += block == 1
        text = rows.tobytes().decode("ascii")
        yield start, [text[i : i + size] for i in range(0, len(text), size)]


def _canonical_states(block: list[bytes]) -> tuple[list, int]:
    """For each line that opens with ``{"state": [`` and canonical
    ``0.0``/``1.0`` entries, its uint8 state; None for every other line. Also
    where the rest of those lines starts, after the state's "], ". The lines
    of one width, the first found in the block, are checked in one pass over
    their bytes."""
    found = [None] * len(block)
    n_open = len(_STATE_OPEN)
    closes = [raw.find(_STATE_CLOSE, n_open) if raw.startswith(_STATE_OPEN) else -1
              for raw in block]
    # n entries take 5n - 2 bytes ("0.0" each, ", " between)
    close = next((c for c in closes if c > n_open and (c - n_open) % 5 == 3), None)
    if close is None:
        return found, 0
    picked = [i for i, c in enumerate(closes) if c == close]
    width = (close - n_open + 2) // 5
    # the picked state texts, each followed by ", ", joined from views into
    # one buffer that is worked in place
    texts = [memoryview(block[i])[n_open:close] for i in picked] + [b""]
    diff = np.frombuffer(bytearray(b", ").join(texts), dtype=np.uint8)
    diff = diff.reshape(len(picked), 5 * width)
    # XOR with "0.0, 0.0, ...": a canonical entry leaves its digit (0 or 1) and zeros
    np.bitwise_xor(diff, np.frombuffer(b"0.0, " * width, dtype=np.uint8), out=diff)
    digits = diff[:, ::5].copy()
    diff[:, ::5] >>= 1
    rows = np.flatnonzero(~diff.any(axis=1))
    for k in rows:
        found[picked[k]] = digits[k]
    return found, close + len(_STATE_CLOSE)


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
    line is read as float64 and made uint8 by the block checks."""
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


def _labeled_fields(obj) -> tuple:
    return _state_field(obj["state"]), _indices_field(obj["actions"])


def _bandit_fields(obj) -> tuple:
    return (_state_field(obj["state"]), _indices_field(obj["actions"]),
            _numbers_field(obj["rho"], "rho"), _delta_field(obj["delta"]))


def _record_blocks(path, kind: str, fields):
    """Per block of ``_BLOCK`` lines that holds a record, ``(line numbers,
    columns)``: ``columns`` holds one list per field of ``fields(obj)`` over
    the block's record lines. The lines are released before the rows are
    yielded, and the rows before the next block is read."""
    lineno = 0
    with open(path, "rb") as fh:
        while block := list(islice(fh, _BLOCK)):
            linenos, rows = _parse_block(path, kind, fields, block, lineno)
            lineno += len(block)
            del block
            if rows:
                yield linenos, list(zip(*rows))
            del rows
    if lineno == 0:
        _check_header(path, kind, None)


def _parse_block(path, kind: str, fields, block: list[bytes], lineno: int) -> tuple:
    """The line numbers and ``fields(obj)`` of the record lines in ``block``,
    whose first line is line ``lineno + 1``. Line 1 is the header whatever it
    holds, so an empty file or a blank first line is refused; later blank
    lines are skipped. A line that opens with canonical state text has only
    its rest parsed as JSON; every other line, and any line that path
    refuses, is decoded and parsed whole, which gives the same object or
    reports its error. The first line or field that fails stops with its
    line, before the block's rows are checked together."""
    states, rest = _canonical_states(block)
    linenos, rows = [], []
    for raw, state in zip(block, states):
        lineno += 1
        obj = None if state is None or lineno == 1 else _with_state(state, raw[rest:])
        if obj is None:
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
        rows.append(_row(path, lineno, fields, obj))
        linenos.append(lineno)
    return linenos, rows


def _row(path, lineno: int, fields, obj) -> tuple:
    """``fields(obj)``; a field the record contract refuses stops with its line."""
    try:
        return fields(obj)
    except KeyError as err:
        raise DataError(f"{path}:{lineno}: missing field {err}") from err
    except _FieldError as err:
        raise DataError(f"{path}:{lineno}: {err}") from err
    except (TypeError, ValueError, OverflowError) as err:
        raise DataError(f"{path}:{lineno}: malformed field value ({err})") from err


def _fail_at(path, linenos: list[int]):
    """``fail(i, message)``: raise ``path:line: message`` for row ``i`` of a block."""
    def fail(i: int, message: str):
        raise DataError(f"{path}:{linenos[i]}: {message}")
    return fail


def _count_lines(path) -> int:
    """The file's newline count: at least its number of records."""
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 16), b""))


def _check_widths(fail, first_line: int, fields) -> None:
    """Each row of each ``(name, rows, width)`` field has the width of the
    file's first record (on ``first_line``), checked line by line."""
    for i, row in enumerate(zip(*(rows for _, rows, _ in fields))):
        for (name, _, width), value in zip(fields, row):
            if value.shape != (width,):
                fail(i, f"{name} has {value.size} entries, line {first_line} has {width}")


def _put_states(fail, states, out: np.ndarray) -> None:
    """Fail on the first state with an entry other than 0 or 1, then write
    the block's states into ``out`` as uint8. Canonical lines arrive uint8
    and 0/1 already, so only the states parsed with their whole line are
    checked."""
    parsed = [i for i, s in enumerate(states) if s.dtype != np.uint8]
    if parsed:
        stacked = np.stack([states[i] for i in parsed])
        bad = np.flatnonzero(~((stacked == 0.0) | (stacked == 1.0)).all(axis=1))
        if bad.size:
            fail(parsed[bad[0]], "state entries must be 0 or 1")
    np.stack(states, out=out, casting="unsafe")


def read_labeled_jsonl(path) -> Corpus:
    """Read a labeled corpus and enforce the FORMATS.md record contract, a
    block of lines at a time."""
    states, sizes, indices, n = None, [], [], 0
    for linenos, columns in _record_blocks(path, KIND_LABELED, _labeled_fields):
        if states is None:
            first_line = linenos[0]
            states = np.empty((_count_lines(path), columns[0][0].size), dtype=np.uint8)
        size, actions = _labeled_block(_fail_at(path, linenos), first_line,
                                       states[n : n + len(linenos)], *columns)
        sizes.append(size)
        indices.append(actions)
        n += len(linenos)
        del columns  # released before the next block is parsed
    if states is None:
        return Corpus(np.zeros((0, 0), np.uint8), np.zeros(1, np.int64), np.zeros(0, np.int64))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=offsets[1:])
    return Corpus(states[:n], offsets, np.concatenate(indices))


def _labeled_block(fail, first_line: int, out: np.ndarray, states, actions) -> tuple:
    """Check one block's rows, put their states into ``out`` and return
    their action counts and indices: equal state lengths, state entries 0 or
    1, and actions non-empty, non-negative, sorted and unique."""
    _check_widths(fail, first_line, [("state", states, out.shape[1])])
    _put_states(fail, states, out)
    size = np.array([a.size for a in actions])
    bad = np.flatnonzero(size == 0)
    if bad.size:
        fail(bad[0], "actions must not be empty")
    indices = np.concatenate(actions)
    rows = np.repeat(np.arange(len(size)), size)
    bad = rows[indices < 0]
    if bad.size:
        fail(bad[0], f"actions {actions[bad[0]].tolist()} include a negative index")
    # within a record each index must exceed the one before it
    bad = rows[1:][(rows[1:] == rows[:-1]) & (indices[1:] <= indices[:-1])]
    if bad.size:
        fail(bad[0], f"actions {actions[bad[0]].tolist()} are not sorted and unique")
    return size, indices


def read_bandit_jsonl(path) -> BanditLog:
    """Read a bandit log and enforce the FORMATS.md record contract, a block
    of lines at a time."""
    log, n = None, 0
    for linenos, columns in _record_blocks(path, KIND_BANDIT, _bandit_fields):
        if log is None:
            first_line, rows = linenos[0], _count_lines(path)
            width, num_classes = columns[0][0].size, columns[2][0].size
            log = BanditLog(np.empty((rows, width), dtype=np.uint8),
                            np.empty((rows, num_classes), dtype=bool),
                            np.empty((rows, num_classes)), np.empty(rows, dtype=np.int64))
        _bandit_block(_fail_at(path, linenos), first_line,
                      log.take(slice(n, n + len(linenos))), *columns)
        n += len(linenos)
        del columns  # released before the next block is parsed
    if log is None:
        return BanditLog(*(np.zeros((0, 0), t) for t in (np.uint8, bool, float)),
                         np.zeros(0, np.int64))
    return log.take(slice(0, n))


def _bandit_block(fail, first_line: int, out: BanditLog, states, actions, rhos, deltas) -> None:
    """Check one block's rows and put them into ``out``, the log's rows for
    the block: equal state and rho lengths, state entries 0 or 1, rho
    strictly inside (0, 1), actions == {c : rho[c] > 0.5}, and no empty set
    with feedback 1."""
    num_classes = out.rho.shape[1]
    _check_widths(fail, first_line, [("state", states, out.states.shape[1]),
                                     ("rho", rhos, num_classes)])
    _put_states(fail, states, out.states)
    rho = np.stack(rhos, out=out.rho)
    bad = np.flatnonzero(~((rho > 0.0) & (rho < 1.0)).all(axis=1))
    if bad.size:
        fail(bad[0], "rho must lie strictly inside (0, 1)")
    out.logged_mask[:] = predicted_mask(rho)
    size = np.array([a.size for a in actions])
    indices = np.concatenate(actions)
    rows = np.repeat(np.arange(len(size)), size)
    in_range = (indices >= 0) & (indices < num_classes)
    logged = np.zeros_like(out.logged_mask)
    logged[rows[in_range], indices[in_range]] = True
    mismatch = (logged != out.logged_mask).any(axis=1)
    mismatch[rows[~in_range]] = True
    bad = np.flatnonzero(mismatch)
    if bad.size:
        i = bad[0]
        fail(i, f"actions {actions[i].tolist()} differ from "
                f"{{c : rho[c] > 0.5}} = {np.flatnonzero(out.logged_mask[i]).tolist()}")
    # feedback 1 means the logged set is the expert's, and no expert set is empty
    out.delta[:] = deltas
    bad = np.flatnonzero((size == 0) & (out.delta == 1))
    if bad.size:
        fail(bad[0], "a positive record must log a non-empty action set")
