"""Corpus generation, labeled/bandit splitting, and feedback logging.

The logged-feedback pipeline: expert rollouts produce a labeled corpus of
(state, action set) pairs; a fraction p becomes the supervised split and
the rest is replayed through a frozen logging policy, recording its
thresholded action set, the full per-class probability vector, and binary
user feedback (1 iff the predicted set equals the expert set exactly).

This module owns the labeled corpus and the bandit log, in memory and on
disk. A ``Corpus`` holds the states and action sets in arrays, and a
``BanditLog`` one array per field, from rollout or logging through the
files to training. Indexing either gives one row as a record of views. Each
format's contract (FORMATS.md) is one row check, run when a corpus or log is
built, by its constructor or by a reader per block of lines; rows taken
from one (``take``, a split, a batch) are not checked again.

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
    whose arrays are views into the corpus. Building one checks every row."""

    states: np.ndarray  # (n, D) uint8 0/1 entries
    offsets: np.ndarray  # (n + 1,) int64, from 0 to len(indices)
    indices: np.ndarray  # int64 action indices, row after row

    def __post_init__(self):
        offsets, indices, n = self.offsets, self.indices, len(self.states)
        if (self.states.ndim != 2 or offsets.shape != (n + 1,) or indices.ndim != 1
                or {offsets.dtype.kind, indices.dtype.kind} - set("iu")
                or offsets[0] != 0 or offsets[-1] != len(indices)):
            raise DataError(f"corpus offsets must be {n + 1} integers from 0 to the count of "
                            f"integer indices, got {offsets.shape} {offsets.dtype}, "
                            f"{indices.shape} {indices.dtype}")
        _check_rows(self, _corpus_fault)

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> LabeledExample:
        i = range(len(self))[i]  # an IndexError past the end ends iteration
        return LabeledExample(self.states[i], self.indices[self.offsets[i] : self.offsets[i + 1]])

    def take(self, idx) -> "Corpus":
        """The rows ``idx``, in that order: non-negative indices, or a slice
        ``start:stop`` (``start < len``) whose rows are views."""
        if isinstance(idx, slice):
            at = self.offsets[idx.start : idx.stop + 1]
            return _built(Corpus, self.states[idx], at - at[0], self.indices[at[0] : at[-1]])
        idx = np.asarray(idx, dtype=np.int64)
        starts, sizes = self.offsets[idx], np.diff(self.offsets)[idx]
        offsets = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        # where each taken index sits in self.indices
        at = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], sizes)
        return _built(Corpus, self.states[idx], offsets, self.indices[at])

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
    (x, p, delta) table. A row's logged set is the logging policy's
    predicted set, ``predicted_mask(rho)``, so it is derived, not stored.
    ``log[i]``, and so iteration, gives a row as a ``BanditRecord`` whose
    arrays are views into the log. Building one checks every row."""

    states: np.ndarray  # (n, D) uint8 0/1 entries
    rho: np.ndarray  # (n, C) float64 propensities at logging time
    delta: np.ndarray  # (n,) int64 feedback, 0 or 1

    def __post_init__(self):
        n = len(self.delta)
        if (self.delta.shape != (n,) or self.rho.ndim != 2 or len(self.rho) != n
                or self.states.ndim != 2 or len(self.states) != n):
            raise DataError("log fields of unequal shapes: " + ", ".join(
                f"{name} {field.shape}" for name, field in vars(self).items()))
        _check_rows(self, _log_fault)

    def take(self, idx) -> "BanditLog":
        return _built(BanditLog, *(field[idx] for field in vars(self).values()))

    def __len__(self) -> int:
        return len(self.delta)

    def __getitem__(self, i: int) -> BanditRecord:
        return BanditRecord(self.states[i], np.flatnonzero(predicted_mask(self.rho[i])),
                            self.rho[i], int(self.delta[i]))


# -- the row checks: each format's contract, run when a corpus or log is built


def _built(cls, *values):
    """A ``Corpus`` or ``BanditLog`` of rows already checked, not checked again."""
    obj = object.__new__(cls)
    vars(obj).update(zip(cls.__dataclass_fields__, values))
    return obj


def _check_rows(rows, fault) -> None:
    """Run the row check ``fault`` over a corpus or log a ``_BLOCK`` of rows at
    a time (no temporary of all the rows); refuse the first bad row as ``record i``, from 1.
    Rows that pass keep their 0/1 states as uint8, the one in-memory form."""
    for start in range(0, len(rows), _BLOCK):
        found = fault(rows.take(slice(start, start + _BLOCK)))
        if found:
            raise DataError(f"record {start + found[0] + 1}: {found[1]}")
    rows.states = rows.states.astype(np.uint8, copy=False)


def _non_binary_rows(states: np.ndarray) -> np.ndarray:
    """The rows with a state entry other than 0 or 1 (``-0.0`` counts as 0)."""
    return np.flatnonzero(~((states == 0) | (states == 1)).all(axis=1))


def _corpus_fault(corpus: Corpus) -> tuple[int, str] | None:
    """The first row of ``corpus`` that breaks a rule, and why, or None. Rule by
    rule in a reader's order (FORMATS.md), then row by row: 0/1 states, and
    actions non-empty (offsets never decrease), non-negative, sorted, unique."""
    bad = _non_binary_rows(corpus.states)
    if bad.size:
        return bad[0], "state entries must be 0 or 1"
    sizes = np.diff(corpus.offsets)
    bad = np.flatnonzero(sizes <= 0)
    if bad.size:
        return bad[0], "actions must not be empty"
    indices = corpus.indices
    rows = np.repeat(np.arange(len(sizes)), sizes)
    bad = rows[indices < 0]
    if bad.size:
        return bad[0], f"actions {corpus[bad[0]].actions.tolist()} include a negative index"
    # within a row each index must exceed the one before it
    bad = rows[1:][(rows[1:] == rows[:-1]) & (indices[1:] <= indices[:-1])]
    if bad.size:
        return bad[0], f"actions {corpus[bad[0]].actions.tolist()} are not sorted and unique"
    return None


def _log_fault(log: BanditLog, lists=None) -> tuple[int, str] | None:
    """The first row of ``log`` that breaks a rule, and why, or None. Rule by rule
    in a reader's order (FORMATS.md), then row by row: ``delta`` 0 or 1, 0/1 states,
    ``rho`` inside (0, 1), no positive row with an empty logged set. A reader also
    passes ``lists``, each line's ``actions``, for the file's rule that each lists
    the row's logged set ``predicted_mask(rho)``; an out-of-range index never does."""
    delta, rho = log.delta, log.rho
    bad = np.flatnonzero((delta != 0) & (delta != 1))
    if bad.size:
        return bad[0], f"delta must be 0 or 1, got {delta[bad[0]]}"
    bad = _non_binary_rows(log.states)
    if bad.size:
        return bad[0], "state entries must be 0 or 1"
    bad = np.flatnonzero(~((rho > 0.0) & (rho < 1.0)).all(axis=1))
    if bad.size:
        return bad[0], "rho must lie strictly inside (0, 1)"
    logged = predicted_mask(rho)
    if lists is not None:
        rows = np.repeat(np.arange(len(lists)), [a.size for a in lists])
        indices = np.concatenate(lists)
        in_range = (indices >= 0) & (indices < rho.shape[1])
        listed = np.zeros_like(logged)
        listed[rows[in_range], indices[in_range]] = True
        differ = (listed != logged).any(axis=1)
        differ[rows[~in_range]] = True
        bad = np.flatnonzero(differ)
        if bad.size:
            i = bad[0]
            return i, (f"actions {lists[i].tolist()} differ from "
                       f"{{c : rho[c] > 0.5}} = {np.flatnonzero(logged[i]).tolist()}")
    # feedback 1 means the logged set is the expert's, and no expert set is empty
    bad = np.flatnonzero((delta == 1) & ~logged.any(axis=1))
    if bad.size:
        return bad[0], "a positive record must log a non-empty action set"
    return None


@dataclass
class SplitConfig:
    labeled_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.labeled_fraction <= 1.0:
            raise DataError(f"labeled_fraction must be in (0, 1], got {self.labeled_fraction}")


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
    rho = logging_policy.probs_in_blocks(pool.states)
    return BanditLog(pool.states, rho,
                     simulate_feedback(predicted_mask(rho), pool.action_mask(rho.shape[1])))


# -- persistence ----------------------------------------------------------------

# Writers format, and readers parse and check, _BLOCK lines at a time, so no
# whole-file text and no object per record is ever held.
_BLOCK = 256
_STATE_OPEN = b'{"state": ['
_STATE_CLOSE = b"], "


def _header(kind: str) -> dict:
    return {"schema_version": JSONL_VERSION, "record": kind}


def write_labeled_jsonl(path, corpus: Corpus) -> None:
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header(KIND_BANDIT)) + "\n")
        for start, states in _state_texts(log.states):
            rows = slice(start, start + len(states))
            rhos = log.rho[rows]
            fh.write("".join(
                f'{{"state": {state}, "actions": {json.dumps(np.flatnonzero(logged).tolist())}, '
                f'"rho": {json.dumps(rho)}, "delta": {delta}}}\n'
                for state, logged, rho, delta in zip(states, predicted_mask(rhos), rhos.tolist(),
                                                     log.delta[rows].astype(np.int64).tolist())))


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
        raise DataVersionError(f"{path}:1: schema version {version!r} unsupported "
                               f"(expected {JSONL_VERSION!r})")
    if obj.get("record") != kind:
        raise DataError(f"{path}:1: expected a {kind!r} file, found {obj.get('record')!r}")


class _FieldError(Exception):
    """A field value the record contract refuses; the reader names its line."""


_NUMBERS, _INTEGERS = frozenset({int, float}), frozenset({int})


def _list_field(value, name: str, types: frozenset) -> np.ndarray:
    """The JSON list ``name`` of numbers (float64) or integers (int64), as
    ``types`` says: any other entry, which numpy would coerce, is refused."""
    noun, single, dtype = (("numbers", "a number", np.float64) if float in types
                           else ("indices", "an integer", np.int64))
    if not isinstance(value, list):
        raise _FieldError(f"{name} must be a flat list of {noun}")
    if not set(map(type, value)) <= types:
        bad = next(a for a in value if type(a) not in types)
        raise _FieldError(f"{name} must be a flat list of {noun}" if isinstance(bad, list)
                          else f"{name} entry {json.dumps(bad)} is not {single}")
    return np.array(value, dtype=dtype)


def _state_field(value) -> np.ndarray:
    """A canonical line's state arrives uint8; a state parsed with its whole
    line is read as float64 and made uint8 by ``_put_states``."""
    return value if isinstance(value, np.ndarray) else _list_field(value, "state", _NUMBERS)


def _delta_field(value) -> int:
    """``delta``: the JSON integer 0 or 1 (``true`` and ``1.0`` are not)."""
    if type(value) is not int or value not in (0, 1):
        raise _FieldError(f"delta must be 0 or 1, got {json.dumps(value)}")
    return value


def _labeled_fields(obj) -> tuple:
    return _state_field(obj["state"]), _list_field(obj["actions"], "actions", _INTEGERS)


def _bandit_fields(obj) -> tuple:
    return (_state_field(obj["state"]), _list_field(obj["actions"], "actions", _INTEGERS),
            _list_field(obj["rho"], "rho", _NUMBERS), _delta_field(obj["delta"]))


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
    """``fail(found)``: raise ``path:line: reason`` for ``found = (i, reason)``, if any."""
    def fail(found):
        if found:
            raise DataError(f"{path}:{linenos[found[0]]}: {found[1]}")
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
                fail((i, f"{name} has {value.size} entries, line {first_line} has {width}"))


def _put_states(states, out: np.ndarray) -> None:
    """Write the block's states into ``out`` as uint8: in a state parsed with its
    whole line, an entry other than 0 or 1 becomes 2, which the row check refuses."""
    np.stack([s if s.dtype == np.uint8 else np.where((s == 0) | (s == 1), s, 2) for s in states],
             out=out, casting="unsafe")


def read_labeled_jsonl(path) -> Corpus:
    """Read a labeled corpus, a block of lines at a time: the file's width
    rule, then the corpus row check."""
    states, offsets, indices, n = None, [np.zeros(1, np.int64)], [], 0
    for linenos, (texts, actions) in _record_blocks(path, KIND_LABELED, _labeled_fields):
        fail = _fail_at(path, linenos)
        if states is None:
            first_line, states = linenos[0], np.empty((_count_lines(path), texts[0].size), np.uint8)
        out = states[n : n + len(linenos)]
        _check_widths(fail, first_line, [("state", texts, out.shape[1])])
        _put_states(texts, out)
        ends = np.zeros(len(actions) + 1, dtype=np.int64)
        np.cumsum([a.size for a in actions], out=ends[1:])
        block = _built(Corpus, out, ends, np.concatenate(actions))
        fail(_corpus_fault(block))
        offsets.append(ends[1:] + offsets[-1][-1])
        indices.append(block.indices)
        n += len(linenos)
        del texts, actions, block  # released before the next block is parsed
    if states is None:
        return Corpus(np.zeros((0, 0), np.uint8), np.zeros(1, np.int64), np.zeros(0, np.int64))
    return _built(Corpus, states[:n], np.concatenate(offsets), np.concatenate(indices))


def read_bandit_jsonl(path) -> BanditLog:
    """Read a bandit log, a block of lines at a time: the file's width rule, then the
    log row check with the file's set rule on each line's ``actions``."""
    log, n = None, 0
    for linenos, (texts, actions, rhos, deltas) in _record_blocks(path, KIND_BANDIT,
                                                                  _bandit_fields):
        fail = _fail_at(path, linenos)
        if log is None:
            first_line, lines = linenos[0], _count_lines(path)
            log = _built(BanditLog, np.empty((lines, texts[0].size), dtype=np.uint8),
                         np.empty((lines, rhos[0].size)), np.empty(lines, dtype=np.int64))
        out = log.take(slice(n, n + len(linenos)))
        _check_widths(fail, first_line, [("state", texts, out.states.shape[1]),
                                         ("rho", rhos, out.rho.shape[1])])
        _put_states(texts, out.states)
        np.stack(rhos, out=out.rho)
        out.delta[:] = deltas
        fail(_log_fault(out, lists=actions))
        n += len(linenos)
        del texts, actions, rhos, deltas  # released before the next block is parsed
    if log is None:
        return BanditLog(np.zeros((0, 0), np.uint8), np.zeros((0, 0)), np.zeros(0, np.int64))
    return log.take(slice(0, n))
