"""The JSONL writer and readers as plain ``json.dumps`` / ``json.loads``
per line, holding one record object per line: the reference the block
codec in ``datasets`` must match byte for byte (writers) and array for
array or error for error (readers). The writer takes raw rows, so it also
writes the invalid files no corpus or log can hold. The readers parse
every line whole, build every record first and check them together, as
one block of any size; they share only the package's field rules, so the
line decoding, the blocks and the record checks are all compared."""

from __future__ import annotations

import json

import numpy as np

from banditmatch import datasets as ds


def corpus_of(examples) -> ds.Corpus:
    """A list of ``LabeledExample``s as one ``Corpus``, states as given."""
    sizes = [ex.actions.size for ex in examples]
    return ds.Corpus(
        np.stack([ex.state for ex in examples]) if examples else np.zeros((0, 0), np.uint8),
        np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]).astype(np.int64),
        np.concatenate([ex.actions for ex in examples] + [np.zeros(0, np.int64)]),
    )


def write_rows(path, kind: str, rows) -> None:
    """Write raw ``(state, actions)`` rows, or ``(state, actions, rho,
    delta)`` rows, after a ``kind`` header, whatever they hold: states and
    ``rho`` as float lists, actions as integer lists, ``delta`` as an
    integer."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ds._header(kind)) + "\n")
        for row in rows:
            state, actions, *rest = row
            record = {"state": np.asarray(state, dtype=float).tolist(),
                      "actions": np.asarray(actions, dtype=np.int64).tolist()}
            if rest:
                record.update(rho=np.asarray(rest[0], dtype=float).tolist(), delta=int(rest[1]))
            fh.write(json.dumps(record) + "\n")


def _read_lines(path, kind: str):
    # line 1 is the header whatever it holds: an empty file has a blank one
    with open(path, "rb") as fh:
        lines = list(fh) or [b""]
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as err:
            raise ds.DataError(f"{path}:{lineno}: not UTF-8 text ({err})") from err
        if not line and lineno > 1:
            continue
        try:
            obj = json.loads(line) if line else None
        except ValueError as err:  # JSONDecodeError, or an integer of too many digits
            raise ds.DataError(f"{path}:{lineno}: malformed JSON line "
                               f"({getattr(err, 'msg', err)})") from err
        if lineno == 1:
            if not isinstance(obj, dict) or "schema_version" not in obj:
                raise ds.DataError(f"{path}:1: not a {kind!r} file (no schema_version header)")
            version = obj["schema_version"]
            if version != ds.JSONL_VERSION:
                raise ds.DataVersionError(
                    f"{path}:1: schema version {version!r} unsupported "
                    f"(expected {ds.JSONL_VERSION!r})"
                )
            if obj.get("record") != kind:
                raise ds.DataError(
                    f"{path}:1: expected a {kind!r} file, found {obj.get('record')!r}"
                )
            continue
        yield lineno, obj


def _build_records(path, lines, build) -> tuple[list, list[int]]:
    records, linenos = [], []
    for lineno, obj in lines:
        try:
            records.append(build(obj))
        except KeyError as err:
            raise ds.DataError(f"{path}:{lineno}: missing field {err}") from err
        except ds._FieldError as err:
            raise ds.DataError(f"{path}:{lineno}: {err}") from err
        except (TypeError, ValueError, OverflowError) as err:
            raise ds.DataError(f"{path}:{lineno}: malformed field value ({err})") from err
        linenos.append(lineno)
    return records, linenos


def _check_width(fail, i, first_line, name, row, first):
    if row.ndim != 1 or row.shape != first.shape:
        fail(i, f"{name} has {row.size} entries, line {first_line} has {first.size}")


def _check_binary_states(fail, records) -> None:
    parsed = [i for i, r in enumerate(records) if r.state.dtype != np.uint8]
    if not parsed:
        return
    stacked = np.stack([records[i].state for i in parsed])
    bad = np.flatnonzero(~((stacked == 0.0) | (stacked == 1.0)).all(axis=1))
    if bad.size:
        fail(parsed[bad[0]], "state entries must be 0 or 1")
    for i, bits in zip(parsed, stacked.astype(np.uint8)):
        records[i].state = bits


def read_labeled_jsonl(path) -> list:
    """The corpus as a list of ``LabeledExample``s."""
    corpus, linenos = _build_records(
        path, _read_lines(path, ds.KIND_LABELED),
        lambda obj: ds.LabeledExample(*ds._labeled_fields(obj)))
    if not corpus:
        return corpus

    def fail(i, message):
        raise ds.DataError(f"{path}:{linenos[i]}: {message}")

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
    bad = rows[1:][(rows[1:] == rows[:-1]) & (actions[1:] <= actions[:-1])]
    if bad.size:
        fail(bad[0], f"actions {corpus[bad[0]].actions.tolist()} are not sorted and unique")
    return corpus


def read_bandit_jsonl(path) -> ds.BanditLog:
    records, linenos = _build_records(
        path, _read_lines(path, ds.KIND_BANDIT),
        lambda obj: ds.BanditRecord(*ds._bandit_fields(obj)))

    def fail(i, message):
        raise ds.DataError(f"{path}:{linenos[i]}: {message}")

    if not records:
        return ds.BanditLog(np.zeros((0, 0), np.uint8), np.zeros((0, 0)), np.zeros(0, np.int64))
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
    predicted = rho > 0.5
    mismatch = (logged != predicted).any(axis=1)
    mismatch[rows[~in_range]] = True
    bad = np.flatnonzero(mismatch)
    if bad.size:
        i = bad[0]
        fail(i, f"actions {records[i].logged_actions.tolist()} differ from "
                f"{{c : rho[c] > 0.5}} = {np.flatnonzero(predicted[i]).tolist()}")
    delta = np.array([r.feedback for r in records], dtype=np.int64)
    bad = np.flatnonzero((sizes == 0) & (delta == 1))
    if bad.size:
        fail(bad[0], "a positive record must log a non-empty action set")
    return ds.BanditLog(np.stack([r.state for r in records]), rho, delta)
