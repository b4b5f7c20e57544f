"""The JSONL writers and readers as plain ``json.dumps`` / ``json.loads``
per line: the reference the fixed-width state codec in ``datasets`` must
match byte for byte (writers) and record for record or error for error
(readers). The readers parse every line whole and share the package's
field rules and record checks, so only the line decoding is compared."""

from __future__ import annotations

import json

from banditmatch import datasets as ds


def write_labeled_jsonl(path, corpus) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ds._header(ds.KIND_LABELED)) + "\n")
        for ex in corpus:
            fh.write(
                json.dumps({"state": ex.state.tolist(), "actions": ex.actions.tolist()})
                + "\n"
            )


def write_bandit_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ds._header(ds.KIND_BANDIT)) + "\n")
        for rec in records:
            row = {
                "state": rec.state.tolist(),
                "actions": rec.logged_actions.tolist(),
                "rho": rec.propensities.tolist(),
                "delta": int(rec.feedback),
            }
            fh.write(json.dumps(row) + "\n")


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


def read_labeled_jsonl(path) -> list:
    corpus, linenos = ds._build_records(path, _read_lines(path, ds.KIND_LABELED),
                                        ds._labeled_example)
    if corpus:
        ds._check_labeled_records(path, corpus, linenos)
    return corpus


def read_bandit_jsonl(path) -> ds.BanditLog:
    records, linenos = ds._build_records(path, _read_lines(path, ds.KIND_BANDIT),
                                         ds._bandit_record)
    return ds._bandit_log(path, records, linenos)
