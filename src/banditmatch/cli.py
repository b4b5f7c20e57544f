"""Command-line front end for the logged-feedback pipeline.

Subcommands cover the whole experiment flow: world generation, expert
corpus rollout, labeled/bandit splitting plus feedback logging, policy
fine-tuning, interactive evaluation, the ablation grid, and the labeled
percentage sweep. Every command derives all randomness from --seed via
named streams; main times it and writes a JSON run manifest (command,
config snapshot, seeds, the paths it read and wrote with content hashes,
the BLAS kernel and build, wall clock) next to its outputs.

Exit codes: 0 success, 2 bad command line (argparse), 3 an input path
that is not a file, 4 schema/checkpoint version mismatch, 5 invalid
configuration or value (including an input file that breaks FORMATS.md or
does not fit the world or checkpoint it is used with, an output path that
is a directory or whose directory cannot be made, and a numeric failure: a
non-finite gradient, an overflow, an invalid value or a division by zero,
or training that left every logit outside the clamp), 1 unexpected failure.
Output paths are checked before the command reads or trains anything.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import datasets, dialogworld, nncore, trainer
from .datasets import DataError, DataVersionError
from .dialogworld import WorldError, WorldSchema, WorldVersionError
from .policy import CheckpointVersionError, PolicyError, PolicyNet
from .trainer import ExperimentReport, TrainConfig, TrainerError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_VERSION = 4
EXIT_INVALID = 5

DEFAULT_N_DIALOGS = 400

# report metric -> column stem, in column order; each metric gives a mean and a std column
REPORT_METRICS = {
    "turns": "turn",
    "match": "match",
    "inform_recall": "inform_recall",
    "inform_f1": "inform_f1",
    "success": "success_pct",
}
REPORT_COLUMNS = ("method",) + tuple(
    f"{stem}_{stat}" for stem in REPORT_METRICS.values() for stat in ("mean", "std"))


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# -- config files ----------------------------------------------------------------

# config-file keys are the TrainConfig fields, whose annotations are strings
# under postponed evaluation
_KEY_KINDS = {"int": int, "float": float, "str": str, "bool": "bool", "tuple[int, ...]": "dims"}
CONFIG_KEYS = {f.name: _KEY_KINDS[f.type] for f in dataclasses.fields(TrainConfig)}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CliError(f"not a boolean: {raw!r}", EXIT_INVALID)


def read_config_file(path: Path) -> dict:
    """Parse a ``key = value`` config file (# starts a comment)."""
    if not path.is_file():
        raise CliError(f"config file not found: {path}", EXIT_MISSING_FILE)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise CliError(f"{path}: not UTF-8 text ({err})", EXIT_INVALID) from err
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{lineno}: expected 'key = value'", EXIT_INVALID)
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}", EXIT_INVALID)
        kind = CONFIG_KEYS[key]
        try:
            if kind == "bool":
                values[key] = _parse_bool(raw)
            elif kind == "dims":
                values[key] = tuple(int(x) for x in raw.split(",") if x.strip())
            else:
                values[key] = kind(raw)
        except ValueError as err:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {raw!r}", EXIT_INVALID) from err
    return values


def build_train_config(file_values: dict, overrides: dict) -> TrainConfig:
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return TrainConfig(**merged)
    except (TrainerError, TypeError) as err:
        raise CliError(f"invalid training configuration: {err}", EXIT_INVALID) from err


def _train_config(args, **overrides) -> TrainConfig:
    """The --config file's values under ``overrides`` and the command's --seed,
    when given."""
    file_values = read_config_file(args.config) if args.config else {}
    return build_train_config(file_values, {"seed": args.seed, **overrides})


# -- manifests ---------------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


_BLAS_SYMBOLS = {"blas_kernel": "scipy_openblas_get_corename64_",
                 "blas_build": "scipy_openblas_get_config64_"}


@functools.cache
def blas_info() -> dict[str, str]:
    """The OpenBLAS kernel numpy's bundled scipy-openblas picked on this CPU
    and its build string, as ``{"blas_kernel": ..., "blas_build": ...}``:
    trained bytes depend on both. Read through ctypes from the library numpy
    links; ``"unknown"`` for each that a numpy without that library lacks."""
    import ctypes  # loaded only by a command that writes a manifest

    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        lib = None
    info = {}
    for key, symbol in _BLAS_SYMBOLS.items():
        fn = getattr(lib, symbol, None)
        if fn is None:
            info[key] = "unknown"
            continue
        fn.restype = ctypes.c_char_p
        info[key] = fn().decode("utf-8", "replace").strip()
    return info


def write_manifest(path: Path, command: str, args: dict, inputs: list, outputs: list,
                   config: dict | None, started: float) -> None:
    manifest = {
        "command": command,
        "arguments": {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in args.items()
            if not callable(v)
        },
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        **blas_info(),
        "wall_clock_s": round(time.time() - started, 3),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


class Files:
    """A command's file boundary. Every input file is read and every output
    path is claimed here, so the manifest lists exactly what the command
    read and wrote, in that order."""

    def __init__(self):
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []

    def load(self, reader, path: Path):
        """Read an input file. A path that is not a file exits 3 and a version
        mismatch 4; any other malformed file raises its module's error, which
        main maps to exit 5."""
        if not path.is_file():
            raise CliError(f"input file not found: {path}", EXIT_MISSING_FILE)
        self.inputs.append(path)
        try:
            return reader(path)
        except (DataVersionError, WorldVersionError, CheckpointVersionError) as err:
            raise CliError(str(err), EXIT_VERSION) from err

    def output(self, path: Path) -> Path:
        """``path``, with its directory made, for the command to write now. A
        path that is a directory, or whose directory cannot be made, exits 5."""
        check_output(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise CliError(f"{path}: cannot make directory {path.parent}: {err.strerror}",
                           EXIT_INVALID) from err
        self.outputs.append(path)
        return path


def check_output(path: Path) -> None:
    """Exit 5 with the line ``Files.output`` would give if ``path`` is a
    directory or a non-directory stands where its directory would be made.
    Makes nothing, so main checks every output before a command runs."""
    if path.is_dir():
        raise CliError(f"{path}: is a directory", EXIT_INVALID)
    ancestor = path.parent
    while not ancestor.exists() and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        # what mkdir says: the directory itself exists as a file, or a file is on its way
        code = errno.EEXIST if ancestor == path.parent else errno.ENOTDIR
        raise CliError(f"{path}: cannot make directory {path.parent}: {os.strerror(code)}",
                       EXIT_INVALID)


def sweep_path(out_dir: Path, name: str) -> Path:
    """The sweep table of one method, or of the logging policy."""
    return out_dir / f"sweep_{name}.csv"


def output_paths(args) -> list[Path]:
    """The files a command writes, in write order, known from its flags alone;
    the --out-dir commands take their file names from here."""
    out_dir = getattr(args, "out_dir", None)
    if args.command == "split-and-log":
        return [out_dir / "labeled.jsonl", out_dir / "bandit.jsonl",
                out_dir / "logging_policy.json"]
    if args.command == "ablate":
        return [out_dir / "ablations.csv", out_dir / "ablations.json"]
    if args.command == "sweep":
        # one file per method, then the logging policy's, as a sweep point's rows run
        return [sweep_path(out_dir, name) for name in (*args.methods, "logging")]
    # the expert writes no trace
    flags = ("out", "json", "train_log", "threshold_trace")
    if args.command == "evaluate" and not args.expert:
        flags = ("trace",) + flags
    return [getattr(args, flag) for flag in flags if getattr(args, flag, None) is not None]


# -- cross-file checks: a file's widths against the world or checkpoint it meets


def _mismatch(path, what: str, got: int, limit_name: str, limit: int, source: str) -> CliError:
    return CliError(f"{path}: {what} {got} does not match {limit_name} {limit} of {source}",
                    EXIT_INVALID)


def _check_corpus_fits(path, corpus, state_dim: int, num_actions: int, source: str,
                       names=("state_dim", "num_actions")) -> None:
    """State length and action indices of a labeled corpus (its constructor
    has made its actions non-empty, sorted and non-negative, so each row's
    last index is its largest)."""
    if not corpus:
        return
    if corpus.states.shape[1] != state_dim:
        raise _mismatch(path, "state length", corpus.states.shape[1], names[0], state_dim,
                        source)
    top = corpus.indices[corpus.offsets[1:] - 1]
    bad = np.flatnonzero(top >= num_actions)
    if bad.size:
        raise CliError(f"{path}: record {bad[0] + 1} has action index {top[bad[0]]}, "
                       f"not below {names[1]} {num_actions} of {source}", EXIT_INVALID)


def _check_log_fits(path, log, policy: PolicyNet, source: str) -> None:
    """State and rho lengths of a bandit log against the logging policy (its
    constructor has made the logged sets match rho)."""
    if not len(log):
        return
    spec = policy.spec
    if log.states.shape[1] != spec.input_dim:
        raise _mismatch(path, "state length", log.states.shape[1], "input_dim",
                        spec.input_dim, source)
    if log.rho.shape[1] != spec.output_dim:
        raise _mismatch(path, "rho length", log.rho.shape[1], "output_dim",
                        spec.output_dim, source)


def _check_policy_fits(path, policy: PolicyNet, schema: WorldSchema, source: str) -> None:
    spec = policy.spec
    if spec.input_dim != schema.state_dim:
        raise _mismatch(path, "input_dim", spec.input_dim, "state_dim", schema.state_dim, source)
    if spec.output_dim != schema.num_actions:
        raise _mismatch(path, "output_dim", spec.output_dim, "num_actions",
                        schema.num_actions, source)


# -- report serialization -------------------------------------------------------------


def report_row(report: ExperimentReport) -> list:
    return [report.method] + [repr(value) for metric in REPORT_METRICS
                              for value in report.metrics[metric]]


def write_report_csv(path: Path, reports: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for report in reports:
            writer.writerow(report_row(report))


def read_report_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


def write_report_json(path: Path, reports: list) -> None:
    payload = [
        {
            "method": r.method,
            "metrics": {k: {"mean": v[0], "std": v[1]} for k, v in r.metrics.items()},
            "n_runs": r.n_runs,
            "n_dialogs": r.n_dialogs,
            "seed": r.seed,
        }
        for r in reports
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# -- commands ---------------------------------------------------------------------------
# Each command reads through ``files.load`` and writes through ``files.output``;
# it returns the training config it used as a dict (None if it trains nothing)
# for main to put in the run manifest.


def cmd_gen_world(args, files: Files) -> dict | None:
    if args.schema_config is not None:
        schema = files.load(WorldSchema.load, args.schema_config)
    elif args.tiny:
        schema = dialogworld.tiny_schema()
    else:
        schema = dialogworld.default_schema()
    schema.save(files.output(args.out))
    print(f"world written: {args.out} (C={schema.num_actions}, D={schema.state_dim})")
    return None


def cmd_gen_corpus(args, files: Files) -> dict | None:
    schema = files.load(WorldSchema.load, args.world)
    corpus = datasets.generate_corpus(schema, args.n_dialogs, args.seed)
    datasets.write_labeled_jsonl(files.output(args.out), corpus)
    print(f"corpus written: {args.out} ({len(corpus)} examples from {args.n_dialogs} dialogs)")
    return None


def cmd_split_and_log(args, files: Files) -> dict | None:
    schema = files.load(WorldSchema.load, args.world)
    corpus = files.load(datasets.read_labeled_jsonl, args.corpus)
    _check_corpus_fits(args.corpus, corpus, schema.state_dim, schema.num_actions,
                       f"world {args.world}")
    cfg = _train_config(args)
    labeled, logging_policy, log = trainer.log_point(corpus, schema, args.labeled_fraction, cfg)
    labeled_path, bandit_path, policy_path = output_paths(args)
    datasets.write_labeled_jsonl(files.output(labeled_path), labeled)
    datasets.write_bandit_jsonl(files.output(bandit_path), log)
    logging_policy.save(files.output(policy_path))
    print(
        f"split: {len(labeled)} labeled / {len(log)} bandit "
        f"(positive feedback rate {log.delta.sum() / max(len(log), 1):.3f})"
    )
    return dataclasses.asdict(cfg)


def cmd_train(args, files: Files) -> dict | None:
    cfg = _train_config(args, method=args.method)
    log = files.load(datasets.read_bandit_jsonl, args.bandit)
    logging_policy = files.load(PolicyNet.load, args.logging_policy)
    source = f"logging policy {args.logging_policy}"
    _check_log_fits(args.bandit, log, logging_policy, source)
    labeled = files.load(datasets.read_labeled_jsonl, args.labeled) if args.labeled else None
    if labeled is not None:
        _check_corpus_fits(args.labeled, labeled, logging_policy.spec.input_dim,
                           logging_policy.spec.output_dim, source,
                           names=("input_dim", "output_dim"))
    # only a threshold trace keeps each step's thresholds, by step, until training ends
    thresholds = {}
    policy, history = trainer.train_on_log(
        logging_policy, log, cfg, labeled_split=labeled,
        on_thresholds=thresholds.__setitem__ if args.threshold_trace else None)
    policy.save(files.output(args.out))
    if args.train_log:
        trainer.write_training_log(files.output(args.train_log), history)
    if args.threshold_trace:
        trainer.write_threshold_trace(files.output(args.threshold_trace), history, thresholds)
    print(f"trained {cfg.method} for {len(history)} steps -> {args.out}")
    return dataclasses.asdict(cfg)


def cmd_evaluate(args, files: Files) -> dict | None:
    schema = files.load(WorldSchema.load, args.world)
    if args.expert:
        report = trainer.evaluate_expert(schema, args.n_dialogs, args.n_runs, args.seed)
    else:
        if args.checkpoint is None:
            raise CliError("either --checkpoint or --expert is required", EXIT_INVALID)
        policy = files.load(PolicyNet.load, args.checkpoint)
        _check_policy_fits(f"checkpoint {args.checkpoint}", policy, schema, f"world {args.world}")
        trace = open(files.output(args.trace), "w", encoding="utf-8") if args.trace else None
        with trace or contextlib.nullcontext():
            report = trainer.evaluate(
                policy, schema, args.n_dialogs, args.n_runs, args.seed,
                method=args.method_name or "policy",
                on_episode=None if trace is None else lambda run, index, turns: trace.write(
                    json.dumps({"run": run, "episode": index, "turns": turns}) + "\n"),
            )
    write_report_csv(files.output(args.out), [report])
    if args.json:
        write_report_json(files.output(args.json), [report])
    m = report.metrics
    print(
        f"{report.method}: success {dialogworld.format_metric(*m['success'], digits=1)} | "
        f"inform F1 {dialogworld.format_metric(*m['inform_f1'])} | "
        f"turn {dialogworld.format_metric(*m['turns'])}"
    )
    return None


def cmd_ablate(args, files: Files) -> dict | None:
    schema = files.load(WorldSchema.load, args.world)
    log = files.load(datasets.read_bandit_jsonl, args.bandit)
    logging_policy = files.load(PolicyNet.load, args.logging_policy)
    _check_policy_fits(f"logging policy {args.logging_policy}", logging_policy, schema,
                       f"world {args.world}")
    _check_log_fits(args.bandit, log, logging_policy,
                    f"logging policy {args.logging_policy}")
    cfg = _train_config(args)
    point = (None, logging_policy, log, cfg.seed, trainer.ablation_rows(cfg))
    [reports] = trainer.run_grid([point], schema, args.n_dialogs, args.n_runs)
    table_path, json_path = output_paths(args)
    write_report_csv(files.output(table_path), reports)
    write_report_json(files.output(json_path), reports)
    print(f"ablation table written: {table_path} ({len(reports)} rows)")
    return dataclasses.asdict(cfg)


def cmd_sweep(args, files: Files) -> dict | None:
    schema = files.load(WorldSchema.load, args.world)
    corpus = files.load(datasets.read_labeled_jsonl, args.corpus)
    _check_corpus_fits(args.corpus, corpus, schema.state_dim, schema.num_actions,
                       f"world {args.world}")
    cfg = _train_config(args)
    results = trainer.run_sl_sweep(
        corpus, schema, cfg, percentages=args.percentages, methods=args.methods,
        n_dialogs=args.n_dialogs, n_runs=args.n_runs,
    )
    for name, rows in results.items():
        with open(files.output(sweep_path(args.out_dir, name)), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("sl_percent",) + REPORT_COLUMNS)
            for p, report in rows:
                writer.writerow([p] + report_row(report))
    print(f"sweep written: {len(results)} method files in {args.out_dir}")
    return dataclasses.asdict(cfg)


# -- argument parsing ----------------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an integer of at least ``low`` (seeds, dialog and run counts)."""
    def parse(raw: str) -> int:
        if not raw.strip().isdecimal() or int(raw) < low:
            raise argparse.ArgumentTypeError(f"{raw!r} is not an integer >= {low}")
        return int(raw)
    return parse


_at_least_zero = _int_at_least(0)
_at_least_one = _int_at_least(1)


def _comma_list(choices: dict, what: str):
    """argparse type: a comma list of distinct keys of ``choices``, read as their values."""
    def parse(raw: str) -> tuple:
        parts = [part.strip() for part in raw.split(",")]
        for i, part in enumerate(parts):
            if part not in choices:
                raise argparse.ArgumentTypeError(f"{part!r} is not {what}")
            if part in parts[:i]:
                raise argparse.ArgumentTypeError(f"{part!r} repeats in {raw!r}")
        return tuple(choices[part] for part in parts)
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditmatch",
        description="Multi-action dialog policy learning from logged bandit feedback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-world", help="write a dialog world schema file")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--schema-config", type=Path, default=None,
                   help="existing schema file to validate and re-emit")
    p.add_argument("--tiny", action="store_true", help="single-domain two-entity world")
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("gen-corpus", help="roll expert dialogs into a labeled corpus")
    p.add_argument("--world", type=Path, required=True)
    p.add_argument("--n-dialogs", type=_at_least_one, default=DEFAULT_N_DIALOGS)
    p.add_argument("--seed", type=_at_least_zero, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser(
        "split-and-log",
        help="split the corpus, train the logging policy, log bandit feedback",
    )
    p.add_argument("--world", type=Path, required=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--labeled-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=_at_least_zero, default=None)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=cmd_split_and_log)

    p = sub.add_parser("train", help="fine-tune a policy on logged feedback")
    p.add_argument("--method", default=None,
                   choices=list(trainer.FINETUNE_METHODS))
    p.add_argument("--bandit", type=Path, required=True)
    p.add_argument("--logging-policy", type=Path, required=True)
    p.add_argument("--labeled", type=Path, default=None,
                   help="labeled split (required by the fixmatch baseline)")
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--seed", type=_at_least_zero, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--train-log", type=Path, default=None, help="per-step loss CSV")
    p.add_argument("--threshold-trace", type=Path, default=None,
                   help="per-step per-class threshold diagnostics CSV "
                        "(header only for methods without FET thresholds)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="interactive evaluation in the dialog world")
    p.add_argument("--world", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--expert", action="store_true", help="evaluate the rule expert")
    p.add_argument("--method-name", default=None)
    p.add_argument("--n-dialogs", type=_at_least_one, default=trainer.EVAL_DIALOGS)
    p.add_argument("--n-runs", type=_at_least_one, default=trainer.EVAL_RUNS)
    p.add_argument("--seed", type=_at_least_zero, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--json", type=Path, default=None)
    p.add_argument("--trace", type=Path, default=None,
                   help="dump per-episode dialog traces to this JSONL file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="full method plus the five ablation rows")
    p.add_argument("--world", type=Path, required=True)
    p.add_argument("--bandit", type=Path, required=True)
    p.add_argument("--logging-policy", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--seed", type=_at_least_zero, default=None)
    p.add_argument("--n-dialogs", type=_at_least_one, default=trainer.EVAL_DIALOGS)
    p.add_argument("--n-runs", type=_at_least_one, default=trainer.EVAL_RUNS)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="labeled-percentage sweep over methods")
    p.add_argument("--world", type=Path, required=True)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--seed", type=_at_least_zero, default=None)
    p.add_argument("--percentages", default=trainer.DEFAULT_SWEEP_PERCENTAGES,
                   type=_comma_list({str(n): n for n in range(1, 101)}, "an integer in 1..100"),
                   help="comma list of distinct labeled percentages, default 5,10,...,90")
    p.add_argument("--methods", default=trainer.FINETUNE_METHODS,
                   type=_comma_list({m: m for m in trainer.FINETUNE_METHODS},
                                    "one of " + ", ".join(trainer.FINETUNE_METHODS)),
                   help="comma list of distinct fine-tuning methods, default all four")
    p.add_argument("--n-dialogs", type=_at_least_one, default=trainer.EVAL_DIALOGS)
    p.add_argument("--n-runs", type=_at_least_one, default=trainer.EVAL_RUNS)
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


# manifest names of the --out-dir commands; the others write <stem>.manifest.json beside --out
_OUT_DIR_MANIFESTS = {"split-and-log": "split_and_log", "ablate": "ablations", "sweep": "sweep"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    files = Files()
    if args.command in _OUT_DIR_MANIFESTS:
        manifest = args.out_dir / f"{_OUT_DIR_MANIFESTS[args.command]}.manifest.json"
    else:
        manifest = args.out.with_name(f"{args.out.stem}.manifest.json")
    try:
        # an output that cannot be written, or that another output also
        # names, fails here, before any work
        written: dict[Path, Path] = {}
        for path in (*output_paths(args), manifest):
            check_output(path)
            if written.setdefault(path.resolve(), path) is not path:
                raise CliError(f"{path}: two outputs name this file", EXIT_INVALID)
        # an overflow, an invalid value or a division by zero stops the command
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            config = args.func(args, files)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (WorldError, DataError, TrainerError, nncore.NncoreError, PolicyError,
            FloatingPointError) as err:
        # NncoreError covers NonFiniteGradientError; PolicyError a bad checkpoint or
        # spec; FloatingPointError says "overflow encountered in matmul" and the like
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    write_manifest(manifest, args.command, vars(args), files.inputs, files.outputs, config,
                   started)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
