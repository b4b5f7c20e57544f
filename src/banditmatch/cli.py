"""Command-line front end for the logged-feedback pipeline.

Subcommands cover the whole experiment flow: world generation, expert
corpus rollout, labeled/bandit splitting plus feedback logging, policy
fine-tuning, interactive evaluation, the ablation grid, and the labeled
percentage sweep. Every command derives all randomness from --seed via
named streams and writes a JSON run manifest (command, config snapshot,
seeds, input/output paths with content hashes, wall clock) next to its
outputs.

Exit codes: 0 success, 2 bad command line (argparse), 3 missing input
file, 4 schema/checkpoint version mismatch, 5 invalid configuration or
value, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import multiprocessing
import sys
import time
from pathlib import Path

import numpy as np

from . import datasets, dialogworld, nncore, trainer
from .datasets import DataError, DataVersionError, SplitConfig
from .dialogworld import WorldError, WorldSchema
from .objectives import AugmentConfig, LossWeights
from .policy import ActionSetPolicy, PolicyNet, policy_spec_for
from .seeding import derive_rng
from .trainer import ExperimentReport, TrainConfig, TrainerError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_VERSION = 4
EXIT_INVALID = 5

DEFAULT_N_DIALOGS = 400
DEFAULT_EVAL_DIALOGS = 500
DEFAULT_EVAL_RUNS = 5

REPORT_COLUMNS = (
    "method",
    "turn_mean", "turn_std",
    "match_mean", "match_std",
    "inform_recall_mean", "inform_recall_std",
    "inform_f1_mean", "inform_f1_std",
    "success_pct_mean", "success_pct_std",
)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# -- config files ----------------------------------------------------------------

CONFIG_KEYS = {
    "seed": int,
    "batch_size": int,
    "epochs": int,
    "sl_epochs": int,
    "sl_label_smoothing": float,
    "learning_rate": float,
    "optimizer": str,
    "hidden_dims": "dims",
    "lambda_pseudo": float,
    "lambda_bandit": float,
    "lambda_kl": float,
    "alpha_weak": float,
    "alpha_strong": float,
    "fet_decay": float,
    "method": str,
    "add_kl": "bool",
    "no_mc_scale": "bool",
    "no_fet": "bool",
    "no_cbl": "bool",
    "no_kl": "bool",
    "warm_start": "bool",
    "weight_decay": float,
    "holdout_fraction": float,
    "early_stop": "bool",
    "ips_clip": float,
    "banditnet_translation": float,
    "fixmatch_tau": float,
    "fixmatch_labeled_source": str,
    "replay_labeled": "bool",
}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CliError(f"not a boolean: {raw!r}", EXIT_INVALID)


def read_config_file(path: Path) -> dict:
    """Parse a ``key = value`` config file (# starts a comment)."""
    if not path.exists():
        raise CliError(f"config file not found: {path}", EXIT_MISSING_FILE)
    values: dict = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
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
    weights = LossWeights(
        pseudo=merged.pop("lambda_pseudo", 1.0),
        bandit=merged.pop("lambda_bandit", 1.0),
        kl=merged.pop("lambda_kl", 1.0),
    )
    aug = AugmentConfig(
        alpha_weak=merged.pop("alpha_weak", 0.2),
        alpha_strong=merged.pop("alpha_strong", 2.0),
    )
    try:
        return TrainConfig(weights=weights, aug=aug, **merged)
    except (TrainerError, TypeError) as err:
        raise CliError(f"invalid training configuration: {err}", EXIT_INVALID) from err


def config_snapshot(config: TrainConfig) -> dict:
    snap = dataclasses.asdict(config)
    snap["hidden_dims"] = list(config.hidden_dims)
    return snap


# -- manifests ---------------------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, name: str, command: str, args: dict,
                   inputs: list, outputs: list, config: dict | None,
                   started: float) -> Path:
    manifest = {
        "command": command,
        "arguments": {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in args.items()
            if not callable(v)
        },
        "config": config,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
        "wall_clock_s": round(time.time() - started, 3),
    }
    path = out_dir / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _require(path: Path) -> Path:
    if not path.exists():
        raise CliError(f"input file not found: {path}", EXIT_MISSING_FILE)
    return path


def _load_world(path: Path) -> WorldSchema:
    _require(path)
    try:
        return WorldSchema.load(path)
    except WorldError as err:
        raise CliError(str(err), EXIT_VERSION) from err


def _load_policy(path: Path) -> PolicyNet:
    _require(path)
    try:
        return PolicyNet.load(path)
    except nncore.CheckpointError as err:
        raise CliError(str(err), EXIT_VERSION) from err


def _read_labeled(path: Path):
    _require(path)
    try:
        return datasets.read_labeled_jsonl(path)
    except DataError as err:
        code = EXIT_VERSION if isinstance(err, DataVersionError) else EXIT_INVALID
        raise CliError(str(err), code) from err


def _read_bandit(path: Path):
    _require(path)
    try:
        return datasets.read_bandit_jsonl(path)
    except DataError as err:
        code = EXIT_VERSION if isinstance(err, DataVersionError) else EXIT_INVALID
        raise CliError(str(err), code) from err


# -- report serialization -------------------------------------------------------------


def report_row(report: ExperimentReport) -> list:
    m = report.metrics
    return [
        report.method,
        repr(m["turns"][0]), repr(m["turns"][1]),
        repr(m["match"][0]), repr(m["match"][1]),
        repr(m["inform_recall"][0]), repr(m["inform_recall"][1]),
        repr(m["inform_f1"][0]), repr(m["inform_f1"][1]),
        repr(m["success"][0]), repr(m["success"][1]),
    ]


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


# -- parallel evaluation ----------------------------------------------------------------

_POOL_STATE: dict = {}


def _episode_worker(goal):
    policy, schema, max_turns = (
        _POOL_STATE["policy"], _POOL_STATE["schema"], _POOL_STATE["max_turns"]
    )
    adapter = ActionSetPolicy(policy, schema)
    return dialogworld.run_episode(adapter, schema, goal, max_turns=max_turns)


def evaluate_parallel(policy, schema, n_dialogs, n_runs, seed, jobs,
                      method="policy", max_turns=20) -> ExperimentReport:
    """Evaluation with episodes fanned out over worker processes.

    Goals are pre-sampled per run so the result is identical to the
    sequential path regardless of worker count.
    """
    if jobs <= 1:
        return trainer.evaluate(policy, schema, n_dialogs, n_runs, seed,
                                max_turns=max_turns, method=method)
    run_means: dict[str, list[float]] = {}
    ctx = multiprocessing.get_context("fork")
    _POOL_STATE.update(policy=policy, schema=schema, max_turns=max_turns)
    try:
        with ctx.Pool(processes=jobs) as pool:
            for run in range(n_runs):
                rng = derive_rng(seed, "eval", run)
                goals = [dialogworld.sample_goal(schema, rng) for _ in range(n_dialogs)]
                episodes = pool.map(_episode_worker, goals)
                agg = dialogworld.compute_aggregate(episodes)
                for name, (mean_value, _) in agg.items():
                    run_means.setdefault(name, []).append(mean_value)
    finally:
        _POOL_STATE.clear()
    metrics = {
        name: (float(np.mean(vals)), float(np.std(vals)))
        for name, vals in run_means.items()
    }
    return ExperimentReport(method, metrics, n_runs, n_dialogs, seed)


# -- commands ---------------------------------------------------------------------------


def cmd_gen_world(args) -> int:
    started = time.time()
    if args.schema_config is not None:
        schema = _load_world(args.schema_config)
    elif args.tiny:
        schema = dialogworld.tiny_schema()
    else:
        schema = dialogworld.default_schema()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    schema.save(out)
    write_manifest(out.parent, out.stem + ".manifest.json", "gen-world",
                   vars(args),
                   inputs=[args.schema_config] if args.schema_config else [],
                   outputs=[out], config=None, started=started)
    print(f"world written: {out} (C={schema.num_actions}, D={schema.state_dim})")
    return EXIT_OK


def cmd_gen_corpus(args) -> int:
    started = time.time()
    schema = _load_world(Path(args.world))
    try:
        corpus = datasets.generate_corpus(schema, args.n_dialogs, args.seed)
    except DataError as err:
        raise CliError(str(err), EXIT_INVALID) from err
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    datasets.write_labeled_jsonl(out, corpus)
    write_manifest(out.parent, out.stem + ".manifest.json", "gen-corpus",
                   vars(args), inputs=[args.world], outputs=[out],
                   config=None, started=started)
    print(f"corpus written: {out} ({len(corpus)} examples from {args.n_dialogs} dialogs)")
    return EXIT_OK


def cmd_split_and_log(args) -> int:
    started = time.time()
    schema = _load_world(Path(args.world))
    corpus = _read_labeled(Path(args.corpus))
    cfg = build_train_config(
        read_config_file(Path(args.config)) if args.config else {},
        {"seed": args.seed},
    )
    try:
        split = SplitConfig(args.labeled_fraction, seed=args.seed)
    except DataError as err:
        raise CliError(str(err), EXIT_INVALID) from err
    labeled, pool = datasets.split_corpus(corpus, split)
    spec = policy_spec_for(schema, cfg.hidden_dims)
    logging_policy = trainer.train_logging_policy(labeled, spec, cfg)
    records = datasets.log_bandit_data(logging_policy, pool)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labeled_path = out_dir / "labeled.jsonl"
    bandit_path = out_dir / "bandit.jsonl"
    policy_path = out_dir / "logging_policy.json"
    datasets.write_labeled_jsonl(labeled_path, labeled)
    datasets.write_bandit_jsonl(bandit_path, records)
    logging_policy.save(policy_path)
    write_manifest(out_dir, "split_and_log.manifest.json", "split-and-log",
                   vars(args), inputs=[args.world, args.corpus],
                   outputs=[labeled_path, bandit_path, policy_path],
                   config=config_snapshot(cfg), started=started)
    positive = sum(r.feedback for r in records)
    print(
        f"split: {len(labeled)} labeled / {len(pool)} bandit "
        f"(positive feedback rate {positive / max(len(records), 1):.3f})"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.time()
    file_values = read_config_file(Path(args.config)) if args.config else {}
    overrides = {"seed": args.seed, "method": args.method}
    if args.threshold_trace:
        overrides["threshold_trace_path"] = str(args.threshold_trace)
    cfg = build_train_config(file_values, overrides)
    records = _read_bandit(Path(args.bandit))
    logging_policy = _load_policy(Path(args.logging_policy))
    labeled = _read_labeled(Path(args.labeled)) if args.labeled else None
    try:
        policy, history = trainer.train_on_log(logging_policy, records, cfg, labeled_split=labeled)
    except TrainerError as err:
        raise CliError(str(err), EXIT_INVALID) from err
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    policy.save(out)
    outputs = [out]
    if args.train_log:
        trainer.write_training_log(Path(args.train_log), history)
        outputs.append(Path(args.train_log))
    if args.threshold_trace and Path(args.threshold_trace).exists():
        outputs.append(Path(args.threshold_trace))
    write_manifest(out.parent, out.stem + ".manifest.json", "train",
                   vars(args),
                   inputs=[p for p in (args.bandit, args.logging_policy, args.labeled) if p],
                   outputs=outputs, config=config_snapshot(cfg), started=started)
    print(f"trained {cfg.method} for {len(history)} steps -> {out}")
    return EXIT_OK


def _evaluate_with_traces(policy, schema, args) -> tuple[ExperimentReport, Path]:
    """Sequential evaluation that also dumps per-episode traces as JSONL."""
    trace_path = Path(args.trace)
    adapter = ActionSetPolicy(policy, schema)
    run_means: dict[str, list[float]] = {}
    with open(trace_path, "w", encoding="utf-8") as fh:
        for run in range(args.n_runs):
            rng = derive_rng(args.seed, "eval", run)
            episodes = []
            for episode_idx in range(args.n_dialogs):
                goal = dialogworld.sample_goal(schema, rng)
                turns: list = []
                episodes.append(
                    dialogworld.run_episode(adapter, schema, goal, trace=turns)
                )
                fh.write(json.dumps({"run": run, "episode": episode_idx, "turns": turns}) + "\n")
            agg = dialogworld.compute_aggregate(episodes)
            for name, (mean_value, _) in agg.items():
                run_means.setdefault(name, []).append(mean_value)
    metrics = {
        name: (float(np.mean(vals)), float(np.std(vals)))
        for name, vals in run_means.items()
    }
    name = args.method_name or "policy"
    return ExperimentReport(name, metrics, args.n_runs, args.n_dialogs, args.seed), trace_path


def cmd_evaluate(args) -> int:
    started = time.time()
    schema = _load_world(Path(args.world))
    trace_out = None
    if args.expert:
        report = trainer.evaluate_expert(schema, args.n_dialogs, args.n_runs, args.seed)
        inputs = [args.world]
    else:
        if args.checkpoint is None:
            raise CliError("either --checkpoint or --expert is required", EXIT_INVALID)
        policy = _load_policy(Path(args.checkpoint))
        if args.trace:
            report, trace_out = _evaluate_with_traces(policy, schema, args)
        else:
            name = args.method_name or "policy"
            report = evaluate_parallel(policy, schema, args.n_dialogs, args.n_runs,
                                       args.seed, args.jobs, method=name)
        inputs = [args.world, args.checkpoint]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_report_csv(out, [report])
    outputs = [out]
    if trace_out is not None:
        outputs.append(trace_out)
    if args.json:
        write_report_json(Path(args.json), [report])
        outputs.append(Path(args.json))
    write_manifest(out.parent, out.stem + ".manifest.json", "evaluate",
                   vars(args), inputs=inputs, outputs=outputs,
                   config=None, started=started)
    m = report.metrics
    print(
        f"{report.method}: success {dialogworld.format_metric(*m['success'], digits=1)} | "
        f"inform F1 {dialogworld.format_metric(*m['inform_f1'])} | "
        f"turn {dialogworld.format_metric(*m['turns'])}"
    )
    return EXIT_OK


def cmd_ablate(args) -> int:
    started = time.time()
    schema = _load_world(Path(args.world))
    records = _read_bandit(Path(args.bandit))
    logging_policy = _load_policy(Path(args.logging_policy))
    cfg = build_train_config(
        read_config_file(Path(args.config)) if args.config else {},
        {"seed": args.seed},
    )
    reports = trainer.run_ablation_grid(
        logging_policy, records, schema, cfg,
        n_dialogs=args.n_dialogs, n_runs=args.n_runs, eval_seed=args.seed,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / "ablations.csv"
    write_report_csv(table_path, reports)
    write_report_json(out_dir / "ablations.json", reports)
    write_manifest(out_dir, "ablations.manifest.json", "ablate", vars(args),
                   inputs=[args.world, args.bandit, args.logging_policy],
                   outputs=[table_path, out_dir / "ablations.json"],
                   config=config_snapshot(cfg), started=started)
    print(f"ablation table written: {table_path} ({len(reports)} rows)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.time()
    schema = _load_world(Path(args.world))
    corpus = _read_labeled(Path(args.corpus))
    cfg = build_train_config(
        read_config_file(Path(args.config)) if args.config else {},
        {"seed": args.seed},
    )
    percentages = (
        tuple(int(p) for p in args.percentages.split(","))
        if args.percentages
        else trainer.DEFAULT_SWEEP_PERCENTAGES
    )
    methods = tuple(args.methods.split(",")) if args.methods else (
        trainer.METHOD_BANDITMATCH, trainer.METHOD_FIXMATCH,
        trainer.METHOD_IPS, trainer.METHOD_BANDITNET,
    )
    results = trainer.run_sl_sweep(
        corpus, schema, cfg, percentages=percentages, methods=methods,
        n_dialogs=args.n_dialogs, n_runs=args.n_runs,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for method, rows in results.items():
        path = out_dir / f"sweep_{method}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("sl_percent",) + REPORT_COLUMNS)
            for p, report in rows:
                writer.writerow([p] + report_row(report))
        outputs.append(path)
    write_manifest(out_dir, "sweep.manifest.json", "sweep", vars(args),
                   inputs=[args.world, args.corpus], outputs=outputs,
                   config=config_snapshot(cfg), started=started)
    print(f"sweep written: {len(outputs)} method files in {out_dir}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditmatch",
        description="Multi-action dialog policy learning from logged bandit feedback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-world", help="write a dialog world schema file")
    p.add_argument("--out", required=True)
    p.add_argument("--schema-config", type=Path, default=None,
                   help="existing schema file to validate and re-emit")
    p.add_argument("--tiny", action="store_true", help="single-domain two-entity world")
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("gen-corpus", help="roll expert dialogs into a labeled corpus")
    p.add_argument("--world", required=True)
    p.add_argument("--n-dialogs", type=int, default=DEFAULT_N_DIALOGS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser(
        "split-and-log",
        help="split the corpus, train the logging policy, log bandit feedback",
    )
    p.add_argument("--world", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--labeled-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_split_and_log)

    p = sub.add_parser("train", help="fine-tune a policy on logged feedback")
    p.add_argument("--method", default=None,
                   choices=list(trainer.FINETUNE_METHODS))
    p.add_argument("--bandit", required=True)
    p.add_argument("--logging-policy", required=True)
    p.add_argument("--labeled", default=None,
                   help="labeled split (required by the fixmatch baseline)")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--train-log", default=None, help="per-step loss CSV")
    p.add_argument("--threshold-trace", default=None,
                   help="per-step per-class threshold diagnostics CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="interactive evaluation in the dialog world")
    p.add_argument("--world", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--expert", action="store_true", help="evaluate the rule expert")
    p.add_argument("--method-name", default=None)
    p.add_argument("--n-dialogs", type=int, default=DEFAULT_EVAL_DIALOGS)
    p.add_argument("--n-runs", type=int, default=DEFAULT_EVAL_RUNS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for evaluation episodes")
    p.add_argument("--out", required=True)
    p.add_argument("--json", default=None)
    p.add_argument("--trace", default=None,
                   help="dump per-episode dialog traces to this JSONL file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="full method plus the five ablation rows")
    p.add_argument("--world", required=True)
    p.add_argument("--bandit", required=True)
    p.add_argument("--logging-policy", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-dialogs", type=int, default=DEFAULT_EVAL_DIALOGS)
    p.add_argument("--n-runs", type=int, default=DEFAULT_EVAL_RUNS)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="labeled-percentage sweep over methods")
    p.add_argument("--world", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--percentages", default=None, help="comma list, default 5,10,...,90")
    p.add_argument("--methods", default=None, help="comma list of methods")
    p.add_argument("--n-dialogs", type=int, default=DEFAULT_EVAL_DIALOGS)
    p.add_argument("--n-runs", type=int, default=DEFAULT_EVAL_RUNS)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (WorldError, DataError, TrainerError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
