"""The benchmark's workloads, driven only through the package's public calls.

Each workload has a set-up step and a unit. The unit is the closed-loop
sequence of calls one repetition makes: every call starts when the previous
one returns. The runner repeats the unit on the same inputs until the run's
time is used up, so every repetition must produce the same counts.

Every call that trains, logs or evaluates, and every CLI command, is one
operation. It fails if it raises, returns a non-zero exit code or yields a
non-finite or out-of-range result; on ``cli_pipeline`` also if a file it
wrote does not read back through the package's own readers.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from banditmatch import cli, datasets, dialogworld, trainer
from banditmatch.policy import PolicyNet, policy_spec_for
from banditmatch.seeding import derive_rng

MAX_TURNS = 20  # trainer.evaluate's default
REPORT_RANGES = {
    "turns": (1.0, MAX_TURNS),
    "match": (0.0, 1.0),
    "inform_recall": (0.0, 1.0),
    "inform_f1": (0.0, 1.0),
    "success": (0.0, 100.0),
}


class OperationFailed(Exception):
    pass


class Ops:
    """Counts attempted operations and records why any of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, name: str, fn, *args, check=None, **kwargs):
        """Run one operation; return (result, seconds) or raise OperationFailed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except (Exception, SystemExit) as err:  # a failed operation is counted, not fatal
            self.fail(name, f"raised {type(err).__name__}: {err}")
        seconds = time.perf_counter() - start
        problem = check(result) if check else None
        if problem:
            self.fail(name, problem)
        return result, seconds

    def fail(self, name: str, problem: str):
        self.failures.append(f"{name}: {problem}")
        raise OperationFailed(self.failures[-1])


@dataclass
class UnitResult:
    """What one repetition produced: timings, other values and exact counts."""

    times: dict[str, float] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    work_dir: Path | None = None


# -- output checks ---------------------------------------------------------------


def report_problem(report) -> str | None:
    for name, (low, high) in REPORT_RANGES.items():
        mean, std = report.metrics[name]
        if not (math.isfinite(mean) and math.isfinite(std)):
            return f"{name} is not finite ({mean}, {std})"
        if not low <= mean <= high or std < 0:
            return f"{name} mean {mean} outside [{low}, {high}] or std {std} < 0"
    return None


def policy_problem(policy) -> str | None:
    for i, p in enumerate(policy.parameters()):
        if not np.all(np.isfinite(p.data)):
            return f"parameter {i} has non-finite entries"
    return None


def trained_problem(result) -> str | None:
    policy, history = result
    if not history:
        return "no training steps"
    for row in history:
        losses = (row.loss_labeled, row.loss_pseudo, row.loss_bandit, row.loss_kl, row.total)
        if not all(math.isfinite(v) for v in losses):
            return f"non-finite loss at step {row.step}"
    return policy_problem(policy)


def report_turns(report) -> int:
    """Policy turns behind a report: mean turns per dialog x dialogs x runs."""
    return round(report.metrics["turns"][0] * report.n_dialogs * report.n_runs)


# -- protocol ---------------------------------------------------------------------

PROTOCOL_CORPUS_DIALOGS = 400
PROTOCOL_CORPUS_SEED = 123  # the acceptance comparison fixture's corpus
PROTOCOL_LABELED_FRACTION = 0.10
PROTOCOL_EVAL_DIALOGS = 500
CRM_RUNS = ("ips", "banditnet")


@dataclass
class ProtocolState:
    seed: int
    schema: dialogworld.WorldSchema
    spec: object
    labeled: list
    pool: list


def protocol_setup(seed: int) -> ProtocolState:
    schema = dialogworld.default_schema()
    spec = policy_spec_for(schema)
    corpus = datasets.generate_corpus(schema, PROTOCOL_CORPUS_DIALOGS, seed=PROTOCOL_CORPUS_SEED)
    labeled, pool = datasets.split_corpus(
        corpus, datasets.SplitConfig(PROTOCOL_LABELED_FRACTION, seed=seed)
    )
    return ProtocolState(seed, schema, spec, labeled, pool)


def protocol_configs(seed: int) -> dict[str, trainer.TrainConfig]:
    cfg = trainer.TrainConfig(seed=seed)
    return {
        "banditmatch": cfg,
        "fixmatch": replace(cfg, method="fixmatch"),
        "ips": replace(cfg, method="ips"),
        "banditnet": replace(cfg, method="banditnet"),
        "no_cbl": replace(cfg, no_cbl=True),
        "no_fet": replace(cfg, no_fet=True),
    }


def protocol_unit(st: ProtocolState, ops: Ops) -> UnitResult:
    """One seed of the acceptance comparison: logging policy, feedback log,
    six fine-tuning runs, seven evaluations."""
    out = UnitResult()
    eval_seed = 9000 + st.seed
    cfg = trainer.TrainConfig(seed=st.seed)
    logging_policy, out.times["sl_train_s"] = ops.call(
        "train_logging_policy", trainer.train_logging_policy, st.labeled, st.spec, cfg,
        check=policy_problem,
    )
    records, out.times["log_bandit_s"] = ops.call(
        "log_bandit_data", datasets.log_bandit_data, logging_policy, st.pool,
        check=lambda r: None if len(r) == len(st.pool) else f"{len(r)} records for {len(st.pool)}",
    )
    eval_s = 0.0
    turns = 0
    steps = 0

    def evaluate(name, policy):
        nonlocal eval_s, turns
        report, seconds = ops.call(
            f"evaluate[{name}]", trainer.evaluate, policy, st.schema,
            PROTOCOL_EVAL_DIALOGS, 1, seed=eval_seed, check=report_problem,
        )
        eval_s += seconds
        turns += report_turns(report)
        out.values[f"{name}.success_pct"] = report.metrics["success"][0]
        out.values[f"{name}.inform_f1"] = report.metrics["inform_f1"][0]
        out.counts[f"{name}.successes"] = round(report.metrics["success"][0] / 100 * report.n_dialogs)

    evaluate("logging", logging_policy)
    composite_s = crm_s = 0.0
    for name, method_cfg in protocol_configs(st.seed).items():
        (policy, history), seconds = ops.call(
            f"train_on_log[{name}]", trainer.train_on_log, logging_policy, records,
            method_cfg, labeled_split=st.labeled, check=trained_problem,
        )
        steps += len(history)
        if name in CRM_RUNS:
            crm_s += seconds
        else:
            composite_s += seconds
        evaluate(name, policy)
    out.times.update(composite_train_s=composite_s, crm_train_s=crm_s, evaluate_s=eval_s)
    out.values["eval_turns_per_s"] = turns / eval_s
    out.values["bm_success_pct"] = out.values["banditmatch.success_pct"]
    out.values["bm_inform_f1"] = out.values["banditmatch.inform_f1"]
    out.counts.update(turns=turns, finetune_steps=steps, bandit_records=len(records),
                      positive_feedback=sum(r.feedback for r in records))
    return out


# -- weak_eval ----------------------------------------------------------------------

# Several initialisations per unit: dialog length and per-turn cost differ from
# one random initialisation to the next (997 to 1118 turns per 60 dialogs over
# ten seeds), and averaging a few keeps that out of the seed-to-seed spread.
WEAK_POLICIES = 5
WEAK_EVAL_DIALOGS = 100


@dataclass
class WeakState:
    seed: int
    schema: dialogworld.WorldSchema
    policies: list


def weak_setup(seed: int) -> WeakState:
    schema = dialogworld.default_schema()
    spec = policy_spec_for(schema)
    policies = [PolicyNet(spec, rng=derive_rng(seed, "weak_policy", k)).clone_frozen()
                for k in range(WEAK_POLICIES)]
    return WeakState(seed, schema, policies)


def weak_unit(st: WeakState, ops: Ops) -> UnitResult:
    """Interactive evaluation of frozen, randomly initialised policies."""
    out = UnitResult()
    eval_s = 0.0
    turns = 0
    for k, policy in enumerate(st.policies):
        report, seconds = ops.call(
            f"evaluate[weak {k}]", trainer.evaluate, policy, st.schema, WEAK_EVAL_DIALOGS, 1,
            seed=st.seed, check=report_problem,
        )
        eval_s += seconds
        turns += report_turns(report)
    out.times["evaluate_s"] = eval_s
    out.values["eval_turns_per_s"] = turns / eval_s
    out.counts["turns"] = turns
    return out


# -- cli_pipeline ---------------------------------------------------------------------

CLI_CORPUS_DIALOGS = 1000
CLI_EVAL_DIALOGS = 200
CLI_TRAIN_CONFIG = "sl_epochs = 4\nepochs = 1\nhidden_dims = 64\n"
CLI_COMMANDS = ("gen_world", "gen_corpus", "split_and_log", "train", "evaluate")


@dataclass
class CliState:
    seed: int
    schema: dialogworld.WorldSchema
    work_root: Path
    config: Path


def cli_setup(seed: int, work_root: Path) -> CliState:
    work_root.mkdir(parents=True, exist_ok=True)
    config = work_root / "train.cfg"
    config.write_text(CLI_TRAIN_CONFIG, encoding="utf-8")
    return CliState(seed, dialogworld.default_schema(), work_root, config)


def _cli_paths(work: Path) -> dict[str, Path]:
    return {
        "world": work / "world.json",
        "corpus": work / "corpus.jsonl",
        "data": work / "data",
        "labeled": work / "data" / "labeled.jsonl",
        "bandit": work / "data" / "bandit.jsonl",
        "logging_policy": work / "data" / "logging_policy.json",
        "checkpoint": work / "bm.json",
        "train_log": work / "train_log.csv",
        "report": work / "report.csv",
    }


def cli_unit(st: CliState, ops: Ops) -> UnitResult:
    """The documented command line, in a fresh directory, through cli.main."""
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=st.work_root))
    p = _cli_paths(work)
    seed = str(st.seed)
    argvs = {
        "gen_world": ["gen-world", "--out", p["world"]],
        "gen_corpus": ["gen-corpus", "--world", p["world"], "--n-dialogs",
                       str(CLI_CORPUS_DIALOGS), "--seed", seed, "--out", p["corpus"]],
        "split_and_log": ["split-and-log", "--world", p["world"], "--corpus", p["corpus"],
                          "--labeled-fraction", "0.1", "--seed", seed, "--config", st.config,
                          "--out-dir", p["data"]],
        "train": ["train", "--method", "banditmatch", "--bandit", p["bandit"],
                  "--logging-policy", p["logging_policy"], "--config", st.config,
                  "--seed", seed, "--out", p["checkpoint"], "--train-log", p["train_log"]],
        "evaluate": ["evaluate", "--world", p["world"], "--checkpoint", p["checkpoint"],
                     "--n-dialogs", str(CLI_EVAL_DIALOGS), "--n-runs", "1", "--seed", seed,
                     "--out", p["report"]],
    }
    out = UnitResult(work_dir=work)
    printed = io.StringIO()
    try:
        for name in CLI_COMMANDS:
            argv = [str(a) for a in argvs[name]]
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                _, out.times[f"cmd_{name}_s"] = ops.call(
                    f"cli {name}", cli.main, argv,
                    check=lambda code: None if code == 0 else f"exit code {code}",
                )
    except OperationFailed:
        shutil.rmtree(work, ignore_errors=True)
        raise
    return out


def cli_verify(st: CliState, out: UnitResult, ops: Ops) -> None:
    """Read every output back through the package's readers (outside the timed
    and traced region), then remove the unit's directory."""
    p = _cli_paths(out.work_dir)
    try:
        corpus = _read_back(ops, "gen_corpus", datasets.read_labeled_jsonl, p["corpus"])
        labeled = _read_back(ops, "split_and_log", datasets.read_labeled_jsonl, p["labeled"])
        records = _read_back(ops, "split_and_log", datasets.read_bandit_jsonl, p["bandit"])
        for name, path in (("split_and_log", p["logging_policy"]), ("train", p["checkpoint"])):
            policy = _read_back(ops, name, PolicyNet.load, path)
            if policy.num_actions != st.schema.num_actions or policy_problem(policy):
                ops.fail(f"cli {name}", f"{path.name} does not fit the world or is not finite")
        log_lines = _read_back(ops, "train", lambda path: path.read_text().splitlines(),
                               p["train_log"])
        if len(log_lines) < 2:
            ops.fail("cli train", "training log has no steps")
        report = _read_back(ops, "evaluate", _read_report, p["report"])
        if len(corpus) != len(labeled) + len(records) or any(
            len(ex.state) != st.schema.state_dim for ex in corpus
        ):
            ops.fail("cli split_and_log", "split sizes or state widths do not match the corpus")
        if any(r.feedback not in (0, 1) or not np.all((r.propensities > 0) & (r.propensities < 1))
               for r in records):
            ops.fail("cli split_and_log", "bandit log has feedback or propensities out of range")
        if report_problem(report):
            ops.fail("cli evaluate", report_problem(report))
        turns = report_turns(report)
        out.values["eval_turns_per_s"] = turns / out.times["cmd_evaluate_s"]
        out.values["bm_success_pct"] = report.metrics["success"][0]
        out.values["bm_inform_f1"] = report.metrics["inform_f1"][0]
        out.counts.update(
            turns=turns,
            corpus_records=len(corpus),
            bandit_records=len(records),
            positive_feedback=sum(r.feedback for r in records),
            **{f"{key}_bytes": p[key].stat().st_size
               for key in ("corpus", "labeled", "bandit", "logging_policy", "checkpoint",
                           "train_log", "report")},
        )
    finally:
        shutil.rmtree(out.work_dir, ignore_errors=True)


def _read_back(ops: Ops, command: str, reader, path: Path):
    try:
        return reader(path)
    except Exception as err:  # any reader error means the command wrote a bad file
        ops.fail(f"cli {command}", f"{path.name} does not read back: {type(err).__name__}: {err}")


@dataclass
class _CsvReport:
    metrics: dict
    n_dialogs: int = CLI_EVAL_DIALOGS
    n_runs: int = 1


def _read_report(path: Path) -> _CsvReport:
    """The one-row report CSV, read with cli.read_report_csv, as report metrics."""
    rows = cli.read_report_csv(path)
    if len(rows) != 1:
        raise ValueError(f"{len(rows)} rows")
    columns = {"turns": "turn", "match": "match", "inform_recall": "inform_recall",
               "inform_f1": "inform_f1", "success": "success_pct"}
    return _CsvReport({
        key: (float(rows[0][f"{col}_mean"]), float(rows[0][f"{col}_std"]))
        for key, col in columns.items()
    })


# -- registry ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: object  # (seed, work_root) -> state
    unit: object  # (state, ops) -> UnitResult
    verify: object = None  # (state, result, ops) -> None, outside the timed region
    setup_repeats: int = 5


WORKLOADS = {
    "protocol": Workload(lambda seed, _: protocol_setup(seed), protocol_unit, setup_repeats=3),
    "weak_eval": Workload(lambda seed, _: weak_setup(seed), weak_unit),
    "cli_pipeline": Workload(cli_setup, cli_unit, cli_verify),
}
