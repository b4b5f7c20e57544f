import hashlib
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from banditmatch import cli, nncore, objectives
from banditmatch.dialogworld import WorldSchema
from banditmatch.policy import PolicyNet


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full tiny pipeline: world -> corpus -> split/log -> train -> evaluate."""
    root = tmp_path_factory.mktemp("pipeline")
    world = root / "world.json"
    corpus = root / "corpus.jsonl"
    data = root / "data"
    cfg = root / "train.cfg"
    cfg.write_text(
        "\n".join(
            [
                "# tiny training budget for the CLI tests",
                "sl_epochs = 8",
                "epochs = 2",
                "hidden_dims = 16",
                "batch_size = 32",
            ]
        )
    )
    assert run(["gen-world", "--out", world]) == 0
    assert run(["gen-corpus", "--world", world, "--n-dialogs", 40, "--seed", 5,
                "--out", corpus]) == 0
    assert run(["split-and-log", "--world", world, "--corpus", corpus,
                "--labeled-fraction", 0.2, "--seed", 5, "--config", cfg,
                "--out-dir", data]) == 0
    ckpt = root / "bm.json"
    assert run(["train", "--method", "banditmatch", "--bandit", data / "bandit.jsonl",
                "--logging-policy", data / "logging_policy.json",
                "--labeled", data / "labeled.jsonl", "--config", cfg, "--seed", 5,
                "--out", ckpt, "--train-log", root / "train_log.csv"]) == 0
    return root, world, corpus, data, cfg, ckpt


class TestPipeline:
    def test_outputs_exist(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        for path in (world, corpus, data / "labeled.jsonl", data / "bandit.jsonl",
                     data / "logging_policy.json", ckpt, root / "train_log.csv"):
            assert Path(path).exists()

    def test_manifests_written_with_hashes(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        manifest = json.loads((data / "split_and_log.manifest.json").read_text())
        assert manifest["command"] == "split-and-log"
        assert str(world) in manifest["inputs"]
        assert all(len(h) == 64 for h in manifest["inputs"].values())
        assert manifest["config"]["sl_epochs"] == 8

    def test_evaluate_rows_keyed_by_method(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        out_a = root / "report_pi0.csv"
        out_b = root / "report_bm.csv"
        assert run(["evaluate", "--world", world, "--checkpoint",
                    data / "logging_policy.json", "--method-name", "logging",
                    "--n-dialogs", 10, "--n-runs", 1, "--seed", 9, "--out", out_a]) == 0
        assert run(["evaluate", "--world", world, "--checkpoint", ckpt,
                    "--method-name", "banditmatch",
                    "--n-dialogs", 10, "--n-runs", 1, "--seed", 9, "--out", out_b]) == 0
        rows_a = cli.read_report_csv(out_a)
        rows_b = cli.read_report_csv(out_b)
        assert rows_a[0]["method"] == "logging"
        assert rows_b[0]["method"] == "banditmatch"
        assert list(rows_a[0].keys()) == list(cli.REPORT_COLUMNS)

    def test_expert_evaluation(self, pipeline):
        root, world, *_ = pipeline
        out = root / "expert.csv"
        assert run(["evaluate", "--world", world, "--expert",
                    "--n-dialogs", 10, "--n-runs", 1, "--seed", 3, "--out", out]) == 0
        row = cli.read_report_csv(out)[0]
        assert row["method"] == "expert"
        assert float(row["success_pct_mean"]) == 100.0

    def test_byte_identical_reruns(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        out1 = root / "det1.csv"
        out2 = root / "det2.csv"
        argv = ["evaluate", "--world", world, "--checkpoint", ckpt,
                "--n-dialogs", 15, "--n-runs", 2, "--seed", 11]
        assert run(argv + ["--out", out1]) == 0
        assert run(argv + ["--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_round_trip_lossless(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        out = root / "report_rt.csv"
        assert run(["evaluate", "--world", world, "--checkpoint", ckpt,
                    "--n-dialogs", 8, "--n-runs", 1, "--seed", 21,
                    "--out", out, "--json", root / "report_rt.json"]) == 0
        csv_row = cli.read_report_csv(out)[0]
        json_row = json.loads((root / "report_rt.json").read_text())[0]
        assert float(csv_row["success_pct_mean"]) == json_row["metrics"]["success"]["mean"]
        assert float(csv_row["inform_f1_mean"]) == json_row["metrics"]["inform_f1"]["mean"]

    def test_train_fixmatch_requires_labeled(self, pipeline, capsys):
        root, world, corpus, data, cfg, ckpt = pipeline
        capsys.readouterr()
        code = run(["train", "--method", "fixmatch", "--bandit", data / "bandit.jsonl",
                    "--logging-policy", data / "logging_policy.json",
                    "--config", cfg, "--seed", 5, "--out", root / "fm.json"])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err == "error: the fixmatch baseline needs the labeled split\n"


class TestGrids:
    def test_ablate_and_sweep(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        out_dir = root / "ablations"
        assert run(["ablate", "--world", world, "--bandit", data / "bandit.jsonl",
                    "--logging-policy", data / "logging_policy.json",
                    "--config", cfg, "--seed", 3, "--n-dialogs", 5, "--n-runs", 1,
                    "--out-dir", out_dir]) == 0
        rows = cli.read_report_csv(out_dir / "ablations.csv")
        assert len(rows) == 6
        assert rows[0]["method"] == "banditmatch"

        sweep_dir = root / "sweep"
        assert run(["sweep", "--world", world, "--corpus", corpus, "--config", cfg,
                    "--seed", 3, "--percentages", "20,50", "--methods", "banditmatch",
                    "--n-dialogs", 5, "--n-runs", 1, "--out-dir", sweep_dir]) == 0
        assert (sweep_dir / "sweep_banditmatch.csv").exists()
        assert (sweep_dir / "sweep_logging.csv").exists()
        with open(sweep_dir / "sweep_banditmatch.csv") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3  # header + two percentage points

    # each rejected while parsing the command line, before any training
    @pytest.mark.parametrize("flag, value, message", [
        ("--percentages", "10,abc", "'abc' is not an integer in 1..100"),
        ("--percentages", "10,0", "'0' is not an integer in 1..100"),
        ("--methods", "banditmatch,bogus",
         "'bogus' is not one of banditmatch, fixmatch, ips, banditnet"),
        ("--methods", "ips,ips", "'ips' repeats in 'ips,ips'"),
    ], ids=["percentage_not_int", "percentage_zero", "unknown_method", "repeated_method"])
    def test_sweep_rejects_bad_lists(self, pipeline, capsys, flag, value, message):
        root, world, corpus, data, cfg, ckpt = pipeline
        out_dir = root / "sweep_bad"
        with pytest.raises(SystemExit) as excinfo:
            run(["sweep", "--world", world, "--corpus", corpus, "--config", cfg,
                 "--seed", 3, flag, value, "--n-dialogs", 2, "--n-runs", 1,
                 "--out-dir", out_dir])
        assert excinfo.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"banditmatch sweep: error: argument {flag}: {message}"
        assert not out_dir.exists()


def _break_record(record: dict, case: str) -> None:
    """Make one bandit-log record violate one rule of the FORMATS.md contract."""
    rho, actions = record["rho"], record["actions"]
    below = next(c for c in range(len(rho)) if c not in actions)
    if case == "delta":
        record["delta"] = 7
    elif case == "rho_zero":
        rho[below] = 0.0
    elif case == "rho_one":
        rho[below] = 1.0
        record["actions"] = sorted(actions + [below])
    elif case == "rho_length":
        rho.pop()
    elif case == "state_length":
        record["state"].pop()
    elif case == "state_value":
        record["state"][0] = 0.5
    elif case == "actions":
        record["actions"] = sorted(actions + [below])
    elif case == "actions_scalar":
        record["actions"] = (actions or [below])[0]
    elif case == "actions_float":
        record["actions"] = [a + 0.5 for a in actions or [below]]
    elif case == "actions_bool":
        record["actions"] = [True] + actions[1:]
    elif case == "delta_bool":
        record["delta"] = record["delta"] == 1
    elif case == "delta_float":
        record["delta"] = float(record["delta"])
    elif case == "positive_empty":
        record.update(rho=[0.25] * len(rho), actions=[], delta=1)
    elif case == "rho_string":
        rho[below] = "0.25"
    elif case == "rho_bool":
        rho[below] = False
    elif case == "state_string":
        record["state"][0] = "1"
    elif case == "state_bool":
        record["state"][0] = True
    elif case == "huge_int":
        record["actions"] = [HUGE_INT]


# json.dumps refuses an integer of over 4,300 digits, so a record holds this
# placeholder and dump_record writes the digits in its place
HUGE_INT = "<5000 digits>"


def dump_record(record: dict) -> str:
    return json.dumps(record).replace(json.dumps(HUGE_INT), "9" * 5000)


BROKEN_LOGS = {
    "delta": "delta must be 0 or 1, got 7",
    # no truncation or coercion: an index or delta must be a JSON integer
    "actions_scalar": ":3: actions must be a flat list of indices",
    "actions_float": ":3: actions entry ",
    "actions_bool": ":3: actions entry true is not an integer",
    "delta_bool": ":3: delta must be 0 or 1, got ",
    "delta_float": ":3: delta must be 0 or 1, got ",
    "rho_zero": "rho must lie strictly inside (0, 1)",
    "rho_one": "rho must lie strictly inside (0, 1)",
    "rho_length": "rho has",
    "state_length": "state has",
    "state_value": "state entries must be 0 or 1",
    "actions": "differ from {c : rho[c] > 0.5}",
    "positive_empty": ":3: a positive record must log a non-empty action set",
    # a string or bool is refused, never coerced into a number
    "rho_string": ':3: rho entry "0.25" is not a number',
    "rho_bool": ":3: rho entry false is not a number",
    "state_string": ':3: state entry "1" is not a number',
    "state_bool": ":3: state entry true is not a number",
    "huge_int": ":3: malformed JSON line (Exceeds the limit (4300 digits)",
}


class TestBanditLogContract:
    @pytest.mark.parametrize("case", sorted(BROKEN_LOGS))
    def test_broken_record_exit_code_and_line(self, pipeline, tmp_path, capsys, case):
        root, world, corpus, data, cfg, ckpt = pipeline
        lines = (data / "bandit.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        _break_record(record, case)
        lines[2] = dump_record(record)
        broken = tmp_path / "bandit.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["train", "--method", "banditmatch", "--bandit", broken,
                    "--logging-policy", data / "logging_policy.json",
                    "--config", cfg, "--seed", 5, "--out", tmp_path / "p.json"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INVALID
        assert f"{broken}:3: " in err and BROKEN_LOGS[case] in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_exit_code_follows_error_type_not_message(self, pipeline, tmp_path):
        root, world, corpus, data, cfg, ckpt = pipeline
        lines = (data / "bandit.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        _break_record(record, "delta")
        # a directory named "version" must not turn a bad value into exit 4
        broken = tmp_path / "version" / "bandit.jsonl"
        broken.parent.mkdir()
        broken.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
        newer = tmp_path / "newer.jsonl"
        newer.write_text('{"schema_version": "v9", "record": "bandit"}\n')
        argv = ["train", "--method", "banditmatch", "--logging-policy",
                data / "logging_policy.json", "--config", cfg, "--out", tmp_path / "p.json"]
        assert run(argv + ["--bandit", broken]) == cli.EXIT_INVALID
        assert run(argv + ["--bandit", newer]) == cli.EXIT_VERSION


def _break_example(record: dict, case: str) -> None:
    """Make one labeled-corpus record violate one rule of the FORMATS.md contract."""
    actions = record["actions"]
    if case == "state_length":
        record["state"].pop()
    elif case == "state_value":
        record["state"][0] = float("nan")
    elif case == "empty":
        record["actions"] = []
    elif case == "unsorted":
        record["actions"] = [actions[0] + 1, actions[0]]
    elif case == "duplicate":
        record["actions"] = [actions[0], actions[0]]
    elif case == "negative":
        record["actions"] = [-1] + actions
    elif case == "out_of_range":
        record["actions"] = [999]
    elif case == "scalar":
        record["actions"] = actions[0]
    elif case == "float":
        record["actions"] = [float(a) for a in actions]
    elif case == "bool":
        record["actions"] = [True]
    elif case == "overflow":
        record["actions"] = [2**70]
    elif case == "huge_int":
        record["actions"] = [HUGE_INT]
    elif case == "state_string":
        record["state"][0] = "1"
    elif case == "state_bool":
        record["state"][0] = True


BROKEN_CORPORA = {
    "state_length": ":3: state has",
    "state_value": ":3: state entries must be 0 or 1",
    "empty": ":3: actions must not be empty",
    "unsorted": ":3: actions [",
    "duplicate": ":3: actions [",
    "negative": ":3: actions [-1,",
    "scalar": ":3: actions must be a flat list of indices",
    "float": ":3: actions entry ",
    "bool": ":3: actions entry true is not an integer",
    "overflow": ":3: malformed field value (",
    "huge_int": ":3: malformed JSON line (Exceeds the limit (4300 digits)",
    "state_string": ':3: state entry "1" is not a number',
    "state_bool": ":3: state entry true is not a number",
    # the reader accepts it; the index is checked against the logging policy
    "out_of_range": ": record 2 has action index 999, not below output_dim 61 of logging policy",
}


class TestLabeledCorpusContract:
    @pytest.mark.parametrize("case", sorted(BROKEN_CORPORA))
    def test_broken_record_exit_code_and_line(self, pipeline, tmp_path, capsys, case):
        root, world, corpus, data, cfg, ckpt = pipeline
        lines = (data / "labeled.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        _break_example(record, case)
        lines[2] = dump_record(record)
        broken = tmp_path / "labeled.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["train", "--method", "banditmatch", "--bandit", data / "bandit.jsonl",
                    "--logging-policy", data / "logging_policy.json", "--labeled", broken,
                    "--config", cfg, "--seed", 5, "--out", tmp_path / "p.json"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INVALID
        assert f"{broken}{BROKEN_CORPORA[case]}" in err
        assert err.count("\n") == 1  # one line, no traceback
        if case in ("unsorted", "duplicate"):
            assert "are not sorted and unique" in err


@pytest.fixture(scope="module")
def tiny_world_data(tmp_path_factory):
    """A --tiny world with its own corpus and feedback log."""
    root = tmp_path_factory.mktemp("tiny")
    world = root / "world.json"
    corpus = root / "corpus.jsonl"
    cfg = root / "train.cfg"
    cfg.write_text("sl_epochs = 2\nepochs = 1\nhidden_dims = 8\n")
    assert run(["gen-world", "--out", world, "--tiny"]) == 0
    assert run(["gen-corpus", "--world", world, "--n-dialogs", 20, "--seed", 1,
                "--out", corpus]) == 0
    assert run(["split-and-log", "--world", world, "--corpus", corpus, "--labeled-fraction",
                0.5, "--seed", 1, "--config", cfg, "--out-dir", root / "data"]) == 0
    return world, corpus, root / "data"


class TestCrossFileWidths:
    """Files that each pass their own contract but do not fit each other."""

    def _fails_with(self, capsys, argv, message):
        capsys.readouterr()
        code = run(argv)
        err = capsys.readouterr().err
        assert code == cli.EXIT_INVALID
        assert message in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_train_log_against_logging_policy(self, pipeline, tiny_world_data, tmp_path, capsys):
        root, world, corpus, data, cfg, ckpt = pipeline
        tiny_world, tiny_corpus, tiny_data = tiny_world_data
        self._fails_with(capsys, [
            "train", "--method", "banditmatch", "--bandit", tiny_data / "bandit.jsonl",
            "--logging-policy", data / "logging_policy.json", "--config", cfg,
            "--out", tmp_path / "p.json"],
            f"{tiny_data / 'bandit.jsonl'}: state length 27 does not match input_dim 167 "
            f"of logging policy {data / 'logging_policy.json'}")

    def test_evaluate_checkpoint_against_world(self, pipeline, tiny_world_data, tmp_path, capsys):
        root, world, corpus, data, cfg, ckpt = pipeline
        tiny_world, tiny_corpus, tiny_data = tiny_world_data
        self._fails_with(capsys, [
            "evaluate", "--world", tiny_world, "--checkpoint", ckpt, "--n-dialogs", 2,
            "--n-runs", 1, "--out", tmp_path / "r.csv"],
            f"checkpoint {ckpt}: input_dim 167 does not match state_dim 27 of world {tiny_world}")

    def test_split_corpus_against_world(self, pipeline, tiny_world_data, tmp_path, capsys):
        root, world, corpus, data, cfg, ckpt = pipeline
        tiny_world, tiny_corpus, tiny_data = tiny_world_data
        self._fails_with(capsys, [
            "split-and-log", "--world", tiny_world, "--corpus", corpus, "--config", cfg,
            "--out-dir", tmp_path / "d"],
            f"{corpus}: state length 167 does not match state_dim 27 of world {tiny_world}")

    def test_numeric_failure_is_one_line_exit_5(self, pipeline, tmp_path, capsys, monkeypatch):
        root, world, corpus, data, cfg, ckpt = pipeline

        def diverge(*args, **kwargs):
            raise nncore.NonFiniteGradientError("non-finite gradient in w0 at step 3")

        monkeypatch.setattr(cli.trainer, "train_on_log", diverge)
        self._fails_with(capsys, [
            "train", "--method", "banditmatch", "--bandit", data / "bandit.jsonl",
            "--logging-policy", data / "logging_policy.json", "--config", cfg,
            "--out", tmp_path / "p.json"],
            "error: non-finite gradient in w0 at step 3")


class TestNumericBlowUp:
    """A learning rate of 1e308 on the tiny world: each run ends in exit 5
    with one line that names the overflow or the divergence, and no numpy
    warning."""

    OVERFLOW = "error: overflow encountered in matmul\n"

    @staticmethod
    def _one_line_exit_5(capsys, argv, message=OVERFLOW):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
        err = capsys.readouterr().err
        assert code == cli.EXIT_INVALID
        assert err == message
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @staticmethod
    def _config(tmp_path, name, text):
        path = tmp_path / name
        path.write_text("epochs = 1\nhidden_dims = 4\n" + text)
        return path

    def _split_and_log(self, tiny_world_data, tmp_path):
        world, corpus, _ = tiny_world_data
        data = tmp_path / "data"
        assert run(["split-and-log", "--world", world, "--corpus", corpus, "--seed", 1,
                    "--config", self._config(tmp_path, "sl.cfg", "sl_epochs = 2\n"),
                    "--out-dir", data]) == 0
        return data

    def test_logging_policy_training(self, tiny_world_data, tmp_path, capsys):
        world, corpus, _ = tiny_world_data
        cfg = self._config(tmp_path, "blow_up.cfg", "sl_epochs = 2\nlearning_rate = 1e308\n")
        self._one_line_exit_5(capsys, [
            "split-and-log", "--world", world, "--corpus", corpus, "--seed", 1,
            "--config", cfg, "--out-dir", tmp_path / "data"])
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("method", ["banditmatch", "banditnet"])
    def test_fine_tune_that_cannot_learn(self, tiny_world_data, tmp_path, capsys, method):
        # one step takes the weights near 1e298, all finite, and every logit
        # on the 44 training rows (48 logged less the unread tenth) outside
        # the clamp: no checkpoint, training log or manifest is written
        data = self._split_and_log(tiny_world_data, tmp_path)
        out = tmp_path / "out"
        self._one_line_exit_5(capsys, [
            "train", "--method", method, "--bandit", data / "bandit.jsonl",
            "--logging-policy", data / "logging_policy.json", "--seed", 1,
            "--config", self._config(tmp_path, "blow_up.cfg", "learning_rate = 1e308\n"),
            "--train-log", out / "log.csv", "--out", out / "p.json"],
            "error: training diverged: every logit is outside ±15 on the 44 training rows\n")
        assert not out.exists() or not list(out.iterdir())

    def test_fine_tuned_checkpoint_evaluated(self, tiny_world_data, tmp_path, capsys):
        # weights near 1e298, all finite, as a fine-tune at 1e308 reached
        # before training refused such a policy: evaluating them overflows
        world = tiny_world_data[0]
        data = self._split_and_log(tiny_world_data, tmp_path)
        policy = PolicyNet.load(data / "logging_policy.json").clone_trainable()
        for p in policy.parameters():
            p.data *= 1e298
        policy.save(tmp_path / "bn.json")
        self._one_line_exit_5(capsys, [
            "evaluate", "--world", world, "--checkpoint", tmp_path / "bn.json",
            "--n-dialogs", 20, "--n-runs", 1, "--out", tmp_path / "report.csv"])
        assert not (tmp_path / "report.csv").exists()


class TestLoaderErrors:
    """An input file that is not what its flag names: only a version
    mismatch exits 4, anything else exits 5 with one `path: reason` line."""

    def _fails_with(self, capsys, argv, code, prefix):
        capsys.readouterr()
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}")
        assert err.count("\n") == 1  # one line, no traceback

    def _edited_world(self, tiny_world, tmp_path, edit):
        payload = json.loads(tiny_world.read_text())
        edit(payload)
        path = tmp_path / "edited_world.json"
        path.write_text(json.dumps(payload))
        return path

    def _gen_corpus_fails(self, capsys, world, tmp_path, code):
        self._fails_with(capsys, ["gen-corpus", "--world", world, "--n-dialogs", 2,
                                  "--out", tmp_path / "c.jsonl"], code, f"{world}: ")

    def _evaluate_fails(self, capsys, world, checkpoint, tmp_path, code):
        self._fails_with(capsys, ["evaluate", "--world", world, "--checkpoint", checkpoint,
                                  "--n-dialogs", 2, "--n-runs", 1, "--out", tmp_path / "r.csv"],
                         code, f"{checkpoint}: ")

    def test_world_file_as_checkpoint(self, tiny_world_data, tmp_path, capsys):
        world = tiny_world_data[0]
        self._evaluate_fails(capsys, world, world, tmp_path, cli.EXIT_INVALID)

    def test_truncated_checkpoint(self, tiny_world_data, tmp_path, capsys):
        world, _, data = tiny_world_data
        bad = tmp_path / "truncated.json"
        bad.write_text((data / "logging_policy.json").read_text()[:100])
        self._evaluate_fails(capsys, world, bad, tmp_path, cli.EXIT_INVALID)

    def test_checkpoint_with_bad_field(self, tiny_world_data, tmp_path, capsys):
        world, _, data = tiny_world_data
        edits = (
            lambda c: c["spec"].update(input_dim=0),
            lambda c: c["spec"].update(hidden_activation="tanh"),
            lambda c: c.update(extra={"role": "boss"}),
            lambda c: c.update(extra=5),
            lambda c: c["tensors"]["w0"]["values"].__setitem__(0, float("nan")),
            # values and dims that would be coerced to numbers
            lambda c: c["tensors"]["b0"]["values"].__setitem__(0, "0.5"),
            lambda c: c["tensors"]["b0"]["values"].__setitem__(0, True),
            lambda c: c["spec"].update(input_dim=c["spec"]["input_dim"] + 0.5),
            lambda c: c["spec"].update(hidden_dims="4"),
            lambda c: c["spec"].update(hidden_dims=[str(h) for h in c["spec"]["hidden_dims"]]),
            lambda c: c["tensors"]["b0"].update(values=[c["tensors"]["b0"]["values"]]),
            lambda c: c["tensors"]["b0"]["shape"].__setitem__(0, -1),
            lambda c: c["tensors"]["b0"]["values"].__setitem__(0, 10**400),
            # a layer far larger than the file's tensors
            lambda c: c["spec"].update(hidden_dims=[10**12, *c["spec"]["hidden_dims"][1:]]),
            # tensor names and shape fields that disagree with the spec
            lambda c: c["tensors"].update(w9=c["tensors"]["w0"]),
            lambda c: c["tensors"].pop("b1"),
            lambda c: c["tensors"]["w0"]["shape"].reverse(),
            lambda c: c["tensors"]["b0"]["shape"].__setitem__(0, True),
        )
        for edit in edits:
            payload = json.loads((data / "logging_policy.json").read_text())
            edit(payload)
            bad = tmp_path / "edited.json"
            bad.write_text(json.dumps(payload))
            self._evaluate_fails(capsys, world, bad, tmp_path, cli.EXIT_INVALID)

    def test_checkpoint_version_mismatch(self, tiny_world_data, tmp_path, capsys):
        world, _, data = tiny_world_data
        payload = json.loads((data / "logging_policy.json").read_text())
        payload["version"] = "v9"
        bad = tmp_path / "v9.json"
        bad.write_text(json.dumps(payload))
        self._evaluate_fails(capsys, world, bad, tmp_path, cli.EXIT_VERSION)

    def test_truncated_world(self, tiny_world_data, tmp_path, capsys):
        bad = tmp_path / "truncated_world.json"
        bad.write_text(tiny_world_data[0].read_text()[:100])
        self._gen_corpus_fails(capsys, bad, tmp_path, cli.EXIT_INVALID)

    def test_world_without_domains(self, tiny_world_data, tmp_path, capsys):
        bad = self._edited_world(tiny_world_data[0], tmp_path, lambda w: w.pop("domains"))
        self._gen_corpus_fails(capsys, bad, tmp_path, cli.EXIT_INVALID)

    def test_world_without_requestable(self, tiny_world_data, tmp_path, capsys):
        bad = self._edited_world(tiny_world_data[0], tmp_path,
                                 lambda w: w["domains"][0].pop("requestable"))
        self._gen_corpus_fails(capsys, bad, tmp_path, cli.EXIT_INVALID)

    def _world_refused(self, capsys, bad, tmp_path):
        # by every command that loads a world, before it writes anything
        out = tmp_path / "out"
        for argv in (["gen-world", "--schema-config", bad, "--out", out / "w.json"],
                     ["gen-corpus", "--world", bad, "--n-dialogs", 2, "--out", out / "c.jsonl"],
                     ["evaluate", "--world", bad, "--expert", "--n-dialogs", 2, "--n-runs", 1,
                      "--out", out / "r.csv"]):
            self._fails_with(capsys, argv, cli.EXIT_INVALID, f"{bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda w: w.update(domains=[]),
        lambda w: w["domains"][0].update(requestable=[]),
        lambda w: w["domains"][0].update(entities=[]),
    ], ids=["domains", "requestable", "entities"])
    def test_world_with_empty_list(self, tiny_world_data, tmp_path, capsys, edit):
        # such a world has no goal to draw: every command that loads it stops there
        bad = self._edited_world(tiny_world_data[0], tmp_path, edit)
        self._world_refused(capsys, bad, tmp_path)

    @pytest.mark.parametrize("edit", [
        lambda w: w["domains"][0]["entities"][0].update(area=["north"]),
        lambda w: w["domains"][0]["entities"][0].update(area=None),
        lambda w: w["domains"][0]["entities"][0].update(area=1.5),
        lambda w: w["domains"][0]["entities"][0].update(area=float("nan")),
        lambda w: w["domains"][0]["requestable"].__setitem__(0, ["phone"]),
        lambda w: w["domains"][0]["informable"]["area"].__setitem__(0, 0),
        lambda w: w["domains"][0].update(name=7),
        lambda w: w["domains"][0].update(informable={"area": "north"}),
        lambda w: w["domains"][0].update(requestable="phone"),
        lambda w: w["domains"][0]["entities"].__setitem__(
            0, [["area", "north"], ["phone", "p"], ["address", "a"]]),
        lambda w: w.update(domains={"hotel": w["domains"][0]}),
        lambda w: w["domains"].__setitem__(0, [w["domains"][0]]),
    ], ids=["entity-list", "entity-null", "entity-float", "entity-nan", "requestable-list",
            "informable-number", "name-number", "informable-string", "requestable-string",
            "entity-pairs", "domains-object", "domain-list"])
    def test_world_value_of_wrong_type(self, tiny_world_data, tmp_path, capsys, edit):
        # refused, never coerced
        bad = self._edited_world(tiny_world_data[0], tmp_path, edit)
        self._world_refused(capsys, bad, tmp_path)

    def test_jsonl_header_without_version(self, tiny_world_data, tmp_path, capsys):
        world, corpus, _ = tiny_world_data
        records = corpus.read_text().splitlines()[1:]
        bad = tmp_path / "headless.jsonl"
        for header in ('{"record": "labeled"}', "[1]"):
            bad.write_text("\n".join([header, *records]) + "\n")
            self._fails_with(capsys, ["split-and-log", "--world", world, "--corpus", bad,
                                      "--out-dir", tmp_path / "d"], cli.EXIT_INVALID, f"{bad}:1: ")

    def test_world_version_mismatch(self, tiny_world_data, tmp_path, capsys):
        bad = self._edited_world(tiny_world_data[0], tmp_path,
                                 lambda w: w.update(schema_version="v9"))
        self._gen_corpus_fails(capsys, bad, tmp_path, cli.EXIT_VERSION)


# the keys of values no run varied, which are now module constants
REMOVED_KEYS = ("sl_label_smoothing", "alpha_weak", "alpha_strong", "fet_decay", "ips_clip",
                "banditnet_translation", "fixmatch_tau")

# config-file line -> the error TrainConfig gives for it, or None for a line
# naming a removed key, which is refused as unknown whatever its value
INVALID_CONFIGS = {
    "alpha_weak": ("alpha_weak = -1", None),
    "alpha_strong": ("alpha_strong = 0", None),
    "batch_zero": ("batch_size = 0", "batch_size must be at least 1, got 0"),
    "batch_negative": ("batch_size = -1", "batch_size must be at least 1, got -1"),
    "epochs_negative": ("epochs = -1", "epochs must not be negative, got -1"),
    "sl_epochs_negative": ("sl_epochs = -1", "sl_epochs must not be negative, got -1"),
    "seed_negative": ("seed = -4", "seed must not be negative, got -4"),
    "ips_clip_nan": ("ips_clip = nan", None),
    "learning_rate_inf": ("learning_rate = inf", "learning_rate must be finite, got inf"),
    "alpha_weak_nan": ("alpha_weak = nan", None),
    "ips_clip_zero": ("ips_clip = 0", None),
    "fet_decay_above_one": ("fet_decay = 5", None),
    "fet_decay_negative": ("fet_decay = -0.1", None),
    "sl_label_smoothing_above_one": ("sl_label_smoothing = 3", None),
    "learning_rate_negative": ("learning_rate = -1",
                               "learning_rate must not be negative, got -1.0"),
    "fixmatch_tau_above_one": ("fixmatch_tau = 7", None),
    "fixmatch_tau_half": ("fixmatch_tau = 0.5", None),
}


class TestErrors:
    def test_missing_file_exit_code(self, tmp_path):
        code = run(["gen-corpus", "--world", tmp_path / "nope.json",
                    "--out", tmp_path / "c.jsonl"])
        assert code == cli.EXIT_MISSING_FILE

    def test_version_mismatch_exit_code(self, tmp_path):
        bad = tmp_path / "world.json"
        bad.write_text(json.dumps({"schema_version": "v9", "domains": []}))
        code = run(["gen-corpus", "--world", bad, "--out", tmp_path / "c.jsonl"])
        assert code == cli.EXIT_VERSION

    def test_bad_flag_combination_exit_code(self, tmp_path):
        world = tmp_path / "world.json"
        assert run(["gen-world", "--out", world, "--tiny"]) == 0
        code = run(["evaluate", "--world", world, "--n-dialogs", 1,
                    "--n-runs", 1, "--out", tmp_path / "r.csv"])
        assert code == cli.EXIT_INVALID  # neither --checkpoint nor --expert

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        world = tmp_path / "world.json"
        assert run(["gen-world", "--out", world, "--tiny"]) == 0
        corpus = tmp_path / "c.jsonl"
        assert run(["gen-corpus", "--world", world, "--n-dialogs", 2, "--out", corpus]) == 0
        cfg = tmp_path / "bad.cfg"
        # every line but the first names a key of an earlier version; the
        # last ten give each removed key its old default
        for line in ("learning_speed = 3", "warm_start = false",
                     "fixmatch_labeled_source = logged_positives", "optimizer = sgd",
                     "early_stop = true", "holdout_fraction = 0.1",
                     "weight_decay = 0.001", "replay_labeled = true",
                     "sl_label_smoothing = 0.2", "alpha_weak = 0.2", "alpha_strong = 2.0",
                     "fet_decay = 0.9", "ips_clip = 100.0", "banditnet_translation = 0.9",
                     "fixmatch_tau = 0.95", "lambda_pseudo = 1.0", "lambda_bandit = 1.0",
                     "lambda_kl = 1.0"):
            cfg.write_text(line + "\n")
            capsys.readouterr()
            code = run(["split-and-log", "--world", world, "--corpus", corpus,
                        "--config", cfg, "--out-dir", tmp_path / "d"])
            assert code == cli.EXIT_INVALID, line
            assert "unknown config key" in capsys.readouterr().err, line

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["train"])  # missing required flags
        assert excinfo.value.code == cli.EXIT_USAGE

    def test_invalid_fraction_exit_code(self, tmp_path, capsys):
        world = tmp_path / "world.json"
        corpus = tmp_path / "c.jsonl"
        assert run(["gen-world", "--out", world, "--tiny"]) == 0
        assert run(["gen-corpus", "--world", world, "--n-dialogs", 2, "--out", corpus]) == 0
        capsys.readouterr()
        code = run(["split-and-log", "--world", world, "--corpus", corpus,
                    "--labeled-fraction", "1.5", "--out-dir", tmp_path / "d"])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err == "error: labeled_fraction must be in (0, 1], got 1.5\n"

    @pytest.mark.parametrize("command, line, message", [
        pytest.param(command, line, message, id=f"{case}-{command}")
        for case, (line, message) in INVALID_CONFIGS.items()
        for command in ("train", "split-and-log")
    ])
    def test_invalid_training_config_exit_code(self, tiny_world_data, tmp_path, capsys,
                                               command, line, message):
        world, corpus, data = tiny_world_data
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        argv = {
            "train": ["train", "--bandit", data / "bandit.jsonl", "--logging-policy",
                      data / "logging_policy.json", "--out", tmp_path / "out" / "p.json"],
            "split-and-log": ["split-and-log", "--world", world, "--corpus", corpus,
                              "--out-dir", tmp_path / "out"],
        }[command]
        capsys.readouterr()
        assert run(argv + ["--config", cfg]) == cli.EXIT_INVALID
        key = line.split(" = ")[0]
        expected = (f"invalid training configuration: {message}" if key not in REMOVED_KEYS
                    else f"{cfg}:1: unknown config key {key!r}")
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gen-corpus", "split-and-log", "train", "evaluate",
                                         "evaluate_expert", "ablate", "sweep"])
    def test_negative_seed_exit_code(self, tiny_world_data, tmp_path, capsys, command):
        # rejected while parsing, before any file is read or written
        world, corpus, data = tiny_world_data
        out = tmp_path / "out"
        log = ["--bandit", data / "bandit.jsonl", "--logging-policy", data / "logging_policy.json"]
        argv = {
            "gen-corpus": ["gen-corpus", "--world", world, "--out", out / "c.jsonl"],
            "split-and-log": ["split-and-log", "--world", world, "--corpus", corpus,
                              "--out-dir", out],
            "train": ["train", *log, "--out", out / "p.json"],
            "evaluate": ["evaluate", "--world", world, "--checkpoint",
                         data / "logging_policy.json", "--out", out / "r.csv"],
            "evaluate_expert": ["evaluate", "--world", world, "--expert", "--out", out / "r.csv"],
            "ablate": ["ablate", "--world", world, *log, "--out-dir", out],
            "sweep": ["sweep", "--world", world, "--corpus", corpus, "--out-dir", out],
        }[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            run(argv + ["--seed", "-1"])
        assert excinfo.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"banditmatch {argv[0]}: error: argument --seed: '-1' is not an integer >= 0"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["corpus", "labeled", "bandit", "config"])
    def test_non_utf8_input_exit_code(self, tiny_world_data, tmp_path, capsys, flag):
        # a Latin-1 byte on line 2: the JSONL readers name the line, the
        # config reader the file
        world, corpus, data = tiny_world_data
        source = {"corpus": corpus, "labeled": data / "labeled.jsonl",
                  "bandit": data / "bandit.jsonl"}.get(flag)
        bad = tmp_path / f"bad_{flag}"
        if source is None:
            bad.write_bytes(b"epochs = 1\n# caf\xe9\n")
            where, detail = bad, "byte 0xe9 in position 16: invalid continuation byte"
        else:
            header, rest = source.read_bytes().split(b"\n", 1)
            bad.write_bytes(header + b"\n\xff" + rest)
            where, detail = f"{bad}:2", "byte 0xff in position 0: invalid start byte"
        train = ["train", "--bandit", data / "bandit.jsonl",
                 "--logging-policy", data / "logging_policy.json", "--out", tmp_path / "p.json"]
        argv = {
            "corpus": ["split-and-log", "--world", world, "--corpus", bad,
                       "--out-dir", tmp_path / "d"],
            "labeled": train + ["--labeled", bad],
            "bandit": train + ["--bandit", bad],  # the last --bandit wins
            "config": train + ["--config", bad],
        }[flag]
        capsys.readouterr()
        assert run(argv) == cli.EXIT_INVALID
        assert capsys.readouterr().err == (
            f"error: {where}: not UTF-8 text ('utf-8' codec can't decode {detail})\n"
        )

    @pytest.mark.parametrize("flag", ["world", "bandit", "config"])
    def test_directory_as_input_exit_code(self, tiny_world_data, tmp_path, capsys, flag):
        world, corpus, data = tiny_world_data
        argv = {
            "world": ["gen-corpus", "--world", tmp_path, "--out", tmp_path / "c.jsonl"],
            "bandit": ["train", "--bandit", tmp_path, "--logging-policy",
                       data / "logging_policy.json", "--out", tmp_path / "p.json"],
            "config": ["train", "--config", tmp_path, "--bandit", data / "bandit.jsonl",
                       "--logging-policy", data / "logging_policy.json",
                       "--out", tmp_path / "p.json"],
        }[flag]
        capsys.readouterr()
        assert run(argv) == cli.EXIT_MISSING_FILE
        kind = "config" if flag == "config" else "input"
        assert capsys.readouterr().err == f"error: {kind} file not found: {tmp_path}\n"


@pytest.fixture(scope="module")
def three_example_corpus(tmp_path_factory):
    """A tiny-world corpus of one dialog (three examples)."""
    root = tmp_path_factory.mktemp("three")
    world, corpus = root / "world.json", root / "corpus.jsonl"
    assert run(["gen-world", "--out", world, "--tiny"]) == 0
    assert run(["gen-corpus", "--world", world, "--n-dialogs", 1, "--out", corpus]) == 0
    return world, corpus


class TestGridPointSizes:
    """A labeled fraction that leaves the labeled split or the bandit pool
    empty exits 5 before any training, naming the fraction and corpus size;
    sweep checks every point before its first."""

    @pytest.mark.parametrize("argv, fraction, part", [
        (["split-and-log", "--labeled-fraction", "0.05"], 0.05, "labeled split"),
        (["split-and-log", "--labeled-fraction", "1.0"], 1.0, "bandit pool"),
        (["sweep", "--percentages", "50,5", "--n-dialogs", "2", "--n-runs", "1"],
         0.05, "labeled split"),
        (["sweep", "--percentages", "50,100", "--n-dialogs", "2", "--n-runs", "1"],
         1.0, "bandit pool"),
    ], ids=["split_no_labeled", "split_no_pool", "sweep_no_labeled", "sweep_no_pool"])
    def test_empty_side_rejected_before_training(self, three_example_corpus, tmp_path, capsys,
                                                 monkeypatch, argv, fraction, part):
        world, corpus = three_example_corpus
        n = len(corpus.read_text().splitlines()) - 1
        trained = []
        real = cli.trainer.train_logging_policy
        monkeypatch.setattr(cli.trainer, "train_logging_policy",
                            lambda *a, **k: trained.append(1) or real(*a, **k))
        capsys.readouterr()
        code = run(argv + ["--world", world, "--corpus", corpus, "--out-dir", tmp_path / "out"])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err == (
            f"error: labeled fraction {fraction} of a {n}-example corpus leaves the {part} empty\n"
        )
        assert trained == []
        assert not (tmp_path / "out").exists()


class TestCountFlags:
    """The ``--n-dialogs`` of gen-corpus and the ``--n-dialogs`` /
    ``--n-runs`` of evaluate, ablate and sweep take integers of at least 1
    and fail while parsing (exit 2), before any file is read or any policy
    trained. No command takes a worker count: evaluate has no ``--jobs``."""

    @staticmethod
    def _argv(command, root, world, corpus, data, cfg):
        out = root / "counts_out"
        return {
            # a missing world: the count is refused before the world is read
            "gen-corpus": ["gen-corpus", "--world", root / "missing.json", "--out",
                           out / "c.jsonl"],
            "evaluate": ["evaluate", "--world", world, "--expert", "--out", out / "r.csv"],
            "ablate": ["ablate", "--world", world, "--bandit", data / "bandit.jsonl",
                       "--logging-policy", data / "logging_policy.json", "--config", cfg,
                       "--out-dir", out],
            "sweep": ["sweep", "--world", world, "--corpus", corpus, "--config", cfg,
                      "--percentages", "20", "--methods", "ips", "--out-dir", out],
        }[command]

    @pytest.mark.parametrize("command, flag, value", [
        pytest.param(command, flag, value, id=f"{case}-{command}")
        for command in ("evaluate", "ablate", "sweep", "gen-corpus")
        for case, flag, value in (
            ("dialogs_zero", "--n-dialogs", "0"), ("runs_zero", "--n-runs", "0"),
            ("runs_negative", "--n-runs", "-2"), ("dialogs_not_int", "--n-dialogs", "x"),
            ("dialogs_negative", "--n-dialogs", "-3"))
        # gen-corpus has no --n-runs
        if flag == "--n-dialogs" or command != "gen-corpus"
    ])
    def test_counts_rejected_before_training(self, pipeline, capsys, monkeypatch,
                                             command, flag, value):
        root, world, corpus, data, cfg, ckpt = pipeline
        trained = []
        for name in ("train_on_log", "train_logging_policy"):
            real = getattr(cli.trainer, name)
            monkeypatch.setattr(cli.trainer, name,
                                lambda *a, real=real, **k: trained.append(1) or real(*a, **k))
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            run(self._argv(command, root, world, corpus, data, cfg) + [flag, value])
        assert excinfo.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"banditmatch {command}: error: argument {flag}: '{value}' is not an integer >= 1"
        )
        assert trained == []
        assert not (root / "counts_out").exists()

    @pytest.mark.parametrize("value", ["0", "-3", "two", "2"])
    def test_jobs_rejected(self, pipeline, capsys, value):
        # the flag is gone, whatever its value: evaluate runs in one process
        root, world, corpus, data, cfg, ckpt = pipeline
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            run(["evaluate", "--world", world, "--checkpoint", ckpt, "--jobs", value,
                 "--out", root / "jobs_bad.csv"])
        assert excinfo.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"banditmatch: error: unrecognized arguments: --jobs {value}"
        )
        assert not (root / "jobs_bad.csv").exists()


class TestOutputPaths:
    """Every output flag creates its file's directory; an output path that is a
    directory, or whose directory cannot be made, exits 5 with one line."""

    @pytest.mark.parametrize("flag", ["--json", "--trace", "--train-log", "--threshold-trace"])
    def test_missing_directory_created(self, tiny_world_data, tmp_path, flag):
        world, corpus, data = tiny_world_data
        target = tmp_path / "new" / "file"
        if flag in ("--json", "--trace"):
            argv = ["evaluate", "--world", world, "--checkpoint", data / "logging_policy.json",
                    "--n-dialogs", 2, "--n-runs", 1, "--out", tmp_path / "r.csv"]
            manifest = tmp_path / "r.manifest.json"
        else:
            argv = ["train", "--method", "banditmatch", "--bandit", data / "bandit.jsonl",
                    "--logging-policy", data / "logging_policy.json",
                    "--config", world.parent / "train.cfg", "--out", tmp_path / "p.json"]
            manifest = tmp_path / "p.manifest.json"
        assert run(argv + [flag, target]) == 0
        outputs = json.loads(manifest.read_text())["outputs"]
        assert outputs[str(target)] == hashlib.sha256(target.read_bytes()).hexdigest()

    def test_out_is_directory(self, tiny_world_data, tmp_path, capsys):
        world = tiny_world_data[0]
        capsys.readouterr()
        code = run(["evaluate", "--world", world, "--expert", "--n-dialogs", 2, "--n-runs", 1,
                    "--out", tmp_path])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err == f"error: {tmp_path}: is a directory\n"

    def test_out_dir_is_file(self, tiny_world_data, tmp_path, capsys):
        world, corpus, _ = tiny_world_data
        taken = tmp_path / "taken"
        taken.write_text("")
        capsys.readouterr()
        code = run(["split-and-log", "--world", world, "--corpus", corpus,
                    "--labeled-fraction", 0.5, "--config", world.parent / "train.cfg",
                    "--out-dir", taken])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err == (
            f"error: {taken / 'labeled.jsonl'}: cannot make directory {taken}: File exists\n"
        )

    @pytest.mark.parametrize("case", ["out_dir_is_file", "train_log_is_directory",
                                      "file_above_train_log"])
    def test_checked_before_any_work(self, tiny_world_data, tmp_path, capsys, monkeypatch, case):
        # every output flag is checked before the command runs: nothing trains
        # and no directory is made
        world, corpus, data = tiny_world_data
        for name in ("train_on_log", "train_logging_policy"):
            monkeypatch.setattr(cli.trainer, name, lambda *a, name=name, **k: pytest.fail(name))
        taken = tmp_path / "taken"
        taken.write_text("")
        train = ["train", "--method", "banditmatch", "--bandit", data / "bandit.jsonl",
                 "--logging-policy", data / "logging_policy.json",
                 "--config", world.parent / "train.cfg", "--out", tmp_path / "new" / "p.json"]
        argv, line = {
            "out_dir_is_file": (
                ["split-and-log", "--world", world, "--corpus", corpus, "--labeled-fraction",
                 0.5, "--config", world.parent / "train.cfg", "--out-dir", taken],
                f"{taken / 'labeled.jsonl'}: cannot make directory {taken}: File exists"),
            "train_log_is_directory": (train + ["--train-log", tmp_path],
                                       f"{tmp_path}: is a directory"),
            "file_above_train_log": (
                train + ["--train-log", taken / "logs" / "log.csv"],
                f"{taken / 'logs' / 'log.csv'}: cannot make directory {taken / 'logs'}: "
                "Not a directory"),
        }[case]
        capsys.readouterr()
        assert run(argv) == cli.EXIT_INVALID
        assert capsys.readouterr().err == f"error: {line}\n"
        assert sorted(tmp_path.iterdir()) == [taken]

    @pytest.mark.parametrize("case", ["json_is_manifest", "train_log_is_out",
                                      "trace_is_dotted_train_log"])
    def test_two_outputs_one_file(self, tiny_world_data, tmp_path, capsys, monkeypatch, case):
        # two outputs, or an output and the manifest, that resolve to one
        # file exit 5 before any work instead of overwriting each other
        world, corpus, data = tiny_world_data
        for name in ("train_on_log", "evaluate", "evaluate_expert"):
            monkeypatch.setattr(cli.trainer, name, lambda *a, name=name, **k: pytest.fail(name))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "new"
        train = ["train", "--method", "banditmatch", "--bandit", data / "bandit.jsonl",
                 "--logging-policy", data / "logging_policy.json",
                 "--config", world.parent / "train.cfg", "--out", out / "p.json"]
        argv, path = {
            "json_is_manifest": (
                ["evaluate", "--world", world, "--expert", "--n-dialogs", 2, "--n-runs", 1,
                 "--out", out / "r.csv", "--json", out / "r.manifest.json"],
                out / "r.manifest.json"),
            "train_log_is_out": (train + ["--train-log", out / "p.json"], out / "p.json"),
            "trace_is_dotted_train_log": (
                train + ["--train-log", "./new/log.csv", "--threshold-trace", out / "log.csv"],
                out / "log.csv"),
        }[case]
        capsys.readouterr()
        assert run(argv) == cli.EXIT_INVALID
        assert capsys.readouterr().err == f"error: {path}: two outputs name this file\n"
        assert list(tmp_path.iterdir()) == []

    def test_output_may_be_an_input(self, tmp_path):
        # gen-world re-emits a schema file in place
        world = tmp_path / "w.json"
        assert run(["gen-world", "--out", world, "--tiny"]) == 0
        before = world.read_bytes()
        assert run(["gen-world", "--schema-config", world, "--out", world]) == 0
        assert world.read_bytes() == before
        manifest = json.loads((tmp_path / "w.manifest.json").read_text())
        assert manifest["outputs"] == {str(world): hashlib.sha256(before).hexdigest()}


# per command: argv, manifest, then the manifest's input and output keys in
# order; {w} {c} {cfg} {d} are tiny_world_data's files, {o} a fresh directory
MANIFEST_CASES = {
    "gen_world": (["gen-world", "--schema-config", "{w}", "--out", "{o}/w.json"],
                  "{o}/w.manifest.json", ["{w}"], ["{o}/w.json"]),
    "gen_corpus": (["gen-corpus", "--world", "{w}", "--n-dialogs", "2", "--out", "{o}/c.jsonl"],
                   "{o}/c.manifest.json", ["{w}"], ["{o}/c.jsonl"]),
    "split_and_log": (
        ["split-and-log", "--world", "{w}", "--corpus", "{c}", "--labeled-fraction", "0.5",
         "--config", "{cfg}", "--out-dir", "{o}/d"],
        "{o}/d/split_and_log.manifest.json", ["{w}", "{c}"],
        ["{o}/d/labeled.jsonl", "{o}/d/bandit.jsonl", "{o}/d/logging_policy.json"]),
    "train": (
        ["train", "--method", "banditmatch", "--bandit", "{d}/bandit.jsonl",
         "--logging-policy", "{d}/logging_policy.json", "--labeled", "{d}/labeled.jsonl",
         "--config", "{cfg}", "--out", "{o}/p.json", "--train-log", "{o}/log.csv",
         "--threshold-trace", "{o}/th.csv"],
        "{o}/p.manifest.json",
        ["{d}/bandit.jsonl", "{d}/logging_policy.json", "{d}/labeled.jsonl"],
        ["{o}/p.json", "{o}/log.csv", "{o}/th.csv"]),
    # the trace is opened before the report is written
    "evaluate": (
        ["evaluate", "--world", "{w}", "--checkpoint", "{d}/logging_policy.json",
         "--n-dialogs", "2", "--n-runs", "1", "--out", "{o}/r.csv", "--json", "{o}/r.json",
         "--trace", "{o}/t.jsonl"],
        "{o}/r.manifest.json", ["{w}", "{d}/logging_policy.json"],
        ["{o}/t.jsonl", "{o}/r.csv", "{o}/r.json"]),
    # the expert reads no checkpoint and writes no trace
    "evaluate_expert": (
        ["evaluate", "--world", "{w}", "--expert", "--n-dialogs", "2", "--n-runs", "1",
         "--out", "{o}/x.csv", "--json", "{o}/x.json", "--trace", "{o}/xt.jsonl"],
        "{o}/x.manifest.json", ["{w}"], ["{o}/x.csv", "{o}/x.json"]),
    "ablate": (
        ["ablate", "--world", "{w}", "--bandit", "{d}/bandit.jsonl",
         "--logging-policy", "{d}/logging_policy.json", "--config", "{cfg}",
         "--n-dialogs", "2", "--n-runs", "1", "--out-dir", "{o}/a"],
        "{o}/a/ablations.manifest.json",
        ["{w}", "{d}/bandit.jsonl", "{d}/logging_policy.json"],
        ["{o}/a/ablations.csv", "{o}/a/ablations.json"]),
    "sweep": (
        ["sweep", "--world", "{w}", "--corpus", "{c}", "--config", "{cfg}", "--percentages", "50",
         "--methods", "ips", "--n-dialogs", "2", "--n-runs", "1", "--out-dir", "{o}/s"],
        "{o}/s/sweep.manifest.json", ["{w}", "{c}"],
        ["{o}/s/sweep_ips.csv", "{o}/s/sweep_logging.csv"]),
}


def _run_manifest_case(tiny_world_data, tmp_path, case):
    """Run one MANIFEST_CASES command; return its manifest and the placeholder filler."""
    world, corpus, data = tiny_world_data
    names = {"w": world, "c": corpus, "cfg": world.parent / "train.cfg", "d": data,
             "o": tmp_path}
    argv, manifest, _, _ = MANIFEST_CASES[case]

    def fill(item):
        return item.format(**names)

    assert run([fill(item) for item in argv]) == 0
    return json.loads(Path(fill(manifest)).read_text()), fill


class TestManifests:
    @pytest.mark.parametrize("case", list(MANIFEST_CASES))
    def test_lists_what_the_command_touched(self, tiny_world_data, tmp_path, case):
        argv, _, inputs, outputs = MANIFEST_CASES[case]
        written, fill = _run_manifest_case(tiny_world_data, tmp_path, case)
        assert written["command"] == argv[0]
        assert list(written["inputs"]) == [fill(path) for path in inputs]
        assert list(written["outputs"]) == [fill(path) for path in outputs]
        blas = cli.blas_info()
        assert {key: written[key] for key in ("blas_kernel", "blas_build")} == blas
        # numpy's bundled OpenBLAS names its kernel inside its build string
        assert blas["blas_kernel"] == "unknown" or blas["blas_kernel"] in blas["blas_build"].split()

    def test_blas_unknown_without_openblas(self, monkeypatch):
        import ctypes

        def no_library(path):
            raise OSError(f"{path}: cannot open")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        assert cli.blas_info.__wrapped__() == {"blas_kernel": "unknown", "blas_build": "unknown"}

    @pytest.mark.parametrize("case", ["split_and_log", "train", "ablate", "sweep"])
    def test_config_has_one_entry_per_config_key(self, tiny_world_data, tmp_path, case):
        written, _ = _run_manifest_case(tiny_world_data, tmp_path, case)
        assert list(written["config"]) == list(cli.CONFIG_KEYS)

    @pytest.mark.parametrize("case", list(MANIFEST_CASES))
    def test_checked_outputs_are_the_written_ones(self, case):
        # main checks output_paths before the command runs; they must be the
        # files the command writes, in the order it writes them
        names = {"w": "w.json", "c": "c.jsonl", "cfg": "t.cfg", "d": "d", "o": "o"}
        argv, _, _, outputs = MANIFEST_CASES[case]
        args = cli.build_parser().parse_args([item.format(**names) for item in argv])
        assert cli.output_paths(args) == [Path(path.format(**names)) for path in outputs]


class TestConfigFile:
    def test_values_parsed_and_types_checked(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "seed = 4\nlearning_rate = 0.01\nhidden_dims = 16,8\n"
            "no_kl = true\nmethod = ips\n"
        )
        values = cli.read_config_file(cfg)
        assert values == {
            "seed": 4, "learning_rate": 0.01, "hidden_dims": (16, 8),
            "no_kl": True, "method": "ips",
        }

    @pytest.mark.parametrize("text, expected", [
        ("# a comment line\n\n   \nepochs = 3  # a trailing comment\n", {"epochs": 3}),
        *[(f"no_kl = {raw}\n", {"no_kl": True}) for raw in ("1", "true", "Yes", "ON")],
        *[(f"no_kl = {raw}\n", {"no_kl": False}) for raw in ("0", "False", "no", "off")],
        ("epochs = 1_000\n", {"epochs": 1000}),
        ("learning_rate = 1e-3\n", {"learning_rate": 0.001}),
        ("hidden_dims = 16, 8,\n", {"hidden_dims": (16, 8)}),
        ("hidden_dims =\n", {"hidden_dims": ()}),
        ("seed = 1\nseed = 2\n", {"seed": 2}),
    ], ids=["comments", "true-1", "true", "true-yes", "true-on", "false-0", "false",
            "false-no", "false-off", "int-underscore", "float-exponent", "dims-trailing-comma",
            "dims-empty", "last-key-wins"])
    def test_grammar_readings_accepted(self, tmp_path, text, expected):
        # the readings FORMATS.md documents for the key = value grammar
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert cli.read_config_file(cfg) == expected
        cli.build_train_config(cli.read_config_file(cfg), {})

    def test_exponent_refused_for_integer_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs = 1e3\n")
        with pytest.raises(cli.CliError, match=r"c.cfg:1: bad value for epochs: '1e3'"):
            cli.read_config_file(cfg)

    @pytest.mark.parametrize("command", ["split-and-log", "sweep"])
    def test_unallocatable_hidden_dims_exit_code(self, tiny_world_data, tmp_path, capsys,
                                                 command):
        # 27 x 10**12 float64 weights are 196 TiB, past the address space, so
        # the allocation fails at once
        world, corpus, _ = tiny_world_data
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("hidden_dims = 1000000000000\n")
        out = tmp_path / "out"
        flags = ["--percentages", 50, "--n-dialogs", 1, "--n-runs", 1] if command == "sweep" else []
        capsys.readouterr()
        assert run([command, "--world", world, "--corpus", corpus, "--config", cfg, *flags,
                    "--out-dir", out]) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: cannot allocate a 27 x 1000000000000 layer (")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 4\nepochs = 7\n")
        config = cli.build_train_config(cli.read_config_file(cfg), {"seed": 9})
        assert config.seed == 9 and config.epochs == 7

    @pytest.mark.parametrize("command", ["split-and-log", "ablate", "sweep"])
    def test_file_seed_used_without_seed_flag(self, tiny_world_data, tmp_path, command):
        world, corpus, data = tiny_world_data
        budget = "sl_epochs = 2\nepochs = 1\nhidden_dims = 8\n"
        argv = {
            "split-and-log": ["split-and-log", "--world", world, "--corpus", corpus],
            "ablate": ["ablate", "--world", world, "--bandit", data / "bandit.jsonl",
                       "--logging-policy", data / "logging_policy.json",
                       "--n-dialogs", 3, "--n-runs", 1],
            "sweep": ["sweep", "--world", world, "--corpus", corpus, "--percentages", 50,
                      "--methods", "banditmatch", "--n-dialogs", 3, "--n-runs", 1],
        }[command]

        def outputs(name, cfg_text, *flags):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(cfg_text)
            out = tmp_path / name
            assert run(argv + ["--config", cfg, *flags, "--out-dir", out]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                    if not p.name.endswith(".manifest.json")}

        from_file = outputs("file", budget + "seed = 4\n")
        assert from_file == outputs("flag", budget, "--seed", 4)
        assert from_file != outputs("default", budget)

    def test_key_set_and_parsed_types(self, tmp_path):
        key_types = {
            "seed": int, "batch_size": int, "epochs": int, "sl_epochs": int,
            "learning_rate": float, "hidden_dims": tuple, "method": str,
            "add_kl": bool, "no_mc_scale": bool, "no_fet": bool, "no_cbl": bool, "no_kl": bool,
        }
        assert len(key_types) == 12
        raw = {int: "3", float: "0.5", str: "x", tuple: "16,8", bool: "true"}
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{key} = {raw[kind]}\n" for key, kind in key_types.items()))
        values = cli.read_config_file(cfg)
        assert {key: type(value) for key, value in values.items()} == key_types
        assert list(cli.CONFIG_KEYS) == list(key_types)
        # no key given: every default comes from the dataclasses
        assert cli.build_train_config({}, {}) == cli.TrainConfig()


class TestTraces:
    def test_evaluate_trace_dump(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        trace = root / "episodes.jsonl"
        assert run(["evaluate", "--world", world, "--checkpoint", ckpt,
                    "--n-dialogs", 4, "--n-runs", 1, "--seed", 2,
                    "--out", root / "traced.csv", "--trace", trace]) == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert len(lines) == 4
        assert all("turns" in row for row in lines)

    def test_traced_report_matches_untraced(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        a = root / "traced_eq.csv"
        b = root / "untraced_eq.csv"
        argv = ["evaluate", "--world", world, "--checkpoint", ckpt,
                "--n-dialogs", 6, "--n-runs", 1, "--seed", 8]
        assert run(argv + ["--out", a, "--trace", root / "t.jsonl"]) == 0
        assert run(argv + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_expert_ignores_trace(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        trace = root / "expert_trace.jsonl"
        assert run(["evaluate", "--world", world, "--expert", "--n-dialogs", 2, "--n-runs", 1,
                    "--out", root / "expert_traced.csv", "--trace", trace]) == 0
        assert not trace.exists()

    def test_train_threshold_trace(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        trace = root / "thresholds.csv"
        assert run(["train", "--method", "banditmatch", "--bandit", data / "bandit.jsonl",
                    "--logging-policy", data / "logging_policy.json",
                    "--config", cfg, "--seed", 5, "--out", root / "bm_traced.json",
                    "--threshold-trace", trace]) == 0
        assert trace.exists() and trace.read_text().startswith("step,class,accept")

    def test_crm_threshold_trace_replaces_stale_file(self, pipeline):
        # ips has no FET thresholds: the trace is header-only, never a stale file
        root, world, corpus, data, cfg, ckpt = pipeline
        trace = root / "ips_thresholds.csv"
        trace.write_text("stale,from,last,week\n")
        out = root / "ips_traced.json"
        assert run(["train", "--method", "ips", "--bandit", data / "bandit.jsonl",
                    "--logging-policy", data / "logging_policy.json",
                    "--config", cfg, "--seed", 5, "--out", out,
                    "--threshold-trace", trace]) == 0
        assert trace.read_bytes() == b"step,class,accept,reject,mc_pos,mc_neg\r\n"
        manifest = json.loads((root / "ips_traced.manifest.json").read_text())
        assert manifest["outputs"][str(trace)] == hashlib.sha256(trace.read_bytes()).hexdigest()


class TestReadme:
    def test_command_line_block_parses(self):
        # the README's documented commands must name no removed flag or command
        readme = (Path(cli.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```")[1]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.strip()]
        parser = cli.build_parser()
        for argv in commands:
            assert argv[0] == "banditmatch"
            parser.parse_args(argv[1:])
        assert {argv[1] for argv in commands} == {
            "gen-world", "gen-corpus", "split-and-log", "train", "evaluate", "ablate", "sweep",
        }

    def test_fixed_value_table_matches_the_constants(self):
        # each row's constants hold the values its "fixed at" cell states, in order
        readme = (Path(cli.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| value | fixed at | constant |", 1)[1].split("\n\n", 1)[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table.splitlines()[2:]]
        assert len(rows) == 8
        for _, fixed, constant in rows:
            names = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`", constant)
            values = [float(v) for v in re.findall(r"\d+(?:\.\d+)?", fixed)]
            if not names:
                # the loss weights: the terms' plain sum
                assert constant == "`objectives.total_loss`'s plain sum" and values == [1.0]
                terms = [nncore.Tensor(2.0 ** k) for k in range(4)]
                assert objectives.total_loss(*terms).item() == 15.0
                continue
            assert len(names) == len(values), constant
            for (module, name), value in zip(names, values):
                assert getattr(importlib.import_module(f"banditmatch.{module}"), name) == value


class TestBlasThreads:
    @pytest.mark.parametrize("module", ["banditmatch.cli", "banditmatch.trainer",
                                        "banditmatch.datasets"])
    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_import_pins_blas_unless_set(self, preset, expected, module):
        # importing any module pins BLAS before numpy loads; a fresh
        # interpreter, since this one has loaded numpy already
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             f"import os, {module}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        child = f"child exited {out.returncode}; stderr:\n{out.stderr}"
        assert out.returncode == 0, child
        assert out.stdout.strip() == expected, child
