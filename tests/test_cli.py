import json
from pathlib import Path

import pytest

from banditmatch import cli


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

    def test_parallel_evaluation_matches_sequential(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        seq = root / "seq.csv"
        par = root / "par.csv"
        argv = ["evaluate", "--world", world, "--checkpoint", ckpt,
                "--n-dialogs", 12, "--n-runs", 1, "--seed", 13]
        assert run(argv + ["--out", seq, "--jobs", 1]) == 0
        assert run(argv + ["--out", par, "--jobs", 2]) == 0
        assert seq.read_bytes() == par.read_bytes()

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

    def test_train_fixmatch_requires_labeled(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        code = run(["train", "--method", "fixmatch", "--bandit", data / "bandit.jsonl",
                    "--logging-policy", data / "logging_policy.json",
                    "--config", cfg, "--seed", 5, "--out", root / "fm.json"])
        assert code == cli.EXIT_INVALID


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
    elif case == "actions":
        record["actions"] = sorted(actions + [below])


BROKEN_LOGS = {
    "delta": "delta must be 0 or 1",
    "rho_zero": "rho must lie strictly inside (0, 1)",
    "rho_one": "rho must lie strictly inside (0, 1)",
    "rho_length": "rho has",
    "state_length": "state has",
    "actions": "differ from {c : rho[c] > 0.5}",
}


class TestBanditLogContract:
    @pytest.mark.parametrize("case", sorted(BROKEN_LOGS))
    def test_broken_record_exit_code_and_line(self, pipeline, tmp_path, capsys, case):
        root, world, corpus, data, cfg, ckpt = pipeline
        lines = (data / "bandit.jsonl").read_text().splitlines()
        record = json.loads(lines[2])
        _break_record(record, case)
        lines[2] = json.dumps(record)
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

    def test_unknown_config_key_exit_code(self, tmp_path):
        world = tmp_path / "world.json"
        assert run(["gen-world", "--out", world, "--tiny"]) == 0
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_speed = 3\n")
        corpus = tmp_path / "c.jsonl"
        assert run(["gen-corpus", "--world", world, "--n-dialogs", 2, "--out", corpus]) == 0
        code = run(["split-and-log", "--world", world, "--corpus", corpus,
                    "--config", cfg, "--out-dir", tmp_path / "d"])
        assert code == cli.EXIT_INVALID

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["train"])  # missing required flags
        assert excinfo.value.code == cli.EXIT_USAGE

    def test_invalid_fraction_exit_code(self, tmp_path):
        world = tmp_path / "world.json"
        corpus = tmp_path / "c.jsonl"
        assert run(["gen-world", "--out", world, "--tiny"]) == 0
        assert run(["gen-corpus", "--world", world, "--n-dialogs", 2, "--out", corpus]) == 0
        code = run(["split-and-log", "--world", world, "--corpus", corpus,
                    "--labeled-fraction", "1.5", "--out-dir", tmp_path / "d"])
        assert code == cli.EXIT_INVALID


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

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 4\nepochs = 7\n")
        config = cli.build_train_config(cli.read_config_file(cfg), {"seed": 9})
        assert config.seed == 9 and config.epochs == 7

    def test_lambda_keys_map_to_weights(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("lambda_kl = 0\nlambda_bandit = 0.5\n")
        config = cli.build_train_config(cli.read_config_file(cfg), {})
        assert config.weights.kl == 0.0 and config.weights.bandit == 0.5


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

    def test_train_threshold_trace(self, pipeline):
        root, world, corpus, data, cfg, ckpt = pipeline
        trace = root / "thresholds.csv"
        assert run(["train", "--method", "banditmatch", "--bandit", data / "bandit.jsonl",
                    "--logging-policy", data / "logging_policy.json",
                    "--config", cfg, "--seed", 5, "--out", root / "bm_traced.json",
                    "--threshold-trace", trace]) == 0
        assert trace.exists() and trace.read_text().startswith("step,class,accept")
