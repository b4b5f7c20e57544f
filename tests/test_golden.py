"""Golden bytes of the tiny command-line pipeline.

Runs gen-world -> gen-corpus -> split-and-log -> train -> evaluate and pins
the sha256 of every artifact that carries learned numbers. Run-against-run
determinism cannot catch a refactor that shifts low-order bits the same way
twice; these fixed digests can.

``criterion9`` is the acceptance criterion-9 pipeline plus a training log.
Its logging policy earns no positive feedback, so fine-tuning there moves
only the KL term. ``all_losses`` trains the logging policy further at a
higher learning rate so every loss term is active, with non-unit loss
weights, weight decay, replay of the labeled split, and an IPS + KL run.

The digests were taken before the fused-node training step existed, with
Python 3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31 (OpenBLAS 0.3.31.188.0,
DYNAMIC_ARCH, Haswell kernels) on x86_64. A different BLAS build may sum
matrix products in another order; if only this test fails after such an
upgrade, re-take the digests on the old code first.
"""

import hashlib

import pytest

from banditmatch import cli

BASE_CONFIG = "epochs = 2\nhidden_dims = 16\nbatch_size = 32\n"
PIPELINES = {
    "criterion9": (
        "sl_epochs = 8\n" + BASE_CONFIG,
        ("banditmatch",),
        {
            "data/logging_policy.json":
                "000efc2555454eee8cdba2d80a24b246284ea1e6746db7a574693627a35aee69",
            "data/bandit.jsonl":
                "8bb72f3ab109e250df09f17b0c593cfa4d631de2f99129ba2b35e1b47020c63b",
            "banditmatch.json":
                "0a2bfb5eb0c3ccc737581883f33b39374aa226782d7781324a84fe01ae4d3a51",
            "banditmatch_log.csv":
                "a8702d19a29f5ceee0a072c422533fc490a06b8636d05beb742b9240fa6ddcd7",
            "report.csv":
                "648d222443404e12abf2d3e2f05f2eec116e83deebb0f8a3cb3bc97deab9b13f",
        },
    ),
    "all_losses": (
        "sl_epochs = 60\nlearning_rate = 0.01\nweight_decay = 0.001\n"
        "lambda_pseudo = 0.7\nlambda_kl = 0.35\nreplay_labeled = true\nadd_kl = true\n"
        + BASE_CONFIG,
        ("banditmatch", "ips"),
        {
            "data/logging_policy.json":
                "e3dd9bf96f11792d4ab2415f4136b60f69b127d8692c4ec67f085e4da4625df3",
            "data/bandit.jsonl":
                "bdeb5f7a565f8976fa2b4b0d24165d06fbe114935db4d9a57953ddfd1a84b7d7",
            "banditmatch.json":
                "5fc31b479617c8851993fd4150093ce8738cc6665d255e78ce926a83b35cfb0e",
            "banditmatch_log.csv":
                "f47d37e39a3d7881bc1430744bf2b6c1a14f7bfd329bffa42c235683b1338ef1",
            "ips.json":
                "b01bf3b3f0158a84eadcec9c333688d569b304a83abe559cc0327487b25b519b",
            "ips_log.csv":
                "82e4944eb386b8e69e6c3f6b7820b6979f37a9e02a6e8f187afbac0cd035d7d3",
            "report.csv":
                "0e01d17a6e5a526677e931ac75d99d21934a84f4b7760e27ad50d84adb0af366",
        },
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_tiny_pipeline_golden_bytes(tmp_path, name):
    config, methods, golden = PIPELINES[name]
    cfg = tmp_path / "train.cfg"
    cfg.write_text(config)
    world = tmp_path / "world.json"
    corpus = tmp_path / "corpus.jsonl"
    data = tmp_path / "data"
    argv_sets = [
        ["gen-world", "--out", world],
        ["gen-corpus", "--world", world, "--n-dialogs", 30, "--seed", 5, "--out", corpus],
        ["split-and-log", "--world", world, "--corpus", corpus,
         "--labeled-fraction", 0.2, "--seed", 5, "--config", cfg, "--out-dir", data],
    ]
    for method in methods:
        argv_sets.append(
            ["train", "--method", method, "--bandit", data / "bandit.jsonl",
             "--logging-policy", data / "logging_policy.json", "--labeled",
             data / "labeled.jsonl", "--config", cfg, "--seed", 5,
             "--out", tmp_path / f"{method}.json", "--train-log", tmp_path / f"{method}_log.csv"]
        )
    argv_sets.append(
        ["evaluate", "--world", world, "--checkpoint", tmp_path / "banditmatch.json",
         "--n-dialogs", 20, "--n-runs", 2, "--seed", 5, "--out", tmp_path / "report.csv"]
    )
    for argv in argv_sets:
        assert cli.main([str(a) for a in argv]) == 0
    assert {path: _sha256(tmp_path / path) for path in golden} == golden
