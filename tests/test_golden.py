"""Golden bytes of the tiny command-line pipeline.

Runs gen-world -> gen-corpus -> split-and-log -> train -> evaluate and pins
the sha256 of the world file, the expert corpus (which pins the state
encoder directly) and every artifact that carries learned numbers. Run-against-run
determinism cannot catch a refactor that shifts low-order bits the same way
twice; these fixed digests can.

``criterion9`` is the acceptance criterion-9 pipeline plus a training log.
Its logging policy earns no positive feedback, so fine-tuning there moves
only the KL term. ``all_losses`` trains the logging policy further at a
higher learning rate so every loss term is active, with an IPS + KL run.
Its digests other than the world and corpus were re-taken on the last tree
that had weight decay and replay of the labeled split. Its fine-tuned
checkpoints, training logs and report were re-taken again, with this config,
on the last tree that had loss weights, once the config's non-unit
pseudo-label and KL weights were dropped.
``test_protocol_paths_golden_bytes`` pins the paths those two leave out:
every fine-tuning method (fixmatch and banditnet among them), the threshold
trace, ``evaluate --trace`` / ``--expert`` and the ablation table, whose rows
run over the usable CPUs. ``test_sweep_golden_bytes`` pins the
labeled-percentage sweep, whose points are built the same way, and then
every (point, row) runs in one grid.

The digests were taken before the fused-node training step existed (the
world and corpus digests before the array-native dialog turn), with
Python 3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31 (OpenBLAS 0.3.31.188.0,
DYNAMIC_ARCH) on x86_64, under the SkylakeX kernels that OpenBLAS picks on
an AVX-512 CPU (``GOLDEN_KERNEL``). The KL fine-tunes' digests (criterion9's
banditmatch checkpoint, training log and report, all_losses' banditmatch and
ips checkpoints and training logs, and the protocol paths' banditmatch
checkpoint, training log and threshold trace) were re-taken under the same
kernels once the KL term read the logged propensities instead of a second
pass of the logging policy, and the CRM rows logged the CRM term alone. A
different BLAS build or kernel may sum matrix products in another order, so
a failure names the kernel in use; if only this test fails after such a
change, re-take the digests on the old code first.
"""

import hashlib

import pytest

from banditmatch import cli

# the OpenBLAS kernel every digest below was taken under
GOLDEN_KERNEL = "SkylakeX"

BASE_CONFIG = "epochs = 2\nhidden_dims = 16\nbatch_size = 32\n"
PIPELINES = {
    "criterion9": (
        "sl_epochs = 8\n" + BASE_CONFIG,
        ("banditmatch",),
        {
            "world.json":
                "9118a298c27897d067946514cb0faf436725fbf67b2100bee348400331408afa",
            "corpus.jsonl":
                "6060f9fddf946ce74451652b6a4df4164f3fa124089b7a21d8be4d6bbc2a82dd",
            "data/logging_policy.json":
                "000efc2555454eee8cdba2d80a24b246284ea1e6746db7a574693627a35aee69",
            "data/bandit.jsonl":
                "8bb72f3ab109e250df09f17b0c593cfa4d631de2f99129ba2b35e1b47020c63b",
            "banditmatch.json":
                "5a8446b5eb1514e95ca1f6c887ebdc2dcbf74bdf8032d450caa2713a2c8d58b6",
            "banditmatch_log.csv":
                "4cbad04a5c79e31540d04390441bcab8ed0303fe0b8358aa0b6cb3fb2e4dd59f",
            "report.csv":
                "19d3e44848a21c6eb75b53807980a50a45b83de9b6224a79cad93588811b7e19",
        },
    ),
    "all_losses": (
        "sl_epochs = 60\nlearning_rate = 0.01\nadd_kl = true\n" + BASE_CONFIG,
        ("banditmatch", "ips"),
        {
            "world.json":
                "9118a298c27897d067946514cb0faf436725fbf67b2100bee348400331408afa",
            "corpus.jsonl":
                "6060f9fddf946ce74451652b6a4df4164f3fa124089b7a21d8be4d6bbc2a82dd",
            "data/logging_policy.json":
                "24eb598a5828bcb1195f4b0c0d46e07255fcef6fadbca15854bcf20823f90e05",
            "data/bandit.jsonl":
                "c9dc3e9ef8e1b5ed6d8a8c28b83aa81e3eaaa4e8fff1f170e17458ac2f223683",
            "banditmatch.json":
                "d900ca3dcab4c0d480076bc58d463cc5b701afc69714389a1989a49ef3ee9ab4",
            "banditmatch_log.csv":
                "d6cc3b39e45f709ba791521f97409cd365850113641e7130f7f290bf58702e9d",
            "ips.json":
                "2b481118120227e16f38d06d56d9cfbd9ab9be5b149544fcecbff44181e23ec7",
            "ips_log.csv":
                "5c4c36f44e5d9f5e31c70f415f282f39ee6570f16da6526b42026264e2b065b2",
            "report.csv":
                "f31e516fe910ec9ea317ab4b4e21c6e621c9cbae399ac1156719f94ed608dcb5",
        },
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pipeline_argv(tmp_path, config, methods, extra_train=None):
    """gen-world -> gen-corpus -> split-and-log -> train per method (with any
    extra flags in ``extra_train[method]``); returns the argv lists."""
    extra_train = extra_train or {}
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
             "--out", tmp_path / f"{method}.json", "--train-log", tmp_path / f"{method}_log.csv",
             *extra_train.get(method, ())]
        )
    return argv_sets


def _run_all(argv_sets) -> None:
    for argv in argv_sets:
        assert cli.main([str(a) for a in argv]) == 0


def _assert_digests(digests: dict, golden: dict) -> None:
    kernel = cli.blas_info()["blas_kernel"]
    assert digests == golden, (f"digests differ under the {kernel} BLAS kernel; "
                               f"they were taken under {GOLDEN_KERNEL}")


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_tiny_pipeline_golden_bytes(tmp_path, name):
    config, methods, golden = PIPELINES[name]
    argv_sets = _pipeline_argv(tmp_path, config, methods)
    argv_sets.append(
        ["evaluate", "--world", tmp_path / "world.json", "--checkpoint",
         tmp_path / "banditmatch.json", "--n-dialogs", 20, "--n-runs", 2, "--seed", 5,
         "--out", tmp_path / "report.csv"]
    )
    _run_all(argv_sets)
    _assert_digests({path: _sha256(tmp_path / path) for path in golden}, golden)


# Every fine-tuning method, and the evaluation paths besides the plain
# report: --trace, --expert, and the six-row ablation table. Digests taken on
# the tree before the shared fine-tuning skeleton and evaluation loop. The
# four fine-tuned checkpoints and the trace and report evaluated from
# banditmatch.json were re-taken with this config (early stopping off) on
# the last tree that had early stopping. The trace and its report were
# taken with evaluate's --jobs 2, since removed, which the trace overrode.
PATHS_CONFIG = "sl_epochs = 60\nlearning_rate = 0.01\nhidden_dims = 16\nbatch_size = 32\nepochs = 4\n"
PATHS_GOLDEN = {
    "ablate/ablations.csv":
        "8991bafa9ce17f4fac1a8cad9039c343dee9dbd652d8fe36f9c90063a54bcf52",
    "ablate/ablations.json":
        "71b4387ce1bacec41af7f765001702776a0d3cf5e80a2cdbdb986ca4fe454e9b",
    "banditmatch.json":
        "12eaa78ea415c84111eed4a059317ee74530163de2540bd725c0ac141afeac7f",
    "banditmatch_log.csv":
        "3a1ad5668dfaefc8aa3d23d54324cb2721b5a2a7ac01cc80dc84e94f4a45cb50",
    "banditnet.json":
        "5d2610152055c970557d86f282c80536931ce8d9d0a9d4964a4d23a57442b40d",
    "banditnet_log.csv":
        "8531d0574a8a604c6008685bfdca6a44834ef8a0325b86d68341e5d01b8f04dd",
    "corpus.jsonl":
        "6060f9fddf946ce74451652b6a4df4164f3fa124089b7a21d8be4d6bbc2a82dd",
    "data/bandit.jsonl":
        "c9dc3e9ef8e1b5ed6d8a8c28b83aa81e3eaaa4e8fff1f170e17458ac2f223683",
    "data/labeled.jsonl":
        "7642d2495c6160f65d115f263ad53be859232da258df83ed7f152bbf5d920e2b",
    "data/logging_policy.json":
        "24eb598a5828bcb1195f4b0c0d46e07255fcef6fadbca15854bcf20823f90e05",
    "episodes.jsonl":
        "bdd8e499ea973015f16dbdf17b0576bbf4ca08593792a5f467d0213b209f9aa8",
    "expert.csv":
        "dd3c3d223944af1a2b4c8980e224066e8cbd94c56cfc395f78f6e5792833ff03",
    "fixmatch.json":
        "50992231702735a6a8af8758a71b658e8eabe8de9c4e21401fc3432108745cc6",
    "fixmatch_log.csv":
        "b873352b58edd778979a775855ad7426ef66c7a84e44e7cd4842f0695fc129e8",
    "ips.json":
        "dc851f2c1e888d76e3e38329cd0f5ad74146c9c3800c1e9f6c2750b8b4749459",
    "ips_log.csv":
        "d349a3dedf941a9dfb7ae4e5d06f2a7d5c3aff74bbabe9df90db47b7fea98094",
    "report_traced.csv":
        "08a304c27b019e6c0cbe2afa6115d0f91abd6bf15d3140261fc8e44ddc6208ef",
    "thresholds.csv":
        "ac79604167919e251b211101920fd182eaff73a3b9c2b33fd018b57301f8dfd0",
    "world.json":
        "9118a298c27897d067946514cb0faf436725fbf67b2100bee348400331408afa",
}


def test_protocol_paths_golden_bytes(tmp_path):
    methods = ("banditmatch", "fixmatch", "ips", "banditnet")
    argv_sets = _pipeline_argv(
        tmp_path, PATHS_CONFIG, methods,
        extra_train={"banditmatch": ["--threshold-trace", tmp_path / "thresholds.csv"]},
    )
    world = tmp_path / "world.json"
    data = tmp_path / "data"
    evaluate = ["evaluate", "--world", world, "--n-dialogs", 20, "--n-runs", 2, "--seed", 5]
    policy = ["--checkpoint", tmp_path / "banditmatch.json"]
    ablate_cfg = tmp_path / "ablate.cfg"
    ablate_cfg.write_text(PATHS_CONFIG)
    argv_sets += [
        evaluate + policy + ["--trace", tmp_path / "episodes.jsonl",
                             "--out", tmp_path / "report_traced.csv"],
        evaluate + ["--expert", "--out", tmp_path / "expert.csv"],
        ["ablate", "--world", world, "--bandit", data / "bandit.jsonl",
         "--logging-policy", data / "logging_policy.json", "--config", ablate_cfg,
         "--seed", 5, "--n-dialogs", 10, "--n-runs", 1, "--out-dir", tmp_path / "ablate"],
    ]
    _run_all(argv_sets)
    digests = {
        path.relative_to(tmp_path).as_posix(): _sha256(path)
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.suffix in (".json", ".jsonl", ".csv")
        and not path.name.endswith(".manifest.json")
    }
    _assert_digests(digests, PATHS_GOLDEN)


# Two sweep points with the default method list (all four fine-tuning
# methods) on the PATHS_CONFIG budget: per point a fresh split, logging
# policy and log, then every method on that log. Digests taken on the tree
# before the shared grid point and row loop.
SWEEP_GOLDEN = {
    "sweep_banditmatch.csv":
        "4d5901d287147718a956a6b7dd32f37cadfd90da8d951eb1901e2b3a41cf91aa",
    "sweep_banditnet.csv":
        "167cd7fb20af781e5d652d75041aa5838fc962e25d9a917ed19440e234f215e3",
    "sweep_fixmatch.csv":
        "352b6ce2e45f9b36c256982c3cb7e62357edf95833379cbba4b714a7f3a1de4b",
    "sweep_ips.csv":
        "ade12d8bd26905d2a29a44f7f316839c183002487d22b29f552182828225fcea",
    "sweep_logging.csv":
        "f56aa590816da3ac1fd201593bd22f8aa50f2eb22d769c488b4eae8f254a28bc",
}


def test_sweep_golden_bytes(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(PATHS_CONFIG)
    world = tmp_path / "world.json"
    corpus = tmp_path / "corpus.jsonl"
    out_dir = tmp_path / "sweep"
    _run_all([
        ["gen-world", "--out", world],
        ["gen-corpus", "--world", world, "--n-dialogs", 30, "--seed", 5, "--out", corpus],
        ["sweep", "--world", world, "--corpus", corpus, "--config", cfg, "--seed", 5,
         "--percentages", "20,50", "--n-dialogs", 10, "--n-runs", 1, "--out-dir", out_dir],
    ])
    digests = {path.name: _sha256(path) for path in sorted(out_dir.glob("*.csv"))}
    _assert_digests(digests, SWEEP_GOLDEN)
