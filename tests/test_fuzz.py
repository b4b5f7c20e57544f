"""Property test: every input file either loads or stops with one line.

Each example makes one edit to one of the five inputs of a tiny-world run
(world, labeled corpus, bandit log, checkpoint, ``--config`` file): it
replaces one field or list entry with a value from ``VALUES``, or deletes
one key, then runs the commands that read that input through ``cli.main``
in the test process. Whatever the edit, the command must return 0, 3, 4 or
5, a non-zero code must come with exactly one stderr line, and no exception
may escape. After Claessen & Hughes, "QuickCheck" (ICFP 2000), and MacIver
et al., "Hypothesis" (JOSS 2019).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from banditmatch import cli

# the replacement values, as JSON values; the config file gets their JSON text
VALUES = (None, True, False, 0, -1, 1.5, float("nan"), "x", "", [], {}, [1], [[0]], 10**40,
          -0.0, 1e308)
DELETE = object()

# small training and evaluation budgets; the config arm edits this text
CONFIG = {
    "seed": "0", "batch_size": "64", "epochs": "1", "sl_epochs": "1", "learning_rate": "0.001",
    "hidden_dims": "4", "method": "banditmatch", "add_kl": "false", "no_mc_scale": "false",
    "no_fet": "false", "no_cbl": "false", "no_kl": "false",
}
EVAL = ["--n-dialogs", "1", "--n-runs", "1"]


def _config_text(config: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config.items())


def _paths(value, prefix=()):
    """The path of every field and list entry below ``value``, with whether
    its parent is an object (so the key may be deleted)."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,), isinstance(value, dict)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The tiny world, a corpus, its split and log, and the config file."""
    root = tmp_path_factory.mktemp("fuzz")
    world, corpus, cfg, data = root / "world.json", root / "corpus.jsonl", root / "c.cfg", root
    cfg.write_text(_config_text(CONFIG))
    assert cli.main(["gen-world", "--tiny", "--out", str(world)]) == 0
    assert cli.main(["gen-corpus", "--world", str(world), "--n-dialogs", "4", "--seed", "0",
                     "--out", str(corpus)]) == 0
    assert cli.main(["split-and-log", "--world", str(world), "--corpus", str(corpus),
                     "--labeled-fraction", "0.5", "--config", str(cfg),
                     "--out-dir", str(data)]) == 0
    return {"world": world, "corpus": corpus, "bandit": data / "bandit.jsonl",
            "checkpoint": data / "logging_policy.json", "config": cfg}


def _commands(name: str, edited: Path, inputs: dict, out: Path) -> list[list[str]]:
    """The commands that read input ``name``, given as the edited file."""
    world = str(inputs["world"])

    def train(bandit=inputs["bandit"], cfg=inputs["config"]):
        return [["train", "--bandit", str(bandit), "--logging-policy", str(inputs["checkpoint"]),
                 "--config", str(cfg), "--out", str(out / "p.json")]]

    if name == "world":
        return [["gen-world", "--schema-config", str(edited), "--out", str(out / "w.json")],
                ["evaluate", "--world", str(edited), "--expert", *EVAL,
                 "--out", str(out / "r.csv")]]
    if name == "corpus":
        return [["split-and-log", "--world", world, "--corpus", str(edited),
                 "--labeled-fraction", "0.5", "--config", str(inputs["config"]),
                 "--out-dir", str(out)]]
    if name == "checkpoint":
        return [["evaluate", "--world", world, "--checkpoint", str(edited), *EVAL,
                 "--out", str(out / "r.csv")]]
    return train(bandit=edited) if name == "bandit" else train(cfg=edited)


def _edited_text(name: str, path: Path, data) -> str:
    """The file ``path`` of input ``name`` with one edit drawn from ``data``."""
    if name == "config":
        config = dict(CONFIG)
        key = data.draw(st.sampled_from(list(config)))
        value = data.draw(st.sampled_from(VALUES + (DELETE,)))
        if value is DELETE:
            del config[key]
        else:
            # 10**40 goes in as that literal text, which int() and float() refuse
            config[key] = "10**40" if value == 10**40 else json.dumps(value)
        return _config_text(config)
    jsonl = path.suffix == ".jsonl"
    text = path.read_text()
    doc = [json.loads(line) for line in text.splitlines()] if jsonl else json.loads(text)
    where, in_object = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    value = data.draw(st.sampled_from(VALUES + ((DELETE,) if in_object else ())))
    if value is DELETE:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    if jsonl:
        return "".join(json.dumps(line) + "\n" for line in doc)
    return json.dumps(doc)


@pytest.mark.parametrize("name", ["world", "corpus", "bandit", "checkpoint", "config"])
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_edited_input_loads_or_exits_with_one_line(inputs, name, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        edited = tmp / f"edited{inputs[name].suffix}"
        edited.write_text(_edited_text(name, inputs[name], data))
        for argv in _commands(name, edited, inputs, tmp / "out"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 3, 4, 5), (argv, err.getvalue())
            if code:
                assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
