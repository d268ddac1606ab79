"""Corrupted input files end in exit code 1, never in an internal error.

Valid files come from the program itself (``synth``, ``train``, ``predict``);
each example truncates one, splices it with itself or flips some of its
bytes, and feeds it back. No command reads a predictions file, so those go
through ``trainer.read_predictions`` and ``trainer.evaluate_predictions``,
which may only raise the errors ``cli.main`` turns into exit code 1.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mrhd import cli, trainer

SYNTH = {"num_samples": 3, "num_clips": 6, "num_tokens": 3, "d_v": 5, "d_t": 4}
TRAIN = {"seed": 0, "batch_size": 3, "epochs": 1, "learning_rate": 1e-3, "d": 8,
         "num_queries": 2, "decoder_layers": 1, "heads": 2}

FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A dataset directory, a train config, a checkpoint and a predictions
    file, all written by the CLI."""
    root = tmp_path_factory.mktemp("valid")
    (root / "synth.json").write_text(json.dumps(SYNTH))
    (root / "train.json").write_text(json.dumps(TRAIN))
    data, ckpt = root / "data", root / "model.ckpt"
    assert cli.main(["synth", "--config", str(root / "synth.json"), "--seed", "5", "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(root / "train.json"), "--data", str(data), "--out", str(ckpt)]) == 0
    assert cli.main(["predict", "--ckpt", str(ckpt), "--data", str(data), "--out", str(root / "pred.jsonl")]) == 0
    return root


@st.composite
def corruptions(draw, raw: bytes) -> bytes:
    """``raw`` truncated, spliced with itself or with some bytes flipped."""
    n = len(raw)
    kind = draw(st.sampled_from(["truncate", "splice", "flip"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, n - 1))]
    if kind == "splice":
        i, j = draw(st.integers(0, n)), draw(st.integers(0, n))
        return raw[:i] + raw[j:]
    out = bytearray(raw)
    for pos in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
        out[pos] ^= draw(st.integers(1, 255))
    return bytes(out)


def _corrupt_copy(valid: Path, name: str, data) -> Path:
    """A fresh copy of the valid files with ``name`` corrupted."""
    root = Path(tempfile.mkdtemp(dir=valid.parent))
    shutil.copytree(valid, root, dirs_exist_ok=True)
    path = root / name
    path.write_bytes(data.draw(corruptions(path.read_bytes()), label=name))
    return root


def _main(*argv) -> int:
    code = cli.main([str(a) for a in argv])
    assert code in (0, 1), f"exit {code} for {argv}"
    return code


@pytest.mark.parametrize("command", ["train", "eval"])
@given(data=st.data())
@FUZZ
def test_corrupt_dataset_files_exit_zero_or_one(valid, command, data):
    names = sorted(p.name for p in (valid / "data").iterdir())
    name = data.draw(st.sampled_from(names), label="file")
    root = _corrupt_copy(valid, f"data/{name}", data)
    if command == "train":
        _main("train", "--config", root / "train.json", "--data", root / "data", "--out", root / "m.ckpt")
    else:
        _main("eval", "--ckpt", root / "model.ckpt", "--data", root / "data")
    shutil.rmtree(root)


@pytest.mark.parametrize("command", ["eval", "predict"])
@given(data=st.data())
@FUZZ
def test_corrupt_checkpoint_exits_zero_or_one(valid, command, data):
    root = _corrupt_copy(valid, "model.ckpt", data)
    if command == "eval":
        _main("eval", "--ckpt", root / "model.ckpt", "--data", root / "data")
    else:
        _main("predict", "--ckpt", root / "model.ckpt", "--data", root / "data", "--out", root / "p.jsonl")
    shutil.rmtree(root)


@given(data=st.data())
@FUZZ
def test_corrupt_predictions_raise_only_user_errors(valid, data):
    root = _corrupt_copy(valid, "pred.jsonl", data)
    try:
        records = trainer.read_predictions(root / "pred.jsonl")
        trainer.evaluate_predictions(records, cli._load_dir(root / "data"))
    except cli._USER_ERRORS:
        pass
    shutil.rmtree(root)
