"""CLI: exit codes, JSON emission, and wiring between subcommands."""

import json
import math
import os

import pytest

from mrhd import cli
from mrhd.data import load_dataset


TINY_TRAIN = {
    "seed": 0,
    "batch_size": 4,
    "epochs": 1,
    "learning_rate": 1e-3,
    "d": 16,
    "num_queries": 3,
    "decoder_layers": 1,
    "heads": 2,
}

TINY_SYNTH = {"num_samples": 4, "num_clips": 8, "num_tokens": 4, "d_v": 12, "d_t": 10}


@pytest.fixture()
def tiny_dir(tmp_path):
    """A synthesized dataset directory plus a matching train config file."""
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(TINY_SYNTH))
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--config", str(cfg_path), "--seed", "3",
                     "--out", str(data_dir)]) == 0
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps(TINY_TRAIN))
    return data_dir, train_cfg


def _stdout_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "command" in capsys.readouterr().out


def test_unknown_subcommand_exits_one():
    assert cli.main(["bogus"]) == 1


def test_no_subcommand_exits_one():
    assert cli.main([]) == 1


def test_unknown_flag_exits_one():
    assert cli.main(["synth", "--wat", "7"]) == 1


def test_synth_writes_loadable_dataset(tiny_dir, capsys):
    data_dir, _ = tiny_dir
    ds = load_dataset(data_dir / "annotations.jsonl", data_dir)
    assert len(ds) == TINY_SYNTH["num_samples"]


def test_synth_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_sampels": 4}))
    assert cli.main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1


def test_synth_rejects_field_of_wrong_type(tmp_path, caplog):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_clips": "8"}))
    assert cli.main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
    assert "generator config field 'num_clips' must be int, got '8'" in caplog.text


def test_synth_takes_an_audio_width(tmp_path):
    cfg = tmp_path / "audio.json"
    cfg.write_text(json.dumps({**TINY_SYNTH, "d_a": 3}))
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
    cfg.write_text(json.dumps({**TINY_SYNTH, "d_a": 3.0}))
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 1


def test_synth_rejects_invalid_counts(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_clips": 1}))
    assert cli.main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1


@pytest.mark.parametrize("widths", [{"d_v": 0}, {"d_t": -3}, {"d_a": 0}])
def test_synth_rejects_widths_below_one(tmp_path, caplog, widths):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(widths))
    assert cli.main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
    assert "feature widths must be positive" in caplog.text


@pytest.mark.parametrize(
    "config, field",
    [
        ('{"clip_len": NaN}', "clip_len"),
        ('{"min_moment": NaN}', "min_moment"),
        ('{"max_moment": NaN}', "max_moment"),
        ('{"clip_len": 0, "min_moment": 0}', "clip_len"),
        ('{"clip_len": Infinity}', "clip_len"),
        ('{"clip_len": -1, "min_moment": -50}', "clip_len"),
        ('{"min_moment": -1}', "min_moment"),
        ('{"clip_len": 1e308}', "clip_len"),
        ('{"clip_len": 1e-310, "min_moment": 0}', "clip_len"),
        ('{"noise": NaN}', "noise"),
        ('{"noise": 1e39}', "noise"),
        ('{"num_clips": 1' + "0" * 400 + "}", "num_clips"),
    ],
)
def test_synth_rejects_unusable_lengths_and_noise_before_writing(tmp_path, caplog, config, field):
    bad = tmp_path / "bad.json"
    bad.write_text(config)
    out = tmp_path / "d"
    assert cli.main(["synth", "--config", str(bad), "--out", str(out)]) == 1
    assert caplog.messages[-1].startswith(f"{field} must ")
    assert not out.exists()


def test_train_eval_predict_pipeline(tiny_dir, tmp_path, capsys):
    data_dir, train_cfg = tiny_dir
    ckpt = tmp_path / "model.ckpt"

    assert cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(ckpt)]) == 0
    out = _stdout_json(capsys)
    assert ckpt.exists() and out["steps"] == 1

    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)]) == 0
    report = _stdout_json(capsys)
    assert {"r1_050", "r1_070", "map_avg"} <= set(report)

    report_path = tmp_path / "report.json"
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                     "--out", str(report_path)]) == 0
    assert json.loads(report_path.read_text()) == report

    preds = tmp_path / "preds.jsonl"
    assert cli.main(["predict", "--ckpt", str(ckpt), "--data", str(data_dir),
                     "--out", str(preds)]) == 0
    lines = [json.loads(x) for x in preds.read_text().strip().split("\n")]
    assert len(lines) == TINY_SYNTH["num_samples"]
    assert all("pred_relevant_windows" in rec for rec in lines)


def test_eval_missing_checkpoint_exits_one(tiny_dir, tmp_path):
    data_dir, _ = tiny_dir
    assert cli.main(["eval", "--ckpt", str(tmp_path / "nope.ckpt"),
                     "--data", str(data_dir)]) == 1


def test_eval_uneven_annotator_counts_exits_one(tiny_dir, tmp_path, caplog):
    """One clip with a rating fewer than the rest is refused at load time,
    naming the query and the clip, instead of crashing the HD metrics."""
    data_dir, train_cfg = tiny_dir
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(ckpt)]) == 0
    ann = data_dir / "annotations.jsonl"
    recs = [json.loads(line) for line in ann.read_text().splitlines()]
    recs[1]["saliency_scores"][2].pop()
    ann.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)]) == 1
    assert f"qid {recs[1]['qid']} clip 2 has 2 ratings" in caplog.text


def _set_rating(rec, value):
    rec["saliency_scores"][0][0] = value


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda r: r.update(relevant_windows=[]), "relevant_windows is empty", id="no-windows"),
        pytest.param(lambda r: r.update(duration=math.nan), "must be positive and finite", id="duration-nan"),
        pytest.param(lambda r: r.update(duration=math.inf), "must be positive and finite", id="duration-inf"),
        pytest.param(lambda r: r.update(clip_len=math.nan), "must be positive and finite", id="clip_len-nan"),
        pytest.param(lambda r: r.update(qid=1.9), "qid must be an int, got 1.9", id="qid-float"),
        pytest.param(lambda r: _set_rating(r, 3.9), "saliency_scores must be", id="rating-float"),
        pytest.param(lambda r: _set_rating(r, "4"), "saliency_scores must be", id="rating-string"),
        pytest.param(lambda r: _set_rating(r, True), "saliency_scores must be", id="rating-bool"),
    ],
)
def test_malformed_annotation_exits_one(tiny_dir, tmp_path, caplog, edit, message):
    """Each of these loaded before, and train then exited 2 or trained on
    coerced values."""
    data_dir, train_cfg = tiny_dir
    ann = data_dir / "annotations.jsonl"
    recs = [json.loads(line) for line in ann.read_text().splitlines()]
    edit(recs[0])
    ann.write_text("".join(json.dumps(r) + "\n" for r in recs))  # json writes NaN, Infinity
    assert cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "m.ckpt")]) == 1
    assert "line 1: " in caplog.text and message in caplog.text


def test_eval_of_malformed_predictions_exits_one(tiny_dir, tmp_path, caplog, monkeypatch):
    """A record the metrics cannot score is a user error naming the qid."""
    from mrhd import trainer

    data_dir, train_cfg = tiny_dir
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(ckpt)]) == 0
    predict, broken = trainer.predict, []

    def past_the_end(*args, **kwargs):
        records = predict(*args, **kwargs)
        records[1]["pred_relevant_windows"][0][1] = 99.0
        broken.append(records[1]["qid"])
        return records

    monkeypatch.setattr(trainer, "predict", past_the_end)
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)]) == 1
    assert f"prediction for qid {broken[0]}: span" in caplog.text


def test_train_missing_data_exits_one(tmp_path):
    assert cli.main(["train", "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "m.ckpt")]) == 1


def test_corrupt_checkpoint_exits_one(tiny_dir, tmp_path):
    data_dir, _ = tiny_dir
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"junk")
    assert cli.main(["eval", "--ckpt", str(bad), "--data", str(data_dir)]) == 1


def _edit_header(path, edit):
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen :])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h: h.pop("config"), "header lacks ['config']"),
        (lambda h: h.pop("step"), "header lacks ['step']"),
        (lambda h: h.pop("adam_t"), "header lacks ['adam_t']"),
        (lambda h: h.pop("arrays"), "header lacks ['arrays']"),
        (lambda h: h.update(step="5"), "step must be a count, got '5'"),
        (lambda h: h["arrays"][0].update(shape=[-1]), "bad array entry"),
        (lambda h: h["arrays"][0].update(kind="adam_w"), "unknown kind 'adam_w'"),
        # the first array is the first param by name; the model still needs it
        (lambda h: h["arrays"][0].update(name="renamed"), "no arrays for params"),
        # a checkpoint that stores a removed config option
        (lambda h: h["config"].update(temperature=1.0), "unknown config fields: ['temperature']"),
    ],
)
def test_malformed_checkpoint_header_exits_one(tiny_dir, tmp_path, caplog, edit, message):
    data_dir, train_cfg = tiny_dir
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(ckpt)]) == 0
    _edit_header(ckpt, edit)
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)]) == 1
    assert message in caplog.text


@pytest.mark.parametrize(
    "edit, message",
    [
        # the same bytes read as the transposed matrix
        (lambda h: _entry(h, "param", "fuse.w").update(shape=[16, 80]),
         "param array fuse.w has shape [16, 80], the model needs [80, 16]"),
        (lambda h: _entry(h, "adam_m", "fuse.w").update(shape=[16, 80]),
         "adam_m array fuse.w has shape [16, 80], the model needs [80, 16]"),
        # a d = 32 header over the d = 16 arrays
        (lambda h: h["config"].update(d=32), "param array cross.t.b has shape [16], the model needs [32]"),
        (lambda h: h["config"].update(d=4096), "has more numbers than the"),
        (lambda h: _entry(h, "adam_v", "fuse.b").update(name="fuse.c"),
         "adam_v array fuse.c is not a param of the model"),
    ],
)
def test_checkpoint_of_another_shape_exits_one(tiny_dir, tmp_path, caplog, edit, message):
    data_dir, train_cfg = tiny_dir
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(ckpt)]) == 0
    _edit_header(ckpt, edit)
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)]) == 1
    assert message in caplog.text


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("decoder.span.w", math.nan, "param array decoder.span.w holds non-finite values"),
        # finite params whose products overflow
        ("proj_v.ln.g", 1e300, "qid 0: the model's spans are not finite"),
        ("refine_out.w", 1e308, "qid 0: the model's highlight scores are not finite"),
    ],
)
def test_checkpoint_that_gives_non_finite_outputs_exits_one(tiny_dir, tmp_path, caplog, name, value, message):
    from mrhd import trainer

    data_dir, train_cfg = tiny_dir
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(ckpt)]) == 0
    loaded = trainer.load_checkpoint(ckpt)
    loaded.params[name].data[...] = value
    trainer.save_checkpoint(loaded, ckpt)
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)]) == 1
    assert cli.main(["predict", "--ckpt", str(ckpt), "--data", str(data_dir),
                     "--out", str(tmp_path / "p.jsonl")]) == 1
    assert caplog.text.count(message) == 2
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("name", ["zattn.ln.g", "proj_v.ln.b"])
def test_checkpoint_whose_forward_overflows_exits_zero_or_one(tiny_dir, tmp_path, caplog, command, name):
    """Finite but huge parameters overflow inside the forward pass. With
    warnings as errors no floating-point warning escapes it: the command
    ends cleanly or exits 1 naming the query whose outputs are not finite,
    never in an internal error."""
    from mrhd import trainer

    data_dir, train_cfg = tiny_dir
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(ckpt)]) == 0
    loaded = trainer.load_checkpoint(ckpt)
    loaded.params[name].data[...] = 1e300
    trainer.save_checkpoint(loaded, ckpt)
    extra = ["--out", str(tmp_path / "p.jsonl")] if command == "predict" else []
    code = cli.main([command, "--ckpt", str(ckpt), "--data", str(data_dir), *extra])
    assert code in (0, 1)
    assert "Traceback" not in caplog.text and "internal error" not in caplog.text
    if name == "proj_v.ln.b":
        assert code == 1 and "qid 0: the model's spans are not finite" in caplog.text


def test_saturated_span_head_evaluates(tiny_dir, tmp_path):
    """Huge span-head weights saturate its sigmoid: every span decodes to
    zero width at an edge of the video, which MR2HD still reads."""
    from mrhd import trainer

    data_dir, train_cfg = tiny_dir
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(ckpt)]) == 0
    loaded = trainer.load_checkpoint(ckpt)
    loaded.params["decoder.span.w"].data[...] = 1e300
    trainer.save_checkpoint(loaded, ckpt)
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)]) == 0


def _entry(header, kind, name):
    return next(e for e in header["arrays"] if e["kind"] == kind and e["name"] == name)


def test_config_field_of_wrong_type_exits_one(tiny_dir, tmp_path, caplog):
    data_dir, _ = tiny_dir
    cfg = tmp_path / "wrong.json"
    cfg.write_text(json.dumps({**TINY_TRAIN, "epochs": "3"}))
    assert cli.main(["train", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "m.ckpt")]) == 1
    assert "config field 'epochs' must be int, got '3'" in caplog.text


def _run_with_config(command, cfg, data_dir, tmp_path):
    """Exit code of ``mrhd <command> --config cfg`` with the other flags it needs."""
    rest = {
        "train": ["--data", str(data_dir), "--out", str(tmp_path / "m.ckpt")],
        "sweep": ["--data", str(data_dir), "--lambdas", "0.3"],
        "synth": ["--out", str(tmp_path / "d")],
    }[command]
    return cli.main([command, "--config", str(cfg), *rest])


def test_config_with_an_int_of_5000_digits_exits_one(tiny_dir, tmp_path, caplog):
    data_dir, _ = tiny_dir
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"epochs": ' + "1" * 5000 + "}")
    for command in ("train", "sweep", "synth"):
        caplog.clear()
        assert _run_with_config(command, cfg, data_dir, tmp_path) == 1, command
        assert f"{cfg}: config is not valid JSON" in caplog.text, command


def test_config_that_is_not_utf8_exits_one(tiny_dir, tmp_path, caplog):
    data_dir, _ = tiny_dir
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes('{"seed": 1, "note": "café"}'.encode("latin-1"))
    for command in ("train", "sweep", "synth"):
        caplog.clear()
        assert _run_with_config(command, cfg, data_dir, tmp_path) == 1, command
        assert f"{cfg}: config is not valid JSON ('utf-8' codec" in caplog.text, command


@pytest.mark.parametrize(
    "change, message",
    [
        ({"learning_rate": math.nan}, "learning_rate must be finite and >= 0, got nan"),
        ({"learning_rate": math.inf}, "learning_rate must be finite and >= 0, got inf"),
        ({"weights": {"l1": math.nan}}, "weights.l1 must be finite and >= 0, got nan"),
        ({"weights": {"saliency": -1.0}}, "weights.saliency must be finite and >= 0, got -1.0"),
        ({"seed": -3}, "seed must be >= 0, got -3"),
        ({"learning_rate": 10**400}, "config field 'learning_rate': int too large to convert to float"),
    ],
    ids=["learning_rate-nan", "learning_rate-inf", "l1-nan", "saliency-negative", "seed-negative",
         "learning_rate-int-overflow"],
)
def test_config_with_an_unusable_rate_or_weight_exits_one(
    tiny_dir, tmp_path, caplog, change, message
):
    data_dir, _ = tiny_dir
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**TINY_TRAIN, **change}))  # NaN and Infinity, as json writes them
    for command in ("train", "sweep"):
        caplog.clear()
        assert _run_with_config(command, cfg, data_dir, tmp_path) == 1, command
        assert message in caplog.text, command


def test_generator_config_with_an_int_too_large_for_a_float_exits_one(tmp_path, caplog):
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"noise": 10**400}))
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 1
    assert "generator config field 'noise': int too large to convert to float" in caplog.text


@pytest.mark.parametrize("command", ["synth", "train", "sweep", "gradcheck"])
def test_negative_seed_exits_one(tiny_dir, tmp_path, capsys, command):
    """numpy's generators refuse a negative seed; the flag refuses it first."""
    data_dir, train_cfg = tiny_dir
    rest = {
        "synth": ["--out", str(tmp_path / "d")],
        "train": ["--config", str(train_cfg), "--data", str(data_dir), "--out", str(tmp_path / "m.ckpt")],
        "sweep": ["--config", str(train_cfg), "--data", str(data_dir), "--lambdas", "0.3"],
        "gradcheck": ["--trials", "1"],
    }[command]
    assert cli.main([command, "--seed", "-1", *rest]) == 1
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


def test_every_error_class_but_the_bug_signals_is_an_input_error():
    """An exception class that is not an ``InputError`` makes ``cli.main``
    exit 2; only the two that signal bugs in the program may be one."""
    import importlib
    import inspect
    import pkgutil

    import mrhd
    from mrhd.data import InputError

    errors = {
        f"{cls.__module__}.{cls.__name__}": cls
        for info in pkgutil.iter_modules(mrhd.__path__, "mrhd.")
        for cls in vars(importlib.import_module(info.name)).values()
        if inspect.isclass(cls) and issubclass(cls, BaseException) and cls.__module__ == info.name
    }
    bugs = sorted(name for name, cls in errors.items() if not issubclass(cls, InputError))
    assert bugs == ["mrhd.tensor.ContractError", "mrhd.trainer.TrainingDivergedError"]
    assert len(errors) == 10  # InputError and the seven user errors


def test_checkpoint_header_with_an_int_of_5000_digits_exits_one(tiny_dir, tmp_path, caplog):
    data_dir, train_cfg = tiny_dir
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(ckpt)]) == 0
    raw = ckpt.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    blob = b'{"step": ' + b"1" * 5000 + b"}"
    ckpt.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen :])
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir)]) == 1
    assert "bad header" in caplog.text


def test_internal_error_exits_two(tiny_dir, tmp_path, monkeypatch):
    """A bug inside the program, not a malformed input, exits 2."""
    data_dir, train_cfg = tiny_dir
    from mrhd import trainer

    def broken_train(config, dataset):
        raise RuntimeError("a bug")

    monkeypatch.setattr(trainer, "train", broken_train)
    code = cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "m.ckpt")])
    assert code == 2


def test_feature_width_mismatch_exits_one(tiny_dir, tmp_path, caplog):
    """A .tfeat narrower than the first sample's is refused when loading."""
    data_dir, train_cfg = tiny_dir
    import numpy as np
    from mrhd.data import read_features, write_features

    tfeat = data_dir / "1.tfeat"
    arr = read_features(tfeat)
    write_features(tfeat, np.ascontiguousarray(arr[:, :-1]))
    code = cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "m.ckpt")])
    assert code == 1
    assert "1.tfeat have width 9, the first sample's have width 10" in caplog.text


def test_gradcheck_deterministic(capsys):
    assert cli.main(["gradcheck", "--seed", "7", "--trials", "1"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["gradcheck", "--seed", "7", "--trials", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert "matmul" in report and "end_to_end" in report
    assert all(v < 1e-3 for v in report.values())


def test_interrupted_report_write_keeps_the_old_file(tmp_path, monkeypatch):
    """The ``--out`` report of eval, gradcheck and sweep goes through a temp
    file that replaces the target only once fully written."""
    report = tmp_path / "report.json"
    report.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        cli._emit({"matmul": 0.0}, report)
    monkeypatch.undo()
    assert report.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    cli._emit({"matmul": 0.0}, report)
    assert json.loads(report.read_text()) == {"matmul": 0.0}


def test_sweep_emits_table(tiny_dir, tmp_path, capsys):
    data_dir, train_cfg = tiny_dir
    table = tmp_path / "table.json"
    assert cli.main(["sweep", "--config", str(train_cfg), "--data", str(data_dir),
                     "--lambdas", "0.0,0.3", "--out", str(table)]) == 0
    rows = json.loads(table.read_text())["rows"]
    assert [r["lambda_lg"] for r in rows] == [0.0, 0.3]
    assert rows[0]["align_loss"] == 0.0


def test_sweep_rejects_bad_lambdas(tiny_dir, tmp_path):
    data_dir, train_cfg = tiny_dir
    assert cli.main(["sweep", "--config", str(train_cfg), "--data", str(data_dir),
                     "--lambdas", "0.1,banana"]) == 1
    assert cli.main(["sweep", "--config", str(train_cfg), "--data", str(data_dir),
                     "--lambdas", ""]) == 1
