"""CLI: exit codes, JSON emission, and wiring between subcommands."""

import json

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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "name, value, message",
    [
        ("decoder.span.w", float("nan"), "param array decoder.span.w holds non-finite values"),
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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


def test_internal_error_exits_two(tiny_dir, tmp_path, capsys):
    """Dims that differ across samples slip past loading and blow up inside."""
    data_dir, train_cfg = tiny_dir
    import numpy as np
    from mrhd.data import read_features, write_features

    tfeat = data_dir / "1.tfeat"
    arr = read_features(tfeat)
    write_features(tfeat, np.ascontiguousarray(arr[:, :-1]))
    code = cli.main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "m.ckpt")])
    assert code == 2


def test_gradcheck_deterministic(capsys):
    assert cli.main(["gradcheck", "--seed", "7", "--trials", "1"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["gradcheck", "--seed", "7", "--trials", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert "matmul" in report and "end_to_end" in report
    assert all(v < 1e-3 for v in report.values())


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
