"""Trainer: config, forward wiring, Adam loop, checkpoints, prediction."""

import json
import logging
import math

import numpy as np
import pytest

from mrhd import tensor as T
from mrhd import trainer
from mrhd.data import ConfigError, Dataset, SynthConfig, synth_generate
from mrhd.gradcheck import check_gradients, end_to_end
from mrhd.losses import LossWeights
from mrhd.tensor import Tensor


def tiny_config(**over):
    base = dict(
        seed=0,
        batch_size=4,
        epochs=2,
        learning_rate=1e-3,
        lambda_lg=0.3,
        d=16,
        num_queries=3,
        decoder_layers=1,
        heads=2,
    )
    base.update(over)
    return trainer.TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_data():
    return synth_generate(
        SynthConfig(num_samples=4, num_clips=8, num_tokens=4, d_v=12, d_t=10), 7
    )


@pytest.fixture(scope="module")
def tiny_model(tiny_data):
    cfg = tiny_config()
    rng = np.random.default_rng(0)
    params = trainer.init_model(rng, *trainer.feature_dims(tiny_data), cfg)
    return cfg, params


# ---------------------------------------------------------------------------
# config


def test_config_json_round_trip(tmp_path):
    cfg = tiny_config(lambda_lg=0.5, weights=LossWeights(l1=2.0, saliency=3.0))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert trainer.read_config(path, trainer.TrainConfig, "config") == cfg


def test_config_defaults_match_documented_values():
    cfg = trainer.TrainConfig()
    assert cfg.d == 256
    assert cfg.lambda_lg == 0.3
    assert cfg.learning_rate == 1e-4
    assert cfg.batch_size == 32
    assert cfg.epochs == 200


@pytest.mark.parametrize(
    "field,value",
    [
        ("batch_size", 0),
        ("lambda_lg", -0.1),
        ("lambda_lg", float("nan")),
        ("d", 0),
        ("heads", 3),  # does not divide d=16
        ("num_queries", 0),
        ("decoder_layers", 0),
        ("epochs", "3"),
        ("batch_size", True),  # a bool is not an int
        ("d", 16.0),
        ("learning_rate", None),
        ("lambda_lg", "0.3"),
        ("weights", 3),
        ("weights", {"l1": "10"}),
        ("weights", {"saliency": False}),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("learning_rate", -1e-4),
        ("weights", {"l1": float("nan")}),
        ("weights", {"giou": float("inf")}),
        ("weights", {"cls": -1.0}),
        ("weights", {"saliency": float("-inf")}),
        ("seed", -3),
        pytest.param("learning_rate", 10**400, id="learning_rate-int-overflow"),
        pytest.param("weights", {"l1": 10**400}, id="weights-int-overflow"),
    ],
)
def test_config_rejects_bad_fields(field, value):
    with pytest.raises(ConfigError):
        trainer.TrainConfig.from_dict({**tiny_config().to_dict(), field: value})


def test_config_takes_an_int_for_a_float_field():
    cfg = trainer.TrainConfig.from_dict({"learning_rate": 1, "weights": {"l1": 2}})
    assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
    assert type(cfg.weights.l1) is float and cfg.weights.l1 == 2.0


def test_config_rejects_unknown_keys():
    for key in ("learning_rte", "data_dir", "raw_fusion_attention", "temperature"):
        with pytest.raises(ConfigError, match="unknown"):
            trainer.TrainConfig.from_dict({key: None})
    with pytest.raises(ConfigError, match="unknown"):
        trainer.TrainConfig.from_dict({"weights": {"l2": 1.0}})


# ---------------------------------------------------------------------------
# forward


def test_forward_shapes(tiny_data, tiny_model):
    cfg, params = tiny_model
    sample, bundle = tiny_data.samples[0]
    res = trainer.forward(sample, bundle, params, cfg, "train")
    assert len(res.prediction.spans) == cfg.num_queries
    assert res.prediction.highlight.shape == (sample.num_clips,)
    assert all(t.data.size == 1 for t in (res.parts.mom, res.parts.high, res.parts.local))
    assert res.parts.pooled_v.shape == res.parts.pooled_t.shape == (1, cfg.d)


def test_forward_infer_skips_losses(tiny_data, tiny_model):
    cfg, params = tiny_model
    sample, bundle = tiny_data.samples[0]
    res = trainer.forward(sample, bundle, params, cfg, "infer")
    assert res.parts is None
    assert len(res.prediction.spans) == cfg.num_queries


def test_forward_rejects_bad_mode(tiny_data, tiny_model):
    cfg, params = tiny_model
    with pytest.raises(ConfigError):
        trainer.forward(*tiny_data.samples[0], params, cfg, "test")


def _sample_total(sample, bundle, params, cfg):
    return trainer.batch_total([trainer.forward(sample, bundle, params, cfg, "train").parts], cfg)


def test_forward_total_decomposes(tiny_data, tiny_model):
    cfg, params = tiny_model
    for sample, bundle in tiny_data.samples:
        _, b = _sample_total(sample, bundle, params, cfg)
        want = b.mom + b.high + b.lambda_lg * (b.local + b.global_)
        assert abs(b.total - want) < 1e-12


def test_forward_lambda_zero_drops_alignment(tiny_data, tiny_model):
    _, params = tiny_model
    cfg = tiny_config(lambda_lg=0.0)
    sample, bundle = tiny_data.samples[1]
    _, b = _sample_total(sample, bundle, params, cfg)
    assert b.total == b.mom + b.high


def test_single_sample_global_term_is_zero(tiny_data, tiny_model):
    cfg, params = tiny_model
    _, b = _sample_total(*tiny_data.samples[2], params, cfg)
    assert b.global_ == 0.0


def test_end_to_end_gradients(tiny_data):
    assert end_to_end(0) < 1e-3


def test_multi_sample_step_gradients_match_finite_differences():
    """Central differences through a batch of a stacked group of two and a
    group of one, with the batch contrastive term on: entries of
    ``decoder.queries`` (read through per-sample copies), of a shared-block
    weight and of a GRU weight."""
    d = 8
    synth = SynthConfig(num_samples=3, num_clips=6, num_tokens=3, d_v=d, d_t=d, noise=0.3)
    batch = synth_generate(synth, 1).samples
    config = tiny_config(d=d, lambda_lg=0.3)
    params = trainer.init_model(np.random.default_rng(1), d, d, config)
    names = sorted(params)
    assert sorted(p.rows for p in trainer.forward_batch(batch, params, config)[1]) == [(0, 2), (1,)]

    def build(ts):
        return trainer.batch_total(trainer.forward_batch(batch, dict(zip(names, ts)), config)[1], config)[0]

    entries = [
        (names.index(name), j)
        for name in ("decoder.queries", "shared_attn.attn.q.w", "gru.hu.w")
        for j in range(0, params[name].data.size, 5)
    ]
    assert check_gradients(build, [params[n].data for n in names], entries) < 1e-3


def test_batch_gradient_is_mean_of_sample_gradients(tiny_data, tiny_model):
    cfg0, params = tiny_model
    cfg = tiny_config(lambda_lg=0.0)  # batch term couples samples otherwise
    pairs = tiny_data.samples[:3]

    per_sample = {}
    for sample, bundle in pairs:
        trainer.zero_grad(params)
        _sample_total(sample, bundle, params, cfg)[0].backward()
        for k, p in params.items():
            if p.grad is not None:
                acc = per_sample.setdefault(k, np.zeros_like(p.data))
                acc += p.grad

    trainer.zero_grad(params)
    parts = [trainer.forward(s, b, params, cfg, "train").parts for s, b in pairs]
    total, _ = trainer.batch_total(parts, cfg)
    total.backward()
    for k, want in per_sample.items():
        got = params[k].grad
        assert got is not None
        np.testing.assert_allclose(got, want / len(pairs), atol=1e-10)
    trainer.zero_grad(params)


# ---------------------------------------------------------------------------
# optimizer pieces


def test_clip_leaves_small_gradients_alone():
    p = {"a": Tensor(np.zeros(3), requires_grad=True)}
    p["a"].grad = np.array([0.01, 0.02, 0.0])
    norm = trainer.clip_gradients(p, 0.1)
    assert norm < 0.1
    np.testing.assert_array_equal(p["a"].grad, [0.01, 0.02, 0.0])


def test_clip_rescales_to_cap():
    p = {
        "a": Tensor(np.zeros(2), requires_grad=True),
        "b": Tensor(np.zeros(2), requires_grad=True),
    }
    p["a"].grad = np.array([3.0, 0.0])
    p["b"].grad = np.array([0.0, 4.0])
    norm = trainer.clip_gradients(p, 0.1)
    assert abs(norm - 5.0) < 1e-12
    total = math.sqrt(sum(float(np.sum(t.grad**2)) for t in p.values()))
    assert abs(total - 0.1) < 1e-12


def test_adam_zero_learning_rate_is_identity():
    p = {"w": Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)}
    before = p["w"].data.copy()
    opt = trainer.Adam(p, learning_rate=0.0)
    p["w"].grad = np.array([0.5, -0.5, 1.0])
    opt.step(p)
    np.testing.assert_array_equal(p["w"].data, before)


def test_adam_first_step_matches_hand_update():
    p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
    opt = trainer.Adam(p, learning_rate=0.1)
    p["w"].grad = np.array([2.0])
    opt.step(p)
    # bias-corrected m=g, v=g^2 on the first step -> update = -lr * g/(|g|+eps)
    want = -0.1 * 2.0 / (2.0 + 1e-8)
    assert abs(p["w"].data[0] - want) < 1e-12


def test_clip_scales_in_place_to_the_bytes_of_a_product():
    rng = np.random.default_rng(3)
    shapes = {"b": (5, 4), "a": (3,), "c": (1,), "e": (7, 9), "d": (2, 2)}
    p = {k: Tensor(np.zeros(s), requires_grad=True) for k, s in shapes.items()}
    for k in ("a", "b", "c", "e"):
        # magnitudes spread so that another summation order rounds differently
        p[k].grad = rng.standard_normal(shapes[k]) * 10.0 ** rng.integers(-4, 4, shapes[k])
    before = {k: p[k].grad.copy() for k in ("a", "b", "c", "e")}
    buffers = {k: p[k].grad for k in before}
    # the norm as a sum of per-gradient squared sums, in sorted name order
    want = math.sqrt(sum(float(np.sum(before[k] * before[k])) for k in sorted(before)))
    norm = trainer.clip_gradients(p, 0.1)
    assert norm == want
    assert p["d"].grad is None
    for k, g in before.items():
        assert p[k].grad is buffers[k]
        assert p[k].grad.tobytes() == (g * (0.1 / want)).tobytes()


def test_adam_keeps_params_and_keys_moments_like_them():
    rng = np.random.default_rng(4)
    shapes = {"w": (5, 4), "b": (3,), "s": (1,), "big": (trainer._CHUNK + 7,)}
    p = {k: Tensor(rng.standard_normal(s), requires_grad=True) for k, s in shapes.items()}
    before = {k: t.data.copy() for k, t in p.items()}
    opt = trainer.Adam(p, learning_rate=1e-3)
    for k, want in before.items():
        assert p[k].data.shape == want.shape and p[k].data.flags.c_contiguous
        assert p[k].data.tobytes() == want.tobytes()
        for moments in (opt.m, opt.v):
            assert moments[k].shape == want.shape and not moments[k].any()
    assert set(opt.m) == set(opt.v) == set(p)
    p["w"].grad = np.zeros(4)  # one gradient of the wrong size would shift all the others
    with pytest.raises(T.ContractError):
        opt.step(p)


def _reference_adam_step(opt_t, lr, data, m, v, grads):
    """Adam's update one parameter at a time into fresh arrays, the
    reference the flat step must match byte for byte; returns the new step
    count."""
    beta1, beta2, eps = trainer.Adam.beta1, trainer.Adam.beta2, trainer.Adam.eps
    opt_t += 1
    bc1 = 1.0 - beta1**opt_t
    bc2 = 1.0 - beta2**opt_t
    for name in sorted(data):
        g = grads[name] if grads[name] is not None else np.zeros_like(data[name])
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        data[name] = data[name] - lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
    return opt_t


def test_adam_flat_step_equals_per_parameter_reference():
    rng = np.random.default_rng(5)
    shapes = {"w": (5, 4), "b": (3,), "s": (1,), "big": (trainer._CHUNK + 7,), "idle": (2, 3)}
    p = {k: Tensor(rng.standard_normal(s), requires_grad=True) for k, s in shapes.items()}
    data = {k: t.data.copy() for k, t in p.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    opt = trainer.Adam(p, learning_rate=0.0)
    t = 0
    for lr in (1e-3, 3e-2, 1e-4, 5e-3):
        grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for k, s in shapes.items()}
        grads["idle"] = None
        for k, g in grads.items():
            p[k].grad = None if g is None else g.copy()
        opt.learning_rate = lr
        opt.step(p)
        t = _reference_adam_step(t, lr, data, m, v, grads)
        for k in shapes:
            assert p[k].data.tobytes() == data[k].tobytes(), k
            assert opt.m[k].tobytes() == m[k].tobytes(), k
            assert opt.v[k].tobytes() == v[k].tobytes(), k
    assert opt.t == t


def test_step_size_warms_up_then_drops_tenfold():
    base, total = 1e-3, 300
    sizes = [trainer.learning_rate_at(s, total, base) for s in range(total)]
    assert abs(sizes[0] - base / 30) < 1e-18
    assert all(a < b for a, b in zip(sizes[:30], sizes[1:30]))
    assert sizes[29] == base and sizes[199] == base
    assert sizes[200] == 0.1 * base and sizes[-1] == 0.1 * base
    assert sizes.count(base) == 171  # steps 29-199


# ---------------------------------------------------------------------------
# training loop


def test_train_follows_step_size_schedule(tiny_data, monkeypatch):
    seen = []
    real_step = trainer.Adam.step

    def recording_step(self, params):
        seen.append(self.learning_rate)
        real_step(self, params)

    monkeypatch.setattr(trainer.Adam, "step", recording_step)
    cfg = tiny_config(epochs=3, batch_size=3)  # 4 samples -> 2 batches/epoch
    trainer.train(cfg, tiny_data)
    assert seen == [trainer.learning_rate_at(s, 6, cfg.learning_rate) for s in range(6)]
    assert seen[0] == cfg.learning_rate


def test_train_is_deterministic(tiny_data):
    cfg = tiny_config(epochs=2)
    a = trainer.train(cfg, tiny_data)
    b = trainer.train(cfg, tiny_data)
    assert sorted(a.params) == sorted(b.params)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k].data, b.params[k].data)
    assert a.step == b.step


def test_train_descends(tiny_data, caplog):
    cfg = tiny_config(epochs=15, batch_size=4)
    rng = np.random.default_rng(cfg.seed)
    params0 = trainer.init_model(rng, *trainer.feature_dims(tiny_data), cfg)
    start = trainer.dataset_breakdown(params0, cfg, tiny_data).total
    with caplog.at_level(logging.INFO, logger=trainer.log.name):
        ckpt = trainer.train(cfg, tiny_data)
    end = trainer.dataset_breakdown(ckpt.params, cfg, tiny_data).total
    assert end < start
    epochs = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch ")]
    assert len(epochs) == 15 and all("largest pre-clip gradient norm" in m for m in epochs)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_train_warns_when_every_top_span_has_zero_width(tiny_data, monkeypatch, caplog):
    monkeypatch.setattr(trainer.cooperate, "decode_spans", lambda cw, scores, duration: [(0.0, 0.0, 1.0)])
    with caplog.at_level(logging.WARNING, logger=trainer.log.name):
        trainer.train(tiny_config(epochs=2, batch_size=3), tiny_data)
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
        "every top span of the last epoch has zero width: the span head has collapsed"
    ]


def test_train_counts_steps(tiny_data):
    cfg = tiny_config(epochs=3, batch_size=3)  # 4 samples -> 2 batches/epoch
    ckpt = trainer.train(cfg, tiny_data)
    assert ckpt.step == 6
    assert ckpt.adam_t == 6


def test_train_aborts_on_nan(tiny_data, monkeypatch):
    cfg = tiny_config(epochs=1)
    real_init = trainer.init_model

    def poisoned(rng, d_v, d_t, config):
        params = real_init(rng, d_v, d_t, config)
        # poison a head that only feeds the loss, not the span decoding
        params["refine_out.w"].data[0, 0] = float("nan")
        return params

    monkeypatch.setattr(trainer, "init_model", poisoned)
    with pytest.raises(trainer.TrainingDivergedError, match="step 0"):
        trainer.train(cfg, tiny_data)


def test_train_requires_data(tiny_data):
    with pytest.raises(ConfigError):
        trainer.train(tiny_config(), Dataset())


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tiny_data, tmp_path):
    cfg = tiny_config(epochs=1)
    ckpt = trainer.train(cfg, tiny_data)
    path = tmp_path / "model.ckpt"
    trainer.save_checkpoint(ckpt, path)
    back = trainer.load_checkpoint(path)

    assert back.config == cfg
    assert back.step == ckpt.step and back.adam_t == ckpt.adam_t
    assert sorted(back.params) == sorted(ckpt.params)
    for k in ckpt.params:
        np.testing.assert_array_equal(back.params[k].data, ckpt.params[k].data)
    for k in ckpt.adam_m:
        np.testing.assert_array_equal(back.adam_m[k], ckpt.adam_m[k])
        np.testing.assert_array_equal(back.adam_v[k], ckpt.adam_v[k])

    sample, bundle = tiny_data.samples[0]
    a = trainer.forward(sample, bundle, ckpt.params, cfg, "infer").prediction
    b = trainer.forward(sample, bundle, back.params, cfg, "infer").prediction
    assert a.spans == b.spans
    np.testing.assert_array_equal(a.highlight, b.highlight)


def test_checkpoint_shared_block_stored_once(tiny_data, tmp_path):
    from mrhd.cooperate import SHARED_PREFIX

    ckpt = trainer.train(tiny_config(epochs=1), tiny_data)
    path = tmp_path / "model.ckpt"
    trainer.save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + hlen])
    shared = [
        a["name"]
        for a in header["arrays"]
        if a["kind"] == "param" and a["name"].startswith(SHARED_PREFIX + ".")
    ]
    assert len(shared) == len(set(shared)) > 0


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(trainer.CheckpointFormatError):
        trainer.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tiny_data, tmp_path):
    ckpt = trainer.train(tiny_config(epochs=1), tiny_data)
    path = tmp_path / "model.ckpt"
    trainer.save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(trainer.CheckpointFormatError, match="truncated"):
        trainer.load_checkpoint(path)


# ---------------------------------------------------------------------------
# prediction and evaluation


@pytest.fixture(scope="module")
def trained(tiny_data):
    cfg = tiny_config(epochs=2)
    return trainer.train(cfg, tiny_data)


def test_predict_schema(tiny_data, trained, tmp_path):
    out = tmp_path / "preds.jsonl"
    records = trainer.predict(trained, tiny_data, out)
    assert len(records) == len(tiny_data.samples)
    lines = out.read_text().strip().split("\n")
    assert len(lines) == len(records)
    for line, (sample, _) in zip(lines, tiny_data.samples):
        rec = json.loads(line)
        assert rec["qid"] == sample.qid
        scores = [w[2] for w in rec["pred_relevant_windows"]]
        assert scores == sorted(scores, reverse=True)
        for s, e, _ in rec["pred_relevant_windows"]:
            assert 0.0 <= s <= e <= sample.duration
        assert len(rec["pred_saliency_scores"]) == sample.num_clips


def test_predict_file_round_trip_matches_memory(tiny_data, trained, tmp_path):
    out = tmp_path / "preds.jsonl"
    trainer.predict(trained, tiny_data, out)
    from_file = trainer.evaluate_predictions(trainer.read_predictions(out), tiny_data)
    in_memory = trainer.evaluate_checkpoint(trained, tiny_data)
    assert from_file == in_memory


@pytest.mark.parametrize(
    "pick, error",
    [
        (lambda recs: recs[::-1], None),
        (lambda recs: recs[:2], r"missing qids \[2, 3\], duplicated qids \[\]"),
        (lambda recs: recs[:1] * 4, r"missing qids \[1, 2, 3\], duplicated qids \[0\]"),
        (lambda recs: recs + recs[3:], r"missing qids \[\], duplicated qids \[3\]"),
    ],
)
def test_evaluate_predictions_needs_every_qid_once(tiny_data, trained, pick, error):
    records = trainer.predict(trained, tiny_data)
    assert [rec["qid"] for rec in records] == [0, 1, 2, 3]
    if error is None:
        report = trainer.evaluate_predictions(pick(records), tiny_data)
        assert report == trainer.evaluate_predictions(records, tiny_data)
    else:
        with pytest.raises(ConfigError, match=error):
            trainer.evaluate_predictions(pick(records), tiny_data)


def test_predict_builds_no_graph(tiny_data, trained, monkeypatch):
    with_backward = []
    real_record = T._record

    def record(out_data, parents, backward):
        out = real_record(out_data, parents, backward)
        with_backward.append(out._backward is not None)
        return out

    monkeypatch.setattr(T, "_record", record)
    records = trainer.predict(trained, tiny_data)
    monkeypatch.undo()
    assert with_backward and not any(with_backward)
    assert all(p.requires_grad for p in trained.params.values())
    for rec, (sample, bundle) in zip(records, tiny_data.samples):
        pred = trainer.forward(sample, bundle, trained.params, trained.config, "train").prediction
        assert rec["pred_relevant_windows"] == [list(span) for span in pred.spans]
        assert rec["pred_saliency_scores"] == pred.highlight.tolist()


def test_predict_rejects_dim_mismatch(trained):
    other = synth_generate(SynthConfig(num_samples=1, num_clips=8, d_v=9, d_t=10), 0)
    with pytest.raises(ConfigError, match="dims"):
        trainer.predict(trained, other)


def test_read_predictions_rejects_missing_keys(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"qid": 0, "pred_relevant_windows": []}\n')
    with pytest.raises(trainer.PredictionFormatError, match="pred_saliency_scores"):
        trainer.read_predictions(path)


def _plain_records(ds):
    """One in-range record per query: a 2 s span and flat saliency."""
    return [
        {"qid": s.qid, "pred_relevant_windows": [[0.0, 2.0, 0.5]],
         "pred_saliency_scores": [0.0] * s.num_clips}
        for s, _ in ds.samples
    ]


def test_zero_length_predicted_span_scores_zero(tiny_data):
    records = _plain_records(tiny_data)
    assert tiny_data.samples[0][0].duration == 16.0
    records[0]["pred_relevant_windows"] = [[5.0, 5.0, 0.9]]
    report = trainer.evaluate_predictions(records, tiny_data)
    assert report == trainer.evaluate_predictions(
        [*records[1:], {**records[0], "pred_relevant_windows": [[15.0, 16.0, 0.9]]}], tiny_data
    )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("pred_relevant_windows", [[0.0, 99.0, 0.9]], r"span \[0.0, 99.0\] outside"),
        ("pred_relevant_windows", [[-1.0, 2.0, 0.9]], "outside"),
        ("pred_relevant_windows", [[4.0, 3.0, 0.9]], "outside"),
        ("pred_relevant_windows", [], "no spans"),
        ("pred_relevant_windows", [[0.0, 2.0, float("nan")]], "finite"),
        ("pred_relevant_windows", [[0.0, 2.0]], r"\[start, end, score\]"),
        ("pred_saliency_scores", [0.0] * 7, "one finite value per clip"),
        ("pred_saliency_scores", [float("nan")] + [0.0] * 7, "one finite value per clip"),
        ("pred_saliency_scores", [float("inf")] + [0.0] * 7, "one finite value per clip"),
        ("pred_saliency_scores", ["x"] * 8, "could not convert"),
        ("pred_saliency_scores", [10**400] + [0.0] * 7, "int too large to convert to float"),
        ("pred_relevant_windows", [[0.0, 10**400, 0.9]], "int too large to convert to float"),
    ],
)
def test_evaluate_predictions_refuses_bad_record(tiny_data, field, value, message):
    records = _plain_records(tiny_data)
    records[2][field] = value
    qid = records[2]["qid"]
    with pytest.raises(trainer.PredictionFormatError, match=f"qid {qid}: .*{message}"):
        trainer.evaluate_predictions(records, tiny_data)


def test_evaluate_predictions_refuses_empty_dataset():
    with pytest.raises(ConfigError, match="dataset is empty"):
        trainer.evaluate_predictions([], Dataset())


def test_span_end_within_tolerance_of_duration_is_scored(tiny_data):
    records = _plain_records(tiny_data)
    records[0]["pred_relevant_windows"] = [[0.0, 16.0 + 1e-10, 0.9]]
    trainer.evaluate_predictions(records, tiny_data)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"qid": "0", "pred_relevant_windows": [[0, 1, 0.5]], "pred_saliency_scores": [0.1]}',
         "qid must be an int"),
        ('{"qid": true, "pred_relevant_windows": [[0, 1, 0.5]], "pred_saliency_scores": [0.1]}',
         "qid must be an int"),
        ('{"qid": 0, "pred_relevant_windows": [[0, 1]], "pred_saliency_scores": [0.1]}',
         "pred_relevant_windows"),
        ('{"qid": 0, "pred_relevant_windows": [[0, "1", 0.5]], "pred_saliency_scores": [0.1]}',
         "pred_relevant_windows"),
        ('{"qid": 0, "pred_relevant_windows": [[0, 1, true]], "pred_saliency_scores": [0.1]}',
         "pred_relevant_windows"),
        ('{"qid": 0, "pred_relevant_windows": [0, 1, 0.5], "pred_saliency_scores": [0.1]}',
         "pred_relevant_windows"),
        ('{"qid": 0, "pred_relevant_windows": [[0, 1, 0.5]], "pred_saliency_scores": "0.1"}',
         "pred_saliency_scores"),
        ('{"qid": 0, "pred_relevant_windows": [[0, 1, 0.5]], "pred_saliency_scores": [0.1, null]}',
         "pred_saliency_scores"),
        ("[0, 1, 2]", "expected a JSON object"),
        ("{not json", "Expecting"),
        pytest.param('{"qid": ' + "1" * 5000 + "}", "4300 digits", id="int-of-5000-digits"),
    ],
)
def test_read_predictions_refuses_wrong_types(tmp_path, line, message):
    good = '{"qid": 0, "pred_relevant_windows": [[0, 1, 0.5]], "pred_saliency_scores": [0.1]}'
    path = tmp_path / "preds.jsonl"
    path.write_text(good + "\n\n" + line + "\n")
    with pytest.raises(trainer.PredictionFormatError, match=f"preds.jsonl line 3: .*{message}"):
        trainer.read_predictions(path)


def test_read_predictions_refuses_non_utf8(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_bytes(b"\xff\xfe{}\n")
    with pytest.raises(trainer.PredictionFormatError, match="preds.jsonl: not UTF-8"):
        trainer.read_predictions(path)


def test_interrupted_checkpoint_write_keeps_the_old_file(tiny_data, trained, tmp_path):
    path = tmp_path / "model.ckpt"
    trainer.save_checkpoint(trained, path)
    before = path.read_bytes()
    broken = trainer.Checkpoint(
        params=trained.params, config=trained.config, step=trained.step,
        adam_m=trained.adam_m, adam_v={**trained.adam_v, "zz": np.array(["not a number"])},
        adam_t=trained.adam_t,
    )
    with pytest.raises(ValueError):
        trainer.save_checkpoint(broken, path)  # fails after the header and the params
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    with pytest.raises(ValueError):
        trainer.save_checkpoint(broken, tmp_path / "new.ckpt")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_interrupted_prediction_write_keeps_the_old_file(tiny_data, trained, tmp_path, monkeypatch):
    path = tmp_path / "preds.jsonl"
    path.write_text("old\n")
    dumps, calls = json.dumps, []

    def failing_dumps(obj, *args, **kwargs):
        calls.append(obj)
        if len(calls) == 3:
            raise OSError("disk full")
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(trainer.json, "dumps", failing_dumps)
    with pytest.raises(OSError, match="disk full"):
        trainer.predict(trained, tiny_data, path)
    monkeypatch.undo()
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["preds.jsonl"]
    records = trainer.predict(trained, tiny_data, path)
    assert trainer.read_predictions(path) == records


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rows_and_exact_zero(tiny_data):
    cfg = tiny_config(epochs=1)
    rows = trainer.sweep_lambda(cfg, [0.0, 0.3], tiny_data)
    assert len(rows) == 2
    assert rows[0]["lambda_lg"] == 0.0
    assert rows[0]["align_loss"] == 0.0
    assert rows[1]["align_loss"] != 0.0
    assert set(rows[0]["report"]) >= {"r1_050", "map_avg"}


def test_sweep_single_zero_matches_plain_train(tiny_data):
    cfg = tiny_config(epochs=1, lambda_lg=0.0)
    rows = trainer.sweep_lambda(cfg, [0.0], tiny_data)
    ckpt = trainer.train(cfg, tiny_data)
    want = trainer.evaluate_checkpoint(ckpt, tiny_data)
    assert rows[0]["report"] == want.to_dict()


def test_sweep_rejects_bad_values(tiny_data):
    with pytest.raises(ConfigError):
        trainer.sweep_lambda(tiny_config(), [-0.1], tiny_data)
    with pytest.raises(ConfigError):
        trainer.sweep_lambda(tiny_config(), [float("inf")], tiny_data)


def test_dataset_breakdown_builds_no_graph(tiny_data, trained, monkeypatch):
    with_backward = []
    real_record = T._record

    def record(out_data, parents, backward):
        out = real_record(out_data, parents, backward)
        with_backward.append(out._backward is not None)
        return out

    monkeypatch.setattr(T, "_record", record)
    got = trainer.dataset_breakdown(trained.params, trained.config, tiny_data)
    monkeypatch.undo()
    assert with_backward and not any(with_backward)
    assert all(p.requires_grad for p in trained.params.values())
    # the same loss over the grad-tracking params, graph and all
    parts = [
        trainer.forward(s, b, trained.params, trained.config, "train").parts
        for s, b in tiny_data.samples
    ]
    total, want = trainer.batch_total(parts, trained.config)
    assert total.requires_grad
    assert np.array(list(vars(got).values())).tobytes() == np.array(list(vars(want).values())).tobytes()
