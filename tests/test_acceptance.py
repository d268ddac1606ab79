"""Acceptance gate: one test per shipped criterion, tolerances as stated.

Each test prints a single summary line with the measured quantities so a
verbose run documents the evidence, and asserts the criterion's bound.
"""

import itertools
import json
import time

import numpy as np
import pytest

from mrhd import align, cooperate, losses, metrics, refine, trainer
from mrhd import tensor as T
from mrhd.data import Dataset, SynthConfig, synth_generate
from mrhd.gradcheck import end_to_end, kernel_suite
from mrhd.losses import LossWeights
from mrhd.tensor import Tensor


def _overfit_setup():
    data = synth_generate(
        SynthConfig(num_samples=8, num_clips=16, d_v=32, d_t=32, noise=0.1), 0
    )
    config = trainer.TrainConfig(
        seed=0,
        batch_size=8,
        epochs=300,
        learning_rate=1e-3,
        lambda_lg=0.3,
        d=64,
        num_queries=5,
        decoder_layers=2,
        heads=4,
        weights=LossWeights(saliency=4.0),
    )
    return data, config


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    report = kernel_suite(range(100))
    worst_kernel = max(report.values())
    worst_e2e = max(end_to_end(seed) for seed in range(5))
    elapsed = time.monotonic() - start
    print(
        f"criterion 1: worst kernel {worst_kernel:.2e} (<1e-4), "
        f"worst end-to-end {worst_e2e:.2e} (<1e-3), {elapsed:.1f}s (<60s)"
    )
    assert worst_kernel < 1e-4
    assert worst_e2e < 1e-3
    assert elapsed < 60.0


def test_criterion_2_hungarian_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        cost = rng.uniform(-5.0, 5.0, size=(n, n))
        got = sum(cost[p, g] for p, g in losses.hungarian_match(cost))
        best = min(
            sum(cost[perm[j], j] for j in range(n))
            for perm in itertools.permutations(range(n))
        )
        assert abs(got - best) < 1e-9, f"trial {trial}: {got} != {best}"
    elapsed = time.monotonic() - start
    print(f"criterion 2: 200 instances exact, {elapsed:.2f}s (<5s)")
    assert elapsed < 5.0


def _oracle_ap(flags, num_positives):
    if num_positives == 0:
        return 0.0
    tp = np.cumsum(flags)
    prec = tp / np.arange(1, len(flags) + 1)
    rec = tp / num_positives
    ap, prev = 0.0, 0.0
    for r in sorted(set(rec.tolist())):
        if r <= prev:
            continue
        ap += (r - prev) * max(prec[k] for k in range(len(flags)) if rec[k] >= r)
        prev = r
    return ap


def _oracle_iou(a, b):
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    return inter / ((a[1] - a[0]) + (b[1] - b[0]) - inter)


def _oracle_query_ap(spans, windows, threshold):
    order = sorted(range(len(spans)), key=lambda i: -spans[i][2])
    left = list(range(len(windows)))
    flags = []
    for i in order:
        cands = [(_oracle_iou(spans[i][:2], windows[j]), j) for j in left]
        cands = [c for c in cands if c[0] >= threshold]
        if cands:
            best = max(cands, key=lambda c: c[0])
            left.remove(best[1])
            flags.append(True)
        else:
            flags.append(False)
    return _oracle_ap(flags, len(windows))


def _query_sample(ratings, windows):
    from mrhd.data import QuerySample

    return QuerySample(
        qid=0,
        vid="v0",
        query_text="q",
        duration=2.0 * len(ratings),
        clip_len=2.0,
        relevant_windows=tuple(windows),
        saliency=tuple(tuple(r) for r in ratings),
    )


def test_criterion_3_metric_oracles():
    start = time.monotonic()
    # IoU of [0, 10] and [2.5, 10] is 0.75: it clears the six thresholds
    # 0.50 ... 0.75 of the ten
    hand_sample = _query_sample([[0]] * 5, [(2.5, 10.0)])
    hand = metrics.evaluate([(hand_sample, [(0.0, 10.0, 1.0)], [0.0] * 5)])
    assert hand.map_050 == hand.map_075 == 1.0
    assert abs(hand.map_avg - 0.6) < 1e-12
    g = losses.giou_1d(
        Tensor([[0.0]]), Tensor([[0.2]]), Tensor([[0.8]]), Tensor([[1.0]])
    ).item()
    assert abs(g - (-0.6)) < 1e-12

    rng = np.random.default_rng(9)
    for _ in range(200):
        # moment retrieval mAP against the independent interpolation
        n_pred, n_gt = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        spans, windows = [], []
        for _ in range(n_pred):
            s = rng.uniform(0, 30)
            spans.append((s, s + rng.uniform(1, 10), float(rng.uniform(0, 1))))
        for _ in range(n_gt):
            s = rng.uniform(0, 30)
            windows.append((s, s + rng.uniform(1, 10)))
        # highlight metrics of the same query against the same oracle per
        # annotator
        L, n_ann = int(rng.integers(2, 10)), int(rng.integers(1, 4))
        ratings = [[int(x) for x in rng.integers(0, 5, size=n_ann)] for _ in range(L)]
        scores = rng.standard_normal(L)
        report = metrics.evaluate([(_query_sample(ratings, windows), spans, scores)])
        assert abs(report.map_050 - _oracle_query_ap(spans, windows, 0.5)) < 1e-12
        assert abs(report.map_075 - _oracle_query_ap(spans, windows, 0.75)) < 1e-12

        mat = np.array(ratings)
        order = np.argsort(-scores, kind="stable")
        aps = [
            _oracle_ap([bool(mat[i, a] == 4) for i in order], int((mat[:, a] == 4).sum()))
            for a in range(n_ann)
            if (mat[:, a] == 4).any()
        ]
        if aps:
            assert report.hd_map is not None and abs(report.hd_map - float(np.mean(aps))) < 1e-12
        else:
            assert report.hd_map is None

        got5 = report.top5_map
        top = [int(i) for i in order[:5]]
        aps5 = []
        for a in range(n_ann):
            if not (mat[:, a] == 4).any():
                continue
            flags5 = [bool(mat[i, a] == 4) for i in top]
            aps5.append(_oracle_ap(flags5, sum(flags5)))
        if not aps5:
            assert got5 is None
        else:
            assert got5 is not None and abs(got5 - float(np.mean(aps5))) < 1e-12
    elapsed = time.monotonic() - start
    print(f"criterion 3: hand values + 200 oracle instances, {elapsed:.2f}s (<10s)")
    assert elapsed < 10.0


def _overfit_misses(records, data):
    """One line per query that misses R1@0.5 or HIT@1: its top span next to
    its window, and its top clip's ratings next to the clips rated 4."""
    by_qid = {sample.qid: sample for sample, _ in data.samples}
    lines = []
    for rec in records:
        sample = by_qid[rec["qid"]]
        spans = rec["pred_relevant_windows"]
        windows = list(sample.relevant_windows)
        one = metrics.evaluate([(sample, spans, rec["pred_saliency_scores"])])
        hit_missed = one.hit_at_1 is not None and one.hit_at_1 < 1.0
        if one.r1_050 == 1.0 and not hit_missed:
            continue
        hit = "n/a" if one.hit_at_1 is None else f"{one.hit_at_1:.3f}"
        top = int(np.argsort(-np.asarray(rec["pred_saliency_scores"]), kind="stable")[0])
        rated_4 = [i for i, r in enumerate(sample.saliency) if 4 in r]
        start, end, score = spans[0]
        lines.append(
            f"  qid {sample.qid}: top span [{start:.2f}, {end:.2f}] (score {score:.3f}) "
            f"vs window {windows}; top clip {top} rated {sample.saliency[top]}, "
            f"clips rated 4: {rated_4}, HIT@1 {hit}"
        )
    return lines


def test_criterion_4_overfit():
    start = time.monotonic()
    data, config = _overfit_setup()
    ckpt = trainer.train(config, data)
    records = trainer.predict(ckpt, data)
    report = trainer.evaluate_predictions(records, data)
    elapsed = time.monotonic() - start
    print(
        f"criterion 4: R1@0.5={report.r1_050} HIT@1={report.hit_at_1} "
        f"{elapsed:.0f}s (<120s)"
    )
    print(f"  {report}")
    for line in _overfit_misses(records, data):
        print(line)
    assert report.r1_050 == 1.0
    assert report.hit_at_1 == 1.0
    assert elapsed < 120.0


def test_criterion_5_total_decomposition():
    worst = 0.0
    for seed in range(20):
        ds = synth_generate(
            SynthConfig(num_samples=1, num_clips=8, num_tokens=4, d_v=10, d_t=9), seed
        )
        lam = float(np.random.default_rng(seed).uniform(0.0, 1.0))
        config = trainer.TrainConfig(
            seed=seed, d=16, num_queries=3, decoder_layers=1, heads=2, lambda_lg=lam
        )
        params = trainer.init_model(
            np.random.default_rng(seed + 100), *trainer.feature_dims(ds), config
        )
        _, b = trainer.batch_total(
            [trainer.forward(*ds.samples[0], params, config, "train").parts], config
        )
        recomposed = b.mom + b.high + b.lambda_lg * (b.local + b.global_)
        worst = max(worst, abs(b.total - recomposed))

        zero_config = trainer.TrainConfig(
            seed=seed, d=16, num_queries=3, decoder_layers=1, heads=2, lambda_lg=0.0
        )
        _, zero = trainer.batch_total(
            [trainer.forward(*ds.samples[0], params, zero_config, "train").parts], zero_config
        )
        assert zero.total == zero.mom + zero.high
    print(f"criterion 5: worst decomposition gap {worst:.2e} (<1e-12), lambda=0 exact")
    assert worst < 1e-12


def test_criterion_6_weight_sharing(tmp_path):
    data, config = _overfit_setup()
    config = trainer.TrainConfig(
        seed=0, batch_size=4, epochs=1, learning_rate=1e-3,
        d=16, num_queries=3, decoder_layers=1, heads=2,
    )
    small = synth_generate(
        SynthConfig(num_samples=4, num_clips=8, num_tokens=4, d_v=12, d_t=10), 1
    )
    ckpt = trainer.train(config, small)
    path = tmp_path / "share.ckpt"
    trainer.save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + hlen])
    shared = [
        a["name"]
        for a in header["arrays"]
        if a["kind"] == "param" and a["name"].startswith(cooperate.SHARED_PREFIX + ".")
    ]
    assert shared and len(shared) == len(set(shared))

    # gradient through both call sites = sum of the isolated-path gradients
    params = ckpt.params
    sample, bundle = small.samples[0]
    v_hat, t_hat = align.project(bundle, params)
    v_pos = refine.add_positions(v_hat)
    a_row, a_col = refine.cross_similarity(v_pos, t_hat, params)
    f_v2q, f_q2v = refine.bidirectional_attend(a_row, a_col, v_pos, t_hat)
    joint = refine.cross_attention_fusion(
        refine.fuse(v_pos, t_hat, f_v2q, f_q2v, params), t_hat, params
    )
    const_h = Tensor(
        cooperate.highlight_head(joint, params, config.heads).data.copy()
    )
    shared_keys = [k for k in params if k.startswith(cooperate.SHARED_PREFIX + ".")]

    def shared_grads(build):
        trainer.zero_grad(params)
        build().backward()
        return {
            k: (params[k].grad.copy() if params[k].grad is not None else 0.0)
            for k in shared_keys
        }

    g_high = shared_grads(
        lambda: T.tsum(cooperate.highlight_head(joint, params, config.heads))
    )
    g_hd2mr = shared_grads(
        lambda: T.tsum(cooperate.hd2mr(joint, const_h, params, config.heads))
    )
    g_both = shared_grads(
        lambda: T.add(
            T.tsum(cooperate.highlight_head(joint, params, config.heads)),
            T.tsum(cooperate.hd2mr(joint, const_h, params, config.heads)),
        )
    )
    worst = max(
        float(np.max(np.abs(g_both[k] - (g_high[k] + g_hd2mr[k]))))
        for k in shared_keys
    )
    trainer.zero_grad(params)
    print(f"criterion 6: one stored copy, call-site gradient gap {worst:.2e} (<1e-10)")
    assert worst < 1e-10


def test_criterion_7_ablation_direction():
    start = time.monotonic()

    def held_out_and_training_map(seed, lam):
        ds = synth_generate(
            SynthConfig(num_samples=24, num_clips=16, d_v=16, d_t=16, noise=0.25),
            seed,
        )
        train_ds = Dataset(samples=ds.samples[:16])
        val_ds = Dataset(samples=ds.samples[16:])
        config = trainer.TrainConfig(
            seed=seed,
            batch_size=16,
            epochs=150,
            learning_rate=1e-3,
            lambda_lg=lam,
            d=32,
            num_queries=5,
            decoder_layers=1,
            heads=4,
            weights=LossWeights(saliency=4.0),
        )
        ckpt = trainer.train(config, train_ds)
        return (
            trainer.evaluate_checkpoint(ckpt, val_ds).map_avg,
            trainer.evaluate_checkpoint(ckpt, train_ds).map_avg,
        )

    runs = {lam: [held_out_and_training_map(s, lam) for s in range(5)] for lam in (0.3, 0.0)}
    for lam, maps in runs.items():
        print(
            f"criterion 7: weight {lam} MR mAP per seed 0-4, held-out/training: "
            + ", ".join(f"{held:.4f}/{fit:.4f}" for held, fit in maps)
        )
    with_align = float(np.mean([held for held, _ in runs[0.3]]))
    without = float(np.mean([held for held, _ in runs[0.0]]))
    elapsed = time.monotonic() - start
    print(
        f"criterion 7: held-out avg mAP {with_align:.4f} (weight 0.3) vs "
        f"{without:.4f} (weight 0), {elapsed:.0f}s"
    )
    assert with_align >= without


def test_criterion_8_format_conformance(tmp_path):
    small = synth_generate(
        SynthConfig(num_samples=4, num_clips=8, num_tokens=4, d_v=12, d_t=10), 2
    )
    config = trainer.TrainConfig(
        seed=0, batch_size=4, epochs=2, learning_rate=1e-3,
        d=16, num_queries=3, decoder_layers=1, heads=2,
    )
    ckpt = trainer.train(config, small)
    pred_path = tmp_path / "preds.jsonl"
    trainer.predict(ckpt, small, pred_path)

    with open(pred_path) as fh:
        for line in fh:
            rec = json.loads(line)
            assert isinstance(rec["qid"], int)
            for w in rec["pred_relevant_windows"]:
                assert len(w) == 3 and all(isinstance(x, float) for x in w)
            assert all(isinstance(x, float) for x in rec["pred_saliency_scores"])

    from_file = trainer.evaluate_predictions(
        trainer.read_predictions(pred_path), small
    )
    in_memory = trainer.evaluate_checkpoint(ckpt, small)
    assert from_file == in_memory

    from mrhd.data import read_features, write_features

    rng = np.random.default_rng(5)
    mat = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
    feat_path = tmp_path / "m.vfeat"
    write_features(feat_path, mat)
    back = read_features(feat_path)
    assert back.dtype == np.float64 and np.array_equal(back, mat)
    print("criterion 8: schema parses, file eval == in-memory eval, features bit-exact")
