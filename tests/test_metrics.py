"""Metrics: IoU, recall, MR mAP, HD mAP/HIT@1, top-5 AP, report assembly,
each through ``evaluate``, the one entry point."""

import json

import numpy as np
import pytest

from mrhd import metrics as M
from mrhd.data import QuerySample, ValidationError, load_annotations
from mrhd.tensor import ContractError


# ---------------------------------------------------------------------------
# independent oracle: interpolate precision level by level


def oracle_ap(flags, num_positives):
    if num_positives == 0:
        return 0.0
    flags = list(flags)
    tp = np.cumsum(flags)
    ranks = np.arange(1, len(flags) + 1)
    prec = tp / ranks
    rec = tp / num_positives
    ap, prev = 0.0, 0.0
    for r in sorted(set(rec.tolist())):
        if r <= prev:
            continue
        best = max(prec[k] for k in range(len(flags)) if rec[k] >= r)
        ap += (r - prev) * best
        prev = r
    return ap


def oracle_iou(a, b):
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    return inter / ((a[1] - a[0]) + (b[1] - b[0]) - inter)


def oracle_query_ap(spans, windows, threshold):
    order = sorted(range(len(spans)), key=lambda i: -spans[i][2])
    available = list(range(len(windows)))
    flags = []
    for i in order:
        ious = [(oracle_iou(spans[i][:2], windows[j]), j) for j in available]
        ious = [x for x in ious if x[0] >= threshold]
        if ious:
            best = max(ious, key=lambda x: x[0])
            available.remove(best[1])
            flags.append(True)
        else:
            flags.append(False)
    return oracle_ap(flags, len(windows))


def _sample(ratings, clip_len=2.0, windows=((0.0, 2.0),), qid=0):
    L = len(ratings)
    return QuerySample(
        qid=qid,
        vid=f"v{qid}",
        query_text="q",
        duration=clip_len * L,
        clip_len=clip_len,
        relevant_windows=tuple(windows),
        saliency=tuple(tuple(r) for r in ratings),
    )


def _mr_report(preds, gts):
    """The report of one query per (spans, windows) pair, in that order."""
    pairs = enumerate(zip(preds, gts))
    return M.evaluate([(_sample([[0]], windows=w, qid=q), spans, [0.0]) for q, (spans, w) in pairs])


def _hd_report(scores, sample):
    return M.evaluate([(sample, [(0.0, 2.0, 1.0)], scores)])


# ---------------------------------------------------------------------------
# temporal IoU, through the thresholds a report resolves


def test_iou_identical():
    report = _mr_report([[(3.0, 7.0, 0.9)]], [[(3.0, 7.0)]])
    assert report.r1_070 == 1.0 and report.map_avg == 1.0  # clears every threshold


def test_iou_disjoint():
    report = _mr_report([[(0.0, 1.0, 0.9)]], [[(2.0, 3.0)]])
    assert report.r1_050 == 0.0 and report.map_avg == 0.0


def test_iou_hand_value():
    # IoU 7.5 / 10 = 0.75 clears the six thresholds 0.50 ... 0.75
    report = _mr_report([[(0.0, 10.0, 0.9)]], [[(2.5, 10.0)]])
    assert report.r1_050 == report.r1_070 == 1.0
    assert report.map_050 == report.map_075 == 1.0
    assert abs(report.map_avg - 0.6) < 1e-12


def test_iou_zero_length_rejected(tmp_path):
    # a zero-length window would make IoU 0 / 0; the annotation loader
    # refuses it, and a zero-length predicted span scores 0
    # (test_zero_length_span_scores_zero)
    rec = {
        "qid": 1, "vid": "v", "query": "q", "duration": 4.0, "clip_len": 2.0,
        "relevant_windows": [[2.0, 2.0]], "saliency_scores": [[0], [0]],
    }
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValidationError, match="start < end violated"):
        load_annotations(path)


# ---------------------------------------------------------------------------
# recall


def test_recall_perfect():
    report = _mr_report([[(5.0, 15.0, 0.9)]], [[(5.0, 15.0)]])
    assert report.r1_050 == 1.0
    assert report.r1_070 == 1.0


def test_recall_low_iou_misses():
    assert _mr_report([[(0.0, 10.0, 0.9)]], [[(5.0, 15.0)]]).r1_050 == 0.0


def test_recall_mixed_queries():
    preds = [[(5.0, 15.0, 0.9)], [(0.0, 10.0, 0.9)]]
    gts = [[(5.0, 15.0)], [(5.0, 15.0)]]
    assert _mr_report(preds, gts).r1_050 == 0.5


def test_recall_uses_top_scored_span():
    preds = [[(0.0, 1.0, 0.2), (5.0, 15.0, 0.9)]]
    assert _mr_report(preds, [[(5.0, 15.0)]]).r1_050 == 1.0


def test_recall_empty_predictions_rejected():
    with pytest.raises(ContractError):
        _mr_report([[]], [[(0.0, 1.0)]])


def test_recall_monotone_in_threshold():
    rng = np.random.default_rng(0)
    preds, gts = [], []
    for _ in range(12):
        s = rng.uniform(0, 20)
        gt = (s, s + rng.uniform(2, 8))
        p = (s + rng.uniform(-3, 3), gt[1] + rng.uniform(-3, 3))
        if p[1] <= p[0]:
            p = (p[0], p[0] + 0.5)
        preds.append([(p[0], p[1], 0.9)])
        gts.append([gt])
    report = _mr_report(preds, gts)
    assert 0.0 < report.r1_070 <= report.r1_050 < 1.0


# ---------------------------------------------------------------------------
# MR mAP


def test_mr_map_single_query_perfect():
    report = _mr_report([[(5.0, 15.0, 0.9)]], [[(5.0, 15.0)]])
    assert report.map_050 == 1.0 and report.map_075 == 1.0 and report.map_avg == 1.0


def test_mr_map_miss_then_hit_is_half():
    report = _mr_report([[(30.0, 40.0, 0.9), (5.0, 15.0, 0.5)]], [[(5.0, 15.0)]])
    assert abs(report.map_050 - 0.5) < 1e-12


def test_mr_map_matches_oracle_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n_queries = int(rng.integers(1, 6))
        preds, gts = [], []
        for _ in range(n_queries):
            n_pred = int(rng.integers(1, 7))
            n_gt = int(rng.integers(1, 4))
            spans = []
            for _ in range(n_pred):
                s = rng.uniform(0, 30)
                spans.append((s, s + rng.uniform(1, 10), float(rng.uniform(0, 1))))
            windows = []
            for _ in range(n_gt):
                s = rng.uniform(0, 30)
                windows.append((s, s + rng.uniform(1, 10)))
            preds.append(spans)
            gts.append(windows)
        report = _mr_report(preds, gts)
        for thr, got in ((0.5, report.map_050), (0.75, report.map_075)):
            want = float(np.mean([oracle_query_ap(p, g, thr) for p, g in zip(preds, gts)]))
            assert abs(got - want) < 1e-12
        want_avg = float(
            np.mean(
                [
                    np.mean([oracle_query_ap(p, g, t) for p, g in zip(preds, gts)])
                    for t in M.MR_MAP_THRESHOLDS
                ]
            )
        )
        assert abs(report.map_avg - want_avg) < 1e-12


def test_mr_map_query_order_invariant():
    preds = [[(5.0, 15.0, 0.9)], [(0.0, 4.0, 0.8)], [(2.0, 9.0, 0.7)]]
    gts = [[(5.0, 15.0)], [(1.0, 5.0)], [(2.0, 9.0)]]
    a = _mr_report(preds, gts)
    b = M.evaluate(
        [(_sample([[0]], windows=gts[q], qid=q), preds[q], [0.0]) for q in (2, 1, 0)]
    )
    assert (a.map_050, a.map_075, a.map_avg) == (b.map_050, b.map_075, b.map_avg)


# ---------------------------------------------------------------------------
# HD metrics


def test_hd_perfect_ranking():
    sample = _sample([[4, 4], [4, 4], [0, 0], [1, 0]])
    report = _hd_report([0.9, 0.8, 0.1, 0.2], sample)
    assert (report.hd_map, report.hit_at_1) == (1.0, 1.0)


def test_hd_hand_case():
    sample = _sample([[4], [0]])
    report = _hd_report([0.1, 0.9], sample)
    assert abs(report.hd_map - 0.5) < 1e-12
    assert report.hit_at_1 == 0.0


def test_hd_annotator_without_positives_skipped():
    sample = _sample([[4, 1], [0, 1], [0, 0]])
    report = _hd_report([0.9, 0.5, 0.1], sample)
    assert (report.hd_map, report.hit_at_1) == (1.0, 1.0)  # only annotator 0 counts


def test_hd_no_positives_returns_none():
    sample = _sample([[1, 2], [0, 3]])
    report = _hd_report([0.5, 0.4], sample)
    assert report.hd_map is None and report.hit_at_1 is None and report.top5_map is None


def test_hd_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    ratings = [[int(r)] for r in rng.integers(0, 5, size=8)]
    if not any(r[0] == 4 for r in ratings):
        ratings[0] = [4]
    sample = _sample(ratings)
    scores = rng.standard_normal(8)
    a = _hd_report(scores, sample)
    b = _hd_report(np.exp(3 * scores), sample)  # strictly monotone map
    assert a == b


def test_hd_matches_oracle_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(50):
        L = int(rng.integers(2, 10))
        n_ann = int(rng.integers(1, 4))
        ratings = [[int(x) for x in rng.integers(0, 5, size=n_ann)] for _ in range(L)]
        sample = _sample(ratings)
        scores = rng.standard_normal(L)
        report = _hd_report(scores, sample)
        mat = np.array(ratings)
        order = np.argsort(-scores, kind="stable")
        want_aps, want_hits = [], []
        for a in range(n_ann):
            pos = mat[:, a] == 4
            if not pos.any():
                continue
            want_aps.append(oracle_ap([bool(pos[i]) for i in order], int(pos.sum())))
            want_hits.append(1.0 if pos[order[0]] else 0.0)
        if not want_aps:
            assert report.hd_map is None and report.hit_at_1 is None
            continue
        assert abs(report.hd_map - float(np.mean(want_aps))) < 1e-12
        assert abs(report.hit_at_1 - float(np.mean(want_hits))) < 1e-12


def test_hd_value_does_not_depend_on_group_size():
    # a query alone in its group once summed a strided view of its hit
    # flags in another order than a group of several: 0.7499999999999999
    sample = _sample([[0, 0], [0, 4], [0, 0], [0, 4], [0, 4], [0, 4], [0, 0], [0, 0]])
    scores = [0.1, 0.1, 0.1, 0.1, 0.1, 0.5, 0.1, 0.1]
    grouped = M._hd_tables([scores, scores], [sample, sample])[0]
    assert _hd_report(scores, sample).hd_map == grouped[0] == grouped[1] == 0.75


# ---------------------------------------------------------------------------
# top-5


def test_top5_all_positive():
    sample = _sample([[4]] * 5 + [[0]] * 3)
    scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.1, 0.1, 0.1]
    assert _hd_report(scores, sample).top5_map == 1.0


def test_top5_none_positive():
    sample = _sample([[0]] * 5 + [[4]] * 3)
    scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.1, 0.1, 0.1]
    assert _hd_report(scores, sample).top5_map == 0.0


def test_top5_alternating_matches_oracle():
    sample = _sample([[4], [0], [4], [0], [4], [0]])
    scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.1]
    got = _hd_report(scores, sample).top5_map
    # top-5 list flags: [T, F, T, F, T], positives within list = 3
    want = oracle_ap([True, False, True, False, True], 3)
    assert got is not None and abs(got - want) < 1e-12


def test_top5_short_videos_use_all_clips():
    sample = _sample([[4], [0], [4]])
    got = _hd_report([0.3, 0.2, 0.1], sample).top5_map
    want = oracle_ap([True, False, True], 2)
    assert got is not None and abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# report


def test_evaluate_assembles_report_and_respects_order():
    samples = [
        _sample([[4], [0]], windows=((0.0, 2.0),), qid=2),
        _sample([[0], [4]], windows=((2.0, 4.0),), qid=1),
    ]
    results = [
        (samples[0], [(0.0, 2.0, 0.9)], [0.9, 0.1]),
        (samples[1], [(2.0, 4.0, 0.8)], [0.2, 0.7]),
    ]
    a = M.evaluate(results)
    b = M.evaluate(results[::-1])
    assert a == b
    assert a.r1_050 == 1.0
    assert a.hd_map == 1.0 and a.hit_at_1 == 1.0
    d = a.to_dict()
    assert set(d) == {
        "r1_050", "r1_070", "map_050", "map_075", "map_avg",
        "hd_map", "hit_at_1", "top5_map",
    }
    assert all(0.0 <= v <= 1.0 for v in d.values())


def test_evaluate_omits_undefined_hd_fields():
    sample = _sample([[1], [0]], windows=((0.0, 2.0),))
    report = M.evaluate([(sample, [(0.0, 2.0, 0.9)], [0.9, 0.1])])
    d = report.to_dict()
    assert "hd_map" not in d and "hit_at_1" not in d and "top5_map" not in d
    assert "r1_050" in d


# ---------------------------------------------------------------------------
# batched evaluation against the benchmark's oracle and one-query reports

import importlib.util  # noqa: E402
from pathlib import Path  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

_ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE_PATH)
bench_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_oracle)

# Few distinct values, so that scores tie and spans repeat.
_TIED = st.sampled_from([0.1, 0.5, 0.5, 0.9])


@st.composite
def _query(draw, qid):
    clip_len = 2.0
    num_clips = draw(st.integers(min_value=2, max_value=9))
    duration = clip_len * num_clips
    grid = st.integers(min_value=0, max_value=2 * num_clips)  # half-clip steps
    windows = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        a, b = sorted(draw(st.lists(grid, min_size=2, max_size=2, unique=True)))
        windows.append((a / 2 * clip_len, b / 2 * clip_len))
    spans = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        a, b = sorted(draw(st.lists(grid, min_size=2, max_size=2)))  # a == b: zero length
        spans.append([a / 2 * clip_len, b / 2 * clip_len, draw(_TIED)])
    annotators = draw(st.integers(min_value=1, max_value=3))
    # annotator 0 may rate nothing 4; the others draw any rating
    ratings = [
        [draw(st.integers(min_value=-1, max_value=3))]
        + [draw(st.integers(min_value=-1, max_value=4)) for _ in range(annotators - 1)]
        for _ in range(num_clips)
    ]
    sample = QuerySample(
        qid=qid, vid=f"v{qid}", query_text="q", duration=duration, clip_len=clip_len,
        relevant_windows=tuple(windows), saliency=tuple(map(tuple, ratings)),
    )
    saliency = [draw(_TIED) for _ in range(num_clips)]
    return sample, spans, saliency


@st.composite
def _batch(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    qids = draw(st.permutations(range(count)))
    return [draw(_query(qid)) for qid in qids]


def _oracle_top5(saliency, ratings):
    ranked = sorted(range(len(saliency)), key=lambda i: (-saliency[i], i))[:5]
    aps = []
    for a in range(len(ratings[0])):
        if any(row[a] == 4 for row in ratings):
            hits = [ratings[i][a] == 4 for i in ranked]
            aps.append(bench_oracle.average_precision(hits, sum(hits)))
    return aps


@given(_batch())
@settings(max_examples=150, deadline=None)
def test_evaluate_matches_oracle(batch):
    report = M.evaluate(batch).to_dict()
    records = [
        {"qid": s.qid, "pred_relevant_windows": spans, "pred_saliency_scores": sal}
        for s, spans, sal in batch
    ]
    expected = bench_oracle.evaluate(records, {s.qid: s for s, _, _ in batch})
    assert bench_oracle.metric_problems(report, expected) == []
    assert ("hd_map" in report) == ("hd_map" in expected)
    per_query = [_oracle_top5(sal, s.saliency) for s, _, sal in batch]
    per_query = [sum(aps) / len(aps) for aps in per_query if aps]
    if per_query:
        assert abs(report["top5_map"] - sum(per_query) / len(per_query)) <= 1e-12
    else:
        assert "top5_map" not in report


@given(_batch())
@settings(max_examples=60, deadline=None)
def test_batch_values_are_the_one_query_values(batch):
    """Queries of different clip, span and window counts are scored in
    separate groups; every query's value must come back to its own slot."""
    samples = [s for s, _, _ in batch]
    preds = [spans for _, spans, _ in batch]
    gts = [s.relevant_windows for s in samples]
    ap, top_iou = M._mr_tables(preds, gts)
    hd_ap, hit, top5 = M._hd_tables([sal for _, _, sal in batch], samples)
    for q, (sample, spans, saliency) in enumerate(batch):
        one = M.evaluate([(sample, spans, saliency)])
        assert (ap[0, q], ap[5, q], ap[:, q].mean()) == (one.map_050, one.map_075, one.map_avg)
        assert (one.r1_050, one.r1_070) == (float(top_iou[q] >= 0.5), float(top_iou[q] >= 0.7))
        defined = not np.isnan(hd_ap[q])
        assert (one.hd_map, one.hit_at_1) == ((hd_ap[q], hit[q]) if defined else (None, None))
        assert one.top5_map == (top5[q] if defined else None)


def test_zero_length_span_scores_zero():
    sample = _sample([[0]] * 8, windows=((4.0, 8.0),))
    report = M.evaluate([(sample, [[5.0, 5.0, 0.9], [4.0, 8.0, 0.5]], [0.0] * 8)])
    assert report.r1_050 == 0.0
    assert abs(report.map_050 - 0.5) < 1e-12


def test_ap_kernel_rows_match_oracle():
    rng = np.random.default_rng(4)
    hits = rng.random((40, 9)) < 0.4
    positives = hits.sum(axis=1) + rng.integers(0, 3, size=40)
    got = M.average_precision(hits, positives)
    for row, p, value in zip(hits, positives, got):
        assert abs(value - oracle_ap(row.tolist(), int(p))) < 1e-12
