"""The benchmark's own metric and gradient checks against hand-computed cases."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
from mrhd import trainer  # noqa: E402
from mrhd.data import Dataset, FeatureBundle, QuerySample  # noqa: E402


def _sample(qid, ratings, window=(0.0, 10.0), clip_len=5.0):
    return QuerySample(
        qid=qid, vid=f"v{qid}", query_text="q", duration=clip_len * len(ratings),
        clip_len=clip_len, relevant_windows=(window,), saliency=tuple(map(tuple, ratings)),
    )


# Query 0: the top span is the window itself. Query 1: the top span misses
# and the second one has IoU 0.8. Annotator 0 of query 0 rates clips 0 and
# 1 as 4, annotator 1 only clip 1, annotator 2 none; query 1 has no 4.
SAMPLES = {
    0: _sample(0, [(4, 3, -1), (4, 4, 0), (0, 1, 0), (1, 0, 0)]),
    1: _sample(1, [(3, 3, 3), (2, 3, 2), (0, 1, 0), (1, 0, 0)]),
}
RECORDS = [
    {"qid": 0, "pred_relevant_windows": [[0.0, 10.0, 0.9], [10.0, 20.0, 0.5]],
     "pred_saliency_scores": [0.1, 0.9, 0.5, 0.2]},
    {"qid": 1, "pred_relevant_windows": [[10.0, 20.0, 0.9], [0.0, 8.0, 0.8]],
     "pred_saliency_scores": [0.4, 0.3, 0.2, 0.1]},
]


def test_iou_hand_values():
    assert oracle.iou((0.0, 10.0), (5.0, 15.0)) == pytest.approx(1 / 3, abs=1e-15)
    assert oracle.iou((0.0, 1.0), (2.0, 3.0)) == 0.0
    assert oracle.iou((3.0, 7.0), (3.0, 7.0)) == 1.0


def test_average_precision_hand_values():
    # precisions 1, 1/2, 2/3: the hit at rank 1 counts 1, the one at rank 3 counts 2/3
    assert oracle.average_precision([True, False, True], 2) == pytest.approx(5 / 6, abs=1e-15)
    assert oracle.average_precision([False, True, False], 1) == 0.5
    # precisions 1, 1/2, 1/3, 1/2, 3/5: the hit at rank 4 takes rank 5's 3/5
    assert oracle.average_precision([True, False, False, True, True], 3) == pytest.approx(
        (1 + 0.6 + 0.6) / 3, abs=1e-15
    )
    assert oracle.average_precision([False, False], 0) == 0.0


def test_evaluate_hand_case():
    got = oracle.evaluate(RECORDS, SAMPLES)
    # thresholds 0.50-0.80 (7): APs 1 and 1/2; 0.85-0.95 (3): APs 1 and 0
    want = {
        "r1_050": 0.5, "r1_070": 0.5, "map_050": 0.75, "map_075": 0.75,
        "map_avg": (7 * 0.75 + 3 * 0.5) / 10,
        # query 0: annotator 0 AP (1 + 2/4) / 2, annotator 1 AP 1; query 1 left out
        "hd_map": (0.75 + 1.0) / 2, "hit_at_1": 1.0,
    }
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=1e-15), key


def test_program_report_matches_oracle_on_hand_case():
    ds = Dataset(samples=[(s, FeatureBundle(np.zeros((4, 1)), np.zeros((1, 1)))) for s in SAMPLES.values()])
    report = trainer.evaluate_predictions(RECORDS, ds).to_dict()
    assert oracle.metric_problems(report, oracle.evaluate(RECORDS, SAMPLES)) == []
    assert oracle.metric_problems({**report, "hit_at_1": 0.5}, oracle.evaluate(RECORDS, SAMPLES))


def test_record_problems_flags_each_defect():
    assert oracle.record_problems(RECORDS, SAMPLES) == []
    assert oracle.record_problems(RECORDS[:1], SAMPLES)  # qid 1 missing
    assert oracle.record_problems(RECORDS + RECORDS[:1], SAMPLES)  # qid 0 twice
    bad = [dict(RECORDS[0], pred_relevant_windows=[[0.0, 30.0, 0.9]]), RECORDS[1]]
    assert oracle.record_problems(bad, SAMPLES)  # past the video's end
    bad = [dict(RECORDS[0], pred_relevant_windows=[[0.0, 5.0, 0.1], [5.0, 9.0, 0.2]]), RECORDS[1]]
    assert oracle.record_problems(bad, SAMPLES)  # not ranked
    bad = [dict(RECORDS[0], pred_saliency_scores=[0.1, float("nan"), 0.0, 0.0]), RECORDS[1]]
    assert oracle.record_problems(bad, SAMPLES)  # not finite
    bad = [dict(RECORDS[0], pred_saliency_scores=[0.1]), RECORDS[1]]
    assert oracle.record_problems(bad, SAMPLES)  # not one per clip


def _quadratic_params(grad_scale):
    x = SimpleNamespace(data=np.array([0.5, -1.5, 2.0]))
    x.grad = grad_scale * 2.0 * x.data
    return {"x": x}


def test_gradient_problems_accepts_right_and_flags_wrong_gradients():
    params = _quadratic_params(1.0)
    problems, compared = oracle.gradient_problems(
        lambda: float(np.sum(params["x"].data ** 2)), params, np.random.default_rng(0), 4
    )
    assert (problems, compared) == ([], 4)
    params = _quadratic_params(1.01)
    problems, _ = oracle.gradient_problems(
        lambda: float(np.sum(params["x"].data ** 2)), params, np.random.default_rng(0), 4
    )
    assert len(problems) == 4


def test_gradient_problems_skips_entries_on_a_kink():
    # relu's kink lies within GRAD_STEP = 1e-5 of entry 0, so the central difference
    # there is 0.75, not 1: the check must draw again, not fail
    x = SimpleNamespace(data=np.array([0.5e-5, 3.0]), grad=np.array([1.0, 1.0]))
    params = {"x": x}
    problems, compared = oracle.gradient_problems(
        lambda: float(np.sum(np.maximum(x.data, 0.0))), params, np.random.default_rng(1), 3
    )
    assert (problems, compared) == ([], 3)
