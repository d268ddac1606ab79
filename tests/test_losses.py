"""Losses: assignment oracle, span costs, gIoU, saliency hinge, total."""

import itertools
import math

import numpy as np
import pytest

from mrhd import losses as LS
from mrhd import tensor as T
from mrhd.data import QuerySample
from mrhd.gradcheck import check_gradients
from mrhd.tensor import ContractError, Tensor


def brute_force_assignment(cost: np.ndarray) -> float:
    m, g = cost.shape
    best = math.inf
    for perm in itertools.permutations(range(m), g):
        best = min(best, sum(cost[perm[j], j] for j in range(g)))
    return best


def _match_cost(cost, pairs):
    return sum(cost[p, g] for p, g in pairs)


def test_hungarian_identity_complement():
    assert LS.hungarian_match(np.array([[0.0, 1.0], [1.0, 0.0]])) == [(0, 0), (1, 1)]


def test_hungarian_hand_case():
    cost = np.array([[1.0, 2.0], [3.0, 1.0]])
    pairs = LS.hungarian_match(cost)
    assert pairs == [(0, 0), (1, 1)]
    assert _match_cost(cost, pairs) == 2.0


def test_hungarian_tie_prefers_low_prediction_index():
    assert LS.hungarian_match(np.ones((3, 3))) == [(0, 0), (1, 1), (2, 2)]


def test_hungarian_rectangular_leaves_predictions_unmatched():
    cost = np.array([[5.0], [1.0], [3.0]])
    assert LS.hungarian_match(cost) == [(1, 0)]  # predictions 0 and 2 are left unmatched


def test_hungarian_pairs_come_in_ground_truth_order():
    """Ground truth 0 takes prediction 2 and ground truth 1 prediction 0:
    the pairs are listed by ground truth, not by prediction."""
    cost = np.array([[9.0, 0.0], [9.0, 9.0], [0.0, 9.0]])
    assert LS.hungarian_match(cost) == [(2, 0), (0, 1)]


def test_hungarian_more_gts_than_preds_rejected():
    with pytest.raises(ContractError):
        LS.hungarian_match(np.ones((2, 3)))


def test_hungarian_nonfinite_rejected():
    with pytest.raises(ContractError):
        LS.hungarian_match(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_hungarian_matches_brute_force_square():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        cost = rng.standard_normal((n, n)) * 10
        pairs = LS.hungarian_match(cost)
        assert len(pairs) == n
        assert {g for _, g in pairs} == set(range(n))
        assert abs(_match_cost(cost, pairs) - brute_force_assignment(cost)) < 1e-9


def test_hungarian_matches_brute_force_rectangular():
    rng = np.random.default_rng(1)
    for _ in range(30):
        g = int(rng.integers(1, 4))
        m = int(rng.integers(g, 7))
        cost = rng.standard_normal((m, g)) * 5
        pairs = LS.hungarian_match(cost)
        assert abs(_match_cost(cost, pairs) - brute_force_assignment(cost)) < 1e-9


# ---------------------------------------------------------------------------
# gIoU


def _giou_value(a, b):
    s1, e1 = a
    s2, e2 = b
    t = LS.giou_1d(
        Tensor(np.array([[s1]])), Tensor(np.array([[e1]])),
        Tensor(np.array([[s2]])), Tensor(np.array([[e2]])),
    )
    return t.data[0, 0]


def test_giou_identical_is_one():
    assert abs(_giou_value((0.3, 0.7), (0.3, 0.7)) - 1.0) < 1e-12


def test_giou_disjoint_hand_value():
    assert abs(_giou_value((0.0, 0.2), (0.8, 1.0)) - (-0.6)) < 1e-12


def test_giou_equals_iou_under_containment():
    giou = _giou_value((0.2, 0.8), (0.3, 0.5))
    iou = 0.2 / 0.6
    assert abs(giou - iou) < 1e-12


def test_giou_range_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s1, s2 = rng.uniform(0, 0.8, size=2)
        w1, w2 = rng.uniform(0.05, 0.2, size=2)
        v = _giou_value((s1, s1 + w1), (s2, s2 + w2))
        assert -1.0 < v <= 1.0 + 1e-12


def test_giou_gradient():
    rng = np.random.default_rng(4)
    arrays = [
        rng.uniform(0.0, 0.4, (3, 1)), rng.uniform(0.5, 0.9, (3, 1)),
        rng.uniform(0.0, 0.4, (3, 1)), rng.uniform(0.5, 0.9, (3, 1)),
    ]

    def build(ts):
        return T.tsum(LS.giou_1d(*ts))

    assert check_gradients(build, arrays) < 1e-4


# ---------------------------------------------------------------------------
# span cost and loss


def _decoder_out(cw, scores):
    """The decoder's (M, 2) spans and (M,) scores as leaves that need grad."""
    return (
        Tensor(np.asarray(cw, dtype=float), requires_grad=True),
        Tensor(np.asarray(scores, dtype=float), requires_grad=True),
    )


def _cost(out, windows, duration, weights):
    cw, scores = out
    gt_cw = LS.windows_to_center_width(windows, duration)
    return LS._span_cost(cw.data, scores.data, gt_cw, weights)


def test_span_loss_perfect_prediction_has_zero_span_terms():
    gt = [(10.0, 30.0)]
    duration = 40.0
    out = _decoder_out([[0.5, 0.5], [0.2, 0.1]], [0.999999, 0.2])
    weights = LS.LossWeights(l1=10.0, giou=1.0, cls=0.0)
    mom = LS.span_cost_and_loss(*out, LS.windows_to_center_width(gt, duration), weights)
    assert LS.hungarian_match(_cost(out, gt, duration, weights)) == [(0, 0)]
    assert mom.item() < 1e-9


def test_span_cost_prefers_confident_overlapping_pred():
    gt = [(0.0, 50.0)]
    out = _decoder_out([[0.25, 0.5], [0.75, 0.5]], [0.9, 0.9])
    cost = _cost(out, gt, 100.0, LS.LossWeights())
    assert cost.shape == (2, 1)
    assert cost[0, 0] < cost[1, 0]
    assert LS.hungarian_match(cost) == [(0, 0)]


def test_span_loss_degenerate_gt_rejected():
    out = _decoder_out([[0.5, 0.5]], [0.5])
    with pytest.raises(ContractError):
        LS.span_cost_and_loss(*out, LS.windows_to_center_width([(20.0, 20.0)], 40.0), LS.LossWeights())


def test_span_loss_unmatched_preds_pushed_to_background():
    gt = [(10.0, 30.0)]
    out = _decoder_out([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5])
    mom = LS.span_cost_and_loss(*out, LS.windows_to_center_width(gt, 40.0), LS.LossWeights())
    mom.backward()
    grads = out[1].grad
    matched = LS.hungarian_match(_cost(out, gt, 40.0, LS.LossWeights()))[0][0]
    other = 1 - matched
    assert grads[matched] < 0  # push matched score up
    assert grads[other] > 0  # push unmatched score down


def _loop_span_cost(cw, scores, gt_cw, weights):
    """The per-pair cost as a double loop over scalars: the reference the
    broadcast cost must equal bit for bit."""

    def giou(s1, e1, s2, e2):
        inter = max(0.0, min(e1, e2) - max(s1, s2))
        union = (e1 - s1) + (e2 - s2) - inter
        hull = max(e1, e2) - min(s1, s2)
        return inter / union - (hull - union) / hull

    cost = np.zeros((cw.shape[0], gt_cw.shape[0]))
    for i in range(cw.shape[0]):
        for j in range(gt_cw.shape[0]):
            l1 = np.abs(cw[i] - gt_cw[j]).sum()
            g = giou(
                cw[i, 0] - cw[i, 1] / 2, cw[i, 0] + cw[i, 1] / 2,
                gt_cw[j, 0] - gt_cw[j, 1] / 2, gt_cw[j, 0] + gt_cw[j, 1] / 2,
            )
            cost[i, j] = weights.l1 * l1 + weights.giou * (1.0 - g) - weights.cls * scores[i]
    return cost


@pytest.mark.parametrize("num_pred, windows", [
    (1, [(10.0, 30.0)]),
    (5, [(0.0, 40.0)]),
    (10, [(5.0, 15.0), (20.0, 35.0)]),
    (10, [(0.0, 2.0), (2.0, 4.0), (30.0, 40.0)]),
])
def test_span_cost_equals_double_loop(num_pred, windows):
    duration = 40.0
    rng = np.random.default_rng(num_pred + len(windows))
    weights = LS.LossWeights(l1=10.0, giou=1.0, cls=4.0)
    gt_cw = LS.windows_to_center_width(windows, duration)
    for trial in range(5):
        cw = 1.0 / (1.0 + np.exp(-2.0 * rng.standard_normal((num_pred, 2))))
        if trial == 0:  # exact overlaps, shared edges and ties between predictions
            cw[:] = gt_cw[rng.integers(len(windows), size=num_pred)]
        scores = rng.uniform(0.0, 1.0, size=num_pred)
        cost = _cost(_decoder_out(cw, scores), windows, duration, weights)
        want = _loop_span_cost(cw, scores, gt_cw, weights)
        assert cost.shape == want.shape
        assert (cost == want).all()


def test_span_loss_gradients_match_finite_differences():
    gt = [(5.0, 15.0), (20.0, 35.0)]
    duration = 40.0
    rng = np.random.default_rng(5)
    cw = rng.uniform(0.2, 0.8, size=(4, 2))
    sc = rng.uniform(0.2, 0.8, size=4)
    weights = LS.LossWeights()

    def build(ts):
        return LS.span_cost_and_loss(ts[0], ts[1], LS.windows_to_center_width(gt, duration), weights)

    assert check_gradients(build, [cw, sc]) < 1e-4


# ---------------------------------------------------------------------------
# saliency


def _sample_with_ratings(ratings):
    L = len(ratings)
    return QuerySample(
        qid=5,
        vid="v",
        query_text="q",
        duration=2.0 * L,
        clip_len=2.0,
        relevant_windows=((0.0, 2.0),),
        saliency=tuple(tuple(r) for r in ratings),
    )


def test_saliency_hand_case():
    sample = _sample_with_ratings([[4], [0]])
    h = Tensor(np.array([0.0, 0.1]))
    h_bar = Tensor(np.array([0.0, 0.1]))
    loss = LS.saliency_loss(h, h_bar, LS.saliency_pairs(sample, 0))
    assert abs(loss.item() - 0.6) < 1e-12  # 0.3 per head


def test_saliency_identical_scores_cost_margin():
    sample = _sample_with_ratings([[4], [0], [0]])
    h = Tensor(np.zeros(3))
    loss = LS.saliency_loss(h, Tensor(np.zeros(3)), LS.saliency_pairs(sample, 0))
    assert abs(loss.item() - 0.4) < 1e-12  # 0.2 margin per head


def test_saliency_satisfied_margin_is_zero():
    sample = _sample_with_ratings([[4], [0]])
    h = Tensor(np.array([1.0, 0.0]))
    loss = LS.saliency_loss(h, Tensor(np.array([2.0, 0.0])), LS.saliency_pairs(sample, 0))
    assert loss.item() == 0.0


def test_saliency_averages_over_violated_pairs_only():
    sample = _sample_with_ratings([[4], [0], [0]])
    # pair (0, 1) is inside the margin by 1.2, pair (0, 2) clears it
    h = Tensor(np.array([0.0, 1.0, -1.0]))
    loss = LS.saliency_loss(h, Tensor(np.array([0.0, 1.0, -1.0])), LS.saliency_pairs(sample, 0))
    assert abs(loss.item() - 2.4) < 1e-12  # 1.2 per head, not diluted to 0.6


def test_saliency_no_pairs_is_zero():
    sample = _sample_with_ratings([[2], [2]])
    loss = LS.saliency_loss(Tensor(np.zeros(2)), Tensor(np.zeros(2)), LS.saliency_pairs(sample, 0))
    assert loss.item() == 0.0


def test_saliency_unannotated_clips_excluded():
    sample = _sample_with_ratings([[4, -1], [-1, -1], [0, 0]])
    pairs = LS.saliency_pairs(sample, seed=0)
    assert (0, 2) in pairs
    assert all(1 not in p for p in pairs)


def test_saliency_pair_cap_is_seeded():
    ratings = [[4]] * 8 + [[0]] * 8  # 64 candidate pairs
    sample = _sample_with_ratings(ratings)
    a = LS.saliency_pairs(sample, seed=3)
    b = LS.saliency_pairs(sample, seed=3)
    c = LS.saliency_pairs(sample, seed=4)
    assert len(a) == 16 and a == b
    assert a != c


def _comprehension_pairs(sample, seed, max_pairs=16):
    """Pair sampling as a comprehension over all L x L clip pairs with a
    per-clip mean: the reference the vectorised version must equal."""
    means = np.full(sample.num_clips, np.nan)
    for i, ratings in enumerate(sample.saliency):
        vals = [r for r in ratings if r >= 0]
        if vals:
            means[i] = float(np.mean(vals))
    pairs = [
        (i, j)
        for i in range(len(means))
        for j in range(len(means))
        if not np.isnan(means[i]) and not np.isnan(means[j]) and means[i] - means[j] >= 1.0
    ]
    if len(pairs) > max_pairs:
        rng = np.random.default_rng([seed, sample.qid])
        keep = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[k] for k in sorted(keep)]
    return means, pairs


@pytest.mark.parametrize("num_clips", [1, 2, 16, 45, 75])
def test_saliency_pairs_equal_comprehension(num_clips):
    rng = np.random.default_rng(num_clips)
    sizes = set()
    for trial in range(12):
        annotators = int(rng.integers(1, 4))
        # few distinct levels give ties; -1 gives partly and wholly unannotated clips
        levels = [-1, 0, 4] if trial % 3 == 0 else [-1, 0, 1, 2, 3, 4]
        ratings = rng.choice(levels, size=(num_clips, annotators))
        if trial % 2:  # all but about four clips unannotated: under the cap
            ratings[rng.random(num_clips) >= 4.0 / num_clips] = -1
        sample = _sample_with_ratings(ratings.tolist())
        for seed in (0, 1, 17):
            means, want = _comprehension_pairs(sample, seed)
            got = LS.saliency_pairs(sample, seed)
            assert got == want
            assert all(type(i) is int and type(j) is int for i, j in got)
            np.testing.assert_array_equal(LS.rating_means(sample), means)
        sizes.add(len(_comprehension_pairs(sample, 0, max_pairs=num_clips**2)[1]))
    assert min(sizes) < 16
    assert max(sizes) > 16 or num_clips < 16


def test_saliency_nonnegative_property():
    rng = np.random.default_rng(7)
    for trial in range(20):
        ratings = [[int(rng.integers(0, 5))] for _ in range(6)]
        sample = _sample_with_ratings(ratings)
        h = Tensor(rng.standard_normal(6))
        hb = Tensor(rng.standard_normal(6))
        assert LS.saliency_loss(h, hb, LS.saliency_pairs(sample, trial)).item() >= 0.0


def test_saliency_gradient():
    sample = _sample_with_ratings([[4], [3], [0], [1]])
    rng = np.random.default_rng(8)

    def build(ts):
        return LS.saliency_loss(ts[0], ts[1], LS.saliency_pairs(sample, 1))

    arrays = [rng.standard_normal(4), rng.standard_normal(4)]
    assert check_gradients(build, arrays) < 1e-4


# ---------------------------------------------------------------------------
# total


def test_total_loss_arithmetic():
    total, bd = LS.total_loss(
        Tensor(1.0), Tensor(2.0), Tensor(3.0), Tensor(4.0), lambda_lg=0.3
    )
    assert abs(bd.total - 5.1) < 1e-12
    assert bd.total == total.item()


def test_total_loss_zero_lambda_exact():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m, h, l, g = rng.standard_normal(4)
        total, bd = LS.total_loss(Tensor(m), Tensor(h), Tensor(l), Tensor(g), 0.0)
        assert total.item() == m + h
        assert bd.total == bd.mom + bd.high


def test_total_loss_recomposition_bit_exact():
    rng = np.random.default_rng(10)
    for _ in range(20):
        m, h, l, g = rng.standard_normal(4) * 3
        lam = float(rng.uniform(0, 1))
        total, bd = LS.total_loss(Tensor(m), Tensor(h), Tensor(l), Tensor(g), lam)
        assert abs(bd.total - (bd.mom + bd.high + lam * (bd.local + bd.global_))) <= 1e-12


def test_total_loss_linear_in_lambda():
    m, h, l, g = 1.0, 2.0, 0.7, 0.9
    t0 = LS.total_loss(Tensor(m), Tensor(h), Tensor(l), Tensor(g), 0.0)[1].total
    t1 = LS.total_loss(Tensor(m), Tensor(h), Tensor(l), Tensor(g), 1.0)[1].total
    t_half = LS.total_loss(Tensor(m), Tensor(h), Tensor(l), Tensor(g), 0.5)[1].total
    assert abs((t1 - t0) - (l + g)) < 1e-12
    assert abs(t_half - (t0 + 0.5 * (l + g))) < 1e-12
