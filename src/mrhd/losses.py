"""Set-prediction matching and every training loss.

Moment supervision follows the set-prediction recipe: build a pairwise
cost between the M predicted spans and the G ground-truth windows
(L1 distance on normalized center/width, one minus generalized IoU, and
a bonus for confident predictions), solve the assignment exactly with
the Kuhn-Munkres potentials algorithm, then charge span regression on
the matched pairs and a foreground/background cross-entropy on all M
scores.

Highlight supervision is a margin ranking hinge over sampled pairs of
clips whose mean annotator ratings differ by at least one, averaged over
the pairs that still violate the margin and applied to both the initial
and the refined score vectors.

The total combines the two task losses with the alignment regularizers
scaled by one coefficient, and the reported breakdown recomposes to the
total bit-exactly because it is assembled in the same operation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .align import bce_terms
from .data import QuerySample
from .tensor import ContractError, Tensor

MAX_SALIENCY_PAIRS = 16
SALIENCY_MARGIN = 0.2


@dataclass
class LossWeights:
    l1: float = 10.0
    giou: float = 1.0
    cls: float = 4.0
    saliency: float = 1.0


@dataclass
class LossBreakdown:
    """Scalar loss parts; total recomposes as mom + high + lg*(local+global)."""

    mom: float
    high: float
    local: float
    global_: float
    lambda_lg: float
    total: float


# ---------------------------------------------------------------------------
# assignment


def hungarian_match(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one assignment of G ground truths to M predictions.

    ``cost`` is (M, G) with G <= M. Kuhn-Munkres with potentials, O(G*M^2).
    Ties resolve toward lower prediction indices through the strict-less
    scan order. Returns the (prediction, ground truth) pairs in
    ground-truth order.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ContractError(f"cost must be 2-D, got shape {cost.shape}")
    num_pred, num_gt = cost.shape
    if num_gt > num_pred:
        raise ContractError(f"more ground truths ({num_gt}) than predictions ({num_pred})")
    if not np.all(np.isfinite(cost)):
        raise ContractError("cost matrix contains non-finite entries")

    c = cost.T  # rows = ground truths
    n, m = num_gt, num_pred
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    assigned = [0] * (m + 1)  # assigned[j] = gt (1-based) using prediction j
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        assigned[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = assigned[j0]
            delta = INF
            j1 = -1
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = c[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[assigned[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if assigned[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            assigned[j0] = assigned[j1]
            j0 = j1

    return sorted(
        ((j - 1, assigned[j] - 1) for j in range(1, m + 1) if assigned[j] != 0),
        key=lambda pg: pg[1],
    )


# ---------------------------------------------------------------------------
# differentiable interval helpers (same-shape tensors)


def _tmin(a: Tensor, b: Tensor) -> Tensor:
    return T.sub(a, T.relu(T.sub(a, b)))


def _tmax(a: Tensor, b: Tensor) -> Tensor:
    return T.add(a, T.relu(T.sub(b, a)))


def _tabs(x: Tensor) -> Tensor:
    return T.add(T.relu(x), T.relu(T.scale(x, -1.0)))


def giou_1d(s1: Tensor, e1: Tensor, s2: Tensor, e2: Tensor) -> Tensor:
    """Generalized IoU of 1-D intervals: IoU minus the hull's dead fraction.

    Built from relu compositions so it stays differentiable; callers
    guarantee positive widths, which keeps union and hull positive.
    """
    inter = T.relu(T.sub(_tmin(e1, e2), _tmax(s1, s2)))
    union = T.sub(T.add(T.sub(e1, s1), T.sub(e2, s2)), inter)
    hull = T.sub(_tmax(e1, e2), _tmin(s1, s2))
    iou = T.div(inter, union)
    return T.sub(iou, T.div(T.sub(hull, union), hull))


def windows_to_center_width(windows, duration: float) -> np.ndarray:
    """Ground-truth (start, end) seconds to normalized (center, width) rows."""
    out = np.zeros((len(windows), 2))
    for g, (start, end) in enumerate(windows):
        width = (end - start) / duration
        if width <= 0:
            raise ContractError(f"degenerate ground-truth window [{start}, {end}]")
        out[g] = ((start + end) / 2.0 / duration, width)
    return out


# ---------------------------------------------------------------------------
# moment loss


def _span_cost(
    cw: np.ndarray, scores: np.ndarray, gt_cw: np.ndarray, weights: LossWeights
) -> np.ndarray:
    """(M, G) cost of (center, width) predictions against ground truths:
    l1 * ||cw_p - cw_g||_1 + giou * (1 - gIoU) - cls * score."""
    # (M, 1) predictions against (1, G) ground truths
    c1, w1 = cw[:, 0:1], cw[:, 1:2]
    c2, w2 = gt_cw[None, :, 0], gt_cw[None, :, 1]
    l1 = np.abs(c1 - c2) + np.abs(w1 - w2)
    s1, e1 = c1 - w1 / 2, c1 + w1 / 2
    s2, e2 = c2 - w2 / 2, c2 + w2 / 2
    inter = np.maximum(0.0, np.minimum(e1, e2) - np.maximum(s1, s2))
    union = (e1 - s1) + (e2 - s2) - inter
    hull = np.maximum(e1, e2) - np.minimum(s1, s2)
    giou = inter / union - (hull - union) / hull
    return weights.l1 * l1 + weights.giou * (1.0 - giou) - weights.cls * scores[:, None]


def span_cost_and_loss(
    center_width: Tensor, scores: Tensor, gt_cw, weights: LossWeights
) -> Tensor:
    """The moment loss of the decoder's (..., M, 2) spans and (..., M) scores
    against each sample's (G, 2) ground truths ``gt_cw`` (shape (..., G, 2),
    from ``windows_to_center_width``): one loss per sample.

    Matches each sample by ``_span_cost`` (numpy, detached), then charges
    (graph) the matched-pair means of the L1 and gIoU terms plus a
    foreground cross-entropy over all M scores (matched -> 1).
    """
    gt_cw = np.asarray(gt_cw, dtype=np.float64)
    batch, num_gt = scores.shape[:-1], gt_cw.shape[-2]
    pairs = [
        hungarian_match(_span_cost(cw, sc, gt, weights))
        for cw, sc, gt in zip(
            center_width.data.reshape((-1,) + center_width.shape[-2:]),
            scores.data.reshape((-1,) + scores.shape[-1:]),
            gt_cw.reshape((-1,) + gt_cw.shape[-2:]),
        )
    ]
    pred_order = np.reshape([[p for p, _ in pp] for pp in pairs], batch + (num_gt,))
    gt_order = np.reshape([[g_ for _, g_ in pp] for pp in pairs], batch + (num_gt, 1))
    target_cw = np.take_along_axis(gt_cw, gt_order, axis=-2)

    matched_cw = T.gather_rows(center_width, pred_order)
    l1_term = T.tmean(T.tsum(_tabs(T.sub(matched_cw, Tensor(target_cw))), axis=-1), axis=-1)

    c_p = T.slice_range(matched_cw, 0, 1, axis=-1)
    w_p = T.slice_range(matched_cw, 1, 2, axis=-1)
    s_p = T.sub(c_p, T.scale(w_p, 0.5))
    e_p = T.add(c_p, T.scale(w_p, 0.5))
    gt_s = Tensor((target_cw[..., 0] - target_cw[..., 1] / 2)[..., None])
    gt_e = Tensor((target_cw[..., 0] + target_cw[..., 1] / 2)[..., None])
    giou = T.add_scalar(T.scale(giou_1d(s_p, e_p, gt_s, gt_e), -1.0), 1.0)
    giou_term = T.tmean(T.reshape(giou, batch + (num_gt,)), axis=-1)

    targets = np.zeros(scores.shape)
    np.put_along_axis(targets, pred_order, 1.0, axis=-1)
    cls_term = T.tmean(bce_terms(scores, targets), axis=-1)

    return T.add(
        T.add(T.scale(l1_term, weights.l1), T.scale(giou_term, weights.giou)),
        T.scale(cls_term, weights.cls),
    )


# ---------------------------------------------------------------------------
# highlight loss


def rating_means(sample: QuerySample) -> np.ndarray:
    """Per-clip mean over annotators, ignoring -1 entries; NaN when a clip
    has no annotations at all."""
    ratings = np.asarray(sample.saliency, dtype=np.float64)  # (L, A)
    rated = ratings >= 0
    counts = rated.sum(axis=1)
    means = np.full(len(ratings), np.nan)
    np.divide(np.where(rated, ratings, 0.0).sum(axis=1), counts, out=means, where=counts > 0)
    return means


def saliency_pairs(sample: QuerySample, seed: int) -> list[tuple[int, int]]:
    """(high, low) clip index pairs with mean-rating gap >= 1, capped at
    ``MAX_SALIENCY_PAIRS`` by seeded sampling. Pairs come in row-major
    (high, low) order, which the seeded subset indexes into."""
    means = rating_means(sample)
    valid = ~np.isnan(means)
    mask = valid[:, None] & valid[None, :] & (means[:, None] - means[None, :] >= 1.0)
    high, low = np.nonzero(mask)
    if high.size > MAX_SALIENCY_PAIRS:
        rng = np.random.default_rng([seed, sample.qid])
        keep = np.sort(rng.choice(high.size, size=MAX_SALIENCY_PAIRS, replace=False))
        high, low = high[keep], low[keep]
    return list(zip(high.tolist(), low.tolist()))


def saliency_loss(h: Tensor, h_bar: Tensor, pairs) -> Tensor:
    """Margin ranking hinge (margin ``SALIENCY_MARGIN``) over each sample's
    sampled (high, low) clip pairs, shape (..., P, 2) (``saliency_pairs``;
    the same count for every sample), summed across both heads.

    Each head's hinge is averaged over the pairs still inside the margin,
    not over all sampled pairs: most pairs (inside versus outside the
    moment) are satisfied early, and a plain mean would dilute the few
    left, typically a window-centre clip against an edge clip. When every
    pair is violated the two means agree. No valid pair means no
    supervision signal: loss 0.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return Tensor(np.zeros(h.shape[:-1]))
    pairs = pairs.reshape(h.shape[:-1] + (-1, 2))
    high_idx, low_idx = pairs[..., 0], pairs[..., 1]

    def hinge(scores: Tensor) -> Tensor:
        gap = T.add_scalar(
            T.sub(T.gather_rows(scores, low_idx), T.gather_rows(scores, high_idx)),
            SALIENCY_MARGIN,
        )
        violated = np.count_nonzero(gap.data > 0.0, axis=-1)
        return T.mul(T.tsum(T.relu(gap), axis=-1), Tensor(1.0 / np.maximum(violated, 1)))

    return T.add(hinge(h), hinge(h_bar))


# ---------------------------------------------------------------------------
# Eq.-style total


def total_loss(
    mom: Tensor, high: Tensor, local: Tensor, global_: Tensor, lambda_lg: float
) -> tuple[Tensor, LossBreakdown]:
    """total = mom + high + lambda * (local + global), with lambda = 0
    removing the alignment terms exactly (multiplication by literal 0)."""
    total = T.add(T.add(mom, high), T.scale(T.add(local, global_), lambda_lg))
    breakdown = LossBreakdown(
        mom=mom.item(),
        high=high.item(),
        local=local.item(),
        global_=global_.item(),
        lambda_lg=lambda_lg,
        total=total.item(),
    )
    return total, breakdown
