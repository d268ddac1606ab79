"""Evaluation metrics for moment retrieval and highlight detection.

Moment retrieval reports Recall@1 at IoU 0.5 and 0.7 plus mean average
precision over ten IoU thresholds (0.50 to 0.95 in steps of 0.05), with
the usual greedy protocol: predictions are consumed in score order and
each ground-truth window can satisfy at most one of them.

Highlight detection treats each annotator separately: a clip counts as
positive only at the top rating (4), average precision is computed over
the score-ranked clips, HIT@1 checks the single best-scored clip, and
annotators without any positive are skipped. The top-5 variant ranks
only the five best-scored clips and measures precision within that list.

All average precisions use the all-points interpolated integral, computed
by one kernel (``average_precision``) over a matrix of ranked hit flags:
a row per (query, IoU threshold) for retrieval and per (query, annotator)
for highlights. Queries are scored in groups of one shape (span and
window counts, or clip and annotator counts), so each group is a handful
of numpy calls however many queries it holds. Equal scores keep their
listed order when ranked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .data import QuerySample
from .tensor import ContractError

MR_MAP_THRESHOLDS = tuple(round(0.50 + 0.05 * k, 2) for k in range(10))
POSITIVE_RATING = 4
TOP_K = 5


@dataclass
class EvalReport:
    r1_050: float
    r1_070: float
    map_050: float
    map_075: float
    map_avg: float
    hd_map: float | None = None
    hit_at_1: float | None = None
    top5_map: float | None = None

    def to_dict(self) -> dict:
        out = {}
        for key in ("r1_050", "r1_070", "map_050", "map_075", "map_avg",
                    "hd_map", "hit_at_1", "top5_map"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


# ---------------------------------------------------------------------------
# kernels


def average_precision(hits: np.ndarray, num_positives: np.ndarray) -> np.ndarray:
    """All-points interpolated AP of every row of a (rows, ranks) hit matrix.

    Each hit adds the best precision at its rank or any deeper one, over
    the row's positive count; a row with no positives scores 0. The matrix
    is made C-contiguous first: numpy sums the rows of a strided view in
    another order, so a row's value would depend on the layout of the
    matrix it came in.
    """
    hits = np.ascontiguousarray(hits, dtype=bool)
    num_positives = np.asarray(num_positives, dtype=np.float64)
    precision = np.cumsum(hits, axis=1) / np.arange(1, hits.shape[1] + 1)
    best = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    total = np.where(hits, best, 0.0).sum(axis=1)
    return np.divide(total, num_positives, out=np.zeros(len(hits)), where=num_positives > 0)


def _groups(keys) -> dict:
    """Positions of equal keys, in first-seen order."""
    out: dict = {}
    for pos, key in enumerate(keys):
        out.setdefault(key, []).append(pos)
    return out


def _ranked_ious(spans: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """(G, P, W) temporal IoU of G queries' (start, end, score) spans, best
    score first, against their (start, end) windows. Windows have positive
    length, so a zero-length span scores 0."""
    order = np.argsort(-spans[:, :, 2], axis=1, kind="stable")
    spans = np.take_along_axis(spans, order[:, :, None], axis=1)
    s1, e1 = spans[:, :, None, 0], spans[:, :, None, 1]
    s2, e2 = windows[:, None, :, 0], windows[:, None, :, 1]
    inter = np.maximum(np.minimum(e1, e2) - np.maximum(s1, s2), 0.0)
    return inter / ((e1 - s1) + (e2 - s2) - inter)


def _greedy_hits(ious: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """(G, T, P) hit flags of score-order greedy matching at each threshold:
    a span takes the free window of highest IoU (the first of equals) when
    that IoU is positive and reaches the threshold."""
    G, P, W = ious.shape
    rows = np.arange(G)[:, None], np.arange(len(thresholds))[None, :]
    free = np.ones((G, len(thresholds), W), dtype=bool)
    hits = np.zeros((G, len(thresholds), P), dtype=bool)
    for rank in range(P):
        candidates = np.where(free, ious[:, None, rank, :], -1.0)
        best = candidates.argmax(axis=2)
        best_iou = candidates[(*rows, best)]
        hit = (best_iou > 0.0) & (best_iou >= thresholds)
        hits[:, :, rank] = hit
        free[(*rows, best)] &= ~hit
    return hits


def _mr_tables(preds, gts) -> tuple[np.ndarray, np.ndarray]:
    """Per query: AP at each of the T thresholds, (T, Q), and the best IoU
    of the top-scored span with any window, (Q,)."""
    thresholds = np.asarray(MR_MAP_THRESHOLDS, dtype=np.float64)
    ap = np.zeros((len(thresholds), len(preds)))
    top_iou = np.zeros(len(preds))
    for (_, num_windows), pos in _groups((len(p), len(g)) for p, g in zip(preds, gts)).items():
        spans = np.array([preds[q] for q in pos], dtype=np.float64)
        windows = np.array([gts[q] for q in pos], dtype=np.float64)
        ious = _ranked_ious(spans, windows)
        hits = _greedy_hits(ious, thresholds)
        per_row = average_precision(hits.reshape(-1, hits.shape[2]), num_windows)
        ap[:, pos] = per_row.reshape(len(pos), len(thresholds)).T
        top_iou[pos] = ious[:, 0, :].max(axis=1)
    return ap, top_iou


def _hd_tables(pred_scores, samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per query, mean over the annotators with a positive: AP over all
    clips, HIT@1 and AP within the top five. NaN where no annotator has a
    positive."""
    n = len(samples)
    hd_ap, hit, top5 = np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan)
    keys = []
    for scores, sample in zip(pred_scores, samples):
        if len(scores) != len(sample.saliency):
            raise ContractError(
                f"score vector length {len(scores)} != clip count {len(sample.saliency)}"
            )
        keys.append((len(sample.saliency), len(sample.saliency[0])))
    for (_, annotators), pos in _groups(keys).items():
        scores = np.array([pred_scores[q] for q in pos], dtype=np.float64)
        ratings = np.fromiter(
            chain.from_iterable(chain.from_iterable(samples[q].saliency for q in pos)), dtype=np.int64
        ).reshape(scores.shape + (annotators,))
        order = np.argsort(-scores, axis=1, kind="stable")
        ranked = np.take_along_axis(ratings == POSITIVE_RATING, order[:, :, None], axis=1)
        flags = ranked.transpose(0, 2, 1).reshape(len(pos) * annotators, -1)
        positives = flags.sum(axis=1)
        top = flags[:, :TOP_K]
        counted = (positives > 0).reshape(len(pos), annotators)
        count = counted.sum(axis=1)
        per_row = (
            average_precision(flags, positives),
            flags[:, 0].astype(np.float64),
            average_precision(top, top.sum(axis=1)),
        )
        defined = count > 0
        for out, values in zip((hd_ap, hit, top5), per_row):
            sums = np.where(counted, values.reshape(len(pos), annotators), 0.0).sum(axis=1)
            out[np.asarray(pos)[defined]] = sums[defined] / count[defined]
    return hd_ap, hit, top5


def _map_summary(ap: np.ndarray) -> tuple[float, float, float]:
    """(mAP at 0.5, mAP at 0.75, mean over all thresholds) of a (T, Q) AP table."""
    per_threshold = ap.mean(axis=1)
    by_thr = dict(zip(MR_MAP_THRESHOLDS, per_threshold.tolist()))
    return by_thr[0.5], by_thr[0.75], float(np.mean(per_threshold))


def _mean_defined(values: np.ndarray) -> float | None:
    defined = values[~np.isnan(values)]
    return float(np.mean(defined)) if len(defined) else None


# ---------------------------------------------------------------------------
# report assembly


def evaluate(results: list[tuple[QuerySample, list, list]]) -> EvalReport:
    """Build the full report from per-query (sample, spans, clip_scores).

    Spans are (start, end, score) triples; clip_scores is one float per
    clip. Queries are processed in qid order so the report is independent
    of input ordering.
    """
    results = sorted(results, key=lambda r: r[0].qid)
    samples = [sample for sample, _, _ in results]
    preds = [spans for _, spans, _ in results]
    gts = [sample.relevant_windows for sample in samples]
    for spans, windows in zip(preds, gts):
        if len(spans) == 0:
            raise ContractError("every query needs at least one prediction")
        if len(windows) == 0:
            raise ContractError("every query needs at least one ground truth")
    ap, top_iou = _mr_tables(preds, gts)
    map_050, map_075, map_avg = _map_summary(ap)
    hd_ap, hit, top5 = _hd_tables([scores for _, _, scores in results], samples)
    return EvalReport(
        r1_050=int((top_iou >= 0.5).sum()) / len(results),
        r1_070=int((top_iou >= 0.7).sum()) / len(results),
        map_050=map_050,
        map_075=map_075,
        map_avg=map_avg,
        hd_map=_mean_defined(hd_ap),
        hit_at_1=_mean_defined(hit),
        top5_map=_mean_defined(top5),
    )
