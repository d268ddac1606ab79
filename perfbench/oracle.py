"""Checks computed apart from the program under test.

* ``evaluate``: the moment-retrieval and highlight-detection metrics,
  written from their definitions (below), not from ``mrhd.metrics``.
* ``record_problems``: the properties every prediction record must have.
* ``gradient_problems``: central differences of a loss against the
  gradients ``backward`` left on the parameters.

Metric definitions, as QVHighlights (Moment-DETR, arXiv 2107.09609)
states them and as ``mrhd`` documents its evaluator:

* R1@t: share of queries whose highest-scored span has temporal IoU >= t
  with some ground-truth window.
* MR mAP@t: per query, spans are taken in score order; a span is a hit
  when it reaches IoU >= t with a window no earlier span took (the window
  of highest IoU among those left). AP is the all-points interpolated area
  under the precision/recall steps; the mean is over queries, and the
  average over t = 0.50, 0.55, ..., 0.95.
* HD mAP and HIT@1: per annotator, the clips that annotator rated 4 are the
  positives. AP over all clips ranked by predicted saliency, and HIT@1 is
  whether the top-ranked clip is a positive. A query's value is the mean
  over annotators that have a positive; queries with none are left out.
  (The Moment-DETR script instead scores such an annotator as AP 0, and
  takes HIT@1 as the maximum over annotators. Synthetic ratings always
  leave one annotator without a 4, so the two differ here.)
"""

from __future__ import annotations

import math

import numpy as np

MR_THRESHOLDS = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
POSITIVE_RATING = 4
# The program's report must equal the oracle's metrics to this.
METRIC_TOL = 1e-12
# Central differences: step, relative tolerance, and how many entries to
# draw at most while looking for ones off a kink of the loss.
GRAD_STEP = 1e-5
GRAD_TOL = 1e-6
GRAD_MAX_DRAWS = 40


def iou(a, b) -> float:
    """Temporal intersection over union of two (start, end) intervals."""
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0.0:
        return 0.0
    return inter / ((a[1] - a[0]) + (b[1] - b[0]) - inter)


def average_precision(hits: list[bool], positives: int) -> float:
    """All-points interpolated AP of a ranked hit list: every hit adds
    1/positives times the best precision at its rank or any deeper one."""
    if positives == 0:
        return 0.0
    precision = []
    found = 0
    for rank, hit in enumerate(hits, start=1):
        found += bool(hit)
        precision.append(found / rank)
    ap, best = 0.0, 0.0
    for rank in range(len(hits) - 1, -1, -1):
        best = max(best, precision[rank])
        if hits[rank]:
            ap += best / positives
    return ap


def _by_score(spans) -> list:
    """Spans best first; equal scores keep their listed order."""
    return [s for _, s in sorted(enumerate(spans), key=lambda p: (-p[1][2], p[0]))]


def _span_hits(spans, windows, threshold: float) -> list[bool]:
    free = list(windows)
    hits = []
    for span in _by_score(spans):
        scored = [(iou(span, w), k) for k, w in enumerate(free)]
        best = max(scored, default=(0.0, -1), key=lambda p: p[0])
        if best[1] >= 0 and best[0] >= threshold:
            free.pop(best[1])
            hits.append(True)
        else:
            hits.append(False)
    return hits


def _annotator_scores(saliency_scores, ratings) -> list[tuple[float, float]]:
    """(AP, HIT@1) for every annotator that rated some clip 4."""
    ranked = sorted(range(len(saliency_scores)), key=lambda i: (-saliency_scores[i], i))
    out = []
    for a in range(len(ratings[0])):
        positive = [row[a] == POSITIVE_RATING for row in ratings]
        count = sum(positive)
        if count == 0:
            continue
        hits = [positive[i] for i in ranked]
        out.append((average_precision(hits, count), 1.0 if hits[0] else 0.0))
    return out


def evaluate(records: list[dict], samples: dict) -> dict[str, float]:
    """Metrics of prediction records against ``{qid: QuerySample}``."""
    n = len(records)
    r1 = {0.5: 0, 0.7: 0}
    ap_sum = {t: 0.0 for t in MR_THRESHOLDS}
    hd_ap, hd_hit, hd_queries = 0.0, 0.0, 0
    for rec in records:
        sample = samples[rec["qid"]]
        spans = [tuple(w) for w in rec["pred_relevant_windows"]]
        windows = list(sample.relevant_windows)
        top = _by_score(spans)[0]
        for t in r1:
            r1[t] += any(iou(top, w) >= t for w in windows)
        for t in MR_THRESHOLDS:
            ap_sum[t] += average_precision(_span_hits(spans, windows, t), len(windows))
        per_annotator = _annotator_scores(rec["pred_saliency_scores"], sample.saliency)
        if per_annotator:
            hd_queries += 1
            hd_ap += sum(ap for ap, _ in per_annotator) / len(per_annotator)
            hd_hit += sum(hit for _, hit in per_annotator) / len(per_annotator)
    mr_map = {t: ap_sum[t] / n for t in MR_THRESHOLDS}
    out = {
        "r1_050": r1[0.5] / n,
        "r1_070": r1[0.7] / n,
        "map_050": mr_map[0.5],
        "map_075": mr_map[0.75],
        "map_avg": sum(mr_map.values()) / len(mr_map),
    }
    if hd_queries:
        out["hd_map"] = hd_ap / hd_queries
        out["hit_at_1"] = hd_hit / hd_queries
    return out


def metric_problems(report: dict, expected: dict) -> list[str]:
    """Differences between an ``EvalReport.to_dict()`` and ``evaluate``."""
    problems = []
    for key, want in expected.items():
        got = report.get(key)
        if got is None or not abs(got - want) <= METRIC_TOL:
            problems.append(f"{key}: program {got!r}, oracle {want!r}")
    return problems


def record_problems(records: list[dict], samples: dict) -> list[str]:
    """Every qid once; spans inside the video and ranked; one finite
    saliency value per clip."""
    problems = []
    seen = [rec["qid"] for rec in records]
    if sorted(seen) != sorted(samples):
        problems.append(f"qids {sorted(seen)[:8]}... do not cover the {len(samples)} queries once each")
    for rec in records:
        sample = samples.get(rec["qid"])
        if sample is None:
            continue
        windows = rec["pred_relevant_windows"]
        if not windows:
            problems.append(f"qid {rec['qid']}: no spans")
        for start, end, _ in windows:
            if not 0.0 <= start <= end <= sample.duration:
                problems.append(f"qid {rec['qid']}: span [{start}, {end}] outside [0, {sample.duration}]")
        scores = [w[2] for w in windows]
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"qid {rec['qid']}: spans not ranked by score")
        saliency = rec["pred_saliency_scores"]
        if len(saliency) != sample.num_clips or not all(math.isfinite(x) for x in saliency):
            problems.append(f"qid {rec['qid']}: saliency is not one finite value per clip")
    return problems


def gradient_problems(loss, params: dict, rng: np.random.Generator, entries: int) -> tuple[list[str], int]:
    """Central differences of ``loss()`` against ``params[name].grad``.

    Draws parameter entries at random until ``entries`` of them were
    compared. An entry whose differences at ``GRAD_STEP`` and at a quarter
    of it disagree sits on a kink of the loss (a relu, the matching, the
    span-to-clip rounding) and is drawn again instead. Returns the problems
    and the entries compared.
    """
    names = sorted(params)
    problems: list[str] = []
    compared = 0
    for _ in range(GRAD_MAX_DRAWS):
        if compared == entries:
            break
        name = names[int(rng.integers(len(names)))]
        flat = params[name].data.reshape(-1)
        k = int(rng.integers(flat.size))
        grad = params[name].grad
        analytic = 0.0 if grad is None else float(grad.reshape(-1)[k])

        def central(step: float) -> float:
            keep = flat[k]
            flat[k] = keep + step
            up = loss()
            flat[k] = keep - step
            down = loss()
            flat[k] = keep
            return (up - down) / (2.0 * step)

        def gap(a: float, b: float) -> float:
            return abs(a - b) / max(1.0, abs(a), abs(b))

        numeric = central(GRAD_STEP)
        if gap(analytic, numeric) <= GRAD_TOL:
            compared += 1
            continue
        if gap(numeric, central(GRAD_STEP / 4.0)) > GRAD_TOL:
            continue
        compared += 1
        problems.append(f"{name}[{k}]: backward {analytic!r}, central difference {numeric!r}")
    if compared < entries:
        problems.append(f"only {compared} of {entries} entries were smooth enough to compare")
    return problems, compared
