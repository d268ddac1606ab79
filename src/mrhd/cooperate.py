"""Task cooperation between highlight scoring and moment decoding.

Four pieces chain together here:

* a highlight head scoring every clip from the joint features,
* a forward hand-off that softmaxes those scores, scales the joint
  features row-wise with them, and re-encodes through the SAME
  self-attention block the highlight head used (the two call sites
  resolve to one parameter set, which is the point),
* a set-prediction decoder: M learned query vectors, K layers of
  cross-attention over the enhanced features plus feed-forward, a span
  head emitting normalized (center, width) pairs through a sigmoid, and
  a foreground-score head,
* a reverse hand-off that summarizes the top span's clips with a GRU,
  scores every clip by cosine similarity against that summary, and
  linearly maps the re-weighted features to refined highlight scores.

All attention blocks are pre-norm residual blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .align import apply_layer_norm, init_layer_norm, init_linear, linear, row_norms
from .refine import init_attention, multi_head_attention
from .tensor import ContractError, Tensor

SHARED_PREFIX = "shared_attn"


@dataclass
class MomentPrediction:
    """Final per-query prediction: scored spans in seconds plus clip scores."""

    spans: list[tuple[float, float, float]]
    highlight: np.ndarray


# ---------------------------------------------------------------------------
# parameters


def init_transformer_block(params: dict, rng: np.random.Generator, prefix: str, d: int):
    init_attention(params, rng, f"{prefix}.attn", d)
    init_layer_norm(params, f"{prefix}.ln1", d)
    init_layer_norm(params, f"{prefix}.ln2", d)
    init_linear(params, rng, f"{prefix}.ff.l0", d, 4 * d)
    init_linear(params, rng, f"{prefix}.ff.l1", 4 * d, d)


def init_cooperate_params(
    params: dict, rng: np.random.Generator, d: int, num_queries: int, decoder_layers: int
):
    init_transformer_block(params, rng, SHARED_PREFIX, d)
    init_linear(params, rng, "highlight", d, 1)
    params["decoder.queries"] = Tensor(
        rng.standard_normal((num_queries, d)) / math.sqrt(d), requires_grad=True
    )
    for k in range(decoder_layers):
        init_transformer_block(params, rng, f"decoder.layer{k}", d)
    init_linear(params, rng, "decoder.span", d, 2)
    init_linear(params, rng, "decoder.cls", d, 1)
    for gate in ("u", "r", "c"):
        init_linear(params, rng, f"gru.x{gate}", d, d)
        init_linear(params, rng, f"gru.h{gate}", d, d)
    init_linear(params, rng, "refine_out", d, 1)


# ---------------------------------------------------------------------------
# shared self-attention block


def _feed_forward(x: Tensor, params: dict, prefix: str) -> Tensor:
    return linear(T.relu(linear(x, params, f"{prefix}.ff.l0")), params, f"{prefix}.ff.l1")


def transformer_block(
    x: Tensor, params: dict, prefix: str, heads: int, memory: Tensor | None = None
) -> Tensor:
    """Pre-norm residual block: attention then feed-forward.

    Self-attention when ``memory`` is None, cross-attention over it
    otherwise.
    """
    normed = apply_layer_norm(x, params, f"{prefix}.ln1")
    kv = normed if memory is None else memory
    x = T.add(x, multi_head_attention(normed, kv, params, f"{prefix}.attn", heads))
    return T.add(x, _feed_forward(apply_layer_norm(x, params, f"{prefix}.ln2"), params, prefix))


# ---------------------------------------------------------------------------
# highlight head and forward hand-off


def highlight_head(joint: Tensor, params: dict, heads: int) -> Tensor:
    """Clip scores: shared self-attention block, then a linear map to one
    logit per clip."""
    encoded = transformer_block(joint, params, SHARED_PREFIX, heads)
    return T.reshape(linear(encoded, params, "highlight"), encoded.shape[:-1])


def hd2mr(joint: Tensor, h: Tensor, params: dict, heads: int) -> Tensor:
    """Enhance joint features with softmaxed highlight scores, then re-encode
    with the same shared block the highlight head used."""
    weights = T.softmax(h, axis=-1)
    scaled = T.mul(joint, T.reshape(weights, weights.shape + (1,)))
    return transformer_block(T.add(joint, scaled), params, SHARED_PREFIX, heads)


# ---------------------------------------------------------------------------
# moment decoder


def moment_decoder(
    z_hat: Tensor, params: dict, heads: int, decoder_layers: int
) -> tuple[Tensor, Tensor]:
    """(b, M, 2) normalized (center, width) spans and (b, M) foreground
    scores from a (b, L, d) stack of memories, each sample reading its own
    copy of the queries."""
    queries = params["decoder.queries"]
    q = T.concat([T.reshape(queries, (1,) + queries.shape)] * z_hat.shape[0], axis=0)
    for k in range(decoder_layers):
        q = transformer_block(q, params, f"decoder.layer{k}", heads, memory=z_hat)
    center_width = T.sigmoid(linear(q, params, "decoder.span"))
    scores = T.reshape(T.sigmoid(linear(q, params, "decoder.cls")), q.shape[:-1])
    return center_width, scores


def decode_spans(
    center_width: Tensor, scores: Tensor, duration: float
) -> list[tuple[float, float, float]]:
    """Materialize (start, end, score) triples in seconds, best first."""
    cw = center_width.data
    starts = np.clip((cw[:, 0] - cw[:, 1] / 2.0) * duration, 0.0, duration)
    ends = np.clip((cw[:, 0] + cw[:, 1] / 2.0) * duration, 0.0, duration)
    order = np.argsort(-scores.data, kind="stable")
    return [(float(starts[i]), float(ends[i]), float(scores.data[i])) for i in order]


# ---------------------------------------------------------------------------
# GRU and reverse hand-off


# The GRU's parameters under ``gru.``, in the order ``T.gru`` takes them.
_GRU_WEIGHTS = (
    "xu.w", "xu.b", "hu.w", "hu.b", "xr.w", "xr.b", "hr.w", "hr.b", "xc.w", "xc.b", "hc.w", "hc.b"
)


def gru_cell(x: Tensor, spans, hidden: Tensor, params: dict) -> Tensor:
    """Run the GRU over rows [i0, i1) of ``x`` in turn from the (1, d) state
    ``hidden``, with one row range in ``spans`` per sample, and return each
    last state (one graph node for every chain).

    Per row: update u = sigm(Wu x + Uu h), reset r = sigm(Wr x + Ur h),
    candidate c = tanh(Wc x + Uc (r*h)), h <- (1-u)*h + u*c.
    """
    return T.gru(x, spans, hidden, tuple(params[f"gru.{name}"] for name in _GRU_WEIGHTS))


def span_to_clip_range(start: float, end: float, clip_len: float, num_clips: int) -> tuple[int, int]:
    """Clip index range [i0, i1) covered by a span, clamped non-empty.

    A span that only touches the video, such as the zero-width span at its
    end that a saturated span head decodes to, takes the clip it touches.
    """
    if end < 0.0 or start > num_clips * clip_len:
        raise ContractError(
            f"span [{start}, {end}] lies outside the {num_clips}-clip video"
        )
    i0 = min(max(int(math.floor(start / clip_len)), 0), num_clips - 1)
    i1 = min(int(math.ceil(end / clip_len)), num_clips)
    if i1 <= i0:
        i1 = i0 + 1
    return i0, i1


def mr2hd(v_hat: Tensor, joint: Tensor, z_hat: Tensor, top_span, clip_len, params: dict) -> Tensor:
    """Refined highlight scores from the retrieved moment.

    ``top_span`` holds each sample's (start, end) seconds, shape (..., 2),
    and ``clip_len`` its clip length, shape (...). One GRU chain per sample
    (zero initial state, one graph node for all) summarizes the top span's
    rows of the projected clip features; every clip is scored by cosine
    similarity against that summary; the softmaxed similarities re-weight
    the enhanced features, which are added back to the joint features and
    mapped to one score per clip.
    """
    batch, (length, d) = v_hat.shape[:-2], v_hat.shape[-2:]
    tops = np.reshape(top_span, (-1, 2)).tolist()
    clip_lens = np.broadcast_to(clip_len, batch).reshape(-1).tolist()
    spans = [span_to_clip_range(start, end, cl, length) for (start, end), cl in zip(tops, clip_lens)]
    hidden = gru_cell(v_hat, np.reshape(spans, batch + (2,)), Tensor(np.zeros(batch + (1, d))), params)

    dots = T.reshape(T.matmul(v_hat, T.transpose(hidden)), batch + (length,))
    norm_prod = T.mul(row_norms(v_hat), row_norms(hidden))
    s_ref = T.div(dots, norm_prod)
    weights = T.softmax(s_ref, axis=-1)
    reweighted = T.mul(z_hat, T.reshape(weights, batch + (length, 1)))
    refined = linear(T.add(joint, reweighted), params, "refine_out")
    return T.reshape(refined, batch + (length,))
