"""Query-guided refinement of clip features into joint features.

The refinement path scores every clip against every word through learned
linear maps, attends in both directions (clips over words, and words
back over clips), fuses the attended streams with the original clip
features and a replicated global text vector, and finally runs one
cross-attention layer from the fused clips into the words to produce the
joint per-clip features consumed by the downstream heads.

The cross-attention output keeps a residual connection from its input
plus a layer-norm, so per-clip identity survives the text mixing.

This module also hosts the generic multi-head attention helper and
sinusoidal position table used elsewhere in the model.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .align import apply_layer_norm, init_layer_norm, init_linear, linear
from .tensor import Tensor


# ---------------------------------------------------------------------------
# positional encoding


def positional_encoding(length: int, d: int) -> np.ndarray:
    """Standard sinusoidal table: sin on even channels, cos on odd."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return table


def add_positions(v_hat: Tensor) -> Tensor:
    length, d = v_hat.shape[-2:]
    return T.add(v_hat, Tensor(positional_encoding(length, d)))


# ---------------------------------------------------------------------------
# parameters


def init_refine_params(params: dict, rng: np.random.Generator, d: int):
    init_linear(params, rng, "cross.v", d, d)
    init_linear(params, rng, "cross.t", d, d)
    init_linear(params, rng, "fuse", 5 * d, d)
    for name in ("zattn.q", "zattn.k", "zattn.v"):
        init_linear(params, rng, name, d, d)
    init_layer_norm(params, "zattn.ln", d)


# ---------------------------------------------------------------------------
# operations


def cross_similarity(v_hat: Tensor, t_hat: Tensor, params: dict) -> tuple[Tensor, Tensor]:
    """Scaled product of linearly mapped clips and words, (..., L, N), in its
    row-softmax and column-softmax forms."""
    d = v_hat.shape[-1]
    scores = T.scale(
        T.matmul(linear(v_hat, params, "cross.v"), T.transpose(linear(t_hat, params, "cross.t"))),
        1.0 / math.sqrt(d),
    )
    return T.softmax(scores, axis=-1), T.softmax(scores, axis=-2)


def bidirectional_attend(
    a_row: Tensor, a_col: Tensor, v_hat: Tensor, t_hat: Tensor
) -> tuple[Tensor, Tensor]:
    """Clip-to-word attention and its word-to-clip round trip.

    The first stream mixes word vectors per clip; the second routes clip
    vectors through the word axis and back.
    """
    f_v2q = T.matmul(a_row, t_hat)
    f_q2v = T.matmul(T.matmul(a_row, T.transpose(a_col)), v_hat)
    return f_v2q, f_q2v


def fuse(v_hat: Tensor, t_hat: Tensor, f_v2q: Tensor, f_q2v: Tensor, params: dict) -> Tensor:
    """Five-block concat -> linear back to d.

    Blocks: clips, attended words, clip (x) attended-word product, clip (x)
    routed-clip product, and the mean word vector replicated per clip.
    """
    length = v_hat.shape[-2]
    text_global = T.broadcast_rows(T.tmean(t_hat, axis=-2), length)
    stacked = T.concat(
        [v_hat, f_v2q, T.mul(v_hat, f_v2q), T.mul(v_hat, f_q2v), text_global],
        axis=-1,
    )
    return linear(stacked, params, "fuse")


def cross_attention_fusion(f_v_bar: Tensor, t_hat: Tensor, params: dict) -> Tensor:
    """Single-head cross-attention from refined clips into words: the joint
    per-clip features.

    Query comes from the clips, key/value from the words. The input is
    added back to the attention mixture and the sum is layer-normed.
    """
    q = linear(f_v_bar, params, "zattn.q")
    k = linear(t_hat, params, "zattn.k")
    v = linear(t_hat, params, "zattn.v")
    mixed = T.attention(q, k, v, heads=1)
    return apply_layer_norm(T.add(f_v_bar, mixed), params, "zattn.ln")


# ---------------------------------------------------------------------------
# generic multi-head attention (shared by the downstream heads and decoder)


def init_attention(params: dict, rng: np.random.Generator, prefix: str, d: int):
    for name in ("q", "k", "v", "o"):
        init_linear(params, rng, f"{prefix}.{name}", d, d)


def multi_head_attention(
    q_in: Tensor, kv_in: Tensor, params: dict, prefix: str, heads: int
) -> Tensor:
    """Multi-head scaled dot-product attention with an output projection.

    ``q_in`` supplies the queries; ``kv_in`` supplies keys and values.
    Self-attention is the q_in == kv_in case.
    """
    q = linear(q_in, params, f"{prefix}.q")
    k = linear(kv_in, params, f"{prefix}.k")
    v = linear(kv_in, params, f"{prefix}.v")
    return linear(T.attention(q, k, v, heads), params, f"{prefix}.o")
