"""Local-global alignment between clip features and query-word features.

Both modalities are projected into a shared d-dimensional space by
three-layer MLPs. Two regularizers then pull the spaces together:

* a local one, scoring each clip against the query words by sigmoid
  cosine similarity and applying summed binary cross-entropy against
  clip-level relevance labels, and
* a global one, a batch-wise contrastive term over mean-pooled clip and
  word features whose denominator sums over every pair in the batch
  (kept exactly as formulated, with no temperature).

Parameter dictionaries are flat ``dict[str, Tensor]`` maps; the helpers
here (``init_linear``/``linear`` and friends) establish the naming
convention the rest of the model follows.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .data import FeatureBundle
from .tensor import ContractError, Tensor

EPS_NORM = 1e-8
EPS_LOG = 1e-12


# ---------------------------------------------------------------------------
# parameter plumbing shared across modules


def xavier(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-bound, bound, size=(d_in, d_out))


def init_linear(params: dict, rng: np.random.Generator, prefix: str, d_in: int, d_out: int):
    params[f"{prefix}.w"] = Tensor(xavier(rng, d_in, d_out), requires_grad=True)
    params[f"{prefix}.b"] = Tensor(np.zeros(d_out), requires_grad=True)


def linear(x: Tensor, params: dict, prefix: str) -> Tensor:
    return T.affine(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


def init_layer_norm(params: dict, prefix: str, d: int):
    params[f"{prefix}.g"] = Tensor(np.ones(d), requires_grad=True)
    params[f"{prefix}.b"] = Tensor(np.zeros(d), requires_grad=True)


def apply_layer_norm(x: Tensor, params: dict, prefix: str) -> Tensor:
    return T.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


# ---------------------------------------------------------------------------
# projection


def init_project_params(params: dict, rng: np.random.Generator, d_vin: int, d_tin: int, d: int):
    """Two MLPs (visual-in and text-in), three linear layers each, then a
    final layer-norm per branch."""
    for branch, d_in in (("proj_v", d_vin), ("proj_t", d_tin)):
        init_linear(params, rng, f"{branch}.l0", d_in, d)
        init_linear(params, rng, f"{branch}.l1", d, d)
        init_linear(params, rng, f"{branch}.l2", d, d)
        init_layer_norm(params, f"{branch}.ln", d)


def _mlp(x: Tensor, params: dict, branch: str) -> Tensor:
    h = T.relu(linear(x, params, f"{branch}.l0"))
    h = T.relu(linear(h, params, f"{branch}.l1"))
    h = linear(h, params, f"{branch}.l2")
    return apply_layer_norm(h, params, f"{branch}.ln")


def project(bundle: FeatureBundle, params: dict) -> tuple[Tensor, Tensor]:
    """Map clip features (audio concatenated when present) and word features
    into the shared d-dimensional space: (..., L, d) clips ``v_hat`` and
    (..., N, d) words ``t_hat``, with the bundle's leading (sample) axes."""
    v_hat = _mlp(Tensor(bundle.effective_visual()), params, "proj_v")
    t_hat = _mlp(Tensor(bundle.text), params, "proj_t")
    return v_hat, t_hat


# ---------------------------------------------------------------------------
# local regularizer


def row_norms(x: Tensor) -> Tensor:
    # EPS_NORM**2 inside the sqrt keeps its backward finite on an exactly
    # zero row (which layer-norm produces from any constant row); the outer
    # EPS_NORM keeps the later division well-defined.
    sumsq = T.add_scalar(T.tsum(T.mul(x, x), axis=-1), EPS_NORM**2)
    return T.add_scalar(T.sqrt(sumsq), EPS_NORM)


def local_similarity(v_hat: Tensor, t_hat: Tensor) -> tuple[Tensor, Tensor]:
    """Sigmoid cosine similarity of every clip against every word.

    Returns the full (..., L, N) matrix and its per-clip mean over words.
    """
    dots = T.matmul(v_hat, T.transpose(t_hat))
    v_norms, t_norms = row_norms(v_hat), row_norms(t_hat)
    denom = T.mul(
        T.reshape(v_norms, v_norms.shape + (1,)),
        T.reshape(t_norms, t_norms.shape[:-1] + (1,) + t_norms.shape[-1:]),
    )
    s_loc = T.sigmoid(T.div(dots, denom))
    return s_loc, T.tmean(s_loc, axis=-1)


def bce_terms(p: Tensor, targets: np.ndarray) -> Tensor:
    """Per-element binary cross-entropy with clamped log arguments."""
    if p.shape != targets.shape:
        raise ContractError(f"bce expects matching shapes, got {p.shape} and {targets.shape}")
    c = Tensor(np.asarray(targets, dtype=np.float64))
    p_safe = T.clamp(p, EPS_LOG, 1.0 - EPS_LOG)
    one_minus = T.add_scalar(T.scale(p_safe, -1.0), 1.0)
    pos = T.mul(c, T.log(p_safe))
    neg = T.mul(T.add_scalar(T.scale(c, -1.0), 1.0), T.log(one_minus))
    return T.scale(T.add(pos, neg), -1.0)


def local_loss(s_hat: Tensor, clip_relevance: np.ndarray) -> Tensor:
    """Binary cross-entropy against clip relevance, summed over the L clips
    of each sample."""
    return T.tsum(bce_terms(s_hat, np.asarray(clip_relevance, dtype=np.float64)), axis=-1)


# ---------------------------------------------------------------------------
# global regularizer


def pooled_globals(v_hat: Tensor, t_hat: Tensor) -> tuple[Tensor, Tensor]:
    """Mean over clips and mean over words, one (1, d) row per sample."""
    shape = (math.prod(v_hat.shape[:-2]), v_hat.shape[-1])
    return (
        T.reshape(T.tmean(v_hat, axis=-2), shape),
        T.reshape(T.tmean(t_hat, axis=-2), shape),
    )


def global_loss(v_globals: Tensor, t_globals: Tensor) -> Tensor:
    """Batch contrastive loss with the full B x B sum in the denominator.

    loss = logsumexp(all pairwise dots) - mean(diagonal dots). The max is
    subtracted as a constant for stability, which cancels exactly, and a
    batch of one gives 0 by construction.
    """
    if v_globals.shape != t_globals.shape or v_globals.ndim != 2:
        raise ContractError(
            f"global_loss expects matching (B, d) inputs, got {v_globals.shape} and {t_globals.shape}"
        )
    b = v_globals.shape[0]
    sims = T.matmul(v_globals, T.transpose(t_globals))
    shift = float(np.max(sims.data))
    lse = T.add_scalar(T.log(T.tsum(T.exp(T.add_scalar(sims, -shift)))), shift)
    diag_mean = T.scale(T.tsum(T.mul(sims, Tensor(np.eye(b)))), 1.0 / b)
    return T.sub(lse, diag_mean)
