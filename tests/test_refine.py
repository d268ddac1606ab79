"""Refinement module: similarity normalizations, attention streams, fusion."""

import math

import numpy as np
import pytest

from mrhd import refine
from mrhd import tensor as T
from mrhd.gradcheck import check_gradients
from mrhd.tensor import ContractError, Tensor


def _params(seed=0, d=4):
    params = {}
    refine.init_refine_params(params, np.random.default_rng(seed), d)
    return params


def _features(seed=0, L=4, N=3, d=4):
    """Projected clips (L, d) and words (N, d)."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((L, d))), Tensor(rng.standard_normal((N, d)))


def _identity_linears(params, d):
    for name in ("cross.v", "cross.t"):
        params[f"{name}.w"].data[...] = np.eye(d)
        params[f"{name}.b"].data[...] = 0.0


def test_cross_similarity_identity_pattern():
    d = 4
    params = _params(d=d)
    _identity_linears(params, d)
    a_row, a_col = refine.cross_similarity(Tensor(np.eye(d)), Tensor(np.eye(d)), params)
    # scores eye / sqrt(d): each row and column holds one e^(1/sqrt(d)) and
    # d - 1 ones
    big = math.exp(1.0 / math.sqrt(d))
    want = np.where(np.eye(d) == 1.0, big, 1.0) / (big + d - 1)
    assert np.allclose(a_row.data, want) and np.allclose(a_col.data, want)


def test_cross_similarity_stochastic_normalizations():
    a_row, a_col = refine.cross_similarity(*_features(), _params())
    assert np.allclose(a_row.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(a_col.data.sum(axis=0), 1.0, atol=1e-12)


def test_cross_similarity_gradients():
    d = 3
    v, t = _features(seed=2, L=3, N=2, d=d)
    params = _params(seed=1, d=d)
    names = ["cross.v.w", "cross.v.b", "cross.t.w", "cross.t.b"]
    rng = np.random.default_rng(5)
    r_row, r_col = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))

    def build(ts):
        local = dict(params)
        local.update(zip(names, ts))
        a_row, a_col = refine.cross_similarity(v, t, local)
        return T.add(T.tsum(T.mul(a_row, Tensor(r_row))), T.tsum(T.mul(a_col, Tensor(r_col))))

    assert check_gradients(build, [params[n].data.copy() for n in names]) < 1e-4


def test_attend_single_word_copies_it():
    v, t = _features(L=3, N=1)
    f_v2q, _ = refine.bidirectional_attend(*refine.cross_similarity(v, t, _params()), v, t)
    assert np.allclose(f_v2q.data, np.tile(t.data, (3, 1)))


def test_attend_uniform_scores_give_mean_word():
    v, t = _features(L=2, N=3)
    a_row, a_col = Tensor(np.full((2, 3), 1 / 3)), Tensor(np.full((2, 3), 1 / 2))
    f_v2q, _ = refine.bidirectional_attend(a_row, a_col, v, t)
    assert np.allclose(f_v2q.data, np.tile(t.data.mean(axis=0), (2, 1)))


def test_attend_matches_matrix_product_oracle():
    v, t = _features(seed=3, L=4, N=3)
    a_row, a_col = refine.cross_similarity(v, t, _params(seed=4))
    f_v2q, f_q2v = refine.bidirectional_attend(a_row, a_col, v, t)
    assert np.allclose(f_v2q.data, a_row.data @ t.data, atol=1e-12)
    assert np.allclose(f_q2v.data, a_row.data @ a_col.data.T @ v.data, atol=1e-12)


def test_attend_rows_remain_convex_after_scaling_words():
    v, t = _features(seed=6)
    a_row, _ = refine.cross_similarity(v, T.scale(t, 7.0), _params(seed=6))
    assert np.allclose(a_row.data.sum(axis=1), 1.0, atol=1e-12)


def test_fuse_output_shape():
    v, t = _features()
    f_v2q, f_q2v = refine.bidirectional_attend(*refine.cross_similarity(v, t, _params()), v, t)
    out = refine.fuse(v, t, f_v2q, f_q2v, _params())
    assert out.shape == (4, 4)


def test_fuse_zero_clips_annihilate_product_blocks():
    d = 4
    params = _params(d=d)
    _, t = _features(d=d)
    f_v2q = Tensor(np.random.default_rng(0).standard_normal((4, d)))
    f_q2v = Tensor(np.random.default_rng(1).standard_normal((4, d)))
    got = refine.fuse(Tensor(np.zeros((4, d))), t, f_v2q, f_q2v, params)
    text_global = np.tile(t.data.mean(axis=0), (4, 1))
    manual_in = np.concatenate(
        [np.zeros((4, d)), f_v2q.data, np.zeros((4, d)), np.zeros((4, d)), text_global],
        axis=1,
    )
    manual = manual_in @ params["fuse.w"].data + params["fuse.b"].data
    assert np.allclose(got.data, manual, atol=1e-12)


def test_fuse_gradient_to_linear():
    v, t = _features(seed=1, L=2, N=2, d=3)
    params = _params(seed=2, d=3)
    f_v2q, f_q2v = refine.bidirectional_attend(*refine.cross_similarity(v, t, params), v, t)
    r = np.random.default_rng(8).standard_normal((2, 3))

    def build(ts):
        local = dict(params)
        local["fuse.w"], local["fuse.b"] = ts
        return T.tsum(T.mul(refine.fuse(v, t, f_v2q, f_q2v, local), Tensor(r)))

    arrays = [params["fuse.w"].data.copy(), params["fuse.b"].data.copy()]
    assert check_gradients(build, arrays) < 1e-4


def _layer_norm(x, params, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * params["zattn.ln.g"].data + params["zattn.ln.b"].data


def test_cross_attention_single_word_returns_value_row():
    """One word: every clip attends to it alone, so the mixture is its value row."""
    d = 4
    params = _params(d=d)
    v, t = _features(L=3, N=1, d=d)
    joint = refine.cross_attention_fusion(v, t, params)
    v_row = t.data @ params["zattn.v.w"].data + params["zattn.v.b"].data
    want = _layer_norm(v.data + np.tile(v_row, (3, 1)), params)
    assert np.allclose(joint.data, want, atol=1e-12)


def test_cross_attention_constant_keys_give_mean_value():
    """Equal keys: uniform attention, so the mixture is the mean value row."""
    d = 4
    params = _params(d=d)
    params["zattn.k.w"].data[...] = 0.0  # keys collapse to the bias row
    v, t = _features(L=2, N=3, d=d)
    joint = refine.cross_attention_fusion(v, t, params)
    values = t.data @ params["zattn.v.w"].data + params["zattn.v.b"].data
    want = _layer_norm(v.data + np.tile(values.mean(axis=0), (2, 1)), params)
    assert np.allclose(joint.data, want, atol=1e-12)


def test_cross_attention_word_permutation_invariant():
    v, t = _features(seed=10, L=3, N=4, d=4)
    params = _params(seed=10)
    perm = np.random.default_rng(0).permutation(4)
    a = refine.cross_attention_fusion(v, t, params)
    b = refine.cross_attention_fusion(v, Tensor(t.data[perm]), params)
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_cross_attention_full_path_gradient():
    d = 3
    rng = np.random.default_rng(12)
    fv = rng.standard_normal((3, d))
    th = rng.standard_normal((2, d))
    params = _params(seed=12, d=d)
    r = rng.standard_normal((3, d))

    def build(ts):
        joint = refine.cross_attention_fusion(ts[0], ts[1], params)
        return T.tsum(T.mul(joint, Tensor(r)))

    assert check_gradients(build, [fv, th]) < 1e-4


def test_positional_encoding_shape_and_range():
    table = refine.positional_encoding(10, 8)
    assert table.shape == (10, 8)
    assert np.all(np.abs(table) <= 1.0)
    assert np.allclose(table[0, 0::2], 0.0)  # sin(0)
    assert np.allclose(table[0, 1::2], 1.0)  # cos(0)
    assert refine.positional_encoding(10, 8) is table and not table.flags.writeable


def test_multi_head_attention_heads_must_divide():
    params = {}
    refine.init_attention(params, np.random.default_rng(0), "blk", 6)
    x = Tensor(np.random.default_rng(1).standard_normal((3, 6)))
    with pytest.raises(ContractError):
        refine.multi_head_attention(x, x, params, "blk", heads=4)


def test_multi_head_attention_matches_manual_single_head():
    d = 4
    params = {}
    refine.init_attention(params, np.random.default_rng(3), "blk", d)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, d))
    got = refine.multi_head_attention(Tensor(x), Tensor(x), params, "blk", heads=1)
    q = x @ params["blk.q.w"].data + params["blk.q.b"].data
    k = x @ params["blk.k.w"].data + params["blk.k.b"].data
    v = x @ params["blk.v.w"].data + params["blk.v.b"].data
    s = q @ k.T / math.sqrt(d)
    e = np.exp(s - s.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    manual = (w @ v) @ params["blk.o.w"].data + params["blk.o.b"].data
    assert np.allclose(got.data, manual, atol=1e-12)


def test_multi_head_attention_gradient():
    d = 4
    params = {}
    refine.init_attention(params, np.random.default_rng(5), "blk", d)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, d))
    r = rng.standard_normal((3, d))
    names = sorted(params)

    def build(ts):
        local = dict(zip(names, ts))
        out = refine.multi_head_attention(Tensor(x), Tensor(x), local, "blk", heads=2)
        return T.tsum(T.mul(out, Tensor(r)))

    assert check_gradients(build, [params[n].data.copy() for n in names]) < 1e-4
