"""Cooperation module: highlight head, hand-offs, decoder, GRU."""

import math

import numpy as np
import pytest

from mrhd import cooperate as C
from mrhd import tensor as T
from mrhd.gradcheck import check_gradients
from mrhd.tensor import ContractError, Tensor

D, HEADS, M, K = 4, 2, 3, 2


def _params(seed=0, d=D, num_queries=M, decoder_layers=K):
    params = {}
    C.init_cooperate_params(params, np.random.default_rng(seed), d, num_queries, decoder_layers)
    return params


def _joint(seed=0, L=5, d=D):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((L, d)))


def test_highlight_head_length():
    h = C.highlight_head(_joint(), _params(), HEADS)
    assert h.shape == (5,)


def test_highlight_head_zero_weights_emit_bias():
    params = _params()
    params["highlight.w"].data[...] = 0.0
    params["highlight.b"].data[...] = 0.7
    h = C.highlight_head(_joint(), params, HEADS)
    assert np.allclose(h.data, 0.7)


def test_highlight_head_gradient_to_shared_params():
    params = _params(seed=3)
    joint = _joint(seed=3, L=3)
    names = [n for n in sorted(params) if n.startswith(C.SHARED_PREFIX)]
    rng = np.random.default_rng(4)
    r = rng.standard_normal(3)

    def build(ts):
        local = dict(params)
        local.update(zip(names, ts))
        h = C.highlight_head(joint, local, HEADS)
        return T.tsum(T.mul(h, Tensor(r)))

    assert check_gradients(build, [params[n].data.copy() for n in names]) < 1e-4


def test_hd2mr_uniform_scores_reduce_to_scaled_input():
    params = _params(seed=1)
    joint = _joint(seed=1, L=4)
    h = Tensor(np.full(4, 2.5))
    got = C.hd2mr(joint, h, params, HEADS)
    manual = C.transformer_block(
        T.scale(joint, 1.0 + 1.0 / 4.0), params, C.SHARED_PREFIX, HEADS
    )
    assert np.allclose(got.data, manual.data, atol=1e-12)


def test_hd2mr_dominant_clip_survives():
    params = _params(seed=2)
    joint = _joint(seed=2, L=4)
    h = Tensor(np.array([0.0, 50.0, 0.0, 0.0]))
    weights = np.exp(h.data - h.data.max())
    weights /= weights.sum()
    assert weights[1] > 1 - 1e-12
    scaled = joint.data * weights[:, None]
    assert np.allclose(scaled[0], 0.0, atol=1e-12)
    assert np.allclose(scaled[1], joint.data[1], atol=1e-12)
    got = C.hd2mr(joint, h, params, HEADS)
    manual = C.transformer_block(
        Tensor(joint.data + scaled), params, C.SHARED_PREFIX, HEADS
    )
    assert np.allclose(got.data, manual.data, atol=1e-10)


def test_shared_block_aliasing_between_call_sites():
    params = _params(seed=5)
    joint = _joint(seed=5)
    h = C.highlight_head(joint, params, HEADS)
    before = C.hd2mr(joint, h, params, HEADS).data.copy()
    # a constant shift would vanish against zero-mean layer-normed inputs,
    # so perturb a single weight instead
    params[f"{C.SHARED_PREFIX}.attn.v.w"].data[0, 0] += 1.5
    h2 = C.highlight_head(joint, params, HEADS)
    after = C.hd2mr(joint, h2, params, HEADS).data
    assert not np.allclose(before, after)


def test_shared_block_single_copy_in_params():
    params = _params()
    shared = [n for n in params if "attn" in n and not n.startswith("decoder")]
    assert all(n.startswith(C.SHARED_PREFIX) for n in shared)
    # exactly one q/k/v/o set outside the decoder
    assert sum(n.endswith(".q.w") for n in shared) == 1


def test_shared_gradient_is_sum_of_call_site_gradients():
    params = _params(seed=7)
    joint = _joint(seed=7, L=4)
    names = [n for n in sorted(params) if n.startswith(C.SHARED_PREFIX)]
    const_h = Tensor(np.linspace(-1, 1, 4))

    def grad_of(loss_fn):
        for p in params.values():
            p.grad = None
        loss_fn().backward()
        return {n: (params[n].grad.copy() if params[n].grad is not None else 0.0) for n in names}

    g_head = grad_of(lambda: T.tsum(C.highlight_head(joint, params, HEADS)))
    g_hand = grad_of(lambda: T.tsum(C.hd2mr(joint, const_h, params, HEADS)))
    g_both = grad_of(
        lambda: T.add(
            T.tsum(C.highlight_head(joint, params, HEADS)),
            T.tsum(C.hd2mr(joint, const_h, params, HEADS)),
        )
    )
    for n in names:
        assert np.allclose(g_both[n], g_head[n] + g_hand[n], atol=1e-10), n


def test_decoder_span_count_and_bounds():
    params = _params(seed=8)
    z_hat = T.reshape(_joint(seed=8, L=6), (1, 6, D))
    cw, scores = C.moment_decoder(z_hat, params, HEADS, K)
    spans = C.decode_spans(Tensor(cw.data[0]), Tensor(scores.data[0]), duration=32.0)
    assert len(spans) == M
    for start, end, score in spans:
        assert 0.0 <= start < end <= 32.0
        assert 0.0 < score < 1.0
    assert all(a[2] >= b[2] for a, b in zip(spans, spans[1:]))


def test_decode_spans_arithmetic():
    spans = C.decode_spans(Tensor(np.array([[0.5, 0.5]])), Tensor(np.array([0.9])), 100.0)
    assert spans == [(25.0, 75.0, 0.9)]


def test_decoder_query_permutation_permutes_spans():
    params = _params(seed=9)
    z_hat = T.reshape(_joint(seed=9, L=5), (1, 5, D))
    base_cw, base_scores = C.moment_decoder(z_hat, params, HEADS, K)
    perm = np.array([2, 0, 1])
    params["decoder.queries"].data[...] = params["decoder.queries"].data[perm]
    cw, scores = C.moment_decoder(z_hat, params, HEADS, K)
    assert np.allclose(cw.data, base_cw.data[:, perm], atol=1e-12)
    assert np.allclose(scores.data, base_scores.data[:, perm], atol=1e-12)


def test_gru_zero_everything_gives_zero():
    params = _params()
    for g in ("u", "r", "c"):
        for side in ("x", "h"):
            params[f"gru.{side}{g}.w"].data[...] = 0.0
            params[f"gru.{side}{g}.b"].data[...] = 0.0
    out = C.gru_cell(Tensor(np.zeros((1, D))), (0, 1), Tensor(np.zeros((1, D))), params)
    assert np.allclose(out.data, 0.0)


def test_gru_saturated_update_gate_keeps_hidden():
    params = _params(seed=10)
    params["gru.xu.b"].data[...] = -50.0
    params["gru.hu.b"].data[...] = 0.0
    hidden = Tensor(np.random.default_rng(0).standard_normal((1, D)))
    out = C.gru_cell(Tensor(np.zeros((1, D))), (0, 1), hidden, params)
    assert np.allclose(out.data, hidden.data, atol=1e-12)


def test_gru_step_matches_scalar_oracle():
    params = _params(seed=11)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1, D))
    h = rng.standard_normal((1, D))
    got = C.gru_cell(Tensor(x), (0, 1), Tensor(h), params).data

    def lin(v, name):
        return v @ params[f"{name}.w"].data + params[f"{name}.b"].data

    sig = lambda a: 1.0 / (1.0 + np.exp(-a))
    u = sig(lin(x, "gru.xu") + lin(h, "gru.hu"))
    r = sig(lin(x, "gru.xr") + lin(h, "gru.hr"))
    cand = np.tanh(lin(x, "gru.xc") + lin(r * h, "gru.hc"))
    want = (1 - u) * h + u * cand
    assert np.allclose(got, want, atol=1e-12)


def test_gru_chain_matches_scalar_oracle_loop():
    """Five rows through one ``gru_cell`` call against a per-element loop."""
    params = _params(seed=14)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((5, D))
    h0 = rng.standard_normal((1, D))
    got = C.gru_cell(Tensor(x), (0, 5), Tensor(h0), params).data

    def lin(v, name, j):
        w, b = params[f"gru.{name}.w"].data, params[f"gru.{name}.b"].data
        return sum(v[i] * w[i, j] for i in range(D)) + b[j]

    sig = lambda a: 1.0 / (1.0 + math.exp(-a))
    h = list(h0[0])
    for row in x:
        u = [sig(lin(row, "xu", j) + lin(h, "hu", j)) for j in range(D)]
        r = [sig(lin(row, "xr", j) + lin(h, "hr", j)) for j in range(D)]
        rh = [r[j] * h[j] for j in range(D)]
        cand = [math.tanh(lin(row, "xc", j) + lin(rh, "hc", j)) for j in range(D)]
        h = [(1 - u[j]) * h[j] + u[j] * cand[j] for j in range(D)]
    assert got.shape == (1, D)
    assert np.allclose(got[0], h, atol=1e-12)


def test_span_to_clip_range_clamps():
    assert C.span_to_clip_range(0.0, 2.0, 2.0, 4) == (0, 1)
    assert C.span_to_clip_range(1.0, 1.5, 2.0, 4) == (0, 1)
    assert C.span_to_clip_range(7.9, 8.0, 2.0, 4) == (3, 4)
    assert C.span_to_clip_range(-3.0, 9.0, 2.0, 4) == (0, 4)
    assert C.span_to_clip_range(8.0, 8.0, 2.0, 4) == (3, 4)  # touches the end
    assert C.span_to_clip_range(0.0, 0.0, 2.0, 4) == (0, 1)
    with pytest.raises(ContractError):
        C.span_to_clip_range(9.0, 12.0, 2.0, 4)
    with pytest.raises(ContractError):
        C.span_to_clip_range(-5.0, -1.0, 2.0, 4)


def test_mr2hd_single_clip_span_is_one_gru_step():
    params = _params(seed=13)
    rng = np.random.default_rng(13)
    L = 4
    v_hat = Tensor(rng.standard_normal((L, D)))
    joint = Tensor(rng.standard_normal((L, D)))
    z_hat = Tensor(rng.standard_normal((L, D)))
    got = C.mr2hd(v_hat, joint, z_hat, (0.0, 2.0), 2.0, params)
    assert got.shape == (L,)

    one_step = C.gru_cell(v_hat, (0, 1), Tensor(np.zeros((1, D))), params).data
    dots = v_hat.data @ one_step.T
    eps = 1e-8
    nv = np.sqrt((v_hat.data**2).sum(axis=1) + eps**2) + eps
    nh = np.sqrt((one_step**2).sum() + eps**2) + eps
    s_ref = dots[:, 0] / (nv * nh)
    w = np.exp(s_ref - s_ref.max())
    w /= w.sum()
    refined_in = joint.data + z_hat.data * w[:, None]
    want = refined_in @ params["refine_out.w"].data + params["refine_out.b"].data
    assert np.allclose(got.data, want[:, 0], atol=1e-12)


def test_mr2hd_cosine_one_for_positive_multiple():
    params = _params(seed=14)
    rng = np.random.default_rng(14)
    fm = rng.standard_normal((1, D))
    nv = np.sqrt((fm**2).sum() + 1e-16) + 1e-8
    cos = (fm @ fm.T)[0, 0] / (nv * nv)
    assert abs(cos - 1.0) < 1e-7  # the documented norm epsilon bounds the gap


def test_mr2hd_output_length_for_any_span():
    params = _params(seed=15)
    rng = np.random.default_rng(15)
    L = 6
    v_hat = Tensor(rng.standard_normal((L, D)))
    joint = Tensor(rng.standard_normal((L, D)))
    z_hat = Tensor(rng.standard_normal((L, D)))
    for span in [(0.0, 12.0), (3.0, 5.0), (10.0, 12.0), (0.0, 0.5)]:
        out = C.mr2hd(v_hat, joint, z_hat, span, 2.0, params)
        assert out.shape == (L,)


def test_mr2hd_full_path_gradient_to_v_hat():
    params = _params(seed=16)
    rng = np.random.default_rng(16)
    L = 3
    joint_z = rng.standard_normal((L, D))
    z_hat = rng.standard_normal((L, D))
    v0 = rng.standard_normal((L, D))
    r = rng.standard_normal(L)

    def build(ts):
        h_bar = C.mr2hd(
            ts[0], Tensor(joint_z), Tensor(z_hat), (0.0, 4.0), 2.0, params
        )
        return T.tsum(T.mul(h_bar, Tensor(r)))

    assert check_gradients(build, [v0]) < 1e-4


def test_softmax_reweightings_are_convex():
    params = _params(seed=17)
    joint = _joint(seed=17, L=5)
    h = C.highlight_head(joint, params, HEADS)
    w = T.softmax(h, axis=0)
    assert abs(w.data.sum() - 1.0) < 1e-12
