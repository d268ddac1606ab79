"""Fused kernels against the primitive compositions they replace.

Each reference below is the chain of primitive kernels the model ran before
the fused kernel took its place. The fused graph must give the same bits:
the same outputs, and every gradient byte-equal, because the backward walk
must add each tensor's contributions in the same order.
"""

import math

import numpy as np
import pytest

from mrhd import cooperate as C
from mrhd import refine, trainer
from mrhd import tensor as T
from mrhd.align import init_layer_norm, init_linear, linear
from mrhd.data import Dataset, SynthConfig, synth_generate
from mrhd.tensor import Tensor


def ref_affine(x, w, b):
    return T.add(T.matmul(x, w), T.broadcast_rows(b, x.shape[0]))


def ref_layer_norm(x, gain, bias, eps=1e-5):
    rows = x.shape[0]
    mu = T.tmean(x, axis=1)
    centered = T.sub(x, T.reshape(mu, (rows, 1)))
    var = T.tmean(T.mul(centered, centered), axis=1)
    std = T.reshape(T.sqrt(T.add_scalar(var, eps)), (rows, 1))
    normed = T.div(centered, std)
    return T.add(T.mul(normed, T.broadcast_rows(gain, rows)), T.broadcast_rows(bias, rows))


def ref_attention(q, k, v, heads):
    dh = q.shape[1] // heads
    outputs = []
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        qh, kh, vh = (T.slice_cols(m, lo, hi) for m in (q, k, v))
        w = T.softmax(T.scale(T.matmul(qh, T.transpose(kh)), 1.0 / math.sqrt(dh)), axis=1)
        outputs.append(T.matmul(w, vh))
    return T.concat(outputs, axis=1)


def ref_linear(x, params, prefix):
    b = params[f"{prefix}.b"]
    return T.add(T.matmul(x, params[f"{prefix}.w"]), T.broadcast_rows(b, x.shape[0]))


def ref_gru_cell(x, hidden, params):
    u = T.sigmoid(T.add(ref_linear(x, params, "gru.xu"), ref_linear(hidden, params, "gru.hu")))
    r = T.sigmoid(T.add(ref_linear(x, params, "gru.xr"), ref_linear(hidden, params, "gru.hr")))
    cand = T.tanh(
        T.add(ref_linear(x, params, "gru.xc"), ref_linear(T.mul(r, hidden), params, "gru.hc"))
    )
    keep = T.mul(T.add_scalar(T.scale(u, -1.0), 1.0), hidden)
    return T.add(keep, T.mul(u, cand))


def _leaves(arrays: dict) -> dict:
    return {name: Tensor(a.copy(), requires_grad=True) for name, a in arrays.items()}


def _run(build, arrays: dict, seed: int = 0):
    """Forward ``build`` over fresh leaves, backward a random projection of
    its output, and return the output and every leaf's grad as bytes."""
    leaves = _leaves(arrays)
    out = build(leaves)
    proj = Tensor(np.random.default_rng(seed).standard_normal(out.shape))
    T.tsum(T.mul(out, proj)).backward()
    grads = {}
    for name, leaf in leaves.items():
        assert leaf.grad is not None, name
        grads[name] = leaf.grad.tobytes()
    return out.data.tobytes(), grads


def _assert_same(fused, reference):
    assert fused[0] == reference[0], "outputs differ"
    assert fused[1].keys() == reference[1].keys()
    differ = sorted(name for name in fused[1] if fused[1][name] != reference[1][name])
    assert not differ, f"grads differ: {differ}"


def _gru_params(rng, d):
    params = {}
    for gate in ("u", "r", "c"):
        init_linear(params, rng, f"gru.x{gate}", d, d)
        init_linear(params, rng, f"gru.h{gate}", d, d)
    return {name: rng.standard_normal(p.shape) for name, p in params.items()}


@pytest.mark.parametrize("lengths", [(3, 4), (5, 3)])
def test_gru_chain_matches_primitive_steps(lengths):
    """Two samples' chains through shared weights; each final hidden also
    feeds a second consumer, as in ``mr2hd``."""
    d = 4
    rng = np.random.default_rng(sum(lengths))
    arrays = _gru_params(rng, d)
    for s, n in enumerate(lengths):
        arrays[f"clips{s}"] = rng.standard_normal((n, d))

    def chain(cell):
        def build(leaves):
            outputs = []
            for s, n in enumerate(lengths):
                clips = leaves[f"clips{s}"]
                hidden = Tensor(np.zeros((1, d)))
                for t in range(n):
                    hidden = cell(T.slice_rows(clips, t, t + 1), hidden, leaves)
                scores = T.reshape(T.matmul(clips, T.transpose(hidden)), (n,))
                outputs += [scores, T.tsum(T.mul(hidden, hidden), axis=1)]
            return T.concat(outputs, axis=0)

        return build

    _assert_same(_run(chain(C.gru_cell), arrays), _run(chain(ref_gru_cell), arrays))


def test_mr2hd_matches_primitive_gru(monkeypatch):
    d, length = 4, 9
    rng = np.random.default_rng(3)
    params = {}
    C.init_cooperate_params(params, rng, d, num_queries=2, decoder_layers=1)
    arrays = {name: p.data for name, p in params.items() if name.startswith(("gru.", "refine_out."))}
    for name in ("v_hat", "joint", "z_hat"):
        arrays[name] = rng.standard_normal((length, d))

    def build(leaves):
        # a 6-clip top span: six GRU steps
        return C.mr2hd(leaves["v_hat"], leaves["joint"], leaves["z_hat"], (2.0, 13.0), 2.0, leaves)

    fused = _run(build, arrays)
    monkeypatch.setattr(C, "gru_cell", ref_gru_cell)
    _assert_same(fused, _run(build, arrays))


def test_layer_norm_with_residual_matches_primitive():
    rng = np.random.default_rng(4)
    arrays = {
        "x": rng.standard_normal((5, 6)),
        "w": rng.standard_normal((6, 6)),
        "gain": rng.standard_normal(6),
        "bias": rng.standard_normal(6),
    }

    def build(norm):
        def run(leaves):
            x = T.tanh(T.matmul(leaves["x"], leaves["w"]))
            normed = norm(x, leaves["gain"], leaves["bias"])
            return T.add(x, T.mul(normed, normed))  # x also feeds the residual

        return run

    _assert_same(_run(build(T.layer_norm), arrays), _run(build(ref_layer_norm), arrays))


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("self_attention", [True, False])
def test_multi_head_attention_matches_primitive(monkeypatch, heads, self_attention):
    d = 8
    rng = np.random.default_rng(heads)
    params = {}
    refine.init_attention(params, rng, "attn", d)
    init_layer_norm(params, "ln", d)
    arrays = {name: rng.standard_normal(p.shape) for name, p in params.items()}
    arrays["x"] = rng.standard_normal((5, d))
    if not self_attention:
        arrays["memory"] = rng.standard_normal((3, d))

    def build(leaves):
        normed = T.layer_norm(leaves["x"], leaves["ln.g"], leaves["ln.b"])
        kv = leaves.get("memory", normed)
        return T.add(leaves["x"], refine.multi_head_attention(normed, kv, leaves, "attn", heads))

    fused = _run(build, arrays)
    monkeypatch.setattr(T, "attention", ref_attention)
    _assert_same(fused, _run(build, arrays))


def test_cross_attention_fusion_matches_primitive():
    d = 4
    rng = np.random.default_rng(6)
    params = {}
    refine.init_refine_params(params, rng, d)
    arrays = {name: rng.standard_normal(p.shape) for name, p in params.items() if name.startswith("zattn")}
    arrays["clips"] = rng.standard_normal((6, d))
    arrays["words"] = rng.standard_normal((3, d))

    def build(leaves):
        return refine.cross_attention_fusion(leaves["clips"], leaves["words"], leaves)

    def reference(leaves):
        q = ref_linear(leaves["clips"], leaves, "zattn.q")
        k = ref_linear(leaves["words"], leaves, "zattn.k")
        v = ref_linear(leaves["words"], leaves, "zattn.v")
        w = T.softmax(T.scale(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(d)), axis=1)
        mixed = T.add(leaves["clips"], T.matmul(w, v))
        return ref_layer_norm(mixed, leaves["zattn.ln.g"], leaves["zattn.ln.b"])

    _assert_same(_run(build, arrays), _run(reference, arrays))


def test_shared_linear_matches_primitive():
    """One weight and bias in three calls, one nested in another."""
    rng = np.random.default_rng(7)
    arrays = {
        "x": rng.standard_normal((4, 5)),
        "y": rng.standard_normal((2, 5)),
        "l.w": rng.standard_normal((5, 5)),
        "l.b": rng.standard_normal(5),
    }

    def build(lin):
        def run(leaves):
            twice = lin(T.relu(lin(leaves["x"], leaves, "l")), leaves, "l")
            return T.concat([twice, lin(leaves["y"], leaves, "l")], axis=0)

        return run

    _assert_same(_run(build(linear), arrays), _run(build(ref_linear), arrays))


def _batch_grads(d_v=10, d_t=6):
    ds = Dataset(
        samples=synth_generate(SynthConfig(num_samples=1, num_clips=9, d_v=d_v, d_t=d_t), 1).samples
        + synth_generate(SynthConfig(num_samples=1, num_clips=14, d_v=d_v, d_t=d_t), 2).samples
    )
    config = trainer.TrainConfig(seed=0, d=8, num_queries=3, decoder_layers=2, heads=2)
    params = trainer.init_model(np.random.default_rng(0), d_v, d_t, config)
    parts = [trainer.forward(s, b, params, config, "train").parts for s, b in ds.samples]
    total, breakdown = trainer.batch_total(parts, config)
    total.backward()
    return breakdown, {name: p.grad.tobytes() for name, p in params.items()}


def test_training_step_matches_primitive_model(monkeypatch):
    """The whole model with every fused kernel swapped for its reference."""
    fused = _batch_grads()
    monkeypatch.setattr(T, "affine", ref_affine)
    monkeypatch.setattr(T, "layer_norm", ref_layer_norm)
    monkeypatch.setattr(T, "attention", ref_attention)
    monkeypatch.setattr(C, "gru_cell", ref_gru_cell)
    reference = _batch_grads()
    assert fused[0] == reference[0]
    differ = sorted(name for name in fused[1] if fused[1][name] != reference[1][name])
    assert fused[1].keys() == reference[1].keys() and not differ, differ


def test_fused_kernels_record_one_node_each(monkeypatch):
    recorded = []
    real_record = T._record

    def record(out_data, parents, backward):
        out = real_record(out_data, parents, backward)
        recorded.append(out)
        return out

    monkeypatch.setattr(T, "_record", record)
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert len(recorded) == 1
    recorded.clear()
    T.attention(x, x, x, heads=2)
    assert len(recorded) == 1
    recorded.clear()
    params = {name: Tensor(a) for name, a in _gru_params(rng, 4).items()}
    C.gru_cell(T.slice_rows(x, 0, 1), Tensor(np.zeros((1, 4))), params)
    assert len(recorded) == 2  # the step and the row slice
