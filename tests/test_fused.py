"""Fused kernels against the primitive compositions they replace.

Each reference below is the chain of primitive kernels the model ran before
the fused kernel took its place. A fused forward must give the same bits,
the composition's outputs byte for byte, and a stack the bits of each of its
samples. A fused backward is the gradient of the op itself, its products
made over whole stacks, so it sums in another order than the composition:
every gradient must agree within 1e-12 of its own largest entry. The
references take leading sample axes as the kernels do; a bias or gain added
to every row by broadcasting gets the sum over rows that ``broadcast_rows``
gave it.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mrhd import cooperate as C
from mrhd import refine, trainer
from mrhd import tensor as T
from mrhd.align import init_layer_norm, init_linear, linear
from mrhd.data import Dataset, SynthConfig, synth_generate
from mrhd.tensor import Tensor


def ref_affine(x, w, b):
    return T.add(T.matmul(x, w), b)


def ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = T.tmean(x, axis=-1)
    centered = T.sub(x, T.reshape(mu, mu.shape + (1,)))
    var = T.tmean(T.mul(centered, centered), axis=-1)
    std = T.reshape(T.sqrt(T.add_scalar(var, eps)), var.shape + (1,))
    normed = T.div(centered, std)
    return T.add(T.mul(normed, gain), bias)


def ref_attention(q, k, v, heads):
    dh = q.shape[-1] // heads
    outputs = []
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        qh, kh, vh = (T.slice_range(m, lo, hi, axis=-1) for m in (q, k, v))
        w = T.softmax(T.scale(T.matmul(qh, T.transpose(kh)), 1.0 / math.sqrt(dh)), axis=-1)
        outputs.append(T.matmul(w, vh))
    return T.concat(outputs, axis=-1)


def ref_linear(x, params, prefix):
    return ref_affine(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


def ref_gru_step(x, hidden, params):
    u = T.sigmoid(T.add(ref_linear(x, params, "gru.xu"), ref_linear(hidden, params, "gru.hu")))
    r = T.sigmoid(T.add(ref_linear(x, params, "gru.xr"), ref_linear(hidden, params, "gru.hr")))
    cand = T.tanh(
        T.add(ref_linear(x, params, "gru.xc"), ref_linear(T.mul(r, hidden), params, "gru.hc"))
    )
    keep = T.mul(T.add_scalar(T.scale(u, -1.0), 1.0), hidden)
    return T.add(keep, T.mul(u, cand))


def ref_gru_cell(x, spans, hidden, params):
    """One primitive step per row of the span, each on its own row slice
    (every sample's span the same)."""
    ((start, stop),) = set(map(tuple, np.reshape(spans, (-1, 2)).tolist()))
    rows = T.slice_range(x, start, stop, axis=-2)
    for t in range(stop - start):
        hidden = ref_gru_step(T.slice_range(rows, t, t + 1, axis=-2), hidden, params)
    return hidden


def _leaves(arrays: dict) -> dict:
    return {name: Tensor(a.copy(), requires_grad=True) for name, a in arrays.items()}


def _run(build, arrays: dict, seed: int = 0):
    """Forward ``build`` over fresh leaves, backward a random projection of
    its output, and return the output as bytes and every leaf's grad."""
    leaves = _leaves(arrays)
    out = build(leaves)
    proj = Tensor(np.random.default_rng(seed).standard_normal(out.shape))
    T.tsum(T.mul(out, proj)).backward()
    grads = {}
    for name, leaf in leaves.items():
        assert leaf.grad is not None, name
        grads[name] = leaf.grad
    return out.data.tobytes(), grads


def _exactly_zero(name: str) -> bool:
    """A parameter whose exact gradient is zero: the attention key biases
    (softmax is shift-invariant), and the biases of the two highlight
    scores, which reach the losses only through softmax and score
    differences. Their computed gradients are rounding residue, which
    another summation order moves by its own size."""
    return name.endswith(".k.b") or name in ("highlight.b", "refine_out.b")


def _assert_grads_close(got: dict, want: dict):
    """Every gradient within 1e-12 of its own largest entry; an exactly
    zero one within 1e-12 of the largest entry of them all."""
    assert got.keys() == want.keys()
    top = max((np.max(np.abs(g)) for g in want.values()), default=0.0)
    far = sorted(
        name for name in got
        if np.max(np.abs(got[name] - want[name]))
        > 1e-12 * (top if _exactly_zero(name) else np.max(np.abs(want[name])))
    )
    assert not far, f"grads differ past 1e-12: {far}"


def _assert_same(fused, reference):
    """Outputs byte for byte, gradients within 1e-12."""
    assert fused[0] == reference[0], "outputs differ"
    _assert_grads_close(fused[1], reference[1])


def _gru_params(rng, d):
    params = {}
    for gate in ("u", "r", "c"):
        init_linear(params, rng, f"gru.x{gate}", d, d)
        init_linear(params, rng, f"gru.h{gate}", d, d)
    return {name: rng.standard_normal(p.shape) for name, p in params.items()}


@pytest.mark.parametrize("rows", [1, 2, 7, 75])
@pytest.mark.parametrize("start", ["zero", "trained"])
def test_gru_chain_matches_primitive_steps_on_row_blocks(rows, start):
    """One chain over a block of rows, from a zero state or from a state
    that requires grad and also feeds a consumer made after the chain. Some
    inputs are zeros of either sign."""
    d = 8
    rng = np.random.default_rng(rows)
    arrays = _gru_params(rng, d)
    arrays["clips"] = rng.standard_normal((rows, d))
    arrays["clips"][0, :2] = (-0.0, 0.0)
    if start == "trained":
        arrays["h0"] = rng.standard_normal((1, d))
        arrays["h0"][0, 0] = -0.0

    def build(cell):
        def run(leaves):
            h0 = leaves.get("h0", Tensor(np.zeros((1, d))))
            hidden = cell(leaves["clips"], (0, rows), h0, leaves)
            scores = T.reshape(T.matmul(leaves["clips"], T.transpose(hidden)), (rows,))
            return T.concat([scores, T.tsum(T.mul(hidden, h0), axis=1)], axis=0)

        return run

    _assert_same(_run(build(C.gru_cell), arrays), _run(build(ref_gru_cell), arrays))


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
                hidden = cell(clips, (0, n), Tensor(np.zeros((1, d))), leaves)
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
    return breakdown, {name: p.grad for name, p in params.items()}


def test_training_step_matches_primitive_model(monkeypatch):
    """The whole model with every fused kernel swapped for its reference."""
    fused = _batch_grads()
    monkeypatch.setattr(T, "affine", ref_affine)
    monkeypatch.setattr(T, "layer_norm", ref_layer_norm)
    monkeypatch.setattr(T, "attention", ref_attention)
    monkeypatch.setattr(C, "gru_cell", ref_gru_cell)
    reference = _batch_grads()
    assert fused[0] == reference[0]
    _assert_grads_close(fused[1], reference[1])


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
    C.gru_cell(Tensor(rng.standard_normal((5, 4)), requires_grad=True), (0, 5), Tensor(np.zeros((1, 4))), params)
    assert len(recorded) == 1  # the whole 5-row chain


# ---------------------------------------------------------------------------
# stacked samples against separate one-sample graphs


def _stacked_and_slices(op, stacked: dict, shared: dict, seed: int = 0):
    """``op(inputs, params, sample)`` once on the (b, ...) stacks (``sample``
    None) and once per sample on its slices, each its own graph. Returns,
    for each run, the output as bytes, the stacked inputs' grads, the
    per-sample ones stacked back in sample order, and the shared params'
    grads."""
    b = len(next(iter(stacked.values())))

    def proj(shape):
        return np.random.default_rng(seed).standard_normal(shape)

    leaves, params = _leaves(stacked), _leaves(shared)
    out = op(leaves, params, None)
    T.tsum(T.mul(out, Tensor(proj(out.shape)))).backward()
    together = (
        out.data.tobytes(), {n: t.grad for n, t in leaves.items()},
        {n: t.grad for n, t in params.items()},
    )

    per_sample = [_leaves({n: a[i] for n, a in stacked.items()}) for i in range(b)]
    params = _leaves(shared)
    outs = [op(leaves, params, i) for i, leaves in enumerate(per_sample)]
    weights = proj((b,) + outs[0].shape)
    total = T.tsum(T.mul(outs[0], Tensor(weights[0])))
    for o, w in zip(outs[1:], weights[1:]):
        total = T.add(total, T.tsum(T.mul(o, Tensor(w))))
    total.backward()
    apart = (
        np.stack([o.data for o in outs]).tobytes(),
        {n: np.stack([s[n].grad for s in per_sample]) for n in stacked},
        {n: t.grad for n, t in params.items()},
    )
    return together, apart


def _assert_stack_matches(op, stacked, shared):
    """Outputs byte for byte; the per-sample inputs' grads and the shared
    params' grads, which a stack sums over its samples, within 1e-12."""
    together, apart = _stacked_and_slices(op, stacked, shared)
    _assert_same(together[:2], apart[:2])
    _assert_grads_close(together[2], apart[2])


@pytest.mark.parametrize("rows", [1, 6, 75])
def test_stacked_affine_matches_slices(rows):
    """Six samples, and a stack of one (each ``predict`` query's shape)."""
    rng = np.random.default_rng(rows)
    for samples in (6, 1):
        _assert_stack_matches(
            lambda x, p, _: T.affine(x["x"], p["w"], p["b"]),
            {"x": rng.standard_normal((samples, rows, 16))},
            {"w": rng.standard_normal((16, 40)), "b": rng.standard_normal(40)},
        )


def test_stacked_layer_norm_matches_slices():
    rng = np.random.default_rng(1)
    _assert_stack_matches(
        lambda x, p, _: T.layer_norm(T.tanh(x["x"]), p["gain"], p["bias"]),
        {"x": rng.standard_normal((5, 9, 8))},
        {"gain": rng.standard_normal(8), "bias": rng.standard_normal(8)},
    )


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_stacked_attention_matches_slices(heads):
    rng = np.random.default_rng(heads)
    _assert_stack_matches(
        lambda x, p, _: T.attention(x["q"], x["k"], x["v"], heads),
        {"q": rng.standard_normal((4, 5, 8)), "k": rng.standard_normal((4, 7, 8)),
         "v": rng.standard_normal((4, 7, 8))},
        {},
    )


@pytest.mark.parametrize("start", ["zero", "trained"])
def test_stacked_gru_with_per_sample_spans_matches_slices(start):
    """Chains of 6, 1, 3 and 6 steps over different rows, run in lockstep,
    and the last chain alone in a stack of one (each ``predict`` query's
    shape)."""
    d = 4
    rng = np.random.default_rng(9)
    all_spans = np.array([(0, 6), (4, 5), (2, 5), (1, 7)])
    all_stacked = {"clips": rng.standard_normal((4, 8, d))}
    all_stacked["clips"][1, 4, :2] = (-0.0, 0.0)
    if start == "trained":
        all_stacked["h0"] = rng.standard_normal((4, 1, d))
    params = _gru_params(rng, d)

    for picked in ([0, 1, 2, 3], [3]):
        spans = all_spans[picked]

        def op(x, p, sample, spans=spans):
            span = spans if sample is None else spans[sample]
            h0 = x.get("h0", Tensor(np.zeros(span.shape[:-1] + (1, d))))
            return C.gru_cell(x["clips"], span, h0, p)

        _assert_stack_matches(op, {n: a[picked] for n, a in all_stacked.items()}, params)


@pytest.mark.parametrize("axis", [-1, -2])
def test_stacked_softmax_and_reductions_match_slices(axis):
    rng = np.random.default_rng(2)
    for kernel in (
        lambda x: T.softmax(x, axis),
        lambda x: T.tsum(x, axis),
        lambda x: T.tmean(x, axis),
        lambda x: T.broadcast_rows(T.tmean(x, axis), 3),
    ):
        _assert_stack_matches(
            lambda x, p, _, kernel=kernel: kernel(T.mul(x["x"], p["scale"])),
            {"x": rng.standard_normal((5, 7, 9))},
            {"scale": rng.standard_normal(9)},
        )


def _mixed_batch():
    """Clip counts (5, 7, 5, 9, 7): a repeated shape, a group of one, and
    groups that interleave in batch order. The seeds give both samples of a
    clip count as many saliency pairs, so that they share a graph."""
    synth = {
        clips: synth_generate(SynthConfig(num_samples=2, num_clips=clips, d_v=10, d_t=6), 3 + clips).samples
        for clips in (5, 7, 9)
    }
    picks = [(5, 0), (7, 0), (5, 1), (9, 0), (7, 1)]
    return [
        (replace(synth[clips][k][0], qid=pos), synth[clips][k][1])
        for pos, (clips, k) in enumerate(picks)
    ]


_MIXED_CONFIG = trainer.TrainConfig(seed=0, d=8, num_queries=3, decoder_layers=2, heads=2)


def _mixed_step(build_parts):
    params = trainer.init_model(np.random.default_rng(0), 10, 6, _MIXED_CONFIG)
    parts = build_parts(params)
    total, breakdown = trainer.batch_total(parts, _MIXED_CONFIG)
    total.backward()
    return parts, breakdown, {name: p.grad for name, p in params.items()}


def test_batched_step_matches_one_sample_graphs():
    """Groups of stacked samples against one graph per sample: the loss
    breakdown byte for byte, and every parameter gradient within 1e-12 of
    its largest entry, an exactly zero one of the step's (a stack sums its
    samples' shares of a parameter's gradient before adding them in)."""
    batch = _mixed_batch()
    seed = 3
    parts, breakdown, grads = _mixed_step(
        lambda params: trainer.forward_batch(batch, params, _MIXED_CONFIG, "train", seed)[1]
    )
    assert sorted(p.rows for p in parts) == [(0, 2), (1, 4), (3,)]
    _, want_breakdown, want_grads = _mixed_step(
        lambda params: [
            trainer.forward(s, b, params, _MIXED_CONFIG, "train", seed).parts for s, b in batch
        ]
    )
    assert breakdown == want_breakdown
    _assert_grads_close(grads, want_grads)


def test_batched_predictions_match_one_sample_forwards():
    batch = _mixed_batch()
    params = trainer.init_model(np.random.default_rng(1), 10, 6, _MIXED_CONFIG)
    predictions, parts = trainer.forward_batch(batch, params, _MIXED_CONFIG, "infer")
    assert parts == []
    for (sample, bundle), got in zip(batch, predictions):
        want = trainer.forward(sample, bundle, params, _MIXED_CONFIG, "infer").prediction
        assert got.spans == want.spans and got.highlight.tobytes() == want.highlight.tobytes()
