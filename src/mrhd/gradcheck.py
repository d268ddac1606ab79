"""Finite-difference verification of the autodiff engine.

Analytic gradients are compared against central differences with step
h = 1e-5. The reported figure for one input element is

    |analytic - numeric| / max(1, |analytic|, |numeric|)

i.e. absolute error for small gradients, relative error for large ones.
``check_gradients`` returns the worst such figure over the elements it
probes (every input element in ``kernel_suite``, five parameter entries of
the full training loss in ``end_to_end``); the test suite thresholds it.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from . import trainer
from .data import SynthConfig, synth_generate
from .tensor import Tensor


def check_gradients(build, arrays: list[np.ndarray], entries=None) -> float:
    """Max scaled mismatch between backprop and central differences.

    ``build`` takes a list of Tensors (one per entry of ``arrays``, each
    marked requires_grad) and returns a scalar Tensor. It is re-invoked
    for every probe, so it must be a pure function of its inputs.
    ``entries`` lists the ``(array, flat index)`` pairs to probe; None
    probes every element of every array.
    """
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    build(leaves).backward()
    if entries is None:
        entries = [(which, j) for which, a in enumerate(arrays) for j in range(a.size)]

    h = 1e-5
    worst = 0.0
    for which, j in entries:
        grad = leaves[which].grad
        a_val = 0.0 if grad is None else grad.reshape(-1)[j]
        bumped = [a.copy() for a in arrays]
        flat = bumped[which].reshape(-1)
        keep = flat[j]
        flat[j] = keep + h
        up = build([Tensor(a) for a in bumped]).item()
        flat[j] = keep - h
        down = build([Tensor(a) for a in bumped]).item()
        numeric = (up - down) / (2.0 * h)
        err = abs(a_val - numeric) / max(1.0, abs(a_val), abs(numeric))
        worst = max(worst, err)
    return worst


def end_to_end(seed: int) -> float:
    """``check_gradients`` on the full training loss of a tiny model.

    One synthetic sample (6 clips, 3 tokens, width 8) through a width-8
    model; the five parameter entries probed are drawn from the model's
    generator after initialization, each a parameter name and then a flat
    index into it.
    """
    d = 8
    synth = SynthConfig(num_samples=1, num_clips=6, num_tokens=3, d_v=d, d_t=d, noise=0.3)
    sample, bundle = synth_generate(synth, seed).samples[0]
    config = trainer.TrainConfig(seed=seed, d=d, num_queries=3, decoder_layers=1, heads=2, lambda_lg=0.3)
    rng = np.random.default_rng(seed + 1)
    params = trainer.init_model(rng, d, d, config)
    names = sorted(params)
    entries = []
    for _ in range(5):
        which = int(rng.integers(len(names)))
        entries.append((which, int(rng.integers(params[names[which]].data.size))))

    def build(ts):
        parts = trainer.forward(sample, bundle, dict(zip(names, ts)), config, "train").parts
        return trainer.batch_total([parts], config)[0]

    return check_gradients(build, [params[n].data for n in names], entries)


def _away_from_kinks(x: np.ndarray, points: list[float]) -> np.ndarray:
    """Move entries within 1e-3 of a non-differentiable point to 3e-3 from it."""
    out = x.copy()
    for p in points:
        close = np.abs(out - p) < 1e-3
        out[close] = p + 1e-3 * np.where(out[close] >= p, 3.0, -3.0)
    return out


def kernel_suite(seeds: range | list[int]) -> dict[str, float]:
    """Run every kernel through ``check_gradients`` across many seeds.

    Each kernel's output is contracted against a random array of its shape
    to get a scalar: a plain sum would zero out gradient structure that
    cancels across elements, and a random projection catches sign and
    permutation bugs. Returns a mapping from kernel name to its worst error
    over all seeds.
    """
    worst: dict[str, float] = {}

    for seed in seeds:
        rng = np.random.default_rng(seed)
        m, k, n = 3, 4, 2
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = rng.standard_normal((m, k))
        v = rng.standard_normal(k)
        pos = rng.uniform(0.5, 2.0, size=(m, k))

        def run(name: str, op, arrays):
            shape = op([Tensor(x) for x in arrays]).shape
            frozen = Tensor(np.random.default_rng(seed * 1000 + len(worst)).standard_normal(shape))
            err = check_gradients(lambda ts: T.tsum(T.mul(op(ts), frozen)), arrays)
            worst[name] = max(worst.get(name, 0.0), err)

        run("matmul", lambda ts: T.matmul(ts[0], ts[1]), [a, b])
        run("add", lambda ts: T.add(ts[0], ts[1]), [a, c])
        run("sub", lambda ts: T.sub(ts[0], ts[1]), [a, c])
        run("mul", lambda ts: T.mul(ts[0], ts[1]), [a, c])
        run("div", lambda ts: T.div(ts[0], ts[1]), [a, pos])
        # broadcasting: a row vector, a column (the first operand) and a
        # single value
        row, col, one = (rng.uniform(0.5, 2.0, size=shape) for shape in (k, (m, 1), 1))
        for name, op in (("add", T.add), ("sub", T.sub), ("mul", T.mul), ("div", T.div)):
            run(f"{name}_row", lambda ts, op=op: op(ts[0], ts[1]), [a, row])
            run(f"{name}_col", lambda ts, op=op: op(ts[0], ts[1]), [col, pos])
            run(f"{name}_one", lambda ts, op=op: op(ts[0], ts[1]), [a, one])
        run("scale", lambda ts: T.scale(ts[0], -1.7), [a])
        run("add_scalar", lambda ts: T.add_scalar(ts[0], 0.3), [a])
        run("exp", lambda ts: T.exp(ts[0]), [a])
        run("log", lambda ts: T.log(ts[0]), [pos])
        run("sqrt", lambda ts: T.sqrt(ts[0]), [pos])
        run("tanh", lambda ts: T.tanh(ts[0]), [a])
        run("sigmoid", lambda ts: T.sigmoid(ts[0]), [a])
        run("relu", lambda ts: T.relu(ts[0]), [_away_from_kinks(a, [0.0])])
        run(
            "clamp",
            lambda ts: T.clamp(ts[0], -0.5, 0.5),
            [_away_from_kinks(a, [-0.5, 0.5])],
        )
        run("softmax_rows", lambda ts: T.softmax(ts[0], axis=1), [a])
        run("softmax_cols", lambda ts: T.softmax(ts[0], axis=0), [a])
        run("sum_all", lambda ts: T.tsum(ts[0]), [a])
        run("sum_rows", lambda ts: T.tsum(ts[0], axis=0), [a])
        run("sum_cols", lambda ts: T.tsum(ts[0], axis=1), [a])
        run("mean_all", lambda ts: T.tmean(ts[0]), [a])
        run("mean_rows", lambda ts: T.tmean(ts[0], axis=0), [a])
        run("mean_cols", lambda ts: T.tmean(ts[0], axis=1), [a])
        run("reshape", lambda ts: T.reshape(ts[0], (k, m)), [a])
        run("transpose", lambda ts: T.transpose(ts[0]), [a])
        run("concat_rows", lambda ts: T.concat([ts[0], ts[1]], axis=0), [a, c])
        run("concat_cols", lambda ts: T.concat([ts[0], ts[1]], axis=1), [a, c])
        run("slice_rows", lambda ts: T.slice_range(ts[0], 1, 3, axis=0), [a])
        run("slice_cols", lambda ts: T.slice_range(ts[0], 1, 3, axis=1), [a])
        idx = rng.integers(0, m, size=5).tolist()
        run("gather_rows", lambda ts: T.gather_rows(ts[0], idx), [a])
        run("broadcast_rows", lambda ts: T.broadcast_rows(ts[0], m), [v])
        gain = rng.standard_normal(k)
        bias = rng.standard_normal(k)
        run("layer_norm", lambda ts: T.layer_norm(ts[0], ts[1], ts[2]), [a, gain, bias])
        run("affine", lambda ts: T.affine(ts[0], ts[1], ts[2]), [a, b, rng.standard_normal(n)])
        kv = [rng.standard_normal((n, k)), rng.standard_normal((n, k))]
        for heads in (1, 2):
            run(f"attention_{heads}h", lambda ts: T.attention(ts[0], ts[1], ts[2], heads), [a, *kv])
        # a 3-row chain from a state that requires grad, then Wxu, bxu, ...,
        # Whc, bhc at width 2
        chain = [rng.standard_normal((3, 2)), rng.standard_normal((1, 2))]
        weights = [rng.standard_normal((2, 2) if i % 2 == 0 else 2) for i in range(12)]
        run("gru", lambda ts: T.gru(ts[0], (0, 3), ts[1], tuple(ts[2:])), chain + weights)
        # stacks: two samples through one layer, and chains of 3, 1 and 2
        # steps in lockstep from a state that requires grad and from zero
        run("affine_stacked", lambda ts: T.affine(ts[0], ts[1], ts[2]), [rng.standard_normal((2, m, k)), b, rng.standard_normal(n)])
        spans, starts = [(0, 3), (2, 3), (1, 3)], rng.standard_normal((3, 1, 2))
        stacked = rng.standard_normal((3, 3, 2))
        run("gru_stacked", lambda ts: T.gru(ts[0], spans, ts[1], tuple(ts[2:])), [stacked, starts] + weights)
        zero = Tensor(np.zeros((3, 1, 2)))
        run("gru_stacked_zero_start", lambda ts: T.gru(ts[0], spans, zero, tuple(ts[1:])), [stacked] + weights)
    return worst
