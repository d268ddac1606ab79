"""Finite-difference verification of the autodiff engine.

Analytic gradients are compared against central differences with step
h = 1e-5. The reported figure for one input element is

    |analytic - numeric| / max(1, |analytic|, |numeric|)

i.e. absolute error for small gradients, relative error for large ones.
``check_gradients`` returns the worst such figure over every element of
every input, which the test suite then thresholds.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def check_gradients(build, arrays: list[np.ndarray], h: float = 1e-5) -> float:
    """Max scaled mismatch between backprop and central differences.

    ``build`` takes a list of Tensors (one per entry of ``arrays``, each
    marked requires_grad) and returns a scalar Tensor. It is re-invoked
    for every probe, so it must be a pure function of its inputs.
    """
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(leaves)
    loss.backward()
    analytic = [
        leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.data)
        for leaf in leaves
    ]

    worst = 0.0
    for which, base in enumerate(arrays):
        flat = base.reshape(-1)
        for j in range(flat.size):
            bumped = [a.copy() for a in arrays]
            bumped[which].reshape(-1)[j] = flat[j] + h
            up = build([Tensor(a) for a in bumped]).item()
            bumped[which].reshape(-1)[j] = flat[j] - h
            down = build([Tensor(a) for a in bumped]).item()
            numeric = (up - down) / (2.0 * h)
            a_val = analytic[which].reshape(-1)[j]
            err = abs(a_val - numeric) / max(1.0, abs(a_val), abs(numeric))
            worst = max(worst, err)
    return worst


class _RandomLoss:
    """Contract an output against a frozen random array to get a scalar.

    A plain sum would zero out gradient structure that cancels across
    elements; a random projection catches sign and permutation bugs. The
    projection is drawn once at construction so repeated calls (as made
    by the finite-difference probes) see the same loss function.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._frozen: Tensor | None = None

    def __call__(self, out: Tensor) -> Tensor:
        if self._frozen is None:
            self._frozen = Tensor(self._rng.standard_normal(out.shape))
        return T.tsum(T.mul(out, self._frozen))


def _away_from_kinks(x: np.ndarray, points: list[float], margin: float = 1e-3) -> np.ndarray:
    """Nudge entries that sit within ``margin`` of a non-differentiable point."""
    out = x.copy()
    for p in points:
        close = np.abs(out - p) < margin
        out[close] = p + margin * np.where(out[close] >= p, 3.0, -3.0)
    return out


def kernel_suite(seeds: range | list[int], h: float = 1e-5) -> dict[str, float]:
    """Run every kernel through ``check_gradients`` across many seeds.

    Returns a mapping from kernel name to its worst error over all seeds.
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
            loss = _RandomLoss(np.random.default_rng(seed * 1000 + len(worst)))
            err = check_gradients(lambda ts: loss(op(ts)), arrays, h=h)
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
        run("slice_rows", lambda ts: T.slice_rows(ts[0], 1, 3), [a])
        run("slice_cols", lambda ts: T.slice_cols(ts[0], 1, 3), [a])
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
        # x and h, then Wxu, bxu, ..., Whc, bhc at width 2
        rows = [rng.standard_normal((1, 2)) for _ in range(2)]
        weights = [rng.standard_normal((2, 2) if i % 2 == 0 else 2) for i in range(12)]
        run("gru_step", lambda ts: T.gru_step(ts[0], ts[1], tuple(ts[2:])), rows + weights)
    return worst
