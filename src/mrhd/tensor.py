"""Reverse-mode autodiff over dense float64 arrays.

Everything differentiable in this package runs on the ``Tensor`` class
below: a numpy float64 buffer plus a dynamically recorded graph. Each
kernel stores its parent tensors and a closure that maps the output
gradient to input gradients; ``backward()`` on a scalar loss replays the
closures and accumulates into ``.grad``. Kernels hand their fresh output
buffer to ``_record``, which wraps it as it is (a 0-d result, a numpy
scalar or array, becomes a (1,) array: no Tensor is 0-d) and, when some
parent requires grad, attaches parents and closure and stamps the node
with the next number of a counter.

The primitive kernels are matmul, elementwise arithmetic under numpy's
broadcasting rule, scalar affine ops, a few nonlinearities, axis
reductions, concat, slicing along an axis, row gathering, transpose, and
``broadcast_rows``, which tiles a vector into a real matrix for
``concat``. There are no views; every op materializes a fresh buffer.

Batches. Every kernel treats the axes before its last one or two as a
batch of independent samples, which is numpy's matmul and broadcasting
rule; shape checks look at the trailing axes only. A stacked forward
result is byte-equal to the per-sample ones (each sample's matmul is its
own BLAS call of the same shape, and each reduction runs along the same
axis with the same length). Gradients are not: a fused backward (below)
runs one product over every row of a stack, so a stack's per-sample
input gradients agree with one graph per sample to a few ulps, not bit
for bit. A tensor the samples share, such as a parameter, gets a stack's
gradient summed over the leading axes it lacks, as numpy's broadcasting
sums them (``np.add.reduce``), and the sum is added into its ``.grad``
when it arrives, like any other contribution.

``backward`` runs the closures in reverse creation order. A node is
created after its parents, so each gradient is complete before its closure
reads it, and a tensor's contributions arrive in the reverse of the order
in which its consumers were created, whatever the graph's shape. A graph
is walked once: as soon as a node's closure has run, the walk drops the
node's gradient, closure and parents, so every buffer the rest of the walk
no longer reads is freed as it goes, and a second ``backward`` through the
node raises ``ContractError``. Leaves keep their ``.grad``.

Four fused kernels stand in for the compositions the model runs most:
``affine`` (a linear layer), ``layer_norm``, ``attention`` (every head of
a multi-head attention) and ``gru`` (every sample's GRU chain, one step
per row, as one node). Each forward gives the bits of the primitive
composition it replaces, on one sample and on each sample of a stack,
because its operands keep the layouts and shapes the primitive kernels
gave them: head slices copied to C order, the transposed key copied as
``transpose`` did, each GRU step's (1, d) @ (d, d) product made over a
stack of (1, d) rows, which numpy runs as one BLAS call per row (one
(T, d) @ (d, d) product differs from the row products in the last bits).
Each backward is the gradient of the fused op itself, its products made
over whole stacks: it agrees with the composition's gradients to about
1e-14 of their largest entry, not bit for bit. ``tests/test_fused.py``
checks both.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter

import numpy as np


class ContractError(ValueError):
    """An operation was called outside its documented contract."""


def _as_array(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64))


class Tensor:
    """A float64 array that remembers the operation graph producing it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._seq = 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable tensor,
        consuming its graph.

        Runs the closures of the reachable nodes once each, in reverse
        creation order (see the module docstring). Once a node's closure
        has run, its gradient, closure and parents are dropped, so a second
        ``backward`` through it raises ``ContractError``. Leaves keep their
        ``.grad``; those the loss does not depend on are left as None.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        nodes = _graph(self)
        self.grad = np.ones_like(self.data)
        while nodes:  # popped last-created first; the list drops each node as it runs
            node = nodes.pop()
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _walked, ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _graph(root: Tensor) -> list[Tensor]:
    """The nodes with a closure that ``root`` depends on, ``root``
    included, in creation order."""
    nodes: list[Tensor] = []
    seen: set[Tensor] = set()  # tensors hash by identity
    stack = [root]
    while stack:  # a loop, not recursion: deep graphs would overflow
        node = stack.pop()
        if node._backward is None or node in seen:
            continue
        seen.add(node)
        nodes.append(node)
        stack.extend(node._parents)
    nodes.sort(key=attrgetter("_seq"))
    return nodes


def _walked(g) -> None:
    """The closure of a node ``backward`` has already walked."""
    raise ContractError("backward() reached a node of a graph that an earlier backward() consumed")


_counter = itertools.count(1)  # leaves and nodes without a closure keep 0


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add one contribution into ``t.grad``, summed first over the leading
    axes ``t`` lacks (a stack's samples, for a tensor they share)."""
    if not t.requires_grad:
        return
    lead = g.ndim - t.ndim
    if lead:
        g = np.add.reduce(g, axis=tuple(range(lead)))
    if t.grad is None:
        # The first contribution is copied, never aliased: ``g`` may be
        # another node's gradient or a view that later ``+=`` must not
        # write through. The copy is C-ordered whatever ``g``'s layout (a
        # ``g.T`` is Fortran-ordered): a gradient that keeps a transposed
        # layout sends the matmuls that later read it down another BLAS
        # kernel, whose different summation order changes the trained
        # weights in the last bits.
        t.grad = np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g


def _record(out_data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    if not (
        type(out_data) is np.ndarray
        and out_data.dtype == np.float64
        and out_data.flags.c_contiguous
        and out_data.ndim
    ):
        out_data = _as_array(out_data)  # 0-d results become (1,)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    out._seq = 0
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            out._seq = next(_counter)
            break
    return out


def _check_axis(x: Tensor, axis: int | None, name: str) -> None:
    """Refuse an axis outside ``x``'s dimensions (None, every axis, passes)."""
    if axis is not None and not -x.ndim <= axis < x.ndim:
        raise ContractError(f"{name} axis {axis} invalid for shape {x.shape}")


def _broadcast(op, a: Tensor, b: Tensor, name: str) -> np.ndarray:
    try:
        return op(a.data, b.data)
    except ValueError:
        raise ContractError(
            f"{name} expects broadcastable shapes, got {a.shape} and {b.shape}"
        ) from None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the axes broadcasting stretched an operand of ``shape``
    along, giving it that shape back."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = np.add.reduce(g, axis=tuple(range(lead)))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return np.add.reduce(g, axis=stretched, keepdims=True) if stretched else g


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, batched over the leading ones."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul expects (...,m,k)x(...,k,n), got {a.shape} and {b.shape}")
    out_data = _broadcast(np.matmul, a, b, "matmul")

    def backward(g):
        _accumulate(a, g @ b.data.swapaxes(-1, -2))
        _accumulate(b, a.data.swapaxes(-1, -2) @ g)

    return _record(out_data, (a, b), backward)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.ndim < 2:
        raise ContractError(f"transpose expects a matrix or a stack of them, got {x.shape}")

    def backward(g):
        _accumulate(x, g.swapaxes(-1, -2))

    return _record(np.ascontiguousarray(x.data.swapaxes(-1, -2)), (x,), backward)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _record(_broadcast(np.add, a, b, "add"), (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _record(_broadcast(np.subtract, a, b, "sub"), (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product."""

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _record(_broadcast(np.multiply, a, b, "mul"), (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _record(_broadcast(np.divide, a, b, "div"), (a, b), backward)


def scale(x: Tensor, c: float) -> Tensor:
    def backward(g):
        _accumulate(x, g * c)

    return _record(x.data * c, (x,), backward)


def add_scalar(x: Tensor, c: float) -> Tensor:
    def backward(g):
        _accumulate(x, g)

    return _record(x.data + c, (x,), backward)


# ---------------------------------------------------------------------------
# nonlinearities


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def backward(g):
        _accumulate(x, g * out_data)

    return _record(out_data, (x,), backward)


def log(x: Tensor) -> Tensor:
    def backward(g):
        _accumulate(x, g / x.data)

    return _record(np.log(x.data), (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)

    def backward(g):
        _accumulate(x, g * 0.5 / out_data)

    return _record(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def backward(g):
        _accumulate(x, g * (1.0 - out_data * out_data))

    return _record(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    def backward(g):
        _accumulate(x, g * (x.data > 0.0))

    return _record(np.maximum(x.data, 0.0), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function; output strictly inside (0, 1)."""
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        _accumulate(x, g * out_data * (1.0 - out_data))

    return _record(out_data, (x,), backward)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where x lies strictly inside."""
    inside = (x.data > lo) & (x.data < hi)

    def backward(g):
        _accumulate(x, g * inside)

    return _record(np.clip(x.data, lo, hi), (x,), backward)


def softmax(x: Tensor, axis: int) -> Tensor:
    """Exponentiate-and-normalize along ``axis`` with max subtraction."""
    _check_axis(x, axis, "softmax")
    shifted = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / np.add.reduce(e, axis=axis, keepdims=True)

    def backward(g):
        inner = np.add.reduce(g * out_data, axis=axis, keepdims=True)
        _accumulate(x, out_data * (g - inner))

    return _record(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    """Sum along ``axis``, or of every element when it is None."""
    _check_axis(x, axis, "sum")
    kept = np.add.reduce(x.data, axis=axis, keepdims=True)

    def backward(g):
        _accumulate(x, np.broadcast_to(g.reshape(kept.shape), x.shape))

    return _record(kept.squeeze(axis), (x,), backward)


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    """Mean along ``axis``, or of every element when it is None."""
    _check_axis(x, axis, "mean")
    kept = np.add.reduce(x.data, axis=axis, keepdims=True)
    n = x.data.size // max(kept.size, 1)  # the elements in each mean
    kept /= n  # as np.mean divides its sum

    def backward(g):
        _accumulate(x, np.broadcast_to(g.reshape(kept.shape) / n, x.shape))

    return _record(kept.squeeze(axis), (x,), backward)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.data.size:
        raise ContractError(f"cannot reshape {x.shape} to {shape}")

    def backward(g):
        _accumulate(x, g.reshape(x.shape))

    return _record(x.data.reshape(shape).copy(), (x,), backward)


def concat(tensors: list[Tensor], axis: int, order=None) -> Tensor:
    """Join along ``axis``; ``order``, a permutation of the joined entries
    along it, then picks them in that order (its gradient is copied back,
    never added)."""
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    _check_axis(tensors[0], axis, "concat")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
    lead = (slice(None),) * (axis % out_data.ndim)  # the axes before ``axis``
    if order is not None:
        order = np.asarray(order, dtype=np.int64)
        if not np.array_equal(np.sort(order), np.arange(offsets[-1])):
            raise ContractError(f"concat order must permute the {offsets[-1]} joined entries")
        out_data = np.take(out_data, order, axis=axis)

    def backward(g):
        if order is not None:
            joined = np.empty_like(g)
            joined[lead + (order,)] = g
            g = joined
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            _accumulate(t, g[lead + (slice(start, stop),)])

    return _record(out_data, tuple(tensors), backward)


def slice_range(x: Tensor, start: int, stop: int, axis: int) -> Tensor:
    """Contiguous range ``[start, stop)`` along ``axis``; gradient scatters
    back, zero elsewhere."""
    _check_axis(x, axis, "slice")
    if not 0 <= start < stop <= x.shape[axis]:
        raise ContractError(f"slice [{start}:{stop}] on axis {axis} invalid for shape {x.shape}")
    index = (slice(None),) * (axis % x.ndim) + (slice(start, stop),)

    def backward(g):
        z = np.zeros_like(x.data)
        z[index] = g
        _accumulate(x, z)

    return _record(x.data[index].copy(), (x,), backward)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Pick rows (or elements of a vector) by integer index, repeats allowed.

    ``indices`` of shape (..., K) picks along the axis after its batch axes:
    sample i of x (..., n, ...) gives rows ``indices[i]``.
    """
    idx = np.asarray(indices, dtype=np.int64)
    batch = idx.shape[:-1]
    if idx.ndim < 1 or x.ndim <= len(batch) or x.shape[: len(batch)] != batch:
        raise ContractError(f"gather_rows expects (..., K) indices into (..., n, ...), got {idx.shape} for {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[len(batch)]):
        raise ContractError(f"gather indices out of range for shape {x.shape}")
    samples = math.prod(batch)
    where = (np.arange(samples)[:, None], idx.reshape(samples, -1))
    flat = x.data.reshape((samples,) + x.shape[len(batch) :])

    def backward(g):
        z = np.zeros_like(flat)
        np.add.at(z, where, g.reshape(z.shape[:1] + idx.shape[-1:] + z.shape[2:]))
        _accumulate(x, z.reshape(x.shape))

    return _record(flat[where].reshape(idx.shape + x.shape[len(batch) + 1 :]), (x,), backward)


def broadcast_rows(v: Tensor, n: int) -> Tensor:
    """Tile a length-d vector (or each of a stack) into n rows of a matrix."""
    if v.ndim < 1 or n < 0:
        raise ContractError(f"broadcast_rows expects a vector or a stack of them and a row count, got {v.shape} and {n}")

    def backward(g):
        _accumulate(v, np.add.reduce(g, axis=-2))

    return _record(np.repeat(v.data[..., None, :], n, axis=-2), (v,), backward)


# ---------------------------------------------------------------------------
# fused kernels (see the module docstring for the forward layouts they keep)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b``: a linear layer, its bias added to every row."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ContractError(f"affine expects (...,m,k)x(k,n), got {x.shape} and {w.shape}")
    if b.shape != (w.shape[1],):
        raise ContractError(f"affine bias must have shape {(w.shape[1],)}, got {b.shape}")

    k, n = w.shape

    def backward(g):
        rows = g.reshape(-1, n)  # every sample's rows, one matrix
        if x.requires_grad:
            _accumulate(x, (rows @ w.data.T).reshape(x.shape))
        _accumulate(w, x.data.reshape(-1, k).T @ rows)
        _accumulate(b, np.add.reduce(rows, axis=0))

    return _record(x.data @ w.data + b.data, (x, w, b), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization to zero mean and unit variance (1e-5 added to
    the variance), then affine."""
    if x.ndim < 2:
        raise ContractError(f"layer_norm expects rows of a matrix, got {x.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ContractError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    # the means as np.mean takes them: a sum, then a division by the count
    centered = x.data - (np.add.reduce(x.data, axis=-1) / d)[..., None]
    std = np.sqrt(np.add.reduce(centered * centered, axis=-1) / d + 1e-5)
    normed = centered / std[..., None]

    def backward(g):
        _accumulate(gain, np.add.reduce(g * normed, axis=-2))
        _accumulate(bias, np.add.reduce(g, axis=-2))
        if not x.requires_grad:
            return
        g_normed = g * gain.data
        g_centered = g_normed / std[..., None]
        g_std = np.add.reduce(-g_normed * centered / (std * std)[..., None], axis=-1)
        g_centered += (g_std / std / d)[..., None] * centered
        _accumulate(x, g_centered - (np.add.reduce(g_centered, axis=-1) / d)[..., None])

    return _record(normed * gain.data + bias.data, (x, gain, bias), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention of every head, outputs side by side.

    Head ``h`` takes columns ``[h*dh, (h+1)*dh)`` of ``q``, ``k`` and ``v``
    (``dh = d // heads``) and gives ``softmax(q_h k_h^T / sqrt(dh)) v_h``
    in the same columns of the (n_q, d) output.
    """
    if (
        q.ndim < 2 or k.shape != v.shape or k.shape[:-2] != q.shape[:-2]
        or q.shape[-1] != k.shape[-1]
    ):
        raise ContractError(
            f"attention expects (...,n,d), (...,m,d), (...,m,d), got {q.shape}, {k.shape}, {v.shape}"
        )
    d = q.shape[-1]
    if heads < 1 or d % heads != 0:
        raise ContractError(f"attention width {d} is not divisible by {heads} heads")
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    cols = [slice(h * dh, (h + 1) * dh) for h in range(heads)]
    out = np.empty_like(q.data)
    saved = []
    for sl in cols:
        qh, kh, vh = (m.data[..., sl].copy() for m in (q, k, v))
        kht = np.ascontiguousarray(kh.swapaxes(-1, -2))
        s = (qh @ kht) * c
        e = np.exp(s - np.maximum.reduce(s, axis=-1, keepdims=True))
        w = e / np.add.reduce(e, axis=-1, keepdims=True)
        out[..., sl] = w @ vh
        saved.append((qh, kht, vh, w))

    def backward(g):
        gq, gk, gv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for sl, (qh, kht, vh, w) in zip(cols, saved):
            gh = np.ascontiguousarray(g[..., sl])
            gw = gh @ vh.swapaxes(-1, -2)
            gv[..., sl] = w.swapaxes(-1, -2) @ gh
            gs = w * (gw - np.add.reduce(gw * w, axis=-1, keepdims=True)) * c
            gq[..., sl] = gs @ kht.swapaxes(-1, -2)
            gk[..., sl] = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        _accumulate(q, gq)
        _accumulate(k, gk)
        _accumulate(v, gv)

    return _record(out, (q, k, v), backward)


def gru(x: Tensor, spans, h: Tensor, weights: tuple[Tensor, ...]) -> Tensor:
    """A gated-recurrent chain over a range of rows of each sample of ``x``,
    from the (1, d) state ``h``; returns each chain's last state, one node
    for every chain.

    ``x`` is (..., L, d_in), ``spans`` gives each sample's rows [i0, i1)
    (shape (..., 2)) and ``h`` is (..., 1, d). ``weights`` is ``(Wxu, bxu,
    Whu, bhu, Wxr, bxr, Whr, bhr, Wxc, bxc, Whc, bhc)``. Row ``x_t`` steps the
    state:

    update u = sigm(x_t Wxu + bxu + h Whu + bhu), reset r = sigm(x_t Wxr +
    bxr + h Whr + bhr), candidate c = tanh(x_t Wxc + bxc + (r*h) Whc + bhc),
    h <- (1-u)*h + u*c.

    The forward gives each chain the bits of one primitive step per row
    slice: every (1, d) row product is made in a stack of (1, d) rows. The
    backward makes two products per step over the chains still running,
    one for the candidate and one that sends both gates into the state;
    the ``x`` gradient and each weight's are one product over every row.
    The chains run in lockstep, the longest first, so that the chains still
    running at a step are the first ones.
    """
    wxu, bxu, whu, bhu, wxr, bxr, whr, bhr, wxc, bxc, whc, bhc = weights
    d = whu.shape[0]
    batch = x.shape[:-2]
    spans = np.asarray(spans, dtype=np.int64)
    if (
        x.ndim < 2 or x.shape[-1] != wxu.shape[0] or h.shape != batch + (1, d)
        or spans.shape != batch + (2,)
    ):
        raise ContractError(
            f"gru expects (...,L,d_in) rows, (...,2) spans and a (...,1,d) state,"
            f" got {x.shape}, {spans.shape} and {h.shape}"
        )
    length, d_in = x.shape[-2:]
    n = math.prod(batch)
    bounds = spans.reshape(n, 2).tolist()
    if not all(0 <= start < stop <= length for start, stop in bounds):
        raise ContractError(f"gru spans {spans.tolist()} are not non-empty row ranges of {length} rows")
    steps = [stop - start for start, stop in bounds]
    order = sorted(range(n), key=steps.__getitem__, reverse=True)  # chain k of the lockstep is sample order[k]
    at = [0] * n  # sample i is chain at[i]
    running = [0] * steps[order[0]]  # chains taking step t
    for k, i in enumerate(order):
        at[i] = k
        running[: steps[i]] = [k + 1] * steps[i]
    longest = len(running)
    rows = np.zeros((longest, n, 1, d_in))  # rows[t, k] is chain k's row t
    xd = x.data.reshape(n, length, d_in)
    for i, (start, stop) in enumerate(bounds):
        rows[: steps[i], at[i], 0] = xd[i, start:stop]
    # The x side of every step at once: a matmul over a stack of (1, d_in)
    # rows makes each row's product as its own call would.
    x_ur = np.stack([rows @ wxu.data + bxu.data, rows @ wxr.data + bxr.data], axis=2)
    x_c = rows @ wxc.data + bxc.data
    w_ur = np.stack([whu.data, whr.data])
    # (1, 2, 1, d), the shape of one chain's gates: a lone chain adds it unbroadcast
    b_ur = np.stack([bhu.data, bhr.data])[None, :, None, :]
    hs = np.zeros((longest + 1, n, 1, d))  # hs[t, k] is chain k's state before its row t
    hs[0] = h.data.reshape(n, 1, d)[order]
    ur = np.zeros((longest, n, 2, 1, d))  # the update and reset gates
    cand, rh = np.zeros((longest, n, 1, d)), np.zeros((longest, n, 1, d))
    w_c, b_c = whc.data, bhc.data
    for m, run in itertools.groupby(range(longest), running.__getitem__):
        h_m, ur_m, rh_m, c_m, xur_m, xc_m = (a[:, :m] for a in (hs, ur, rh, cand, x_ur, x_c))
        u_m, r_m = ur_m[..., 0, :, :], ur_m[..., 1, :, :]
        hq_m = h_m[:, :, None]  # each state a stack of one row against both gates
        for t in run:
            ht, hq_t, u_t, rh_t, c_t = h_m[t], hq_m[t], u_m[t], rh_m[t], c_m[t]
            np.divide(1.0, 1.0 + np.exp(-(xur_m[t] + (hq_t @ w_ur + b_ur))), out=ur_m[t])
            np.multiply(r_m[t], ht, out=rh_t)
            np.tanh(xc_m[t] + (rh_t @ w_c + b_c), out=c_t)
            np.add((1.0 - u_t) * ht, u_t * c_t, out=h_m[t + 1])
    last = hs[steps, at].reshape(batch + (1, d))
    # the backward reads each step's rows of the running chains as (m, d) matrices
    rows, hs, rh, cand = (a[..., 0, :] for a in (rows, hs, rh, cand))
    u, r = ur[..., 0, 0, :], ur[..., 1, 0, :]
    keep = 1.0 - u

    def backward(g):
        w_ru = np.concatenate([whr.data.T, whu.data.T])  # the reset gate's rows, then the update gate's
        whc_t = whc.data.T
        d_cand = 1.0 - cand * cand
        d_r = 1.0 - r
        g_out = g.reshape(n, d)[order]
        g_run = np.empty((n, d))  # each running chain's grad of its state
        # grads of the reset, update and candidate pre-activations; zero
        # where a chain does not run
        g_pre = np.zeros((longest, n, 3, d))
        joined = 0
        for m, run in itertools.groupby(range(longest - 1, -1, -1), running.__getitem__):
            g_run[joined:m] = g_out[joined:m]  # chains whose last step is this run's first start here
            joined = m
            gt = g_run[:m]
            h_m, u_m, r_m, keep_m, c_m, dc_m, dr_m, gp_m = (
                a[:, :m] for a in (hs, u, r, keep, cand, d_cand, d_r, g_pre)
            )
            for t in run:
                ht, u_t, r_t, keep_t, g_t = h_m[t], u_m[t], r_m[t], keep_m[t], gp_m[t]
                np.multiply((gt * c_m[t] - gt * ht) * u_t, keep_t, out=g_t[:, 1])
                np.multiply(gt * u_t, dc_m[t], out=g_t[:, 2])
                g_rh = g_t[:, 2] @ whc_t
                np.multiply(g_rh * ht * r_t, dr_m[t], out=g_t[:, 0])
                if t == 0 and not h.requires_grad:  # mr2hd's zero start
                    break
                # into the state: keep, r*h, and both gates in one product
                gt = gt * keep_t + g_rh * r_t + g_t[:, :2].reshape(m, 2 * d) @ w_ru
            g_run[:m] = gt
        if h.requires_grad:
            _accumulate(h, g_run[at].reshape(h.shape))
        g_r, g_u, g_c = (g_pre[:, :, j].reshape(-1, d) for j in range(3))
        if x.requires_grad:
            w_x = np.concatenate([wxr.data.T, wxu.data.T, wxc.data.T])
            gx = (g_pre.reshape(-1, 3 * d) @ w_x).reshape(longest, n, d_in)
            z = np.zeros((n, length, d_in))
            for i, (start, stop) in enumerate(bounds):
                z[i, start:stop] = gx[: steps[i], at[i]]
            _accumulate(x, z.reshape(x.shape))
        # every lockstep row at once: a padded row's zero grad adds nothing
        for w, b, inp, g_w in (
            (wxu, bxu, rows, g_u), (whu, bhu, hs[:-1], g_u),
            (wxr, bxr, rows, g_r), (whr, bhr, hs[:-1], g_r),
            (wxc, bxc, rows, g_c), (whc, bhc, rh, g_c),
        ):
            _accumulate(w, inp.reshape(-1, w.shape[0]).T @ g_w)
            _accumulate(b, np.add.reduce(g_w, axis=0))

    return _record(last, (x, h, *weights), backward)
