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

The primitive kernels are 2-D matmul, elementwise arithmetic under numpy's
broadcasting rule, scalar affine ops, a few nonlinearities, axis
reductions, concat, slicing along an axis, row gathering, transpose, and
``broadcast_rows``, which tiles a vector into a real matrix for
``concat``. There are no views; every op materializes a fresh buffer.

``backward`` runs the closures in reverse creation order. A node is
created after its parents, so each gradient is complete before its closure
reads it, and a tensor's contributions arrive in the reverse of the order
in which its consumers were created, whatever the graph's shape.

Four fused kernels stand in for the compositions the model runs most:
``affine`` (a linear layer), ``layer_norm``, ``attention`` (every head of
a multi-head attention) and ``gru`` (a whole GRU chain, one step per row,
as one node). Each gives the same bits, in its outputs and in every
gradient, as the primitive composition it replaces; ``tests/test_fused.py``
compares them byte for byte. A fused node takes one number where the
composition took a run of consecutive ones, so its closure runs where
theirs did, and two rules are left:

1. A fused backward adds into each input in the order the primitive
   graph's closures do, one ``_accumulate`` per contribution, never a
   pre-summed one (float addition of three or more terms depends on the
   order). ``gru`` sums a weight's per-step contributions with one
   ``np.add.reduce`` along axis 0 of a contiguous stack ``[existing grad,
   step T-1, ..., step 0]``, which adds them one after another, in that
   order, as the steps' ``+=`` chain did.
2. Operands keep the layouts and shapes the primitive kernels gave them
   (head slices copied to C order, the transposed key copied as
   ``transpose`` did, each GRU step's (1, d) @ (d, d) product made on its
   own or over a (T, 1, d) stack, which numpy runs as one BLAS call per
   row; one (T, d) @ (d, d) product differs from the row products in the
   last bits), since a BLAS call on another layout or shape may sum in
   another order; and signed zeros come out as the primitive scatter left
   them.
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
        """Accumulate gradients of this scalar into every reachable tensor.

        Collects the reachable nodes that have a closure and runs the
        closures once each, in reverse creation order (see the module
        docstring). Grads of tensors the loss does not depend on are left
        as None.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        nodes: list[Tensor] = []
        seen: set[Tensor] = set()  # tensors hash by identity
        stack = [self]
        while stack:  # a loop, not recursion: GRU chains are deep
            node = stack.pop()
            if node._backward is None or node in seen:
                continue
            seen.add(node)
            nodes.append(node)
            stack.extend(node._parents)
        nodes.sort(key=attrgetter("_seq"), reverse=True)
        self.grad = np.ones_like(self.data)
        for node in nodes:
            if node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_counter = itertools.count(1)  # leaves and nodes without a closure keep 0


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
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
        g = g.sum(axis=tuple(range(lead)))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=stretched, keepdims=True) if stretched else g


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2-D matrix product."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul expects (m,k)x(k,n), got {a.shape} and {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _record(out_data, (a, b), backward)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ContractError(f"transpose expects a 2-D tensor, got {x.shape}")

    def backward(g):
        _accumulate(x, g.T)

    return _record(np.ascontiguousarray(x.data.T), (x,), backward)


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
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / np.sum(e, axis=axis, keepdims=True)

    def backward(g):
        inner = np.sum(g * out_data, axis=axis, keepdims=True)
        _accumulate(x, out_data * (g - inner))

    return _record(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    """Sum along ``axis``, or of every element when it is None."""
    _check_axis(x, axis, "sum")
    kept = np.sum(x.data, axis=axis, keepdims=True)

    def backward(g):
        _accumulate(x, np.broadcast_to(g.reshape(kept.shape), x.shape))

    return _record(kept.squeeze(axis), (x,), backward)


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    """Mean along ``axis``, or of every element when it is None."""
    _check_axis(x, axis, "mean")
    kept = np.mean(x.data, axis=axis, keepdims=True)
    n = x.data.size // max(kept.size, 1)  # the elements in each mean

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


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    _check_axis(tensors[0], axis, "concat")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
    lead = (slice(None),) * (axis % out_data.ndim)  # the axes before ``axis``

    def backward(g):
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
    """Pick rows (or elements of a 1-D tensor) by integer index, repeats allowed."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ContractError("gather_rows expects a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ContractError(f"gather indices out of range for shape {x.shape}")

    def backward(g):
        z = np.zeros_like(x.data)
        np.add.at(z, idx, g)
        _accumulate(x, z)

    return _record(x.data[idx].copy(), (x,), backward)


def broadcast_rows(v: Tensor, n: int) -> Tensor:
    """Tile a length-d vector into an (n, d) matrix, one copy per row."""
    if v.ndim != 1:
        raise ContractError(f"broadcast_rows expects a 1-D tensor, got {v.shape}")

    def backward(g):
        _accumulate(v, g.sum(axis=0))

    return _record(np.repeat(v.data[None, :], n, axis=0), (v,), backward)


# ---------------------------------------------------------------------------
# fused kernels (see the module docstring for the ordering rules they keep)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b``: a linear layer, its bias added to every row."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ContractError(f"affine expects (m,k)x(k,n), got {x.shape} and {w.shape}")
    if b.shape != (w.shape[1],):
        raise ContractError(f"affine bias must have shape {(w.shape[1],)}, got {b.shape}")

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, g.sum(axis=0))

    return _record(x.data @ w.data + b.data, (x, w, b), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization to zero mean and unit variance (1e-5 added to
    the variance), then affine.

    The backward adds into ``x`` twice, first the centring's share and then
    the mean's, as the chain of primitive kernels it replaces does.
    """
    if x.ndim != 2:
        raise ContractError(f"layer_norm expects a 2-D tensor, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ContractError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    centered = x.data - np.mean(x.data, axis=1)[:, None]
    std = np.sqrt(np.mean(centered * centered, axis=1) + 1e-5)
    normed = centered / std[:, None]

    def backward(g):
        _accumulate(gain, (g * normed).sum(axis=0))
        _accumulate(bias, g.sum(axis=0))
        if not x.requires_grad:
            return
        g_normed = g * gain.data
        g_centered = g_normed / std[:, None]
        g_std = (-g_normed * centered / (std * std)[:, None]).sum(axis=1)
        g_sq = (g_std * 0.5 / std / d)[:, None] * centered
        g_centered += g_sq  # centered * centered: one addition per factor
        g_centered += g_sq
        _accumulate(x, g_centered)
        _accumulate(x, np.broadcast_to(((-g_centered).sum(axis=1) / d)[:, None], x.shape))

    return _record(normed * gain.data + bias.data, (x, gain, bias), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention of every head, outputs side by side.

    Head ``h`` takes columns ``[h*dh, (h+1)*dh)`` of ``q``, ``k`` and ``v``
    (``dh = d // heads``) and gives ``softmax(q_h k_h^T / sqrt(dh)) v_h``
    in the same columns of the (n_q, d) output.
    """
    if q.ndim != 2 or k.ndim != 2 or k.shape != v.shape or q.shape[1] != k.shape[1]:
        raise ContractError(
            f"attention expects (n,d), (m,d), (m,d), got {q.shape}, {k.shape}, {v.shape}"
        )
    d = q.shape[1]
    if heads < 1 or d % heads != 0:
        raise ContractError(f"attention width {d} is not divisible by {heads} heads")
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    cols = [slice(h * dh, (h + 1) * dh) for h in range(heads)]
    out = np.empty_like(q.data)
    saved = []
    for sl in cols:
        qh, kh, vh = (m.data[:, sl].copy() for m in (q, k, v))
        kht = np.ascontiguousarray(kh.T)
        s = (qh @ kht) * c
        e = np.exp(s - np.max(s, axis=1, keepdims=True))
        w = e / np.sum(e, axis=1, keepdims=True)
        out[:, sl] = w @ vh
        saved.append((qh, kht, vh, w))

    def backward(g):
        gq, gk, gv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for sl, (qh, kht, vh, w) in zip(cols, saved):
            gh = np.ascontiguousarray(g[:, sl])
            gw = gh @ vh.T
            gv[:, sl] = w.T @ gh
            gs = w * (gw - np.sum(gw * w, axis=1, keepdims=True)) * c
            gq[:, sl] = gs @ kht.T
            gk[:, sl] = (qh.T @ gs).T
        if heads > 1:  # the per-head scatter summed zero blocks in: -0.0 -> +0.0
            gq += 0.0
            gk += 0.0
            gv += 0.0
        _accumulate(q, gq)
        _accumulate(k, gk)
        _accumulate(v, gv)

    return _record(out, (q, k, v), backward)


def gru(x: Tensor, h: Tensor, weights: tuple[Tensor, ...]) -> Tensor:
    """A gated-recurrent chain over the rows of ``x``, from the (1, d) state
    ``h``; returns the last state, one node for the whole chain.

    ``weights`` is ``(Wxu, bxu, Whu, bhu, Wxr, bxr, Whr, bhr, Wxc, bxc, Whc,
    bhc)``. Row ``x_t`` steps the state:

    update u = sigm(x_t Wxu + bxu + h Whu + bhu), reset r = sigm(x_t Wxr +
    bxr + h Whr + bhr), candidate c = tanh(x_t Wxc + bxc + (r*h) Whc + bhc),
    h <- (1-u)*h + u*c.

    The chain gives the bits of one primitive step per row slice (rules 1
    and 2 of the module docstring): every (1, d) row product is made alone
    or in a stack of (1, d) rows, in the forward and in the ``x`` and ``h``
    gradients, and the weight and bias gradients of all steps are summed in
    one reduce over a stack built in reverse step order.
    """
    wxu, bxu, whu, bhu, wxr, bxr, whr, bhr, wxc, bxc, whc, bhc = weights
    d = whu.shape[0]
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != wxu.shape[0] or h.shape != (1, d):
        raise ContractError(f"gru expects (n,d_in) rows and a (1,d) state, got {x.shape} and {h.shape}")
    steps = x.shape[0]
    xd = x.data
    rows = xd.reshape(steps, 1, -1)
    # The x side of every step at once: a matmul over a stack of (1, d_in)
    # rows makes each row's product as its own call would.
    x_ur = np.stack([rows @ wxu.data + bxu.data, rows @ wxr.data + bxr.data], axis=1)
    x_c = rows @ wxc.data + bxc.data
    w_ur = np.stack([whu.data, whr.data])
    b_ur = np.stack([bhu.data, bhr.data])[:, None, :]
    hs = np.empty((steps + 1, 1, d))  # hs[t] is the state before row t
    hs[0] = h.data
    ur = np.empty((steps, 2, 1, d))  # the update and reset gates
    cand, rh = np.empty((steps, 1, d)), np.empty((steps, 1, d))
    for t in range(steps):
        ht, ur_t, rh_t, c_t = hs[t], ur[t], rh[t], cand[t]
        np.divide(1.0, 1.0 + np.exp(-(x_ur[t] + (ht @ w_ur + b_ur))), out=ur_t)
        u_t = ur_t[0]
        np.multiply(ur_t[1], ht, out=rh_t)
        np.tanh(x_c[t] + (rh_t @ whc.data + bhc.data), out=c_t)
        np.add((1.0 - u_t) * ht, u_t * c_t, out=hs[t + 1])
    u, r = ur[:, 0], ur[:, 1]
    keep = 1.0 - u

    def backward(g):
        w_ru_t = np.stack([whr.data, whu.data]).transpose(0, 2, 1)  # whr.T, whu.T
        whc_t = whc.data.T
        d_cand = 1.0 - cand * cand
        d_r = 1.0 - r
        g_pre = np.empty((steps, 3, 1, d))  # grads of the reset, update, candidate pre-activations
        for t in range(steps - 1, -1, -1):
            ht, u_t, r_t, keep_t, g_t = hs[t], u[t], r[t], keep[t], g_pre[t]
            np.multiply((g * cand[t] - g * ht) * u_t, keep_t, out=g_t[1])
            np.multiply(g * u_t, d_cand[t], out=g_t[2])
            g_rh = g_t[2] @ whc_t
            np.multiply(g_rh * ht * r_t, d_r[t], out=g_t[0])
            if t == 0 and not h.requires_grad:  # mr2hd's zero start
                break
            # into the state: keep, r*h, reset, update
            reset, update = g_t[:2] @ w_ru_t
            shares = (g * keep_t, g_rh * r_t, reset, update)
            if t == 0:
                for share in shares:
                    _accumulate(h, share)
            else:
                g = shares[0]
                for share in shares[1:]:
                    g += share
        g_r, g_u, g_c = g_pre[:, 0], g_pre[:, 1], g_pre[:, 2]
        # per row: the candidate's share, then the reset gate's, then the update gate's
        gx = g_c @ wxc.data.T
        gx += g_r @ wxr.data.T
        gx += g_u @ wxu.data.T
        if steps > 1:  # the per-step row scatters summed zero rows in: -0.0 -> +0.0
            gx += 0.0
        _accumulate(x, gx.reshape(xd.shape))
        x_rev, h_rev, rh_rev = xd[::-1], hs[-2::-1, 0], rh[::-1, 0]
        g_u, g_r, g_c = g_u[::-1, 0], g_r[::-1, 0], g_c[::-1, 0]
        buf = np.empty((steps + 1) * (max(xd.shape[1], d) + 1) * d)
        for w, b, inp, g_w in (
            (wxu, bxu, x_rev, g_u), (whu, bhu, h_rev, g_u),
            (wxr, bxr, x_rev, g_r), (whr, bhr, h_rev, g_r),
            (wxc, bxc, x_rev, g_c), (whc, bhc, rh_rev, g_c),
        ):
            n = inp.shape[1]
            # per step, W's outer product in rows [:n] and b's row in row n
            # (einsum's outer products equal the (n,1)x(1,d) matmuls bit for
            # bit); -0.0 stands in for a grad not made yet, as -0.0 + v == v
            stack = buf[: (steps + 1) * (n + 1) * d].reshape(steps + 1, n + 1, d)
            stack[0, :n] = -0.0 if w.grad is None else w.grad
            stack[0, n] = -0.0 if b.grad is None else b.grad
            np.einsum("ti,tj->tij", inp, g_w, out=stack[1:, :n])
            stack[1:, n] = g_w
            total = np.add.reduce(stack, axis=0)
            if w.requires_grad:
                w.grad = total[:n]
            if b.requires_grad:
                b.grad = total[n]

    return _record(hs[steps].copy(), (x, h, *weights), backward)
