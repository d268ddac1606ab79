"""Reverse-mode autodiff over dense float64 arrays.

Everything differentiable in this package runs on the ``Tensor`` class
below: a numpy float64 buffer plus a dynamically recorded graph. Each
kernel stores its parent tensors and a closure that maps the output
gradient to input gradients; ``backward()`` on a scalar loss replays the
closures and accumulates into ``.grad``. Kernels hand their fresh output
buffer to ``_record``, which wraps it as it is (only the numpy scalars that
0-d results come back as are converted to arrays) and, when some parent
requires grad, attaches parents and closure and stamps the node with the
next number of a counter.

The primitive kernels are 2-D matmul, elementwise arithmetic under numpy's
broadcasting rule, scalar affine ops, a few nonlinearities, axis
reductions, concat, row/column slicing and gathering, transpose, and
``broadcast_rows``, which tiles a vector into a real matrix for
``concat``. There are no views; every op materializes a fresh buffer.

``backward`` runs the closures in reverse creation order. A node is
created after its parents, so each gradient is complete before its closure
reads it, and a tensor's contributions arrive in the reverse of the order
in which its consumers were created, whatever the graph's shape.

Four fused kernels stand in for the compositions the model runs most:
``affine`` (a linear layer), ``layer_norm``, ``attention`` (every head of
a multi-head attention) and ``gru_step``. Each gives the same bits, in its
outputs and in every gradient, as the primitive composition it replaces;
``tests/test_fused.py`` compares them byte for byte. A fused node takes one
number where the composition took a run of consecutive ones, so its
closure runs where theirs did, and two rules are left:

1. A fused backward adds into each input in the order the primitive
   graph's closures do, one ``_accumulate`` per contribution, never a
   pre-summed one (float addition of three or more terms depends on the
   order).
2. Operands keep the layouts the primitive kernels gave them (head
   slices copied to C order, the transposed key copied as ``transpose``
   did), since a BLAS call on another layout may sum in another order;
   and signed zeros come out as the primitive scatter left them.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter

import numpy as np


class ShapeError(ValueError):
    """A kernel was invoked on tensors whose shapes violate its contract."""


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
    ):
        out_data = _as_array(out_data)  # numpy scalars from 0-d results
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


def _broadcast(op, a: Tensor, b: Tensor, name: str) -> np.ndarray:
    try:
        return op(a.data, b.data)
    except ValueError:
        raise ShapeError(
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
        raise ShapeError(f"matmul expects (m,k)x(k,n), got {a.shape} and {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _record(out_data, (a, b), backward)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got {x.shape}")

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
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
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
    if axis is None:
        def backward(g):
            _accumulate(x, np.broadcast_to(g, x.shape))

        return _record(np.sum(x.data), (x,), backward)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"sum axis {axis} invalid for shape {x.shape}")

    def backward_axis(g):
        _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.shape))

    return _record(np.sum(x.data, axis=axis), (x,), backward_axis)


def tmean(x: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        n = x.data.size

        def backward(g):
            _accumulate(x, np.broadcast_to(g / n, x.shape))

        return _record(np.mean(x.data), (x,), backward)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"mean axis {axis} invalid for shape {x.shape}")
    n = x.shape[axis]

    def backward_axis(g):
        _accumulate(x, np.broadcast_to(np.expand_dims(g / n, axis), x.shape))

    return _record(np.mean(x.data, axis=axis), (x,), backward_axis)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")

    def backward(g):
        _accumulate(x, g.reshape(x.shape))

    return _record(x.data.reshape(shape).copy(), (x,), backward)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    ndim = tensors[0].ndim
    if not -ndim <= axis < ndim:
        raise ShapeError(f"concat axis {axis} invalid for {ndim}-D tensors")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * ndim
            sl[axis] = slice(start, stop)
            _accumulate(t, g[tuple(sl)])

    return _record(out_data, tuple(tensors), backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous range along axis 0; gradient scatters back, zero elsewhere."""
    if not 0 <= start < stop <= x.shape[0]:
        raise ShapeError(f"row slice [{start}:{stop}] invalid for shape {x.shape}")

    def backward(g):
        if x.requires_grad:
            z = np.zeros_like(x.data)
            z[start:stop] = g
            _accumulate(x, z)

    return _record(x.data[start:stop].copy(), (x,), backward)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"column slice expects a 2-D tensor, got {x.shape}")
    if not 0 <= start < stop <= x.shape[1]:
        raise ShapeError(f"column slice [{start}:{stop}] invalid for shape {x.shape}")

    def backward(g):
        if x.requires_grad:
            z = np.zeros_like(x.data)
            z[:, start:stop] = g
            _accumulate(x, z)

    return _record(x.data[:, start:stop].copy(), (x,), backward)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Pick rows (or elements of a 1-D tensor) by integer index, repeats allowed."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows expects a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"gather indices out of range for shape {x.shape}")

    def backward(g):
        if x.requires_grad:
            z = np.zeros_like(x.data)
            np.add.at(z, idx, g)
            _accumulate(x, z)

    return _record(x.data[idx].copy(), (x,), backward)


def broadcast_rows(v: Tensor, n: int) -> Tensor:
    """Tile a length-d vector into an (n, d) matrix, one copy per row."""
    if v.ndim != 1:
        raise ShapeError(f"broadcast_rows expects a 1-D tensor, got {v.shape}")

    def backward(g):
        _accumulate(v, g.sum(axis=0))

    return _record(np.repeat(v.data[None, :], n, axis=0), (v,), backward)


# ---------------------------------------------------------------------------
# fused kernels (see the module docstring for the ordering rules they keep)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b``: a linear layer, its bias added to every row."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine expects (m,k)x(k,n), got {x.shape} and {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"affine bias must have shape {(w.shape[1],)}, got {b.shape}")

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, g.sum(axis=0))

    return _record(x.data @ w.data + b.data, (x, w, b), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean and unit variance, then affine.

    The backward adds into ``x`` twice, first the centring's share and then
    the mean's, as the chain of primitive kernels it replaces does.
    """
    if x.ndim != 2:
        raise ShapeError(f"layer_norm expects a 2-D tensor, got {x.shape}")
    d = x.shape[1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    centered = x.data - np.mean(x.data, axis=1)[:, None]
    std = np.sqrt(np.mean(centered * centered, axis=1) + eps)
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
        raise ShapeError(
            f"attention expects (n,d), (m,d), (m,d), got {q.shape}, {k.shape}, {v.shape}"
        )
    d = q.shape[1]
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention width {d} is not divisible by {heads} heads")
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


def gru_step(x: Tensor, h: Tensor, weights: tuple[Tensor, ...]) -> Tensor:
    """One gated-recurrent step over the rows of ``x`` and ``h``.

    ``weights`` is ``(Wxu, bxu, Whu, bhu, Wxr, bxr, Whr, bhr, Wxc, bxc, Whc,
    bhc)``.

    update u = sigm(x Wxu + bxu + h Whu + bhu), reset r = sigm(x Wxr + bxr
    + h Whr + bhr), candidate c = tanh(x Wxc + bxc + (r*h) Whc + bhc),
    out = (1-u)*h + u*c.
    """
    wxu, bxu, whu, bhu, wxr, bxr, whr, bhr, wxc, bxc, whc, bhc = weights
    if x.ndim != 2 or h.ndim != 2 or x.shape[0] != h.shape[0] or x.shape[1] != wxu.shape[0]:
        raise ShapeError(f"gru_step expects (n,d_in) and (n,d) rows, got {x.shape} and {h.shape}")
    xd, hd = x.data, h.data
    u = 1.0 / (1.0 + np.exp(-((xd @ wxu.data + bxu.data) + (hd @ whu.data + bhu.data))))
    r = 1.0 / (1.0 + np.exp(-((xd @ wxr.data + bxr.data) + (hd @ whr.data + bhr.data))))
    rh = r * hd
    cand = np.tanh((xd @ wxc.data + bxc.data) + (rh @ whc.data + bhc.data))
    keep = 1.0 - u

    def backward(g):
        if h.requires_grad:
            _accumulate(h, g * keep)
        g_u = g * hd * -1.0 + g * cand
        g_su = g_u * u * (1.0 - u)
        g_sc = g * u * (1.0 - cand * cand)
        g_rh = g_sc @ whc.data.T
        g_sr = g_rh * hd * r * (1.0 - r)
        # into x: the candidate's share, then the reset gate's, then the
        # update gate's; into h: keep, r*h, reset, update
        _accumulate(x, g_sc @ wxc.data.T)
        if h.requires_grad:
            _accumulate(h, g_rh * r)
        _accumulate(x, g_sr @ wxr.data.T)
        if h.requires_grad:
            _accumulate(h, g_sr @ whr.data.T)
        _accumulate(x, g_su @ wxu.data.T)
        if h.requires_grad:
            _accumulate(h, g_su @ whu.data.T)
        for w_in, inp, b, g_pre in (
            (wxu, xd, bxu, g_su), (whu, hd, bhu, g_su),
            (wxr, xd, bxr, g_sr), (whr, hd, bhr, g_sr),
            (wxc, xd, bxc, g_sc), (whc, rh, bhc, g_sc),
        ):
            _accumulate(w_in, inp.T @ g_pre)
            _accumulate(b, g_pre.sum(axis=0))

    return _record(keep * hd + u * cand, (x, h, *weights), backward)
