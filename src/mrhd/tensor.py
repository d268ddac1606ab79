"""Reverse-mode autodiff over dense float64 arrays.

Everything differentiable in this package runs on the ``Tensor`` class
below: a numpy float64 buffer plus a dynamically recorded graph. Each
kernel stores its parent tensors and a closure that maps the output
gradient to input gradients; ``backward()`` on a scalar loss replays the
closures in reverse topological order and accumulates into ``.grad``.
Kernels hand their fresh output buffer to ``_record``, which wraps it as
it is (only the numpy scalars that 0-d results come back as are converted
to arrays) and attaches parents and closure only when some parent
requires grad.

The kernel set is deliberately small: 2-D matmul, same-shape elementwise
arithmetic, scalar affine ops, a few nonlinearities, axis reductions,
concat, row/column slicing and gathering, transpose, and the two vector
broadcasts the model needs (a vector tiled down the rows, a vector tiled
across the columns). There is no general broadcasting and no view
semantics; every op materializes a fresh buffer.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """A kernel was invoked on tensors whose shapes violate its contract."""


class ContractError(ValueError):
    """An operation was called outside its documented contract."""


def _as_array(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64))


class Tensor:
    """A float64 array that remembers the operation graph producing it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

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

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable tensor.

        Walks the recorded graph once in reverse topological order. Grads
        of tensors the loss does not depend on are left as None.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[Tensor] = set()  # tensors hash by identity
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        push, pop, visit, emit = stack.append, stack.pop, seen.add, topo.append
        while stack:  # iterative DFS; GRU chains can exceed the recursion limit
            node, expanded = pop()
            if expanded:
                emit(node)
                continue
            if node in seen:
                continue
            visit(node)
            push((node, True))
            for parent in node._parents:
                if parent not in seen:
                    push((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def sum(self, axis: int | None = None) -> "Tensor":
        return tsum(self, axis)

    def mean(self, axis: int | None = None) -> "Tensor":
        return tmean(self, axis)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return add_scalar(self, -float(other))

    def __rsub__(self, other):
        return add_scalar(scale(self, -1.0), float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return scale(self, 1.0 / float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


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
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            break
    return out


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} expects matching shapes, got {a.shape} and {b.shape}")


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
    _same_shape(a, b, "add")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _record(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _record(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product."""
    _same_shape(a, b, "mul")

    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _record(a.data * b.data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "div")

    def backward(g):
        _accumulate(a, g / b.data)
        _accumulate(b, -g * a.data / (b.data * b.data))

    return _record(a.data / b.data, (a, b), backward)


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


def broadcast_cols(v: Tensor, m: int) -> Tensor:
    """Tile a length-n vector into an (n, m) matrix, one copy per column."""
    if v.ndim != 1:
        raise ShapeError(f"broadcast_cols expects a 1-D tensor, got {v.shape}")

    def backward(g):
        _accumulate(v, g.sum(axis=1))

    return _record(np.repeat(v.data[:, None], m, axis=1), (v,), backward)


def expand_scalar(s: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Fill ``shape`` with a single scalar tensor's value."""
    if s.data.size != 1:
        raise ShapeError(f"expand_scalar expects a scalar, got shape {s.shape}")

    def backward(g):
        _accumulate(s, np.full(s.shape, g.sum()))

    return _record(np.full(shape, float(s.data.reshape(()))), (s,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization to zero mean and unit variance, then affine.

    Built from primitive kernels so the backward pass comes for free.
    """
    if x.ndim != 2:
        raise ShapeError(f"layer_norm expects a 2-D tensor, got {x.shape}")
    rows, d = x.shape
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    mu = tmean(x, axis=1)
    centered = sub(x, broadcast_cols(mu, d))
    var = tmean(mul(centered, centered), axis=1)
    inv_std = broadcast_cols(sqrt(add_scalar(var, eps)), d)
    normed = div(centered, inv_std)
    return add(mul(normed, broadcast_rows(gain, rows)), broadcast_rows(bias, rows))
