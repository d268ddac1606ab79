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
rule; shape checks look at the trailing axes only. A stacked result is
byte-equal to the per-sample ones (each sample's matmul is its own BLAS
call of the same shape, and each reduction runs along the same axis with
the same length). Nodes recorded inside ``with Batch(rows):`` take axis 0
as the sample axis, sample i being position ``rows[i]`` of the training
batch, a batch of one included. A leaf that the samples share, a
parameter or the ``per_sample`` copies of one, then gets one gradient
contribution per sample (rule 3); outside a batch, leading axes that a
leaf lacks are summed as numpy's broadcasting sums them.

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
per row, as one node). Each gives the same bits, in its outputs and in
every gradient, as the primitive composition it replaces;
``tests/test_fused.py`` compares them byte for byte. A fused node takes
one number where the composition took a run of consecutive ones, so its
closure runs where theirs did, and three rules are left:

1. A fused backward adds into each input in the order the primitive
   graph's closures do, one ``_accumulate`` per contribution, never a
   pre-summed one (float addition of three or more terms depends on the
   order). ``gru`` hands each weight one chain per sample, its steps'
   contributions in reverse step order, and a chain is added with
   ``np.add.reduce`` along axis 0 of contiguous stacks ``[existing grad,
   step T-1, ..., step T-k]``, ``[running sum, next k steps]``, ... (k at
   most ``_FOLD_ROWS``), which add them one after another, in that order,
   as the steps' ``+=`` chain did.
2. Operands keep the layouts and shapes the primitive kernels gave them
   (head slices copied to C order, the transposed key copied as
   ``transpose`` did, each GRU step's (1, d) @ (d, d) product made over a
   stack of (1, d) rows, which numpy runs as one BLAS call per row; one
   (T, d) @ (d, d) product differs from the row products in the last
   bits), since a BLAS call on another layout or shape may sum in
   another order; and signed zeros come out as the primitive scatter left
   them.
3. Sample-major fold. Graphs built one sample after another and walked
   together add each parameter's contributions sample by sample, the last
   sample's first, and within a sample in walk order. Inside a batch, a
   shared leaf's per-sample contributions are held and added the same
   way: batch positions from the last to the first, and at one position in
   the order the walk produced them, one addition at a time as
   ``_accumulate`` adds (a GRU chain as rule 1 adds it). A held
   contribution is added as soon as no consumer left in the walk can
   produce one that goes before it, so a parameter with one consumer per
   sample folds as soon as its stack arrives, and all are added once the
   leaf's last batched consumer has run.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import attrgetter

import numpy as np


class ContractError(ValueError):
    """An operation was called outside its documented contract."""


def _as_array(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64))


class Tensor:
    """A float64 array that remembers the operation graph producing it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq", "_rows")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._seq = 0
        self._rows: tuple[int, ...] | None = None  # a node's batch positions (see ``Batch``)

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

    def per_sample(self, n: int) -> "Tensor":
        """``n`` copies of this leaf stacked on a new first axis, one per
        sample, as a leaf of their own.

        Inside a batch the gradient of copy i reaches this tensor as sample
        i's contribution, each consumer's on its own (rule 3): one broadcast
        node would add a sample's contributions together first. Outside a
        batch the copies' gradients are summed.
        """
        if self._backward is not None or self._parents:
            raise ContractError("per_sample copies a leaf")
        out = Tensor(np.repeat(self.data[None], n, axis=0), self.requires_grad)
        out._parents = (self,)
        return out

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable tensor,
        consuming its graph.

        Runs the closures of the reachable nodes once each, in reverse
        creation order (see the module docstring). Once a node's closure
        has run, its gradient, closure and parents are dropped, so a second
        ``backward`` through it raises ``ContractError``. Leaves keep their
        ``.grad``; those the loss does not depend on are left as None.
        """
        global _walk
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        nodes = _graph(self)
        walk = _walk = _Walk(nodes)
        try:
            self.grad = np.ones_like(self.data)
            while nodes:  # popped last-created first; the list drops each node as it runs
                node = nodes.pop()
                walk.rows = node._rows
                if node.grad is not None:
                    node._backward(node.grad)
                if node._rows is not None:
                    walk.ran(node)  # reads node._parents
                node.grad, node._backward, node._parents = None, _walked, ()
        finally:
            _walk = _Walk(())

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
_batch_rows: tuple[int, ...] | None = None  # the rows of the innermost ``Batch``


class Batch:
    """``with Batch(rows):`` the nodes recorded inside take axis 0 of their
    tensors as the sample axis, sample i being position ``rows[i]`` of the
    training batch, a batch of one included; rule 3 of the module
    docstring orders the per-sample gradients of the leaves they share by
    these positions."""

    def __init__(self, rows):
        self.rows = tuple(int(r) for r in rows)

    def __enter__(self) -> "Batch":
        global _batch_rows
        self._outer, _batch_rows = _batch_rows, self.rows
        return self

    def __exit__(self, *exc) -> None:
        global _batch_rows
        _batch_rows = self._outer


def _is_shared(t: Tensor) -> bool:
    """A leaf that takes part in the gradient walk: a parameter or its copies."""
    return t.requires_grad and t._backward is None


def _source(t: Tensor) -> Tensor:
    """The leaf a gradient of ``t`` belongs to: the one ``t`` copies, or ``t``."""
    return t._parents[0] if t._parents and t._backward is None else t


class _Walk:
    """A running ``backward``: the rows of the node whose closure runs, the
    per-sample contributions to shared leaves that rule 3 still holds, and
    for each shared leaf the top rows of its batched consumers yet to run."""

    def __init__(self, nodes):
        self.rows: tuple[int, ...] | None = None
        self.held: dict[Tensor, list] = {}
        self.tops: dict[Tensor, Counter[int]] = {}
        for node in nodes:
            if node._rows is not None:
                for p in node._parents:
                    if _is_shared(p):
                        self.tops.setdefault(_source(p), Counter())[max(node._rows)] += 1

    def hold(self, leaf: Tensor, items) -> None:
        """Keep one ``_add_in_order`` item per sample of the running node."""
        if len(items) != len(self.rows):
            raise ContractError(f"{len(items)} per-sample gradients for a batch of {len(self.rows)}")
        self.held.setdefault(leaf, []).extend(zip(self.rows, items))

    def ran(self, node: Tensor) -> None:
        """Fold into each leaf ``node`` read the held contributions that no
        consumer yet to run can precede, those at rows no lower than any
        such consumer's top row (all once none is left): rows from the last
        to the first, and at one row in walk order (the sort is stable)."""
        top = max(node._rows)
        for p in node._parents:
            if not _is_shared(p):
                continue
            leaf = _source(p)
            tops = self.tops[leaf]
            tops[top] -= 1
            if not tops[top]:
                del tops[top]
            held = self.held.get(leaf)
            if held:
                bound = max(tops, default=-1)
                held.sort(key=lambda e: -e[0])
                _add_in_order(leaf, [item for row, item in held if row >= bound])
                held[:] = [e for e in held if e[0] < bound]


_walk = _Walk(())


_FOLD_ROWS = 16  # the rows of a chain one np.add.reduce adds (rule 1)


def _add_in_order(t: Tensor, items) -> None:
    """Add the items into ``t.grad`` one after another.

    An item of ``t``'s shape is one contribution, added as ``_accumulate``
    adds (the first copied). A chain, an array of contributions along axis
    0 or a pair ``(a, b)`` of step rows whose outer products ``a[s] b[s]^T``
    are the contributions (a GRU weight's, kept as its factors until added),
    is added as ``np.add.reduce`` adds a stack ``[grad, chain...]``: from
    +0.0, one row after another, ``_FOLD_ROWS`` rows per stack
    ``[running sum, next rows...]``.
    """
    acc = t.grad
    for item in items:
        if type(item) is not tuple and item.ndim == t.ndim:
            if acc is None:
                acc = np.array(item, dtype=np.float64, order="C")
            else:
                acc += item
            continue
        n = len(item[0]) if type(item) is tuple else len(item)
        buf = np.empty((min(n, _FOLD_ROWS) + 1,) + t.data.shape)
        buf[0] = 0.0 if acc is None else acc + 0.0
        for start in range(0, n, _FOLD_ROWS):
            stop = min(start + _FOLD_ROWS, n)
            block = buf[: stop - start + 1]
            if type(item) is tuple:
                # einsum's outer products equal the (n,1)x(1,d) matmuls bit for bit
                np.einsum("ti,tj->tij", item[0][start:stop], item[1][start:stop], out=block[1:])
            else:
                block[1:] = item[start:stop]
            # axis 0 of a stack of rows of two or more numbers reduces row
            # after row; a stack of single numbers would be summed pairwise
            acc = np.add.reduce(block, axis=0) if t.data.size > 1 else np.add.accumulate(block, axis=0)[-1]
            buf[0] = acc
    t.grad = acc


def _add_chains(t: Tensor, chains) -> None:
    """Add one chain of contributions per sample into ``t``: held by rule 3
    for a shared leaf inside a batch, in sample order otherwise."""
    if not t.requires_grad:
        return
    if _walk.rows is not None and t._backward is None:
        _walk.hold(t, chains)
    else:
        _add_in_order(t, chains)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    source = _source(t)
    if _walk.rows is not None and t._backward is None and g.ndim > source.ndim:
        # a shared leaf inside a batch: one contribution per sample (rule 3)
        if g.shape[1:] != source.shape:
            raise ContractError(f"per-sample gradients of shape {g.shape} for a leaf of shape {source.shape}")
        _walk.hold(source, g)
        return
    lead = g.ndim - source.ndim
    if lead:
        if _walk.rows is not None:
            raise ContractError(f"a gradient of shape {g.shape} for a tensor of shape {t.shape} inside a batch")
        g = np.add.reduce(g, axis=tuple(range(lead)))
    t = source
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
    out._rows = None
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
            out._seq = next(_counter)
            out._rows = _batch_rows
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
    along, giving it that shape back; inside a batch the sample axis the
    operand lacks stays, for ``_accumulate`` to fold."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    keep = 1 if lead and _walk.rows is not None else 0
    if lead > keep:
        g = np.add.reduce(g, axis=tuple(range(keep, lead)))
    stretched = tuple(keep + i for i, n in enumerate(shape) if n == 1 and g.shape[keep + i] != 1)
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
# fused kernels (see the module docstring for the ordering rules they keep)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b``: a linear layer, its bias added to every row."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ContractError(f"affine expects (...,m,k)x(k,n), got {x.shape} and {w.shape}")
    if b.shape != (w.shape[1],):
        raise ContractError(f"affine bias must have shape {(w.shape[1],)}, got {b.shape}")

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.swapaxes(-1, -2) @ g)
        _accumulate(b, np.add.reduce(g, axis=-2))

    return _record(x.data @ w.data + b.data, (x, w, b), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization to zero mean and unit variance (1e-5 added to
    the variance), then affine.

    The backward adds into ``x`` twice, first the centring's share and then
    the mean's, as the chain of primitive kernels it replaces does.
    """
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
        g_sq = (g_std * 0.5 / std / d)[..., None] * centered
        g_centered += g_sq  # centered * centered: one addition per factor
        g_centered += g_sq
        _accumulate(x, g_centered)
        _accumulate(x, np.broadcast_to((np.add.reduce(-g_centered, axis=-1) / d)[..., None], x.shape))

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
        if heads > 1:  # the per-head scatter summed zero blocks in: -0.0 -> +0.0
            gq += 0.0
            gk += 0.0
            gv += 0.0
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

    Each chain gives the bits of one primitive step per row slice (rules 1
    and 2 of the module docstring): every (1, d) row product is made in a
    stack of (1, d) rows, in the forward and in the ``x`` and ``h``
    gradients, and each weight and bias gets one chain per sample, its
    steps' contributions in reverse step order (rule 3 orders the chains).
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
    u, r = ur[:, :, 0], ur[:, :, 1]
    keep = 1.0 - u
    last = hs[steps, at].reshape(batch + (1, d))

    def backward(g):
        w_ru_t = np.stack([whr.data, whu.data]).transpose(0, 2, 1)  # whr.T, whu.T
        whc_t = whc.data.T
        d_cand = 1.0 - cand * cand
        d_r = 1.0 - r
        g_out = g.reshape(n, 1, d)[order]
        g_run = np.empty((n, 1, d))  # each running chain's grad of its state
        # grads of the reset, update and candidate pre-activations
        g_pre = np.zeros((longest, n, 3, 1, d))
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
                np.multiply((gt * c_m[t] - gt * ht) * u_t, keep_t, out=g_t[..., 1, :, :])
                np.multiply(gt * u_t, dc_m[t], out=g_t[..., 2, :, :])
                g_rh = g_t[..., 2, :, :] @ whc_t
                np.multiply(g_rh * ht * r_t, dr_m[t], out=g_t[..., 0, :, :])
                if t == 0 and not h.requires_grad:  # mr2hd's zero start
                    break
                # into the state: keep, r*h, reset, update
                reset_update = g_t[..., :2, :, :] @ w_ru_t
                shares = (gt * keep_t, g_rh * r_t, reset_update[..., 0, :, :], reset_update[..., 1, :, :])
                if t == 0:
                    for share in shares:
                        _accumulate(h, share.reshape(n, 1, d)[at].reshape(h.shape))
                else:
                    gt = shares[0]
                    for share in shares[1:]:
                        gt += share
            g_run[:m] = gt.reshape(m, 1, d)
        g_r, g_u, g_c = g_pre[:, :, 0], g_pre[:, :, 1], g_pre[:, :, 2]
        if x.requires_grad:
            # per row: the candidate's share, then the reset gate's, then the update gate's
            gx = g_c @ wxc.data.T
            gx += g_r @ wxr.data.T
            gx += g_u @ wxu.data.T
            gx[:, [steps[i] > 1 for i in order]] += 0.0  # the per-step row scatters summed zero rows in: -0.0 -> +0.0
            z = np.zeros((n, length, d_in))
            for i, (start, stop) in enumerate(bounds):
                z[i, start:stop] = gx[: steps[i], at[i], 0]
            _accumulate(x, z.reshape(x.shape))
        for w, b, inp, g_w in (
            (wxu, bxu, rows, g_u), (whu, bhu, hs, g_u),
            (wxr, bxr, rows, g_r), (whr, bhr, hs, g_r),
            (wxc, bxc, rows, g_c), (whc, bhc, rh, g_c),
        ):
            # each sample's steps in reverse order; W's as its outer products' factors
            backwards = [(slice(steps[i] - 1, None, -1), at[i], 0) for i in range(n)]
            _add_chains(w, [(inp[rev], g_w[rev]) for rev in backwards])
            _add_chains(b, [g_w[rev] for rev in backwards])

    return _record(last, (x, h, *weights), backward)
