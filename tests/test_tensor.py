"""Engine-level tests: kernel gradients, graph mechanics, error paths."""

import inspect
import itertools
import sys
import weakref

import numpy as np
import pytest

from mrhd import gradcheck, trainer
from mrhd import tensor as T
from mrhd.data import Dataset, SynthConfig, synth_generate
from mrhd.gradcheck import check_gradients, kernel_suite
from mrhd.tensor import ContractError, Tensor


def test_forward_values_match_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    assert np.allclose(T.matmul(Tensor(a), Tensor(b)).data, a @ b)
    assert np.allclose(T.softmax(Tensor(a), axis=1).data.sum(axis=1), 1.0)
    assert np.allclose(T.sigmoid(Tensor(a)).data, 1 / (1 + np.exp(-a)))
    got = T.layer_norm(Tensor(a), Tensor(np.ones(4)), Tensor(np.zeros(4))).data
    assert np.allclose(got.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(got.std(axis=1), 1.0, atol=1e-3)


def test_kernel_suite_small_sample():
    worst = kernel_suite(range(3))
    for name, err in worst.items():
        assert err < 1e-4, f"{name} gradient off by {err:.3e}"


def test_gradient_accumulates_across_reuse():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    y = T.add(T.mul(x, x), x)  # d/dx (x^2 + x) = 2x + 1
    T.tsum(y).backward()
    assert np.allclose(x.grad, 2 * x.data + 1)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        T.mul(x, x).backward()


def test_item_requires_single_element():
    with pytest.raises(ContractError):
        Tensor(np.ones(3)).item()


@pytest.mark.parametrize(
    "bad",
    [
        lambda: T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))),
        lambda: T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))),
        lambda: T.slice_range(Tensor(np.ones((4, 2))), 3, 3, axis=0),
        lambda: T.slice_range(Tensor(np.ones((4, 2))), 0, 5, axis=1),
        lambda: T.gather_rows(Tensor(np.ones((4, 2))), [0, 4]),
        lambda: T.broadcast_rows(Tensor(np.ones((2, 2))), -1),
        lambda: T.softmax(Tensor(np.ones((2, 2))), axis=2),
        lambda: T.reshape(Tensor(np.ones((2, 3))), (4, 2)),
        lambda: T.concat([], axis=0),
        lambda: T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((2,)))),
        lambda: T.slice_range(Tensor(np.ones((4, 2))), 1, 1, axis=1),
        lambda: T.slice_range(Tensor(np.ones((4, 2))), 2, 1, axis=0),
        lambda: T.slice_range(Tensor(np.ones((4, 2))), 2, 5, axis=0),
        lambda: T.slice_range(Tensor(np.ones((4, 2))), 0, 1, axis=2),
        lambda: T.slice_range(Tensor(np.ones((4, 2))), 0, 1, axis=-3),
        lambda: T.slice_range(Tensor(np.ones(4)), 0, 1, axis=1),
    ],
)
def test_shape_violations_raise(bad):
    with pytest.raises(ContractError):
        bad()


def test_no_grad_tracking_without_requires_grad():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = T.mul(a, b)
    assert not out.requires_grad and out._parents == ()


def test_deep_chain_does_not_hit_recursion_limit():
    x = Tensor(np.array([[0.5]]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = T.add_scalar(y, 1e-6)
    T.tsum(y).backward()
    assert np.allclose(x.grad, 1.0)


@pytest.mark.parametrize(
    "combine",
    [
        lambda one, big, neg: T.add(T.add(one, big), neg),
        lambda one, big, neg: T.add(one, T.add(big, neg)),
        lambda one, big, neg: T.add(neg, T.add(one, big)),
        lambda one, big, neg: T.add(T.add(neg, big), one),
    ],
    ids=["left-fold", "right-fold", "last-outside", "creation-reversed"],
)
def test_backward_adds_contributions_in_reverse_creation_order(combine):
    """Three contributions into one leaf whose float sum depends on the
    order: the consumers are created in one order and combined in another,
    and the leaf's grad is the sum taken last-created first, whatever the
    shape of the graph that combines them."""
    x = Tensor(np.array([1.0]), requires_grad=True)
    one, big, neg = T.scale(x, 1.0), T.scale(x, 1e16), T.scale(x, -1e16)
    T.tsum(combine(one, big, neg)).backward()
    in_reverse_creation_order = (np.float64(-1e16) + 1e16) + 1.0
    assert in_reverse_creation_order != (np.float64(1.0) + 1e16) + -1e16
    assert x.grad.tobytes() == np.array([in_reverse_creation_order]).tobytes()


def test_slice_range_counts_negative_axes_from_the_end():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    out = T.slice_range(x, 1, 3, axis=-1)
    assert out.data.tobytes() == x.data[:, 1:3].copy().tobytes()
    T.tsum(out).backward()
    assert np.array_equal(x.grad, [[0, 1, 1, 0]] * 3)


@pytest.mark.parametrize("reduce", [T.tsum, T.tmean])
def test_reducing_a_vector_along_its_axis_backpropagates(reduce):
    """A vector reduced along axis 0 gives a (1,) result, as over every
    axis, and its gradient spreads back over the vector."""
    x = Tensor(np.arange(4.0), requires_grad=True)
    T.tsum(T.scale(reduce(x, axis=0), 3.0)).backward()
    assert np.array_equal(x.grad, np.full(4, 3.0 if reduce is T.tsum else 0.75))


def _square_wrong_at(x, flat_index):
    """``x * x`` whose backward is off by one at ``flat_index``."""

    def backward(g):
        wrong = 2.0 * x.data
        wrong.reshape(-1)[flat_index] += 1.0
        T._accumulate(x, g * wrong)

    return T._record(x.data * x.data, (x,), backward)


def test_check_gradients_probes_the_entries_it_is_given():
    """The error shows when the wrong element is among the entries probed,
    and not when only the others are; entries name (array, flat index)."""
    arrays = [np.linspace(-1.0, 1.0, 6).reshape(2, 3), np.linspace(0.5, 2.0, 12).reshape(3, 4)]

    def build(ts):
        return T.add(T.tsum(T.mul(ts[0], ts[0])), T.tsum(_square_wrong_at(ts[1], 6)))

    assert check_gradients(build, arrays) > 0.1
    assert check_gradients(build, arrays, [(0, 2), (1, 6)]) > 0.1
    others = [(0, j) for j in range(6)] + [(1, j) for j in range(12) if j != 6]
    assert check_gradients(build, arrays, others) < 1e-8


def test_gather_rows_accumulates_repeats():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    T.tsum(T.gather_rows(x, [1, 1, 2])).backward()
    assert np.allclose(x.grad, [[0, 0], [2, 2], [1, 1]])


def test_composed_expression_gradient():
    rng = np.random.default_rng(7)
    arrays = [rng.standard_normal((3, 3)), rng.standard_normal((3, 3))]

    def build(ts):
        h = T.tanh(T.matmul(ts[0], ts[1]))
        s = T.softmax(h, axis=1)
        return T.tmean(T.mul(s, h))

    assert check_gradients(build, arrays) < 1e-6


def test_layer_norm_affine_params_receive_grads():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    g = Tensor(rng.standard_normal(5), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    T.tsum(T.layer_norm(x, g, b)).backward()
    assert x.grad is not None and g.grad is not None and b.grad is not None
    assert np.allclose(b.grad, 4.0)  # bias grad of a plain sum is the row count


def _zeros_then_add(t, g, fresh=False):
    """Gradient accumulation as a zero buffer plus every contribution: the
    reference the copy-on-first-contribution engine must equal, whether or
    not a closure hands over its own buffer. A one-sample graph hands a
    parameter a stack of one contribution."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g.reshape(t.shape)


def _tiny_batch_backward():
    """One train-mode forward and backward over a two-video batch with
    different clip counts. Returns the params and the batch loss node."""
    ds = Dataset(
        samples=synth_generate(SynthConfig(num_samples=1, num_clips=7, d_v=10, d_t=6), 1).samples
        + synth_generate(SynthConfig(num_samples=1, num_clips=12, d_v=10, d_t=6), 2).samples
    )
    config = trainer.TrainConfig(seed=0, d=8, num_queries=3, decoder_layers=2, heads=2)
    params = trainer.init_model(np.random.default_rng(0), 10, 6, config)
    parts = [trainer.forward(s, b, params, config, "train").parts for s, b in ds.samples]
    total, _ = trainer.batch_total(parts, config)
    total.backward()
    return params, total


def test_train_step_grads_bit_identical_to_zero_buffer_accumulation(monkeypatch):
    params, _ = _tiny_batch_backward()
    with monkeypatch.context() as m:
        m.setattr(T, "_accumulate", _zeros_then_add)
        reference, _ = _tiny_batch_backward()
    assert params.keys() == reference.keys()
    for name in params:
        got, want = params[name].grad, reference[name].grad
        assert got is not None and want is not None, name
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_every_grad_is_c_contiguous_float64_of_its_shape(monkeypatch):
    """Each node's gradient, as its closure receives it, is a C-ordered
    float64 array of the node's shape (the walk drops it afterwards)."""
    checked = []
    record = T._record

    def checking_record(out_data, parents, backward):
        out = record(out_data, parents, backward)
        shape = out.shape

        def check(g):
            assert type(g) is np.ndarray and g.dtype == np.float64
            assert g.flags.c_contiguous and g.shape == shape
            checked.append(shape)
            backward(g)

        if out._backward is not None:
            out._backward = check
        return out

    monkeypatch.setattr(T, "_record", checking_record)
    _tiny_batch_backward()
    assert len(checked) > 100


def test_batched_step_leaves_every_param_its_own_grad_buffer():
    """A closure hands its own product buffers over as first contributions,
    uncopied: after a stacked step over a mixed-length batch no two
    parameters' gradients share memory, and each is C-ordered."""
    # seed 2 gives both 7-clip videos 16 saliency pairs, so they share a stack
    batch = [
        sample
        for clips, count in ((7, 2), (12, 1))
        for sample in synth_generate(
            SynthConfig(num_samples=count, num_clips=clips, d_v=10, d_t=6), 2
        ).samples
    ]
    config = trainer.TrainConfig(seed=0, d=8, num_queries=3, decoder_layers=2, heads=2)
    params = trainer.init_model(np.random.default_rng(0), 10, 6, config)
    _, parts = trainer.forward_batch(batch, params, config, "train", 0)
    assert sorted(p.rows for p in parts) == [(0, 1), (2,)]  # a stack of two and one of one
    trainer.batch_total(parts, config)[0].backward()
    grads = [(name, p.grad) for name, p in sorted(params.items())]
    for name, g in grads:
        assert g is not None and g.flags.c_contiguous and g.shape == params[name].shape, name
    shared = [
        (a, b) for (a, ga), (b, gb) in itertools.combinations(grads, 2) if np.shares_memory(ga, gb)
    ]
    assert not shared, shared


def test_backward_frees_every_intermediate_buffer(monkeypatch):
    """Once ``backward`` returns, no array of a node it walked is alive but
    the root's, which the caller still holds."""
    buffers = []
    record = T._record

    def recording(out_data, parents, backward):
        out = record(out_data, parents, backward)
        if out._backward is not None:
            buffers.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(T, "_record", recording)
    _, total = _tiny_batch_backward()
    alive = [ref() for ref in buffers if ref() is not None]
    assert len(buffers) > 100
    assert len(alive) == 1 and alive[0] is total.data


def test_second_backward_raises_and_leaves_keep_their_grads():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    loss = T.tsum(T.mul(x, T.tanh(x)))
    loss.backward()
    assert loss.grad is None
    grad = x.grad.copy()
    with pytest.raises(ContractError):
        loss.backward()
    with pytest.raises(ContractError):  # a new graph over a walked node
        T.tsum(T.scale(loss, 2.0)).backward()
    assert np.array_equal(x.grad, grad)


def test_kernel_suite_checks_every_public_kernel(monkeypatch):
    """``gradcheck.kernel_suite`` calls each public function of ``tensor``
    itself (a call from inside another kernel does not count), so a kernel
    added without a finite-difference check fails here."""
    kernels = {
        name
        for name, f in vars(T).items()
        if inspect.isfunction(f) and f.__module__ == T.__name__ and not name.startswith("_")
    }
    called = set()

    def spy(name, kernel):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals is vars(gradcheck):
                called.add(name)
            return kernel(*args, **kwargs)

        return wrapper

    for name in kernels:
        monkeypatch.setattr(T, name, spy(name, getattr(T, name)))
    kernel_suite([0])
    assert {"matmul", "affine", "gru"} <= kernels
    assert sorted(kernels - called) == []
