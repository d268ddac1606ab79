"""Alignment module: projection, local similarity/loss, global contrastive."""

import math

import numpy as np
import pytest

from mrhd import align
from mrhd import tensor as T
from mrhd.data import FeatureBundle
from mrhd.gradcheck import check_gradients
from mrhd.tensor import ContractError, Tensor


def _params(seed=0, d_vin=5, d_tin=4, d=6):
    params = {}
    align.init_project_params(params, np.random.default_rng(seed), d_vin, d_tin, d)
    return params


def _bundle(seed=0, L=3, N=2, d_vin=5, d_tin=4):
    rng = np.random.default_rng(seed)
    return FeatureBundle(
        visual=rng.standard_normal((L, d_vin)), text=rng.standard_normal((N, d_tin))
    )


def test_project_shapes():
    v_hat, t_hat = align.project(_bundle(), _params())
    assert v_hat.shape == (3, 6)
    assert t_hat.shape == (2, 6)


def test_project_zero_weights_give_zero_output():
    params = _params()
    for name, t in params.items():
        if name.endswith(".ln.g"):
            continue  # keep unit gain; zero pre-norm input stays zero through the norm
        t.data[...] = 0.0
    v_hat, t_hat = align.project(_bundle(), params)
    assert np.allclose(v_hat.data, 0.0)
    assert np.allclose(t_hat.data, 0.0)


def test_project_dim_mismatch():
    with pytest.raises(ContractError):
        align.project(_bundle(d_vin=7), _params(d_vin=5))


def test_project_gradients_match_finite_differences():
    params = _params(d_vin=3, d_tin=3, d=4)
    names = sorted(params)
    bundle = _bundle(seed=1, L=2, N=2, d_vin=3, d_tin=3)
    rng = np.random.default_rng(7)
    rv = rng.standard_normal((2, 4))
    rt = rng.standard_normal((2, 4))

    def build(ts):
        local = dict(zip(names, ts))
        v_hat, t_hat = align.project(bundle, local)
        return T.add(T.tsum(T.mul(v_hat, Tensor(rv))), T.tsum(T.mul(t_hat, Tensor(rt))))

    err = check_gradients(build, [params[n].data.copy() for n in names])
    assert err < 1e-4


def test_local_similarity_matching_row_gives_sigmoid_one():
    base = np.array([[1.0, 2.0, 0.5]])
    s_loc, s_hat = align.local_similarity(Tensor(base.copy()), Tensor(base.copy()))
    target = 1.0 / (1.0 + math.exp(-1.0))
    assert abs(s_loc.data[0, 0] - target) < 1e-6
    assert abs(s_hat.data[0] - target) < 1e-6


def test_local_similarity_orthogonal_gives_half():
    s_loc, _ = align.local_similarity(
        Tensor(np.array([[1.0, 0.0]])), Tensor(np.array([[0.0, 1.0]]))
    )
    assert abs(s_loc.data[0, 0] - 0.5) < 1e-12


def test_local_similarity_mean_of_constant_row():
    v = Tensor(np.array([[2.0, 0.0]]))
    t = Tensor(np.array([[3.0, 0.0], [5.0, 0.0]]))  # both words parallel to the clip
    s_loc, s_hat = align.local_similarity(v, t)
    # the 1e-8 norm epsilon perturbs the cosines at the 1e-9 scale
    assert np.allclose(s_loc.data, s_loc.data[0, 0], atol=1e-8)
    assert abs(s_hat.data[0] - s_loc.data.mean()) < 1e-12


def test_local_similarity_open_interval():
    rng = np.random.default_rng(3)
    s_loc, s_hat = align.local_similarity(
        Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((5, 3)))
    )
    assert np.all(s_loc.data > 0) and np.all(s_loc.data < 1)
    assert np.all(s_hat.data > 0) and np.all(s_hat.data < 1)


def test_local_loss_perfect_prediction_is_zero():
    c = np.array([1.0, 0.0, 1.0])
    loss = align.local_loss(Tensor(c.copy()), c)
    assert loss.item() < 1e-10


def test_local_loss_uniform_half_is_l_ln2():
    for L in (1, 4, 9):
        loss = align.local_loss(Tensor(np.full(L, 0.5)), np.zeros(L))
        assert abs(loss.item() - L * math.log(2)) < 1e-12


def test_local_loss_hand_value():
    loss = align.local_loss(Tensor(np.array([0.75])), np.array([1.0]))
    assert abs(loss.item() - (-math.log(0.75))) < 1e-12


def test_local_loss_permutation_equivariant():
    rng = np.random.default_rng(5)
    s = rng.uniform(0.05, 0.95, size=6)
    c = rng.integers(0, 2, size=6).astype(float)
    perm = rng.permutation(6)
    a = align.local_loss(Tensor(s), c).item()
    b = align.local_loss(Tensor(s[perm]), c[perm]).item()
    assert abs(a - b) < 1e-12


def test_global_loss_single_sample_is_exactly_zero():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((1, 4))
    assert align.global_loss(Tensor(g), Tensor(g.copy())).item() == 0.0


def test_global_loss_all_zero_dots_is_ln4():
    v = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    t = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    # every pairwise dot is 0 except the anti-diagonal... make them all zero:
    t2 = Tensor(np.zeros((2, 2)))
    assert abs(align.global_loss(v, t2).item() - math.log(4)) < 1e-12


def test_global_loss_decreases_as_diagonal_grows():
    # fix off-diagonal dots, sweep the diagonal upward, loss must fall
    losses = []
    for diag in (0.0, 0.5, 1.0, 2.0):
        v = Tensor(np.eye(2))
        t = Tensor(np.array([[diag, 0.3], [0.3, diag]]))
        losses.append(align.global_loss(v, t).item())
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_global_loss_batch_permutation_invariant():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((4, 3))
    t = rng.standard_normal((4, 3))
    perm = rng.permutation(4)
    a = align.global_loss(Tensor(v), Tensor(t)).item()
    b = align.global_loss(Tensor(v[perm]), Tensor(t[perm])).item()
    assert abs(a - b) < 1e-12


def test_all_losses_reach_mlp_parameters():
    params = _params(d_vin=3, d_tin=3, d=4)
    bundle = _bundle(seed=4, L=3, N=2, d_vin=3, d_tin=3)
    v_hat, t_hat = align.project(bundle, params)
    _, s_hat = align.local_similarity(v_hat, t_hat)
    gv, gt = align.pooled_globals(v_hat, t_hat)
    loss = T.add(
        align.local_loss(s_hat, np.array([1.0, 0.0, 1.0])),
        align.global_loss(T.concat([gv, gv], axis=0), T.concat([gt, gt], axis=0)),
    )
    loss.backward()
    for name, t in params.items():
        assert t.grad is not None and np.any(t.grad != 0), f"dead path to {name}"
        assert np.all(np.isfinite(t.grad)), f"non-finite gradient at {name}"


def test_local_and_global_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    v = rng.standard_normal((3, 4))
    t = rng.standard_normal((2, 4))
    c = np.array([1.0, 0.0, 1.0])

    def build_local(ts):
        _, s_hat = align.local_similarity(ts[0], ts[1])
        return align.local_loss(s_hat, c)

    assert check_gradients(build_local, [v, t]) < 1e-4

    g1 = rng.standard_normal((3, 5))
    g2 = rng.standard_normal((3, 5))

    def build_global(ts):
        return align.global_loss(ts[0], ts[1])

    assert check_gradients(build_global, [g1, g2]) < 1e-4
