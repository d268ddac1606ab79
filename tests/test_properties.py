"""Cross-module invariants under generated inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mrhd import losses, metrics
from mrhd.data import QuerySample, clip_labels, read_features, write_features

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_feature_round_trip_bit_exact(tmp_path_factory, rows, cols, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((rows, cols)).astype(np.float32).astype(np.float64)
    path = tmp_path_factory.mktemp("feat") / "m.vfeat"
    write_features(path, mat)
    assert np.array_equal(read_features(path), mat)


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(finite, min_size=25, max_size=25),
    st.permutations(range(5)),
)
@settings(max_examples=60, deadline=None)
def test_hungarian_beats_any_permutation(n, values, perm):
    cost = np.array(values[: n * n]).reshape(n, n)
    got = sum(cost[p, g] for p, g in losses.hungarian_match(cost))
    other = sum(cost[perm[j] % n, j] for j in range(n))
    # a permutation with collisions is not an assignment; skip those
    if len({perm[j] % n for j in range(n)}) == n:
        assert got <= other + 1e-9


@given(finite, st.floats(min_value=0.1, max_value=50.0), finite,
       st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_iou_symmetric_and_bounded(s1, w1, s2, w2):
    """Through the IoU thresholds of a one-query report."""

    def report(span, window):
        sample = QuerySample(
            qid=0, vid="v", query_text="q", duration=200.0, clip_len=200.0,
            relevant_windows=(window,), saliency=((0,),),
        )
        return metrics.evaluate([(sample, [(*span, 1.0)], [0.0])]).to_dict()

    a, b = (s1, s1 + w1), (s2, s2 + w2)
    x = report(a, b)
    assert all(0.0 <= v <= 1.0 for v in x.values())
    assert x == report(b, a)
    assert all(v == 1.0 for v in report(a, a).values())


@given(st.lists(st.booleans(), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_ap_bounded_and_perfect_when_front_loaded(flags):
    npos = sum(flags)
    ap = metrics.average_precision([flags], [max(npos, 1)])[0]
    assert 0.0 <= ap <= 1.0
    if npos:
        assert metrics.average_precision([sorted(flags, reverse=True)], [npos])[0] == 1.0


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_clip_labels_monotone_in_windows(data):
    num_clips = data.draw(st.integers(min_value=2, max_value=10))
    clip_len = 2.0
    duration = num_clips * clip_len

    def window(_):
        start = data.draw(st.floats(min_value=0.0, max_value=duration - 0.5))
        end = data.draw(st.floats(min_value=start + 0.5, max_value=duration))
        return (start, end)

    windows = tuple(window(i) for i in range(data.draw(st.integers(1, 3))))

    def sample(wins):
        return QuerySample(
            qid=0, vid="v", query_text="q", duration=duration, clip_len=clip_len,
            relevant_windows=wins,
            saliency=tuple((0,) for _ in range(num_clips)),
        )

    full = clip_labels(sample(windows))
    part = clip_labels(sample(windows[:1]))
    # more windows can only turn clips on, never off
    assert np.all(full >= part)
    perm = clip_labels(sample(windows[::-1]))
    assert np.array_equal(full, perm)
