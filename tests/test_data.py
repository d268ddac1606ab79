"""Data layer: file formats, validation, clip labels, synthetic generator."""

import json

import numpy as np
import pytest

from mrhd.data import (
    ConfigError,
    Dataset,
    DatasetLoadError,
    FeatureFormatError,
    QuerySample,
    SynthConfig,
    ValidationError,
    clip_labels,
    load_dataset,
    read_features,
    synth_generate,
    write_dataset,
    write_features,
)


def _sample(**overrides):
    base = dict(
        qid=1,
        vid="v1",
        query_text="q",
        duration=8.0,
        clip_len=2.0,
        relevant_windows=((0.0, 4.0),),
        saliency=((1, 1, 1),) * 4,
    )
    base.update(overrides)
    return QuerySample(**base)


def test_feature_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((4, 8)).astype(np.float32).astype(np.float64)
    p = tmp_path / "x.vfeat"
    write_features(p, mat)
    back = read_features(p)
    assert back.dtype == np.float64
    assert np.array_equal(back, mat)
    first = p.read_bytes()
    write_features(p, back)
    assert p.read_bytes() == first


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.vfeat"
    p.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FeatureFormatError, match="magic"):
        read_features(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "short.vfeat"
    import struct

    p.write_bytes(b"FEATB1\x00\x00" + struct.pack("<II", 2, 3) + b"\x00" * (5 * 4))
    with pytest.raises(FeatureFormatError, match="truncated"):
        read_features(p)


def test_overflow_header_rejected(tmp_path):
    import struct

    p = tmp_path / "huge.vfeat"
    p.write_bytes(b"FEATB1\x00\x00" + struct.pack("<II", 2**31, 2**31))
    with pytest.raises(FeatureFormatError, match="overflow"):
        read_features(p)


@pytest.mark.parametrize("shape", [(4, 0), (0, 4), (0, 0)])
def test_empty_feature_matrix_rejected(tmp_path, shape):
    p = tmp_path / "empty.vfeat"
    write_features(p, np.zeros(shape))
    with pytest.raises(FeatureFormatError, match=f"empty {shape[0]}x{shape[1]}"):
        read_features(p)


def test_clip_labels_basic():
    assert clip_labels(_sample()).tolist() == [1, 1, 0, 0]


def test_clip_labels_full_duration():
    s = _sample(relevant_windows=((0.0, 8.0),))
    assert clip_labels(s).tolist() == [1, 1, 1, 1]


def test_clip_labels_two_windows_matches_brute_force():
    s = _sample(relevant_windows=((0.0, 2.0), (6.0, 8.0)))
    got = clip_labels(s)
    # independent overlap computation per clip
    want = []
    for i in range(4):
        lo, hi = 2.0 * i, 2.0 * (i + 1)
        ov = max(
            max(0.0, min(e, hi) - max(st, lo)) for st, e in s.relevant_windows
        )
        want.append(1 if ov > 1.0 else 0)
    assert got.tolist() == want == [1, 0, 0, 1]


def test_clip_labels_window_order_irrelevant():
    a = _sample(relevant_windows=((0.0, 2.0), (5.0, 8.0)))
    b = _sample(relevant_windows=((5.0, 8.0), (0.0, 2.0)))
    assert clip_labels(a).tolist() == clip_labels(b).tolist()


def test_validation_reversed_window(tmp_path):
    p = tmp_path / "ann.jsonl"
    rec = {
        "qid": 1,
        "vid": "v",
        "query": "q",
        "duration": 8.0,
        "clip_len": 2.0,
        "relevant_windows": [[3.0, 2.0]],
        "saliency_scores": [[0]] * 4,
    }
    p.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValidationError, match="start < end violated"):
        load_dataset(p, tmp_path)


def test_validation_wrong_saliency_length(tmp_path):
    p = tmp_path / "ann.jsonl"
    rec = {
        "qid": 1,
        "vid": "v",
        "query": "q",
        "duration": 8.0,
        "clip_len": 2.0,
        "relevant_windows": [[0.0, 2.0]],
        "saliency_scores": [[0]] * 3,
    }
    p.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValidationError, match="expected L=4"):
        load_dataset(p, tmp_path)


@pytest.mark.parametrize(
    "ratings, clip, count",
    [
        ([[0], [], [0], [0]], 1, 0),
        ([[], [], [], []], 0, 0),
        ([[0, 1], [0, 1], [0, 1], [0]], 3, 1),
        ([[0], [0, 1], [0], [0]], 1, 2),
    ],
)
def test_validation_requires_equal_annotator_counts(tmp_path, ratings, clip, count):
    p = tmp_path / "ann.jsonl"
    rec = {
        "qid": 3,
        "vid": "v",
        "query": "q",
        "duration": 8.0,
        "clip_len": 2.0,
        "relevant_windows": [[0.0, 2.0]],
        "saliency_scores": ratings,
    }
    p.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValidationError, match=f"qid 3 clip {clip} has {count} ratings"):
        load_dataset(p, tmp_path)


def test_validation_names_line_number(tmp_path):
    p = tmp_path / "ann.jsonl"
    good = {
        "qid": 1,
        "vid": "v",
        "query": "q",
        "duration": 4.0,
        "clip_len": 2.0,
        "relevant_windows": [[0.0, 2.0]],
        "saliency_scores": [[0], [0]],
    }
    bad = dict(good, qid=2, relevant_windows=[[2.0, 1.0]])
    p.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValidationError, match="line 2"):
        load_dataset(p, tmp_path)


def test_non_utf8_annotations_rejected(tmp_path):
    p = tmp_path / "ann.jsonl"
    p.write_bytes(b'{"qid": 1, "vid": "\xfb"}\n')
    with pytest.raises(ValidationError, match="ann.jsonl: not UTF-8"):
        load_dataset(p, tmp_path)


def test_missing_feature_file_names_ids(tmp_path):
    p = tmp_path / "ann.jsonl"
    rec = {
        "qid": 7,
        "vid": "vid9",
        "query": "q",
        "duration": 4.0,
        "clip_len": 2.0,
        "relevant_windows": [[0.0, 2.0]],
        "saliency_scores": [[0], [0]],
    }
    p.write_text(json.dumps(rec) + "\n")
    with pytest.raises(DatasetLoadError, match="qid 7.*vid9"):
        load_dataset(p, tmp_path)


def test_one_line_dataset_loads(tmp_path):
    ds = synth_generate(SynthConfig(num_samples=1, num_clips=4), seed=3)
    write_dataset(ds, tmp_path)
    back = load_dataset(tmp_path / "annotations.jsonl", tmp_path)
    assert len(back) == 1


def test_persistence_round_trip_exact(tmp_path):
    ds = synth_generate(SynthConfig(num_samples=3, num_clips=8, d_a=6), seed=11)
    write_dataset(ds, tmp_path)
    back = load_dataset(tmp_path / "annotations.jsonl", tmp_path)
    assert len(back) == len(ds)
    for (s0, b0), (s1, b1) in zip(ds.samples, back.samples):
        assert s0 == s1
        assert np.array_equal(b0.visual, b1.visual)
        assert np.array_equal(b0.text, b1.text)
        assert np.array_equal(b0.audio, b1.audio)


def test_synth_deterministic(tmp_path):
    cfg = SynthConfig(num_samples=4)
    a = synth_generate(cfg, seed=5)
    b = synth_generate(cfg, seed=5)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_dataset(a, d1)
    write_dataset(b, d2)
    for f in sorted(d1.iterdir()):
        assert f.read_bytes() == (d2 / f.name).read_bytes()


def test_synth_unique_qids():
    ds = synth_generate(SynthConfig(num_samples=16), seed=0)
    qids = [s.qid for s, _ in ds.samples]
    assert len(set(qids)) == 16


def test_synth_noiseless_clips_recover_window():
    cfg = SynthConfig(num_samples=6, noise=0.0)
    ds = synth_generate(cfg, seed=2)
    for sample, bundle in ds.samples:
        labels = clip_labels(sample)
        # the planted signal is shared by all inside clips; use their mean as
        # the centroid and classify each clip by cosine similarity
        centroid = bundle.visual[labels == 1].mean(axis=0)
        cos = bundle.visual @ centroid
        cos /= np.linalg.norm(bundle.visual, axis=1) * np.linalg.norm(centroid) + 1e-12
        recovered = (cos > 0.99).astype(int)
        assert recovered.tolist() == labels.tolist()


def test_synth_ratings_in_range_and_inside_dominates():
    ds = synth_generate(SynthConfig(num_samples=10, noise=0.0), seed=9)
    for sample, _ in ds.samples:
        flat = [r for row in sample.saliency for r in row]
        assert all(0 <= r <= 4 for r in flat)
        labels = clip_labels(sample)
        means = np.array([np.mean(row) for row in sample.saliency])
        assert means[labels == 1].mean() > means[labels == 0].mean()


def test_synth_audio_channel_concat():
    ds = synth_generate(SynthConfig(num_samples=1, d_a=6), seed=1)
    _, bundle = ds.samples[0]
    eff = bundle.effective_visual()
    assert eff.shape == (16, 32 + 6)
    assert np.array_equal(eff[:, :32], bundle.visual)


@pytest.mark.parametrize(
    "cfg",
    [
        SynthConfig(num_clips=1),
        SynthConfig(min_moment=9.0, max_moment=4.0),
        SynthConfig(num_samples=0),
        SynthConfig(min_moment=40.0, max_moment=50.0),
        SynthConfig(noise=-0.5),
    ],
)
def test_degenerate_configs_rejected(cfg):
    with pytest.raises(ConfigError):
        synth_generate(cfg, seed=0)


def test_duplicate_qid_rejected(tmp_path):
    rec = {
        "qid": 1,
        "vid": "v",
        "query": "q",
        "duration": 4.0,
        "clip_len": 2.0,
        "relevant_windows": [[0.0, 2.0]],
        "saliency_scores": [[0], [0]],
    }
    p = tmp_path / "ann.jsonl"
    p.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(ValidationError, match="duplicate qid"):
        load_dataset(p, tmp_path)
