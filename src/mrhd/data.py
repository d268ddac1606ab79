"""Dataset schema, binary feature I/O, clip labels, and a synthetic generator.

A sample couples one natural-language query with one video. The video is
pre-chunked into L equal clips of ``clip_len`` seconds; per-clip visual
(and optionally audio) feature vectors plus per-token text feature
vectors live in sidecar binary files. Ground truth is a set of relevant
time windows and, per clip, one rating per annotator on a 0..4 scale
(-1 marks an unannotated entry); every clip lists the same annotators.

The synthetic generator plants one window per sample and correlates the
inside-window clip features with the query centroid through a fixed
random projection, which gives a desk-scale dataset a real model can
actually learn from.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class FeatureFormatError(ValueError):
    """A feature file is malformed: bad magic, bad header, or short payload."""


class ValidationError(ValueError):
    """An annotation record violates the schema invariants."""


class DatasetLoadError(RuntimeError):
    """A referenced feature file is missing or unreadable."""


class ConfigError(ValueError):
    """A synthetic-generation config is degenerate."""


_MAGIC = b"FEATB1\x00\x00"
_MAX_ELEMENTS = 1 << 30


@dataclass(frozen=True)
class QuerySample:
    """One query against one video, with windows and saliency ground truth."""

    qid: int
    vid: str
    query_text: str
    duration: float
    clip_len: float
    relevant_windows: tuple[tuple[float, float], ...]
    saliency: tuple[tuple[int, ...], ...]

    @property
    def num_clips(self) -> int:
        return int(math.ceil(self.duration / self.clip_len))


@dataclass
class FeatureBundle:
    """Per-clip visual (optionally audio) features and per-token text features."""

    visual: np.ndarray
    text: np.ndarray
    audio: np.ndarray | None = None

    def effective_visual(self) -> np.ndarray:
        """Visual features, with audio concatenated per clip when present."""
        if self.audio is None:
            return self.visual
        return np.concatenate([self.visual, self.audio], axis=1)


@dataclass
class Dataset:
    samples: list[tuple[QuerySample, FeatureBundle]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)


# ---------------------------------------------------------------------------
# binary feature files


def write_features(path, matrix: np.ndarray) -> None:
    """Write a 2-D float matrix: 8-byte magic, LE uint32 rows/cols, LE float32 data."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise FeatureFormatError(f"feature matrices are 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FeatureFormatError("refusing to write non-finite features")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.astype("<f4").tobytes(order="C"))


def read_features(path) -> np.ndarray:
    """Read a feature file back as float64. Inverse of ``write_features``."""
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise FeatureFormatError(f"{path}: file shorter than the 16-byte header")
    if raw[:8] != _MAGIC:
        raise FeatureFormatError(f"{path}: bad magic {raw[:8]!r}")
    rows, cols = struct.unpack("<II", raw[8:16])
    if rows == 0 or cols == 0:
        raise FeatureFormatError(f"{path}: header claims an empty {rows}x{cols} matrix")
    if rows * cols > _MAX_ELEMENTS:
        raise FeatureFormatError(f"{path}: header claims {rows}x{cols}, overflow")
    expected = rows * cols * 4
    payload = raw[16:]
    if len(payload) < expected:
        raise FeatureFormatError(
            f"{path}: truncated payload, expected {expected} bytes, got {len(payload)}"
        )
    if len(payload) > expected:
        raise FeatureFormatError(f"{path}: {len(payload) - expected} trailing bytes")
    flat = np.frombuffer(payload, dtype="<f4", count=rows * cols)
    return flat.astype(np.float64).reshape(rows, cols)


# ---------------------------------------------------------------------------
# annotations


def _validate_sample(s: QuerySample, where: str) -> None:
    if s.duration <= 0 or s.clip_len <= 0:
        raise ValidationError(f"{where}: duration and clip_len must be positive")
    for w in s.relevant_windows:
        if len(w) != 2:
            raise ValidationError(f"{where}: windows are [start, end] pairs, got {w}")
        start, end = w
        if not start < end:
            raise ValidationError(f"{where}: start < end violated by window [{start}, {end}]")
        if start < 0 or end > s.duration + 1e-9:
            raise ValidationError(f"{where}: window [{start}, {end}] outside [0, {s.duration}]")
    expected_l = s.num_clips
    if len(s.saliency) != expected_l:
        raise ValidationError(
            f"{where}: saliency length {len(s.saliency)} != expected L={expected_l}"
        )
    annotators = len(s.saliency[0])
    for clip, ratings in enumerate(s.saliency):
        if len(ratings) < 1 or len(ratings) != annotators:
            raise ValidationError(
                f"{where}: qid {s.qid} clip {clip} has {len(ratings)} ratings; every clip needs"
                f" the same number of ratings, at least one (clip 0 has {annotators})"
            )
        for r in ratings:
            if r not in (-1, 0, 1, 2, 3, 4):
                raise ValidationError(f"{where}: rating {r} outside -1..4")


def _sample_from_record(rec: dict, where: str) -> QuerySample:
    try:
        sample = QuerySample(
            qid=int(rec["qid"]),
            vid=str(rec["vid"]),
            query_text=str(rec["query"]),
            duration=float(rec["duration"]),
            clip_len=float(rec["clip_len"]),
            relevant_windows=tuple(
                (float(w[0]), float(w[1])) for w in rec["relevant_windows"]
            ),
            saliency=tuple(tuple(int(r) for r in row) for row in rec["saliency_scores"]),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"{where}: malformed record ({exc})") from exc
    _validate_sample(sample, where)
    return sample


def load_annotations(path) -> list[QuerySample]:
    """Parse a JSON-Lines annotations file, validating each record."""
    samples = []
    seen_qids: set[int] = set()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"line {lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{where}: invalid JSON ({exc})") from exc
        sample = _sample_from_record(rec, where)
        if sample.qid in seen_qids:
            raise ValidationError(f"{where}: duplicate qid {sample.qid}")
        seen_qids.add(sample.qid)
        samples.append(sample)
    return samples


def load_dataset(annotations_path, feature_dir) -> Dataset:
    """Pair every annotation with its feature files and validate shapes."""
    feature_dir = Path(feature_dir)
    ds = Dataset()
    vfeat_cache: dict[str, np.ndarray] = {}
    for sample in load_annotations(annotations_path):
        vpath = feature_dir / f"{sample.vid}.vfeat"
        tpath = feature_dir / f"{sample.qid}.tfeat"
        apath = feature_dir / f"{sample.vid}.afeat"
        if sample.vid not in vfeat_cache:
            if not vpath.exists():
                raise DatasetLoadError(
                    f"qid {sample.qid}: missing visual features for vid '{sample.vid}' at {vpath}"
                )
            vfeat_cache[sample.vid] = read_features(vpath)
        if not tpath.exists():
            raise DatasetLoadError(f"qid {sample.qid}: missing text features at {tpath}")
        visual = vfeat_cache[sample.vid]
        text = read_features(tpath)
        audio = read_features(apath) if apath.exists() else None
        where = f"qid {sample.qid}"
        if visual.shape[0] != sample.num_clips:
            raise ValidationError(
                f"{where}: visual features have {visual.shape[0]} rows, expected L={sample.num_clips}"
            )
        if audio is not None and audio.shape[0] != sample.num_clips:
            raise ValidationError(
                f"{where}: audio features have {audio.shape[0]} rows, expected L={sample.num_clips}"
            )
        if text.shape[0] < 1:
            raise ValidationError(f"{where}: text features need at least one token row")
        for name, arr in (("visual", visual), ("text", text), ("audio", audio)):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValidationError(f"{where}: non-finite values in {name} features")
        ds.samples.append((sample, FeatureBundle(visual=visual, text=text, audio=audio)))
    return ds


def write_dataset(ds: Dataset, out_dir) -> None:
    """Persist a dataset as annotations.jsonl plus per-id feature files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "annotations.jsonl", "w", encoding="utf-8") as fh:
        for sample, bundle in ds.samples:
            rec = {
                "qid": sample.qid,
                "vid": sample.vid,
                "query": sample.query_text,
                "duration": sample.duration,
                "clip_len": sample.clip_len,
                "relevant_windows": [list(w) for w in sample.relevant_windows],
                "saliency_scores": [list(r) for r in sample.saliency],
            }
            fh.write(json.dumps(rec) + "\n")
    written_vids: set[str] = set()
    for sample, bundle in ds.samples:
        if sample.vid not in written_vids:
            write_features(out_dir / f"{sample.vid}.vfeat", bundle.visual)
            if bundle.audio is not None:
                write_features(out_dir / f"{sample.vid}.afeat", bundle.audio)
            written_vids.add(sample.vid)
        write_features(out_dir / f"{sample.qid}.tfeat", bundle.text)


# ---------------------------------------------------------------------------
# clip-level relevance labels


def clip_labels(sample: QuerySample) -> np.ndarray:
    """Binary relevance per clip: 1 iff some window overlaps it by more than
    half the clip length. Clips cover [i*clip_len, (i+1)*clip_len)."""
    labels = np.zeros(sample.num_clips, dtype=np.int64)
    half = sample.clip_len / 2.0
    for i in range(sample.num_clips):
        lo, hi = i * sample.clip_len, (i + 1) * sample.clip_len
        for start, end in sample.relevant_windows:
            if min(end, hi) - max(start, lo) > half:
                labels[i] = 1
                break
    return labels


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SynthConfig:
    """Knobs for the synthetic generator.

    Moment lengths are in seconds and get snapped to whole clips; the
    planted window always leaves at least one clip outside it.
    """

    num_samples: int = 8
    num_clips: int = 16
    num_tokens: int = 6
    d_v: int = 32
    d_t: int = 32
    d_a: int | None = None
    clip_len: float = 2.0
    min_moment: float = 4.0
    max_moment: float = 8.0
    noise: float = 0.1

    def validate(self) -> None:
        if self.num_clips < 2:
            raise ConfigError(f"need at least 2 clips, got {self.num_clips}")
        if self.num_samples < 1:
            raise ConfigError("num_samples must be positive")
        if self.num_tokens < 1:
            raise ConfigError("num_tokens must be positive")
        if min(self.d_v, self.d_t, 1 if self.d_a is None else self.d_a) < 1:
            raise ConfigError(
                f"feature widths must be positive, got d_v={self.d_v} d_t={self.d_t} d_a={self.d_a}"
            )
        if self.min_moment > self.max_moment or self.max_moment <= 0:
            raise ConfigError(
                f"empty moment length range [{self.min_moment}, {self.max_moment}]"
            )
        if self.min_moment > (self.num_clips - 1) * self.clip_len:
            raise ConfigError("min_moment leaves no clip outside the window")
        if self.noise < 0:
            raise ConfigError("noise must be non-negative")


def _saliency_base(i: int, start_clip: int, width_clips: int, clip_len: float) -> int:
    """Inside clips rate 4 near the window center, decaying to 2 at the edges."""
    clip_center = (i + 0.5) * clip_len
    win_center = (start_clip + width_clips / 2.0) * clip_len
    half_width = width_clips * clip_len / 2.0
    rel = abs(clip_center - win_center) / half_width
    return 4 if rel <= 0.5 else 2


def synth_generate(config: SynthConfig, seed: int) -> Dataset:
    """Deterministic synthetic dataset with one planted moment per sample.

    Clips inside the window carry a projection of the query centroid plus
    sigma-scaled noise; outside clips are unit-scale noise. Ratings come
    from a distance-decayed base (4 near the center, 2 at the edges, 0 or
    1 outside) shifted per annotator by -1, 0, or +1 and clamped to 0..4.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    d_t, d_v = config.d_t, config.d_v
    proj_v = rng.standard_normal((d_v, d_t)) / math.sqrt(d_t)
    proj_a = (
        rng.standard_normal((config.d_a, d_t)) / math.sqrt(d_t)
        if config.d_a is not None
        else None
    )
    cl = config.clip_len
    L = config.num_clips
    ds = Dataset()
    for i in range(config.num_samples):
        centroid = rng.standard_normal(d_t)
        moment_sec = rng.uniform(config.min_moment, config.max_moment)
        width_clips = int(np.clip(round(moment_sec / cl), 1, L - 1))
        start_clip = int(rng.integers(0, L - width_clips + 1))
        window = (start_clip * cl, (start_clip + width_clips) * cl)
        inside = np.zeros(L, dtype=bool)
        inside[start_clip : start_clip + width_clips] = True

        signal_v = proj_v @ centroid
        visual = rng.standard_normal((L, d_v))
        visual[inside] = signal_v + config.noise * rng.standard_normal((width_clips, d_v))
        audio = None
        if proj_a is not None:
            signal_a = proj_a @ centroid
            audio = rng.standard_normal((L, config.d_a))
            audio[inside] = signal_a + config.noise * rng.standard_normal(
                (width_clips, config.d_a)
            )
        text = centroid + 0.5 * config.noise * rng.standard_normal((config.num_tokens, d_t))

        biases = rng.integers(-1, 2, size=3)
        ratings = []
        for c in range(L):
            if inside[c]:
                base = _saliency_base(c, start_clip, width_clips, cl)
            else:
                base = int(rng.integers(0, 2))
            ratings.append(tuple(int(np.clip(base + b, 0, 4)) for b in biases))

        sample = QuerySample(
            qid=i,
            vid=f"synth{i:04d}",
            query_text=f"synthetic moment query {i}",
            duration=L * cl,
            clip_len=cl,
            relevant_windows=(window,),
            saliency=tuple(ratings),
        )
        bundle = FeatureBundle(
            visual=visual.astype(np.float32).astype(np.float64),
            text=text.astype(np.float32).astype(np.float64),
            audio=audio.astype(np.float32).astype(np.float64) if audio is not None else None,
        )
        ds.samples.append((sample, bundle))
    return ds
