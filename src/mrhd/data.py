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
from itertools import chain
from pathlib import Path

import numpy as np


class InputError(ValueError):
    """Base of every error that an unusable input causes (exit code 1)."""


class FeatureFormatError(InputError):
    """A feature file is malformed: bad magic, bad header, or short payload."""


class ValidationError(InputError):
    """An annotation record violates the schema invariants."""


class DatasetLoadError(InputError):
    """A referenced feature file is missing or unreadable."""


class ConfigError(InputError):
    """A config, a command-line value or a dataset is unusable (e.g. empty)."""


_MAGIC = b"FEATB1\x00\x00"
_MAX_ELEMENTS = 1 << 30
# A window or a predicted span may end this far past the video.
END_TOLERANCE = 1e-9


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
        return np.concatenate([self.visual, self.audio], axis=-1)


@dataclass
class Dataset:
    samples: list[tuple[QuerySample, FeatureBundle]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)


# ---------------------------------------------------------------------------
# binary feature files


def _feature_payload(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as the float32 rows a feature file holds, refused unless
    it is 2-D and every value stays finite at that precision."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise FeatureFormatError(f"feature matrices are 2-D, got shape {arr.shape}")
    with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf
        payload = arr.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise FeatureFormatError("refusing to write non-finite features")
    return payload


def write_features(path, matrix: np.ndarray) -> None:
    """Write a 2-D float matrix: 8-byte magic, LE uint32 rows/cols, LE float32 data."""
    payload = _feature_payload(matrix)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", payload.shape[0], payload.shape[1]))
        fh.write(payload.tobytes(order="C"))


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
    if not (0 < s.duration < math.inf and 0 < s.clip_len < math.inf):
        raise ValidationError(f"{where}: duration and clip_len must be positive and finite")
    if s.duration / s.clip_len > _MAX_ELEMENTS:
        raise ValidationError(f"{where}: duration / clip_len is over 2**30 clips")
    if not s.relevant_windows:
        raise ValidationError(f"{where}: relevant_windows is empty")
    for w in s.relevant_windows:
        if len(w) != 2:
            raise ValidationError(f"{where}: windows are [start, end] pairs, got {w}")
        start, end = w
        if not start < end:
            raise ValidationError(f"{where}: start < end violated by window [{start}, {end}]")
        if start < 0 or end > s.duration + END_TOLERANCE:
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


def _is_number(x) -> bool:
    return type(x) in (int, float)


def lists_of(x, types: set) -> bool:
    """Whether ``x`` is a list of lists of items whose types are in ``types``
    (C-level set tests, not a Python call per item)."""
    return (
        type(x) is list
        and set(map(type, x)) <= {list}
        and set(map(type, chain.from_iterable(x))) <= types
    )


# Each record field with the check its JSON value must pass: no value is
# coerced, so a bool or a float is not read as an int.
_RECORD_FIELDS = (
    ("qid", lambda x: type(x) is int, "an int"),
    ("vid", lambda x: type(x) is str, "a string"),
    ("query", lambda x: type(x) is str, "a string"),
    ("duration", _is_number, "a number"),
    ("clip_len", _is_number, "a number"),
    ("relevant_windows", lambda x: lists_of(x, {int, float}), "a list of [start, end] numbers"),
    ("saliency_scores", lambda x: lists_of(x, {int}), "a list of int lists"),
)


def record_problem(rec, fields) -> str | None:
    """What keeps the parsed JSON value ``rec`` from being a record whose
    every field passes its check in ``fields``, a table of (key, check,
    kind) triples; None when nothing does."""
    if not isinstance(rec, dict):
        return f"expected a JSON object, got {type(rec).__name__}"
    for key, check, kind in fields:
        if key not in rec:
            return f"malformed record (missing {key!r})"
        if not check(rec[key]):
            return f"{key} must be {kind}, got {rec[key]!r}"
    return None


def read_jsonl(path, error):
    """(line number, parsed value) for each non-blank line of the UTF-8
    JSON-Lines file ``path``; text that is not UTF-8 or a line that is not
    JSON raises ``error`` naming the file (and the line)."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    try:
                        value = json.loads(line)
                    except ValueError as exc:  # also an int of over 4300 digits
                        raise error(f"{path} line {lineno}: invalid JSON ({exc})") from None
                    yield lineno, value
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc})") from None


def _sample_from_record(rec, where: str) -> QuerySample:
    problem = record_problem(rec, _RECORD_FIELDS)
    if problem:
        raise ValidationError(f"{where}: {problem}")
    try:
        sample = QuerySample(
            qid=rec["qid"],
            vid=rec["vid"],
            query_text=rec["query"],
            duration=float(rec["duration"]),
            clip_len=float(rec["clip_len"]),
            relevant_windows=tuple(tuple(map(float, w)) for w in rec["relevant_windows"]),
            saliency=tuple(map(tuple, rec["saliency_scores"])),
        )
    except OverflowError as exc:  # an int too large for a float
        raise ValidationError(f"{where}: {exc}") from None
    _validate_sample(sample, where)
    return sample


def load_annotations(path) -> list[QuerySample]:
    """Parse a JSON-Lines annotations file, validating each record."""
    samples = []
    seen_qids: set[int] = set()
    for lineno, rec in read_jsonl(path, ValidationError):
        where = f"{path} line {lineno}"
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
    first_widths: dict[str, int | None] = {}
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
        named = (("visual", vpath, visual), ("text", tpath, text), ("audio", apath, audio))
        for name, path, arr in named:
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValidationError(f"{where}: non-finite values in {name} features")
            # the model's input widths come from the first sample
            width = None if arr is None else arr.shape[1]
            first = first_widths.setdefault(name, width)
            if width != first:
                raise ValidationError(
                    f"{where}: {name} features at {path} have width {width or 'none (no file)'}, "
                    f"the first sample's have width {first or 'none (no file)'}"
                )
        ds.samples.append((sample, FeatureBundle(visual=visual, text=text, audio=audio)))
    return ds


def write_dataset(ds: Dataset, out_dir) -> None:
    """Persist a dataset as annotations.jsonl plus per-id feature files.

    Every feature matrix is cast and checked before any file is written, so
    a matrix that cannot be written leaves no partial dataset behind.
    """
    out_dir = Path(out_dir)
    features: list[tuple[str, np.ndarray]] = []  # file name and payload, in writing order
    written_vids: set[str] = set()
    for sample, bundle in ds.samples:
        if sample.vid not in written_vids:
            features.append((f"{sample.vid}.vfeat", _feature_payload(bundle.visual)))
            if bundle.audio is not None:
                features.append((f"{sample.vid}.afeat", _feature_payload(bundle.audio)))
            written_vids.add(sample.vid)
        features.append((f"{sample.qid}.tfeat", _feature_payload(bundle.text)))
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
    for name, payload in features:
        write_features(out_dir / name, payload)


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
        for name in ("clip_len", "min_moment", "max_moment", "noise"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.clip_len == 0.0:
            raise ConfigError("clip_len must be positive, got 0.0")
        if self.num_clips > _MAX_ELEMENTS:  # before it meets a float
            raise ConfigError(f"num_clips must be at most {_MAX_ELEMENTS}, got {self.num_clips}")
        if not math.isfinite(self.num_clips * self.clip_len + self.max_moment / self.clip_len):
            raise ConfigError(f"clip_len must give a finite duration and clips per moment, got {self.clip_len}")
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

        biases = rng.integers(-1, 2, size=3).tolist()
        ratings = []
        for c in range(L):
            if inside[c]:
                base = _saliency_base(c, start_clip, width_clips, cl)
            else:
                base = int(rng.integers(0, 2))
            ratings.append(tuple(min(max(base + b, 0), 4) for b in biases))

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
