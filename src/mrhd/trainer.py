"""End-to-end assembly: config, forward pass, the Adam loop, checkpoints,
prediction emission, and the alignment-weight sweep.

The forward pass threads a batch through every stage in a fixed order:
feature projection, cross-modal refinement, joint fusion, highlight
scoring, score-conditioned re-encoding, moment decoding, the GRU hand-back
that refines the highlight scores with the top retrieved span, and the
losses. Samples whose graphs have the same shapes go through as one stack
(no padding), one graph per group; the batch-contrastive term and the
means over samples consume the whole batch at once.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import align, cooperate, losses, metrics, refine
from . import tensor as T
from .data import ConfigError, Dataset, FeatureBundle, InputError, QuerySample, clip_labels
from .data import END_TOLERANCE, lists_of, read_jsonl, record_problem
from .tensor import Tensor

log = logging.getLogger(__name__)

GRAD_CLIP_NORM = 0.1
_CKPT_MAGIC = b"MRHDCKP1"
_ARRAY_KINDS = ("param", "adam_m", "adam_v")


class CheckpointFormatError(InputError):
    """Checkpoint file is malformed or inconsistent with its header."""


class PredictionFormatError(InputError):
    """A prediction file or record is malformed or does not fit its query."""


class NonFiniteOutputError(InputError):
    """The model's spans or scores for a query are not finite: its params
    overflow on the query's features."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; message carries the step and breakdown."""


# ---------------------------------------------------------------------------
# configuration


def _typed_fields(cls, raw, what: str) -> dict:
    """``raw``'s entries as keyword arguments for the dataclass ``cls``.

    Every name must be a field, and every value of a type its annotation
    allows (``int | None`` allows two): a bool is not an int, an int is taken
    for a float field (JSON writes 1.0 as 1), and a dict for a dataclass field
    is checked the same way and built.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object, got {raw!r}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    hints = get_type_hints(cls)
    out = {}
    for name, value in raw.items():
        want = get_args(hints[name]) or (hints[name],)
        if is_dataclass(want[0]) and isinstance(value, dict):
            value = want[0](**_typed_fields(want[0], value, name))
        elif float in want and type(value) is int:
            try:
                value = float(value)
            except OverflowError as e:
                raise ConfigError(f"{what} field {name!r}: {e}") from None
        if not isinstance(value, want) or (isinstance(value, bool) and bool not in want):
            names = " or ".join("None" if t is type(None) else t.__name__ for t in want)
            raise ConfigError(f"{what} field {name!r} must be {names}, got {value!r}")
        out[name] = value
    return out


@dataclass
class TrainConfig:
    """Everything a training run needs, JSON round-trippable."""

    seed: int = 0
    batch_size: int = 32
    epochs: int = 200
    learning_rate: float = 1e-4
    lambda_lg: float = 0.3
    d: int = 256
    num_queries: int = 10
    decoder_layers: int = 2
    heads: int = 4
    weights: losses.LossWeights = field(default_factory=losses.LossWeights)

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        for name, value in (
            ("learning_rate", self.learning_rate),
            ("lambda_lg", self.lambda_lg),
            *((f"weights.{k}", v) for k, v in asdict(self.weights).items()),
        ):
            if not (value >= 0.0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.d <= 0:
            raise ConfigError(f"d must be positive, got {self.d}")
        if self.heads < 1 or self.d % self.heads != 0:
            raise ConfigError(f"heads must divide d, got d={self.d} heads={self.heads}")
        if self.num_queries < 1:
            raise ConfigError("num_queries must be >= 1")
        if self.decoder_layers < 1:
            raise ConfigError("decoder_layers must be >= 1")
        for name in ("seed", "epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        cfg = cls(**_typed_fields(cls, d, "config"))
        cfg.validate()
        return cfg


def read_config(path, cls, what: str):
    """The dataclass ``cls`` from the JSON object in the UTF-8 file ``path``,
    typed by ``_typed_fields`` (not yet validated); its defaults without one."""
    if path is None:
        return cls()
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # not UTF-8, not JSON, or an int of over 4300 digits
        raise ConfigError(f"{path}: config is not valid JSON ({e})") from None
    return cls(**_typed_fields(cls, raw, what))


# ---------------------------------------------------------------------------
# model assembly


def feature_dims(dataset: Dataset) -> tuple[int, int]:
    if not dataset.samples:
        raise ConfigError("dataset is empty")
    _, bundle = dataset.samples[0]
    return bundle.effective_visual().shape[1], bundle.text.shape[1]


def init_model(
    rng: np.random.Generator, d_v: int, d_t: int, config: TrainConfig
) -> dict[str, Tensor]:
    config.validate()
    params: dict[str, Tensor] = {}
    align.init_project_params(params, rng, d_v, d_t, config.d)
    refine.init_refine_params(params, rng, config.d)
    cooperate.init_cooperate_params(
        params, rng, config.d, config.num_queries, config.decoder_layers
    )
    return params


# ---------------------------------------------------------------------------
# forward


@dataclass
class SampleLosses:
    """A group's loss pieces, graph nodes for ``batch_total``: one entry per
    sample along axis 0, the samples sitting at positions ``rows`` of the
    batch."""

    rows: tuple[int, ...]
    mom: Tensor
    high: Tensor
    local: Tensor
    pooled_v: Tensor
    pooled_t: Tensor


@dataclass
class ForwardResult:
    prediction: cooperate.MomentPrediction
    parts: SampleLosses | None = None  # train mode only


def forward(
    sample: QuerySample,
    bundle: FeatureBundle,
    params: dict[str, Tensor],
    config: TrainConfig,
    mode: str = "train",
    saliency_seed: int | None = None,
) -> ForwardResult:
    """One sample through the whole pipeline: ``forward_batch`` of a batch
    of one. Train mode returns the sample's loss pieces alongside the
    prediction, for ``batch_total`` to assemble; infer mode skips losses."""
    predictions, parts = forward_batch([(sample, bundle)], params, config, mode, saliency_seed)
    return ForwardResult(prediction=predictions[0], parts=parts[0] if parts else None)


def _group_key(sample: QuerySample, bundle: FeatureBundle, pairs) -> tuple:
    """The shapes a sample's graph depends on: features, and in train mode
    its ground-truth windows and saliency pairs."""
    key = (bundle.visual.shape, bundle.text.shape, None if bundle.audio is None else bundle.audio.shape)
    return key if pairs is None else key + (len(sample.relevant_windows), len(pairs))


def _stack(values: list):
    """One input per sample as a group's input: stacked on a new first
    axis, the sample axis, a group of one included."""
    if isinstance(values[0], FeatureBundle):
        audio = None if values[0].audio is None else _stack([b.audio for b in values])
        return FeatureBundle(_stack([b.visual for b in values]), _stack([b.text for b in values]), audio)
    return np.array(values)  # stacks as np.stack does, at less cost per call


def forward_batch(
    batch: list[tuple[QuerySample, FeatureBundle]],
    params: dict[str, Tensor],
    config: TrainConfig,
    mode: str = "train",
    saliency_seed: int | None = None,
) -> tuple[list[cooperate.MomentPrediction], list[SampleLosses]]:
    """A batch through the whole pipeline, each group of samples whose
    graphs have the same shapes (``_group_key``) as one stack.

    Returns every sample's prediction, in batch order, and in train mode
    each group's ``SampleLosses``. Reported highlight scores are always the
    moment-refined ones. ``saliency_seed`` picks the ranking-pair subsets;
    the training loop varies it per step so the 16-pair cap still covers
    every valid pair over time. The stacks give each sample the bits its
    own graph would, and ``tensor.Batch`` folds the parameters' gradients
    in batch order (rule 3 of ``tensor``).
    """
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    seed = config.seed if saliency_seed is None else saliency_seed
    pairs = [losses.saliency_pairs(s, seed) for s, _ in batch] if mode == "train" else None
    groups: dict[tuple, list[int]] = {}
    for pos, (sample, bundle) in enumerate(batch):
        groups.setdefault(_group_key(sample, bundle, None if pairs is None else pairs[pos]), []).append(pos)
    predictions: list = [None] * len(batch)
    parts, not_finite = [], []
    # The largest group first: walked last, it keeps the other groups'
    # per-sample parameter gradients held the shortest (rule 3).
    for rows in sorted(groups.values(), key=len, reverse=True):
        samples = [batch[r][0] for r in rows]
        # Finite but huge parameters can overflow anywhere in the forward
        # pass: no floating-point warning escapes it, and the finiteness
        # checks on its outputs (here and in ``predict``) judge the result.
        with T.Batch(rows), np.errstate(all="ignore"):
            v_hat, t_hat = align.project(_stack([batch[r][1] for r in rows]), params)
            v_pos = refine.add_positions(v_hat)
            a_row, a_col = refine.cross_similarity(v_pos, t_hat, params)
            f_v2q, f_q2v = refine.bidirectional_attend(a_row, a_col, v_pos, t_hat)
            f_v_bar = refine.fuse(v_pos, t_hat, f_v2q, f_q2v, params)
            joint = refine.cross_attention_fusion(f_v_bar, t_hat, params)
            h = cooperate.highlight_head(joint, params, config.heads)
            z_hat = cooperate.hd2mr(joint, h, params, config.heads)
            center_width, scores = cooperate.moment_decoder(
                z_hat, params, config.heads, config.decoder_layers
            )
            cw, sc = center_width.data, scores.data
            finite = np.isfinite(cw).all(axis=(1, 2)) & np.isfinite(sc).all(axis=1)
            if not finite.all():
                not_finite.append(rows[int(finite.argmin())])
                continue
            spans = [
                cooperate.decode_spans(Tensor(c), Tensor(s), sample.duration)
                for c, s, sample in zip(cw, sc, samples)
            ]
            h_bar = cooperate.mr2hd(
                v_hat, joint, z_hat, _stack([sp[0][:2] for sp in spans]),
                _stack([s.clip_len for s in samples]), params,
            )
            for r, sp, hb in zip(rows, spans, h_bar.data):
                predictions[r] = cooperate.MomentPrediction(spans=sp, highlight=hb.copy())
            if mode == "infer":
                continue
            gt_cw = [losses.windows_to_center_width(s.relevant_windows, s.duration) for s in samples]
            mom = losses.span_cost_and_loss(center_width, scores, _stack(gt_cw), config.weights)
            high = T.scale(
                losses.saliency_loss(h, h_bar, _stack([pairs[r] for r in rows])), config.weights.saliency
            )
            _, s_hat = align.local_similarity(v_hat, t_hat)
            local = align.local_loss(s_hat, _stack([clip_labels(s) for s in samples]))
            pooled_v, pooled_t = align.pooled_globals(v_hat, t_hat)
            parts.append(SampleLosses(tuple(rows), mom, high, local, pooled_v, pooled_t))
    if not_finite:
        qid = batch[min(not_finite)][0].qid
        raise NonFiniteOutputError(f"qid {qid}: the model's spans are not finite")
    return predictions, parts


def batch_total(
    parts: list[SampleLosses], config: TrainConfig
) -> tuple[Tensor, losses.LossBreakdown]:
    """Batch loss: per-sample means plus the batch-wide contrastive term.

    The samples take their batch order from ``SampleLosses.rows``; parts
    of separate one-sample forwards all sit at row 0 and keep the list's
    order. The only place a total is assembled; a single sample's total is
    ``batch_total([parts], config)``.
    """
    order = np.argsort([r for p in parts for r in p.rows], kind="stable")
    table = T.concat(
        [
            T.concat([T.reshape(x, (len(p.rows), 1)) for x in (p.mom, p.high, p.local)], axis=1)
            for p in parts
        ],
        axis=0,
        order=order,
    )
    # Axis 0 of the (B, 3) table sums its rows one after another: each
    # column adds the samples' terms in batch order.
    means = T.scale(T.tsum(table, axis=0), 1.0 / len(order))
    mom, high, local = (T.slice_range(means, k, k + 1, axis=0) for k in range(3))
    pooled_v = T.concat([p.pooled_v for p in parts], axis=0, order=order)
    pooled_t = T.concat([p.pooled_t for p in parts], axis=0, order=order)
    glob = align.global_loss(pooled_v, pooled_t)
    return losses.total_loss(mom, high, local, glob, config.lambda_lg)


def _without_grad(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """The same arrays as params that need no grad: the kernels then record
    no parents or backward closures, so a forward pass builds no graph."""
    return {name: Tensor(p.data) for name, p in params.items()}


def dataset_breakdown(
    params: dict[str, Tensor], config: TrainConfig, dataset: Dataset
) -> losses.LossBreakdown:
    """Loss over the whole dataset treated as a single batch (no updates).
    Builds no graph: nothing calls backward on this loss."""
    _, parts = forward_batch(dataset.samples, _without_grad(params), config, "train")
    _, breakdown = batch_total(parts, config)
    return breakdown


# ---------------------------------------------------------------------------
# optimizer


def zero_grad(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for name in sorted(params):
        g = params[name].grad
        if g is not None:
            total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


def learning_rate_at(step: int, total_steps: int, base: float) -> float:
    """Step size for ``step`` (0-based) of a ``total_steps`` run.

    A linear warm-up over the first tenth of the run, then ``base`` up to
    two thirds of it, then a tenth of ``base`` (DETR's 10x drop at epoch
    200 of 300). At a constant step size the set-prediction losses never
    settle: the matched spans keep swinging by seconds from step to step,
    so the returned weights depend on where in that swing the run stops.
    The warm-up guards the first steps, where Adam moves every parameter
    by about the full step size whatever its gradient; one such step can
    push the span head's sigmoid so far into saturation that it never
    recovers.
    """
    lr = base * min(1.0, 10 * (step + 1) / total_steps)
    return lr if 3 * step < 2 * total_steps else 0.1 * lr


class Adam:
    """Plain Adam with bias correction; moments keyed like the params."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, params: dict[str, Tensor]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name in sorted(params):
            p = params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            p.data = p.data - self.learning_rate * (self.m[name] / bc1) / (
                np.sqrt(self.v[name] / bc2) + self.eps
            )


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    params: dict[str, Tensor]
    config: TrainConfig
    step: int
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int = 0


@contextmanager
def replacing(path, mode: str, **kwargs):
    """Write through a temp file beside ``path`` that replaces it only once
    fully written and synced, so an interrupted write leaves the old file
    or none, never a partial one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Single file: magic, u64 header length, JSON header, float64 blobs."""
    arrays: list[tuple[str, str, np.ndarray]] = []
    for name in sorted(ckpt.params):
        arrays.append((name, "param", ckpt.params[name].data))
    for name in sorted(ckpt.adam_m):
        arrays.append((name, "adam_m", ckpt.adam_m[name]))
    for name in sorted(ckpt.adam_v):
        arrays.append((name, "adam_v", ckpt.adam_v[name]))
    header = {
        "config": ckpt.config.to_dict(),
        "step": ckpt.step,
        "adam_t": ckpt.adam_t,
        "arrays": [
            {"name": n, "kind": k, "shape": list(a.shape)} for n, k, a in arrays
        ],
    }
    blob = json.dumps(header).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _param_shapes(config: TrainConfig, params: dict[str, np.ndarray], path) -> dict[str, tuple]:
    """Shapes of the params ``init_model`` makes for ``config`` and the input
    widths of the stored first layers (``params``). The model is built, so a
    config that needs more numbers than ``params`` hold is refused first:
    each transformer block, the shared one and every decoder layer, has at
    least its four d x d attention projections."""
    held = sum(a.size for a in params.values())
    if 4 * config.d**2 * (1 + config.decoder_layers) + config.num_queries * config.d > held:
        raise CheckpointFormatError(
            f"{path}: the config's model (d={config.d}, {config.decoder_layers} decoder"
            f" layers, {config.num_queries} queries) has more numbers than the {held} stored"
        )
    d_v, d_t = (
        params[n].shape[0] if n in params and params[n].ndim == 2 else 1
        for n in ("proj_v.l0.w", "proj_t.l0.w")
    )
    model = init_model(np.random.default_rng(0), d_v, d_t, config)
    return {name: p.shape for name, p in model.items()}


def _check_header(header, path) -> None:
    """Refuse a header whose keys, counts or array entries are not the ones
    ``save_checkpoint`` writes, before any array is read."""
    if not isinstance(header, dict):
        raise CheckpointFormatError(f"{path}: header is not a JSON object")
    missing = [k for k in ("config", "step", "adam_t", "arrays") if k not in header]
    if missing:
        raise CheckpointFormatError(f"{path}: header lacks {missing}")
    for key in ("step", "adam_t"):
        value = header[key]
        if type(value) is not int or value < 0:
            raise CheckpointFormatError(f"{path}: {key} must be a count, got {value!r}")
    if not isinstance(header["arrays"], list):
        raise CheckpointFormatError(f"{path}: arrays must be a list")
    for entry in header["arrays"]:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])
        ):
            raise CheckpointFormatError(f"{path}: bad array entry {entry!r}")
        if entry.get("kind") not in _ARRAY_KINDS:
            raise CheckpointFormatError(
                f"{path}: array {entry['name']} has unknown kind {entry.get('kind')!r}"
            )


def load_checkpoint(path) -> Checkpoint:
    """Read a ``save_checkpoint`` file. Each array is read from the file
    into its own buffer, so a load holds the checkpoint once."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        off = len(_CKPT_MAGIC) + 8
        head = fh.read(off)
        if len(head) < off or head[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
            raise CheckpointFormatError(f"{path}: not a checkpoint file")
        (hlen,) = struct.unpack_from("<Q", head, len(_CKPT_MAGIC))
        if off + hlen > size:
            raise CheckpointFormatError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as e:  # not UTF-8, not JSON, or an int of over 4300 digits
            raise CheckpointFormatError(f"{path}: bad header: {e}") from None
        off += hlen
        _check_header(header, path)
        config = TrainConfig.from_dict(header["config"])
        stores = {kind: {} for kind in _ARRAY_KINDS}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = math.prod(shape)
            if off + 8 * count > size:
                raise CheckpointFormatError(f"{path}: truncated blob for {entry['name']}")
            arr = np.fromfile(fh, dtype="<f8", count=count)
            stores[entry["kind"]][entry["name"]] = arr.reshape(shape)
            off += 8 * count
    if off != size:
        raise CheckpointFormatError(f"{path}: {size - off} trailing bytes")
    shapes = _param_shapes(config, stores["param"], path)
    missing = shapes.keys() - stores["param"].keys()
    if missing:
        raise CheckpointFormatError(f"{path}: no arrays for params {sorted(missing)}")
    for kind, arrays in stores.items():
        for name, arr in sorted(arrays.items()):
            if name not in shapes:
                raise CheckpointFormatError(
                    f"{path}: {kind} array {name} is not a param of the model"
                )
            if arr.shape != shapes[name]:
                raise CheckpointFormatError(
                    f"{path}: {kind} array {name} has shape {list(arr.shape)},"
                    f" the model needs {list(shapes[name])}"
                )
            if not np.isfinite(arr).all():
                raise CheckpointFormatError(f"{path}: {kind} array {name} holds non-finite values")
    params = {
        name: Tensor(arr, requires_grad=True) for name, arr in stores["param"].items()
    }
    return Checkpoint(
        params=params,
        config=config,
        step=header["step"],
        adam_m=stores["adam_m"],
        adam_v=stores["adam_v"],
        adam_t=header["adam_t"],
    )


# ---------------------------------------------------------------------------
# training loop


def train(config: TrainConfig, dataset: Dataset) -> Checkpoint:
    """Seeded full training run; deterministic for a fixed config.

    Each step clips the global gradient norm to ``GRAD_CLIP_NORM`` and
    takes an Adam step whose size ``learning_rate_at`` derives from
    ``config.learning_rate`` and the run length, ``epochs`` x batches.
    ``feature_dims`` and ``init_model`` refuse an empty dataset or a bad config.
    """
    rng = np.random.default_rng(config.seed)
    d_v, d_t = feature_dims(dataset)
    params = init_model(rng, d_v, d_t, config)
    opt = Adam(params, config.learning_rate)

    n = len(dataset.samples)
    total_steps = config.epochs * math.ceil(n / config.batch_size)
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_total = 0.0
        batches = 0
        for start in range(0, n, config.batch_size):
            chosen = order[start : start + config.batch_size]
            zero_grad(params)
            _, parts = forward_batch(
                [dataset.samples[i] for i in chosen], params, config, "train",
                saliency_seed=config.seed + step,
            )
            total, breakdown = batch_total(parts, config)
            if not math.isfinite(breakdown.total):
                raise TrainingDivergedError(
                    f"non-finite loss at step {step}: {breakdown}"
                )
            total.backward()
            clip_gradients(params, GRAD_CLIP_NORM)
            opt.learning_rate = learning_rate_at(step, total_steps, config.learning_rate)
            opt.step(params)
            step += 1
            epoch_total += breakdown.total
            batches += 1
        log.info("epoch %d: mean batch loss %.6f", epoch, epoch_total / max(batches, 1))
    return Checkpoint(
        params=params, config=config, step=step, adam_m=opt.m, adam_v=opt.v, adam_t=opt.t
    )


# ---------------------------------------------------------------------------
# prediction and evaluation


def _check_dims(ckpt: Checkpoint, dataset: Dataset) -> None:
    d_v, d_t = feature_dims(dataset)
    want_v = ckpt.params["proj_v.l0.w"].shape[0]
    want_t = ckpt.params["proj_t.l0.w"].shape[0]
    if (d_v, d_t) != (want_v, want_t):
        raise ConfigError(
            f"feature dims ({d_v}, {d_t}) do not match checkpoint ({want_v}, {want_t})"
        )


def predict(ckpt: Checkpoint, dataset: Dataset, out_path=None) -> list[dict]:
    """Emit one JSON record per query; also write JSON-Lines when asked."""
    _check_dims(ckpt, dataset)
    params = _without_grad(ckpt.params)
    records = []
    for sample, bundle in dataset.samples:
        res = forward(sample, bundle, params, ckpt.config, mode="infer")
        if not np.isfinite(res.prediction.highlight).all():
            raise NonFiniteOutputError(
                f"qid {sample.qid}: the model's highlight scores are not finite"
            )
        records.append(
            {
                "qid": sample.qid,
                "pred_relevant_windows": [
                    [float(s), float(e), float(c)] for s, e, c in res.prediction.spans
                ],
                "pred_saliency_scores": [float(x) for x in res.prediction.highlight],
            }
        )
    if out_path is not None:
        with replacing(out_path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    return records


# Each prediction record field with its check, as in ``data._RECORD_FIELDS``.
_PREDICTION_FIELDS = (
    ("qid", lambda x: type(x) is int, "an int"),
    (
        "pred_relevant_windows",
        lambda x: lists_of(x, {int, float}) and set(map(len, x)) <= {3},
        "a list of [start, end, score] numbers",
    ),
    (
        "pred_saliency_scores",
        lambda x: type(x) is list and set(map(type, x)) <= {int, float},
        "a list of numbers",
    ),
)


def read_predictions(path) -> list[dict]:
    """Parse a ``predict`` JSON-Lines file; a line that is not a prediction
    record raises ``PredictionFormatError`` naming the file and the line."""
    records = []
    for lineno, rec in read_jsonl(path, PredictionFormatError):
        problem = record_problem(rec, _PREDICTION_FIELDS)
        if problem:
            raise PredictionFormatError(f"{path} line {lineno}: {problem}")
        records.append(rec)
    return records


def evaluate_checkpoint(ckpt: Checkpoint, dataset: Dataset) -> metrics.EvalReport:
    return evaluate_predictions(predict(ckpt, dataset), dataset)


def _prediction_arrays(rec: dict, sample: QuerySample) -> tuple[np.ndarray, np.ndarray]:
    """A record's spans as a (P, 3) array and its saliency as one value per
    clip, refused with the qid unless every value is finite, there is a
    span, and each lies inside the video with start <= end."""
    where = f"prediction for qid {sample.qid}"
    try:
        spans = np.asarray(rec["pred_relevant_windows"], dtype=np.float64)
        saliency = np.asarray(rec["pred_saliency_scores"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:  # OverflowError: an int too large
        raise PredictionFormatError(f"{where}: {e}") from None
    if spans.size == 0:
        raise PredictionFormatError(f"{where}: no spans")
    if spans.ndim != 2 or spans.shape[1] != 3 or not np.isfinite(spans).all():
        raise PredictionFormatError(f"{where}: spans must be finite [start, end, score] triples")
    start, end = spans[:, 0], spans[:, 1]
    outside = (start < 0.0) | (end < start) | (end > sample.duration + END_TOLERANCE)
    if outside.any():
        bad = spans[int(outside.argmax())]
        raise PredictionFormatError(
            f"{where}: span [{bad[0]}, {bad[1]}] outside 0 <= start <= end <= {sample.duration}"
        )
    if saliency.shape != (len(sample.saliency),) or not np.isfinite(saliency).all():
        raise PredictionFormatError(
            f"{where}: saliency must be one finite value per clip ({len(sample.saliency)} clips)"
        )
    return spans, saliency


def evaluate_predictions(records: list[dict], dataset: Dataset) -> metrics.EvalReport:
    """Score exactly one record per dataset query; a partial or repeated
    record list would report metrics over some other query set. Each
    record is checked here, once, so the metrics see clean arrays."""
    by_qid = {sample.qid: sample for sample, _ in dataset.samples}
    if not by_qid:
        raise ConfigError("dataset is empty")
    results = []
    for rec in records:
        if rec["qid"] not in by_qid:
            raise ConfigError(f"prediction qid {rec['qid']} not in dataset")
        sample = by_qid[rec["qid"]]
        results.append((sample, *_prediction_arrays(rec, sample)))
    counts = Counter(rec["qid"] for rec in records)
    missing = sorted(by_qid.keys() - counts.keys())
    duplicated = sorted(qid for qid, n in counts.items() if n > 1)
    if missing or duplicated:
        raise ConfigError(
            f"predictions must cover every dataset qid once: missing qids {missing},"
            f" duplicated qids {duplicated}"
        )
    return metrics.evaluate(results)


# ---------------------------------------------------------------------------
# lambda sweep


def sweep_lambda(
    config: TrainConfig,
    values: list[float],
    dataset: Dataset,
    eval_dataset: Dataset | None = None,
) -> list[dict]:
    """Train one model per alignment weight (same seed) and tabulate metrics.

    Each row records the trained model's evaluation report plus the
    alignment term's contribution to the final whole-set loss, which is an
    exact zero when the weight is zero.
    """
    for v in values:
        if not (math.isfinite(v) and v >= 0):
            raise ConfigError(f"sweep values must be finite and >= 0, got {v}")
    rows = []
    for v in values:
        cfg = replace(config, lambda_lg=float(v))
        ckpt = train(cfg, dataset)
        breakdown = dataset_breakdown(ckpt.params, cfg, dataset)
        report = evaluate_checkpoint(ckpt, eval_dataset if eval_dataset is not None else dataset)
        rows.append(
            {
                "lambda_lg": float(v),
                "align_loss": breakdown.lambda_lg * (breakdown.local + breakdown.global_),
                "report": report.to_dict(),
            }
        )
    return rows
